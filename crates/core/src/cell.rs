//! The 8-byte gradient cell: `(index: u32) ∥ (value: f32)` packed in a u64.
//!
//! This is the unit of Section 5.5's memory-size arithmetic ("each cell of
//! gradient is 8 bytes — 32-bit unsigned integer for index and 32-bit
//! floating point for value") and the element type the oblivious sort
//! moves with single-word `o_swap`s. Packing the index into the high half
//! makes "sort by index" equal "sort by the raw u64" (value bits only
//! break ties between equal indices, which aggregation is insensitive to).

/// The dummy index `M₀` written by oblivious folding (Algorithm 4 line 12):
/// a "very large integer" that sorts behind every real index.
pub const DUMMY_INDEX: u32 = u32::MAX;

/// Packs `(index, value)` into a cell.
#[inline(always)]
pub fn make_cell(index: u32, value: f32) -> u64 {
    ((index as u64) << 32) | value.to_bits() as u64
}

/// The index half.
#[inline(always)]
pub fn cell_index(cell: u64) -> u32 {
    (cell >> 32) as u32
}

/// The value half.
#[inline(always)]
pub fn cell_value(cell: u64) -> f32 {
    f32::from_bits(cell as u32)
}

/// A dummy cell (`M₀`, 0.0).
#[inline(always)]
pub fn dummy_cell() -> u64 {
    make_cell(DUMMY_INDEX, 0.0)
}

/// Appends one update's cells to `out`, in upload order.
pub(crate) fn push_cells(out: &mut Vec<u64>, u: &olive_fl::SparseGradient) {
    out.extend(u.indices.iter().zip(&u.values).map(|(&i, &v)| make_cell(i, v)));
}

/// Flattens sparse updates into the concatenated cell buffer `G`
/// (Algorithm 3/4 input: `g = g₁ ∥ … ∥ gₙ`, nk cells).
pub fn concat_cells(updates: &[olive_fl::SparseGradient]) -> Vec<u64> {
    let total: usize = updates.iter().map(|u| u.k()).sum();
    let mut out = Vec::with_capacity(total);
    for u in updates {
        push_cells(&mut out, u);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack() {
        let c = make_cell(12345, -2.5);
        assert_eq!(cell_index(c), 12345);
        assert_eq!(cell_value(c), -2.5);
    }

    #[test]
    fn index_major_ordering() {
        // Sorting raw u64 cells orders by index first.
        let lo = make_cell(3, 1.0e30);
        let hi = make_cell(4, -1.0e-30);
        assert!(lo < hi);
        assert!(make_cell(5, 0.0) < dummy_cell());
    }

    #[test]
    fn dummy_sorts_last() {
        let mut cells = [dummy_cell(), make_cell(0, 1.0), make_cell(u32::MAX - 1, 1.0)];
        cells.sort_unstable();
        assert_eq!(cell_index(cells[2]), DUMMY_INDEX);
    }

    #[test]
    fn concat_preserves_order() {
        use olive_fl::SparseGradient;
        let a = SparseGradient { dense_dim: 8, indices: vec![1, 3], values: vec![0.5, 1.5] };
        let b = SparseGradient { dense_dim: 8, indices: vec![0], values: vec![-1.0] };
        let cells = concat_cells(&[a, b]);
        assert_eq!(cells.len(), 3);
        assert_eq!(cell_index(cells[0]), 1);
        assert_eq!(cell_value(cells[2]), -1.0);
    }
}
