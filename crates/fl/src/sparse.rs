//! Sparsified gradient representation and selection policies.
//!
//! Clients encode their local model delta as `(index, value)` pairs
//! (Section 2.1). Top-k keeps the k largest-magnitude coordinates — the
//! standard, *data-dependent* policy whose index set the paper's attack
//! exploits; random-k is the data-independent alternative (ref. 24) that
//! leaks nothing by construction; threshold keeps everything above a
//! magnitude cutoff (variable k, ref. 65).

use rand::Rng;

/// A sparsified gradient: `k` of `d` coordinates as parallel index/value
/// arrays, sorted by index.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseGradient {
    /// Dense dimension d.
    pub dense_dim: usize,
    /// Kept coordinate indices (strictly increasing).
    pub indices: Vec<u32>,
    /// Values aligned with `indices`.
    pub values: Vec<f32>,
}

/// Sparsification policy (the paper's `TopkSparse` plus the alternatives
/// discussed in Sections 2.1 and 3.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sparsifier {
    /// Keep the k largest-|value| coordinates (data-dependent, leaky).
    TopK(usize),
    /// Keep k uniformly random coordinates (data-independent: the index
    /// set is uncorrelated with training data, so index leakage is
    /// harmless — the paper's Section 3.3 "random-k involves no risk").
    RandomK(usize),
    /// Keep coordinates with |value| ≥ threshold.
    Threshold(f32),
}

impl SparseGradient {
    /// Number of transmitted coordinates k.
    pub fn k(&self) -> usize {
        self.indices.len()
    }

    /// Applies a sparsification policy to a dense vector.
    pub fn from_dense<R: Rng>(dense: &[f32], policy: Sparsifier, rng: &mut R) -> Self {
        let d = dense.len();
        let mut idxs: Vec<u32> = match policy {
            Sparsifier::TopK(k) => {
                let k = k.min(d);
                let mut order: Vec<u32> = (0..d as u32).collect();
                // Partial selection by |value| descending: O(d + k log k).
                if k > 0 {
                    order.select_nth_unstable_by(k - 1, |&a, &b| {
                        dense[b as usize].abs().total_cmp(&dense[a as usize].abs())
                    });
                }
                order.truncate(k);
                order
            }
            Sparsifier::RandomK(k) => {
                let k = k.min(d);
                // Partial Fisher–Yates over the index range.
                let mut order: Vec<u32> = (0..d as u32).collect();
                for t in 0..k {
                    let j = rng.gen_range(t..d);
                    order.swap(t, j);
                }
                order.truncate(k);
                order
            }
            Sparsifier::Threshold(t) => {
                (0..d as u32).filter(|&i| dense[i as usize].abs() >= t).collect()
            }
        };
        idxs.sort_unstable();
        let values = idxs.iter().map(|&i| dense[i as usize]).collect();
        SparseGradient { dense_dim: d, indices: idxs, values }
    }

    /// Densifies back to `d` coordinates (zeros elsewhere).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_dim];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
        out
    }

    /// ℓ2 norm of the kept values.
    pub fn l2_norm(&self) -> f32 {
        olive_dp::l2_norm(&self.values)
    }

    /// Scales all values in place (used for clipping).
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Clips the value vector to ℓ2 norm at most `c` (Algorithm 6 line 22;
    /// with sparsification only the k kept values contribute to the norm —
    /// the utility observation of Appendix D.2).
    pub fn clip_l2(&mut self, c: f32) {
        let norm = self.l2_norm();
        if norm > c {
            self.scale(c / norm);
        }
    }

    /// Serializes to the wire format the client encrypts:
    /// `d:u32 ‖ k:u32 ‖ (index:u32 ‖ value:f32-bits)×k`, little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.k() * 8);
        out.extend_from_slice(&(self.dense_dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.k() as u32).to_le_bytes());
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    /// Parses the wire format. Returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let d = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let k = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        if bytes.len() != 8 + k * 8 {
            return None;
        }
        let mut indices = Vec::with_capacity(k);
        let mut values = Vec::with_capacity(k);
        for c in 0..k {
            let off = 8 + c * 8;
            let i = u32::from_le_bytes(bytes[off..off + 4].try_into().ok()?);
            if i as usize >= d {
                return None;
            }
            indices.push(i);
            values
                .push(f32::from_bits(u32::from_le_bytes(bytes[off + 4..off + 8].try_into().ok()?)));
        }
        Some(SparseGradient { dense_dim: d, indices, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let dense = vec![0.1f32, -5.0, 0.0, 3.0, -0.2, 4.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(3), &mut rng());
        assert_eq!(sg.indices, vec![1, 3, 5]);
        assert_eq!(sg.values, vec![-5.0, 3.0, 4.0]);
    }

    #[test]
    fn topk_k_larger_than_d() {
        let dense = vec![1.0f32, 2.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(10), &mut rng());
        assert_eq!(sg.k(), 2);
    }

    #[test]
    fn empty_input_and_zero_k_give_the_empty_gradient() {
        let policies = [Sparsifier::TopK(3), Sparsifier::RandomK(3), Sparsifier::Threshold(0.5)];
        for policy in policies.into_iter().chain([Sparsifier::TopK(0), Sparsifier::RandomK(0)]) {
            let sg = SparseGradient::from_dense(&[], policy, &mut rng());
            assert_eq!((sg.dense_dim, sg.k()), (0, 0), "{policy:?} on the empty vector");
        }
        let sg = SparseGradient::from_dense(&[1.0, -2.0], Sparsifier::TopK(0), &mut rng());
        assert_eq!((sg.dense_dim, sg.k()), (2, 0));
    }

    #[test]
    fn random_k_distinct_sorted_indices() {
        let dense = vec![1.0f32; 100];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::RandomK(10), &mut rng());
        assert_eq!(sg.k(), 10);
        for w in sg.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn random_k_is_data_independent() {
        // Identical RNG streams → identical index sets for different data.
        let a = SparseGradient::from_dense(&[1.0f32; 50], Sparsifier::RandomK(5), &mut rng());
        let data_b: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let b = SparseGradient::from_dense(&data_b, Sparsifier::RandomK(5), &mut rng());
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn threshold_policy() {
        let dense = vec![0.1f32, -2.0, 0.5, 3.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::Threshold(0.5), &mut rng());
        assert_eq!(sg.indices, vec![1, 2, 3]);
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0.0f32, -1.5, 0.0, 2.5, 0.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(2), &mut rng());
        assert_eq!(sg.to_dense(), dense);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dense = vec![0.5f32, -1.5, 0.0, 2.5];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(3), &mut rng());
        let bytes = sg.encode();
        assert_eq!(SparseGradient::decode(&bytes).unwrap(), sg);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(SparseGradient::decode(&[]).is_none());
        assert!(SparseGradient::decode(&[0; 7]).is_none());
        // k claims more cells than present.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]); // only one cell
        assert!(SparseGradient::decode(&bytes).is_none());
        // Index out of range.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
        assert!(SparseGradient::decode(&bytes).is_none());
    }

    #[test]
    fn clip_bounds_norm() {
        let mut sg = SparseGradient { dense_dim: 4, indices: vec![0, 1], values: vec![3.0, 4.0] };
        sg.clip_l2(1.0);
        assert!((sg.l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn topk_index_set_correlates_with_data() {
        // The heart of the attack: two different "clients" (dense vectors
        // with energy in different coordinate blocks) produce disjoint
        // top-k index sets.
        let mut a = vec![0.01f32; 100];
        let mut b = vec![0.01f32; 100];
        for i in 0..10 {
            a[i] = 1.0 + i as f32;
            b[50 + i] = 1.0 + i as f32;
        }
        let sa = SparseGradient::from_dense(&a, Sparsifier::TopK(10), &mut rng());
        let sb = SparseGradient::from_dense(&b, Sparsifier::TopK(10), &mut rng());
        assert!(sa.indices.iter().all(|i| *i < 10));
        assert!(sb.indices.iter().all(|i| *i >= 50 && *i < 60));
    }
}
