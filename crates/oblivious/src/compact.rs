//! Order-preserving oblivious compaction: every **marked** cell moves to
//! the front of the buffer, in the order the marked cells stood in, by a
//! fixed schedule of O(n log n) conditional swaps (Goodrich, SPAA 2011;
//! Sasy, Johnson, Goldberg, CCS 2022 — ORCompact).
//!
//! It is what step 4 of Algorithm 4 needs. After the fold the survivors
//! already stand in ascending index order among the dummies, so a second
//! sort (≈ (n/4)·log₂² n compare-exchanges) only compacts; this network
//! does that in ≈ (n/2)·log₂ n swaps, in place. A cell is marked unless
//! its high half is `u32::MAX`, Algorithm 4's dummy index `M₀` — whatever
//! its value bits, so a hostile client cell carrying `M₀` is a dummy like
//! the fold's own.
//!
//! # The canonical trace
//!
//! `cswap(i, l, b)` is `read i, read l, write i, write l` whatever the bit
//! `b`; `mark(i)` is read off the cell at `i`. The trace of a compaction
//! of `n` cells is `compact(0, n)`:
//!
//! ```text
//! compact(lo, n):              n = 0 → nothing, return 0
//!     n1 = 2^⌊log₂ n⌋, n2 = n − n1
//!     m  = compact(lo, n2)
//!     m' = off_compact(lo + n2, n1, z = (n1 − n2 + m) mod n1)
//!     join stage:  i = 0 … n2−1 ascending:  cswap(lo+i, lo+i+n1,  i ≥ m)
//!     return m + m'
//! off_compact(lo, n, z):       n a power of two
//!     n = 1 → read lo;                                  return mark(lo)
//!     n = 2 → cswap(lo, lo+1, (¬mark₀ ∧ mark₁) ⊕ (z & 1));  return mark₀ + mark₁
//!     h = n/2;  m = off_compact(lo, h, z mod h);  m' = off_compact(lo+h, h, (z + m) mod h)
//!     s = ((z mod h) + m ≥ h) ⊕ (z ≥ h);  t = (z + m) mod h
//!     merge stage: i = 0 … h−1 ascending:  cswap(lo+i, lo+i+h,  s ⊕ (i ≥ t))
//!     return m + m'
//! ```
//!
//! `off_compact` leaves its `m + m'` marked cells in order at cyclic
//! offset `z` of its block; `compact` aims the power-of-two tail so that
//! the join stage lands it right behind the head's `m`. The swap count is
//! [`compact_swap_count`]: `S(0) = 0`, `S(n) = S(n2) + (n1/2)·log₂ n1 +
//! n2`, plus the one bare read when `n` is odd.
//!
//! # Why the trace depends on `n` alone
//!
//! The recursion order, every stage's bounds and every address above are
//! functions of `lo` and `n`. The secrets — the marks, the counts `m`
//! handed up the recursion, `z`, `s`, `t` — live in registers and on the
//! call stack and enter **only** as the swap bit, which becomes an
//! all-ones / all-zeros mask (the sort kernel's `wrapping_neg` idiom;
//! [`o_swap`] in the test oracle) or an AVX-512 lane mask. **No loop
//! bound, slice boundary, index or branch condition may ever be derived
//! from one of them.** Splitting a merge loop at `t` into a "swap" run and
//! a "keep" run would touch the very same addresses — no trace test could
//! see it — and still leak `t` through the branch. `tests/compact_lint.rs`
//! holds this file to it: no `match`, `while`, `loop` or `break` before
//! the test oracle, and every `if` one of a short list of tests of a
//! block's length.
//!
//! # The physical schedule
//!
//! [`compact_u64`] reports the schedule first — one
//! [`Tracer::touch_swap_run`] block event per stage and the bare read, in
//! the recursion's post-order, computed from `n` alone (a [`NullTracer`]
//! compiles it away) — and then moves the data on the untraced slice in
//! another order that is bitwise the same.
//!
//! **Counts flow up, offsets flow down.** A node's offset is the offset
//! of the power-of-two block it lies in plus the marks that stand before
//! it in that block, mod its size, and its merge stage needs only
//! `w = z + m`: `s` is bit `h` of `w` (the carry out of the low `log₂ h`
//! bits flips it exactly when `(z mod h) + m ≥ h`) and `t = w mod h`.
//! So a node that knows its sub-blocks' counts can run every merge stage
//! between them and itself at once:
//!
//! * A power-of-two block of `n1 ≥ 64` cells bottoms out at exactly 64
//!   cells. Its top `log₂(n1/64) mod 3` levels are plain merge stages;
//!   every level below comes in threes. A **radix-8 node** of `8e` cells
//!   recurses into its eight `e`-cell sub-blocks in order — each returns
//!   its count, and sub-block `j`'s offset is `z` plus the counts before
//!   it — and then runs its seven merge stages in **one sweep** over
//!   lanes of 8 cells `e` apart (`l + q·e`, `q = 0 … 7`): the four
//!   `2e`-cell merges pair rows `(2a, 2a+1)`, the two `4e`-cell merges
//!   rows `(4b, 4b+2)` and `(4b+1, 4b+3)`, the `8e`-cell merge rows
//!   `(q, q+4)` — 12 masked swaps per lane.
//! * On AVX-512 a 64-cell block is a **register tile** (`crate::avx512`,
//!   the sort kernel's): transposed, row `c` holds cell `c` of each of
//!   the eight 8-cell groups (lane `g` is group `g`); one vector compare
//!   per row gives the marks, lane-wise prefix sums give each group's
//!   offset and the `w` of each of its 2-, 4- and 8-cell merges, which
//!   run as row pairs with per-lane masks; transposed back, the tile's 16-,
//!   32- and 64-cell merges run as row pairs with lane-index masks. The
//!   portable and AVX2 bodies run the recursion inside a tile, as every
//!   body does in the at most six power-of-two blocks under 64 cells.
//!
//! So a cell of a 2²¹-cell block is loaded and stored 6 times — five
//! sweeps and a tile — where one merge stage per level took 21.
//!
//! **Every one of these orders is bitwise the recursion's.** A lane of a
//! radix-8 node holds the same 8 cells at all three of its levels, and a
//! tile lane the same 8 cells at its three lower levels, so each lane
//! takes the swaps of those stages restricted to cells no other lane
//! touches, in the stages' order; only swaps on disjoint cells are
//! reordered, and they commute. Counts and marks are read before any swap
//! runs: a subtree's swaps only permute its own cells, so its count is
//! the same before and after them, and a 2-cell leaf's cells are touched
//! first by the leaf itself.
//!
//! `unsafe` here is of one kind, the `#[target_feature]` code: the AVX2
//! and AVX-512 `Kernel` methods, and under them the tile, may run only
//! on a CPU with those features. They are entered only through `BODIES`,
//! a `PerIsa` table, the crate's one way into a kernel body. Every
//! `unsafe` block carries a `SAFETY:` comment:
//!
//! * `compact_cells` enters the body `PerIsa::get` picked, the widest
//!   level the crate's one CPU detection found;
//! * `compact_body` and `block` call a `Kernel` method under their own
//!   callers' contract (the CPU supports the kernel's instruction set),
//!   which their `# Safety` sections state;
//! * the test calls each body `PerIsa::runnable` lists for this CPU,
//!   directly and through `compact_with`.
//!
//! The tile's unaligned row loads and stores are `crate::avx512`'s, two
//! blocks bounded by a `[u64; 64]`.
//!
//! [`o_swap`]: crate::primitives::o_swap
//! [`NullTracer`]: olive_memsim::NullTracer

use olive_memsim::{Op, RegionId, Tracer, TrackedBuf};

use crate::isa::PerIsa;

/// Conditional swaps a compaction of `n` cells performs — the closed form
/// `S(n)` of the module docs; its trace is four accesses per swap, plus
/// one read when `n` is odd.
pub fn compact_swap_count(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let log = n.ilog2() as u64;
    let (n1, n2) = (1 << log, n - (1 << log));
    compact_swap_count(n2) + n1 / 2 * log + n2
}

/// Moves the marked cells of `buf` — every cell whose high half is not
/// `u32::MAX`, Algorithm 4's dummy index — to the front, keeping their
/// order, and returns how many there are; the cells behind them are the
/// rest in no particular order. The trace is the canonical one of the
/// module docs: a pure function of `buf.len()`.
pub fn compact_u64<TR: Tracer>(buf: &mut TrackedBuf<u64>, tr: &mut TR) -> usize {
    emit_trace(buf.region(), buf.len() as u64, tr);
    compact_cells(buf.as_mut_slice_untraced())
}

/// [`compact_u64`]'s data movement at the widest level this CPU runs. Not
/// generic, so the bodies are compiled once, in this crate.
fn compact_cells(v: &mut [u64]) -> usize {
    // SAFETY: `get` picks the body of the level this CPU runs.
    unsafe { BODIES.get()(v) }
}

/// The smallest cell carrying the dummy index: a cell is marked iff it is
/// below this.
const DUMMY_FLOOR: u64 = (u32::MAX as u64) << 32;

/// Whether `cell` is marked (its index is not the dummy's).
#[inline(always)]
fn marked(cell: u64) -> bool {
    cell < DUMMY_FLOOR
}

// ---------------------------------------------------------------------------
// Canonical trace emission
// ---------------------------------------------------------------------------

/// Bytes per cell, as the block events report them.
const CELL_BYTES: u32 = 8;

/// The canonical trace of a compaction of `n` cells, in its post-order:
/// `compact(0, n)` recurses on the head first, so for each power of two
/// `n1` in `n`, smallest first, the `off_compact` of the `n1` cells behind
/// the `n2 = n mod n1` before them, then their join stage.
fn emit_trace<TR: Tracer>(region: RegionId, n: u64, tr: &mut TR) {
    for b in (0..u64::BITS).filter(|b| n >> b & 1 == 1) {
        let (n1, n2) = (1 << b, n & ((1 << b) - 1));
        emit_off_compact(region, n2, n1, tr);
        tr.touch_swap_run(region, CELL_BYTES, 0, n1, n2);
    }
}

/// `off_compact(lo, n, ·)`'s events: after each 2-cell leaf, the merge
/// stage of every node that ends with it, smallest first.
fn emit_off_compact<TR: Tracer>(region: RegionId, lo: u64, n: u64, tr: &mut TR) {
    if n == 1 {
        tr.touch(region, lo * CELL_BYTES as u64, CELL_BYTES, Op::Read);
    }
    for end in (2..=n).step_by(2) {
        tr.touch_swap_run(region, CELL_BYTES, lo + end - 2, 1, 1);
        for level in 1..end.trailing_zeros() {
            let h = 1 << level;
            tr.touch_swap_run(region, CELL_BYTES, lo + end - 2 * h, h, h);
        }
    }
}

// ---------------------------------------------------------------------------
// The data movement
// ---------------------------------------------------------------------------

/// A body of the kernel: compacts the slice (no trace) and returns how
/// many cells are marked.
///
/// # Safety
///
/// The CPU supports the body's instruction set.
type Body = unsafe fn(&mut [u64]) -> usize;

/// The bodies, one per instruction set.
const BODIES: PerIsa<Body> = PerIsa {
    portable: compact_body::<Portable>,
    #[cfg(target_arch = "x86_64")]
    avx2: compact_body::<Avx2>,
    #[cfg(target_arch = "x86_64")]
    avx512: compact_body::<Avx512>,
};

/// Cells per tile: every power-of-two block of at least this many bottoms
/// out at blocks of exactly this many.
const TILE: usize = 64;

/// The data work one instruction set runs under the shared recursion.
trait Kernel {
    /// Swaps `lower[i]` with `upper[i]` iff `s ⊕ (i ≥ t)`, for every `i`: a
    /// merge or join stage.
    ///
    /// # Safety
    ///
    /// The CPU supports the implementation's instruction set.
    unsafe fn stage(lower: &mut [u64], upper: &mut [u64], s: bool, t: usize);

    /// A radix-8 node's seven merge stages in one sweep (see [`sweep`]).
    ///
    /// # Safety
    ///
    /// The CPU supports the implementation's instruction set.
    unsafe fn sweep(v: &mut [u64], z: usize, before: &[usize; 9]);

    /// `off_compact` of one tile at offset `z`; returns its marks.
    ///
    /// # Safety
    ///
    /// The CPU supports the implementation's instruction set.
    unsafe fn tile(v: &mut [u64; TILE], z: usize) -> usize;
}

/// `compact(0, v.len())` of the module docs without the trace: for each
/// power of two in the length, smallest first, the power-of-two tail
/// behind the compacted head, then the join stage.
///
/// # Safety
///
/// The CPU supports `K`'s instruction set.
unsafe fn compact_body<K: Kernel>(v: &mut [u64]) -> usize {
    let n = v.len();
    let mut m = 0;
    for b in (0..usize::BITS).filter(|b| n >> b & 1 == 1) {
        let (n1, n2) = (1 << b, n & ((1 << b) - 1));
        let (head, tail) = v[..n2 + n1].split_at_mut(n2);
        // SAFETY: the caller's contract.
        let m_tail = unsafe { block::<K>(tail, (n1 - n2 + m) & (n1 - 1)) };
        // SAFETY: as above. The join pairs head cell i with cell n1 + i.
        unsafe { K::stage(head, &mut tail[n1 - n2..], false, m) };
        m += m_tail;
    }
    m
}

/// `off_compact(·, v.len(), z)` of the module docs without the trace, for
/// a power-of-two `v.len()`: in tiers above 64 cells, a tile at 64, the
/// recursion below. Returns the block's marks.
///
/// # Safety
///
/// The CPU supports `K`'s instruction set.
unsafe fn block<K: Kernel>(v: &mut [u64], z: usize) -> usize {
    let n = v.len();
    if n < TILE {
        return off_compact(v, z);
    }
    if n == TILE {
        let tile = v.try_into().expect("a block of TILE cells");
        // SAFETY: the caller's contract.
        return unsafe { K::tile(tile, z) };
    }
    // The levels above the tile that do not fill a radix-8 node.
    if !(n / TILE).ilog2().is_multiple_of(3) {
        let h = n / 2;
        let (lower, upper) = v.split_at_mut(h);
        // SAFETY: the caller's contract.
        let m = unsafe { block::<K>(lower, z & (h - 1)) };
        // SAFETY: as above.
        let m_upper = unsafe { block::<K>(upper, (z + m) & (h - 1)) };
        // SAFETY: as above.
        unsafe { K::stage(lower, upper, (z + m) & h != 0, (z + m) & (h - 1)) };
        return m + m_upper;
    }
    let e = n / 8;
    let mut before = [0; 9];
    for (j, sub) in v.chunks_exact_mut(e).enumerate() {
        // SAFETY: the caller's contract.
        before[j + 1] = before[j] + unsafe { block::<K>(sub, (z + before[j]) & (e - 1)) };
    }
    // SAFETY: as above.
    unsafe { K::sweep(v, z, &before) };
    before[8]
}

/// `off_compact(·, v.len(), z)` one level at a time, without the trace:
/// the tile of every body but AVX-512's, and every power-of-two block
/// under 64 cells.
fn off_compact(v: &mut [u64], z: usize) -> usize {
    let n = v.len();
    if n == 1 {
        return marked(v[0]) as usize;
    }
    let h = n / 2;
    let (lower, upper) = v.split_at_mut(h);
    if n == 2 {
        let (m0, m1) = (marked(lower[0]), marked(upper[0]));
        // t = h: no position lies at or past it, the bit is `s` itself.
        swap_run(lower, upper, (!m0 & m1) ^ (z & 1 == 1), h);
        return m0 as usize + m1 as usize;
    }
    let m = off_compact(lower, z & (h - 1));
    let m_upper = off_compact(upper, (z + m) & (h - 1));
    swap_run(lower, upper, (z + m) & h != 0, (z + m) & (h - 1));
    m + m_upper
}

/// One stage: swaps `lower[i]` with `upper[i]` iff `s ⊕ (i ≥ t)`, for every
/// `i`. `s` and `t` are secrets, so they only ever form the mask.
#[inline(always)]
fn swap_run(lower: &mut [u64], upper: &mut [u64], s: bool, t: usize) {
    debug_assert_eq!(lower.len(), upper.len());
    for (i, (a, b)) in lower.iter_mut().zip(upper).enumerate() {
        let diff = (*a ^ *b) & ((s ^ (i >= t)) as u64).wrapping_neg();
        (*a, *b) = (*a ^ diff, *b ^ diff);
    }
}

/// The row pairs `(a, b)` of a radix-8 sweep, in the order a lane runs
/// them — the four `2e`-cell merges, the two `4e`-cell merges, the
/// `8e`-cell merge — each with its merge's midpoint sub-block and the rows
/// of that merge's lower half that stand before row `a`.
#[rustfmt::skip]
const SWEEP: [(usize, usize, usize, usize); 12] = [
    (0, 1, 1, 0), (2, 3, 3, 0), (4, 5, 5, 0), (6, 7, 7, 0),
    (0, 2, 2, 0), (1, 3, 2, 1), (4, 6, 6, 0), (5, 7, 6, 1),
    (0, 4, 4, 0), (1, 5, 4, 1), (2, 6, 4, 2), (3, 7, 4, 3),
];

/// The seven merge stages of a radix-8 node over `v` (`8e` cells) at
/// offset `z`, whose sub-block `j` (cells `j·e …`) has `before[j + 1] −
/// before[j]` marks, in one sweep over its `e` lanes: lane `l` holds cell
/// `l` of every sub-block. Rows `b − a` apart pair in a merge of half-size
/// `h = (b − a)·e`, whose `w` is `z` plus the marks before its midpoint;
/// row `a` is position `l` of the merge's lower half, plus `e` for every
/// row before it there.
#[inline(always)]
fn sweep(v: &mut [u64], z: usize, before: &[usize; 9]) {
    let e = v.len() / 8;
    let (mut s, mut t, mut offset) = ([false; 12], [0; 12], [0; 12]);
    for (k, &(a, b, mid, rows_before)) in SWEEP.iter().enumerate() {
        let (h, w) = ((b - a) * e, z + before[mid]);
        (s[k], t[k], offset[k]) = (w & h != 0, w & (h - 1), rows_before * e);
    }
    let mut rows = v.chunks_exact_mut(e);
    let mut row = || &mut rows.next().expect("eight rows of e cells")[..e];
    let (r0, r1, r2, r3) = (row(), row(), row(), row());
    let (r4, r5, r6, r7) = (row(), row(), row(), row());
    for l in 0..e {
        let mut x = [r0[l], r1[l], r2[l], r3[l], r4[l], r5[l], r6[l], r7[l]];
        for (k, &(a, b, ..)) in SWEEP.iter().enumerate() {
            let mask = ((s[k] ^ (l + offset[k] >= t[k])) as u64).wrapping_neg();
            let diff = (x[a] ^ x[b]) & mask;
            (x[a], x[b]) = (x[a] ^ diff, x[b] ^ diff);
        }
        [r0[l], r1[l], r2[l], r3[l], r4[l], r5[l], r6[l], r7[l]] = x;
    }
}

/// The baseline build of every stage, the recursion inside a tile.
struct Portable;

impl Kernel for Portable {
    unsafe fn stage(lower: &mut [u64], upper: &mut [u64], s: bool, t: usize) {
        swap_run(lower, upper, s, t);
    }

    unsafe fn sweep(v: &mut [u64], z: usize, before: &[usize; 9]) {
        sweep(v, z, before);
    }

    unsafe fn tile(v: &mut [u64; TILE], z: usize) -> usize {
        off_compact(v, z)
    }
}

/// The stages and sweeps at 256-bit width, the recursion inside a tile.
#[cfg(target_arch = "x86_64")]
struct Avx2;

#[cfg(target_arch = "x86_64")]
impl Kernel for Avx2 {
    #[target_feature(enable = "avx2")]
    unsafe fn stage(lower: &mut [u64], upper: &mut [u64], s: bool, t: usize) {
        swap_run(lower, upper, s, t);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sweep(v: &mut [u64], z: usize, before: &[usize; 9]) {
        sweep(v, z, before);
    }

    unsafe fn tile(v: &mut [u64; TILE], z: usize) -> usize {
        off_compact(v, z)
    }
}

/// The stages and sweeps at 512-bit width, and the register tile.
#[cfg(target_arch = "x86_64")]
struct Avx512;

#[cfg(target_arch = "x86_64")]
impl Kernel for Avx512 {
    #[target_feature(enable = "avx512f")]
    unsafe fn stage(lower: &mut [u64], upper: &mut [u64], s: bool, t: usize) {
        swap_run(lower, upper, s, t);
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn sweep(v: &mut [u64], z: usize, before: &[usize; 9]) {
        sweep(v, z, before);
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn tile(v: &mut [u64; TILE], z: usize) -> usize {
        tile::off_compact64(v, z)
    }
}

/// The AVX-512 register tile: `off_compact` of 64 cells in eight `zmm`
/// rows (module docs, "The physical schedule").
#[cfg(target_arch = "x86_64")]
mod tile {
    use core::arch::x86_64::*;

    use super::DUMMY_FLOOR;
    use crate::avx512::{load, store, transpose};

    /// `off_compact` of the 64-cell tile `v` at offset `z`; returns its
    /// marks. Group `g` is cells `8g … 8g + 7`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn off_compact64(v: &mut [u64; 64], z: usize) -> usize {
        let (zero, one) = (_mm512_setzero_si512(), _mm512_set1_epi64(1));
        // Transposed: row c, lane g is cell c of group g.
        let mut r = transpose(load(v));
        // before[c], lane g: the marks of group g's cells below c.
        let (mut mark, mut before) = ([0; 8], [zero; 9]);
        for c in 0..8 {
            mark[c] = _mm512_cmplt_epu64_mask(r[c], _mm512_set1_epi64(DUMMY_FLOOR as i64));
            before[c + 1] = _mm512_mask_add_epi64(before[c], mark[c], before[c], one);
        }
        // Lane g: the marks of groups 0 … g, by three shift-and-adds.
        let counts = before[8];
        let mut upto = counts;
        upto = _mm512_add_epi64(upto, _mm512_alignr_epi64::<7>(upto, zero));
        upto = _mm512_add_epi64(upto, _mm512_alignr_epi64::<6>(upto, zero));
        upto = _mm512_add_epi64(upto, _mm512_alignr_epi64::<4>(upto, zero));
        // Lane g: group g's offset.
        let zg = _mm512_add_epi64(_mm512_set1_epi64(z as i64), _mm512_sub_epi64(upto, counts));

        // Each group's 2-cell leaves, then its 4- and 8-cell merges: row
        // lo + k is position k of its merge's lower half, in every lane.
        for p in 0..4 {
            let leaf_z = _mm512_add_epi64(zg, before[2 * p]);
            let bits = (!mark[2 * p] & mark[2 * p + 1]) ^ _mm512_test_epi64_mask(leaf_z, one);
            swap_rows(&mut r, 2 * p, 2 * p + 1, bits);
        }
        for lo in [0, 4] {
            merge(&mut r, lo, 2, _mm512_add_epi64(zg, before[lo + 2]), zero, 1);
        }
        merge(&mut r, 0, 4, _mm512_add_epi64(zg, before[4]), zero, 1);

        // Untransposed: row g is group g, lane i its cell i, so row lo + k
        // is position 8k + i of its merge's lower half; `w` is z plus the
        // marks of the groups below the midpoint (the sweep at e = 8).
        let mut r = transpose(r);
        let (z, lane) = (_mm512_set1_epi64(z as i64), _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
        for lo in [0, 2, 4, 6] {
            merge(&mut r, lo, 1, marks_below(z, upto, lo + 1), lane, 8);
        }
        for lo in [0, 4] {
            merge(&mut r, lo, 2, marks_below(z, upto, lo + 2), lane, 8);
        }
        merge(&mut r, 0, 4, marks_below(z, upto, 4), lane, 8);
        store(v, r);
        _mm512_reduce_add_epi64(counts) as usize
    }

    /// `z` plus lane `g − 1` of `upto` (the marks of groups `0 … g − 1`),
    /// in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn marks_below(z: __m512i, upto: __m512i, g: usize) -> __m512i {
        _mm512_add_epi64(z, _mm512_permutexvar_epi64(_mm512_set1_epi64(g as i64 - 1), upto))
    }

    /// The merge stage of a node of `2·half` rows from row `lo`, `w` per
    /// lane: row `lo + k` swaps with row `lo + k + half` in the lanes where
    /// `s ⊕ (position ≥ t)`, its lanes standing at positions `at + k·step`
    /// of the node's lower half of `half·step` cells.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn merge(r: &mut [__m512i; 8], lo: usize, half: usize, w: __m512i, at: __m512i, step: usize) {
        let h = (half * step) as i64;
        let s = _mm512_test_epi64_mask(w, _mm512_set1_epi64(h));
        let t = _mm512_and_si512(w, _mm512_set1_epi64(h - 1));
        for k in 0..half {
            let position = _mm512_add_epi64(at, _mm512_set1_epi64((k * step) as i64));
            swap_rows(r, lo + k, lo + k + half, s ^ _mm512_cmple_epu64_mask(t, position));
        }
    }

    /// Swaps rows `a` and `b` in the lanes of `bits`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn swap_rows(r: &mut [__m512i; 8], a: usize, b: usize, bits: __mmask8) {
        (r[a], r[b]) =
            (_mm512_mask_blend_epi64(bits, r[a], r[b]), _mm512_mask_blend_epi64(bits, r[b], r[a]));
    }
}

/// The network of the module docs, one traced access at a time: every
/// mark is read off a traced load and every swap is `read_pair` /
/// [`o_swap`](crate::primitives::o_swap) / `write_pair`. The oracle
/// [`compact_u64`] is tested against — output, count and trace.
#[cfg(test)]
fn compact_reference<TR: Tracer>(buf: &mut TrackedBuf<u64>, tr: &mut TR) -> usize {
    use crate::primitives::o_swap;

    fn cswap<TR: Tracer>(buf: &mut TrackedBuf<u64>, i: usize, l: usize, bit: bool, tr: &mut TR) {
        let (mut a, mut b) = buf.read_pair(i, l, tr);
        o_swap(bit, &mut a, &mut b);
        buf.write_pair(i, a, l, b, tr);
    }
    fn compact<TR: Tracer>(buf: &mut TrackedBuf<u64>, lo: usize, n: usize, tr: &mut TR) -> usize {
        if n == 0 {
            return 0;
        }
        let n1 = 1 << n.ilog2();
        let n2 = n - n1;
        let m = compact(buf, lo, n2, tr);
        let m_tail = off_compact(buf, lo + n2, n1, (n1 - n2 + m) % n1, tr);
        for i in 0..n2 {
            cswap(buf, lo + i, lo + i + n1, i >= m, tr);
        }
        m + m_tail
    }
    fn off_compact<TR: Tracer>(
        buf: &mut TrackedBuf<u64>,
        lo: usize,
        n: usize,
        z: usize,
        tr: &mut TR,
    ) -> usize {
        if n == 1 {
            return marked(buf.read(lo, tr)) as usize;
        }
        if n == 2 {
            let (mut a, mut b) = buf.read_pair(lo, lo + 1, tr);
            let (m0, m1) = (marked(a), marked(b));
            o_swap((!m0 & m1) ^ (z % 2 == 1), &mut a, &mut b);
            buf.write_pair(lo, a, lo + 1, b, tr);
            return m0 as usize + m1 as usize;
        }
        let h = n / 2;
        let m = off_compact(buf, lo, h, z % h, tr);
        let m_upper = off_compact(buf, lo + h, h, (z + m) % h, tr);
        let (s, t) = ((z % h + m >= h) ^ (z >= h), (z + m) % h);
        for i in 0..h {
            cswap(buf, lo + i, lo + i + h, s ^ (i >= t), tr);
        }
        m + m_upper
    }
    compact(buf, 0, buf.len(), tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer, RecordingTracer};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A cell is marked iff its high half is not all ones — Algorithm 4's
    /// "not a dummy".
    fn real(cell: u64) -> bool {
        (cell >> 32) as u32 != u32::MAX
    }

    /// `n` cells, each tagged with its position in the low half so that
    /// order is checkable, marked where `marked(i)`.
    fn cells(n: usize, marked: impl Fn(usize) -> bool) -> Vec<u64> {
        (0..n).map(|i| (if marked(i) { 7 } else { u32::MAX as u64 }) << 32 | i as u64).collect()
    }

    /// The mark patterns of the suite at length `n`: none, all, one at
    /// each end, alternating, random at 1 % / 50 % / 99 %, hostile cells
    /// (the dummy index with every value bit set, beside marked cells at
    /// the largest real index), and the fold's real shape (the last cell
    /// of each run of a sorted vector survives) last.
    fn patterns(n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = SmallRng::seed_from_u64(seed ^ n as u64);
        let mut out = vec![
            cells(n, |_| false),
            cells(n, |_| true),
            cells(n, |i| i == 0),
            cells(n, |i| i + 1 == n),
            cells(n, |i| i % 2 == 1),
        ];
        for percent in [1u32, 50, 99] {
            let marks: Vec<bool> = (0..n).map(|_| rng.gen_range(0..100u32) < percent).collect();
            out.push(cells(n, |i| marks[i]));
        }
        let hostile = [u64::MAX, DUMMY_FLOOR | 0x8000_0000, DUMMY_FLOOR - 1];
        out.push((0..n).map(|i| hostile[rng.gen_range(0..3usize)] - i as u64 % 2).collect());
        let mut indices: Vec<u32> =
            (0..n).map(|_| rng.gen_range(0..n.div_ceil(8) as u32)).collect();
        indices.sort_unstable();
        out.push(cells(n, |i| i + 1 == n || indices[i] != indices[i + 1]));
        out
    }

    /// [`compact_u64`] on an explicit body.
    ///
    /// # Safety
    ///
    /// The CPU supports the body's instruction set.
    unsafe fn compact_with<TR: Tracer>(
        buf: &mut TrackedBuf<u64>,
        body: Body,
        tr: &mut TR,
    ) -> usize {
        emit_trace(buf.region(), buf.len() as u64, tr);
        // SAFETY: the caller's contract.
        unsafe { body(buf.as_mut_slice_untraced()) }
    }

    fn traced(
        data: &[u64],
        granularity: Granularity,
        run: impl FnOnce(&mut TrackedBuf<u64>, &mut RecordingTracer) -> usize,
    ) -> (Vec<u64>, usize, olive_memsim::TraceDigest) {
        let mut tr = RecordingTracer::new(granularity);
        let mut buf = TrackedBuf::new(9, data.to_vec());
        let count = run(&mut buf, &mut tr);
        (buf.into_inner(), count, tr.digest())
    }

    /// Every length up to a few 64-blocks, then the lengths around the
    /// sort kernel's block, the pinned Advanced shape and a Grouped group.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=4 * 64 + 9).chain([4095, 4096, 4097, (1 << 13) + 5, 31_154])
    }

    #[test]
    fn output_is_the_oracles_and_a_stable_partition_by_mark() {
        for n in lengths() {
            for data in patterns(n, 1) {
                let want: Vec<u64> = data.iter().copied().filter(|&c| real(c)).collect();
                let mut oracle = TrackedBuf::new(0, data.clone());
                let oracle_count = compact_reference(&mut oracle, &mut NullTracer);
                let mut buf = TrackedBuf::new(0, data.clone());
                let count = compact_u64(&mut buf, &mut NullTracer);
                assert_eq!((count, oracle_count), (want.len(), want.len()), "n={n}");
                let got = buf.into_inner();
                assert_eq!(got[..count], want[..], "n={n}: marked cells, in order");
                assert_eq!(got, oracle.into_inner(), "n={n}: the rest, cell for cell");
                let mut all = got;
                all.sort_unstable();
                let mut input = data;
                input.sort_unstable();
                assert_eq!(all, input, "n={n}: a permutation of the input");
            }
        }
    }

    #[test]
    fn trace_is_the_oracles_at_both_granularities_and_counts_s_of_n() {
        for n in lengths() {
            let data = &patterns(n, 2).pop().expect("the fold's shape");
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                let oracle = traced(data, granularity, compact_reference);
                let kernel = traced(data, granularity, compact_u64);
                assert_eq!(kernel, oracle, "n={n} {granularity:?}");
                // A cell never straddles a line: one unit per access either way.
                let accesses = 4 * compact_swap_count(n as u64) + n as u64 % 2;
                assert_eq!(kernel.2.len(), accesses, "n={n} {granularity:?}");
            }
        }
    }

    /// Each body this CPU runs, called directly (the dispatcher reaches
    /// only the widest), against the per-access oracle: output and count
    /// under every pattern, and the trace at both granularities under the
    /// fold's. The lengths put every `log₂(n1/64) mod 3` remainder on top
    /// of the radix-8 tiers, a lone tile, a tile under one radix-8 node,
    /// and sweeps of many lanes.
    #[test]
    fn every_isa_body_matches_the_reference() {
        let bodies = BODIES.runnable();
        let names: Vec<&str> = bodies.iter().map(|b| b.0).collect();
        eprintln!("compaction bodies exercised on this CPU: {names:?}");
        let long = [4095, 4096, 4097, 8197, 31_154, 65_537, (1 << 18) + 3];
        for n in (0..=1100).chain(long) {
            let patterns = patterns(n, 4);
            for (p, data) in patterns.iter().enumerate() {
                let mut oracle = TrackedBuf::new(0, data.clone());
                let want_count = compact_reference(&mut oracle, &mut NullTracer);
                let want = oracle.into_inner();
                for &(name, body) in &bodies {
                    let mut got = data.clone();
                    // SAFETY: `runnable` lists the bodies this CPU supports.
                    let count = unsafe { body(&mut got) };
                    assert!(count == want_count && got == want, "{name} n={n} pattern {p}");
                }
            }
            let fold = patterns.last().expect("the fold's shape");
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                let oracle = traced(fold, granularity, compact_reference);
                for &(name, body) in &bodies {
                    // SAFETY: as above.
                    let run = |b: &mut _, tr: &mut _| unsafe { compact_with(b, body, tr) };
                    let kernel = traced(fold, granularity, run);
                    assert!(kernel == oracle, "{name} n={n} {granularity:?}");
                }
            }
        }
    }

    #[test]
    fn swap_count_closed_form() {
        assert_eq!(compact_swap_count(0), 0);
        assert_eq!(compact_swap_count(1), 0);
        assert_eq!(compact_swap_count(2), 1);
        assert_eq!(compact_swap_count(5), 5);
        // A power of two is one off_compact: (n/2)·log₂ n.
        assert_eq!(compact_swap_count(1 << 13), 4096 * 13);
        // The pinned Advanced shape, a Grouped group sort, `adv_sort`.
        assert_eq!(compact_swap_count((1 << 13) + 5), 53_258);
        assert_eq!(compact_swap_count(31_154), 229_873);
        assert_eq!(compact_swap_count(2_109_210), 22_111_957);
    }

    /// Definition 2.1 with δ = 0 on the production kernel: mark counts 0,
    /// 1, n/2, n and everything between leave one trace per length.
    #[test]
    fn trace_depends_on_length_only() {
        for n in [64usize, 201, 4099] {
            let inputs = patterns(n, 3);
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                assert_oblivious(granularity, &inputs, |input, tr| {
                    let mut buf = TrackedBuf::new(1, input.clone());
                    compact_u64(&mut buf, tr);
                });
            }
        }
        // The trace encodes the schedule: another length, another trace.
        let digest = |n: usize| traced(&cells(n, |_| true), Granularity::Element, compact_u64).2;
        assert_ne!(digest(200), digest(201));
    }
}
