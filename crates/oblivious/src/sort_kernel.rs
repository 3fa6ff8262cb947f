//! The oblivious sort: a bitonic sorting network truncated at the real
//! length (the paper's oblivious sort, ref.\[8\], used once by Algorithm
//! 4), run as SIMD-friendly sweeps over private cache-sized blocks with
//! intra-sort parallelism.
//!
//! A sorting network performs the same sequence of compare-exchanges
//! whatever the data; each compare-exchange reads both cells,
//! conditionally swaps them, and writes both back. The resulting memory
//! trace is a pure function of the input *length* — the property
//! Algorithm 4's proof (Proposition 5.2) relies on.
//!
//! # The canonical trace
//!
//! For a buffer of `n` elements let `N` be the smallest power of two
//! `≥ n`. The network runs rounds `k = 2, 4, …, N`; round `k` is
//!
//! 1. a **flip stage** pairing `i` with `l = i ⊕ (k − 1)` — every element
//!    of the lower half of a `k`-aligned block with its mirror image in
//!    the upper half — followed by
//! 2. **stride stages** `j = k/4, k/8, …, 1` pairing `i` with `l = i + j`
//!    (for the `i` whose bit `j` is clear).
//!
//! Within a stage comparators run in ascending `i`; each one is `read i,
//! read l, write i, write l` and leaves the minimum at `i` (every
//! comparator ascends — the flip does the work of the classic network's
//! alternating directions). Comparators with `l ≥ n` are **omitted**.
//! That is exact, not an approximation: pad the buffer to `N` with `+∞`
//! and no ascending comparator ever moves a pad (its partner below is
//! never strictly larger), so the padded network's action on the first
//! `n` cells is the truncated network's. The event list is therefore a
//! pure function of `n`, and equals the `N`-length network's with every
//! comparator touching an address `≥ n` deleted. At `n = 2ᵐ` nothing is
//! deleted: `m(m+1)/2` stages of `n/2` comparators, Batcher's count.
//!
//! Complexity: O(n log² n) comparators, exactly as cited in Section 5.2 —
//! on `n` itself, not on `n` rounded up to a power of two.
//!
//! # The kernel
//!
//! Run one traced compare-exchange at a time — four traced accesses and
//! two key evaluations per comparator — the network is correct and
//! readable, but ~10× slower than `std::sort_unstable`, because the
//! per-comparator bookkeeping defeats vectorization. This module builds
//! the network around four observations instead:
//!
//! 1. **The trace is a closed-form function of `n`.** A sorting network
//!    touches the same addresses whatever the data (Proposition 5.2), so
//!    the kernel does not need to *derive* the trace from its loads and
//!    stores: it emits the canonical comparator schedule as block events
//!    ([`Tracer::touch_flip_span`] and [`Tracer::touch_cex_span`], one per
//!    stage) and performs the data movement separately. Recording tracers
//!    expand each event deterministically into the exact per-access
//!    sequence of the scalar network, so the traces agree event for event
//!    at every granularity — and, because the emission is independent of
//!    the physical execution, at **every thread count** too.
//! 2. **Keys ride in the word.** The tagged path (the oblivious shuffle)
//!    takes `(tag << 64) | payload` words packed up front and
//!    compare-exchanges them whole, by tag only. The payload
//!    ([`InlinePayload`]) rides *inside* the sorted word — an
//!    index-permutation epilogue would be a data-dependent gather (an
//!    access-pattern leak in a real enclave).
//! 3. **Comparators within a stage are independent.** A stage
//!    compare-exchanges disjoint element pairs, so the inner loop is a
//!    branchless min/max (or mask-select) sweep over contiguous runs that
//!    the compiler autovectorizes (AVX2/AVX-512 monomorphizations are
//!    selected at runtime), and a stage splits across worker threads.
//!    Thread count never affects the output (stage results are unique
//!    regardless of intra-stage execution order) nor the trace (emitted
//!    canonically by the caller).
//! 4. **Most stages are local, and stages fuse.** Every comparator of a
//!    round `k ≤ B`, and every stride stage `j < B` of any round, pairs
//!    elements of one `B`-aligned block. So the kernel does not sweep
//!    memory once per stage; its **pass schedule** is
//!
//!    * one *sort-blocks* pass that runs all rounds `k ≤ B` on each block
//!      while it sits in L1/L2, then
//!    * per round `k = 2B, 4B, …`: the *global* stages — the flip, then
//!      strides `k/4 … B` — and one *merge-blocks* pass that runs strides
//!      `B/2 … 1` on each block. The flip is one sweep of memory; the
//!      strides go in **radix-8 sweeps**, three consecutive stages
//!      `j, j/2, j/4 ≥ B` per sweep from the top, and a stride left over
//!      at the bottom is a sweep of its own.
//!
//!    A radix-8 sweep walks *lanes* of 8 elements `j/4` apart
//!    (`i + q·j/4`, `q = 0 … 7`, for `i` in the low quarter of a
//!    `2j`-aligned group). Stages `j`, `j/2`, `j/4` pair rows `(q, q+4)`,
//!    `(q, q+2)`, `(q, q+1)` of a lane and nothing outside it, so the sweep
//!    runs the 12 comparators of the 8-element stride network on every
//!    lane, 8 lanes at a time held as eight vector rows. Elements at or
//!    past `n` are read as a `+∞` pad and never written back: the
//!    truncated network's omitted comparators are exactly the ones a pad
//!    never loses. Inside a block the same fusion runs the strides ≥ 64,
//!    and the strides ≤ 32 and the opening rounds 2, 4, 8 run in
//!    registers. On AVX-512, `u64` cells go through a **64-cell tile** of
//!    eight 8-cell rows: strides 32, 16, 8 pair whole rows
//!    (`vpminuq`/`vpmaxuq`), an 8 × 8 transpose (24 shuffles) turns each
//!    8-cell window into a column, strides 4, 2, 1 (or rounds 2, 4, 8)
//!    pair rows again, and a second transpose puts the cells back. Every
//!    other body runs strides 32, 16, 8 as sweeps and the rest on 8-cell
//!    windows. A 2.1 M-cell sort makes 42 sweeps of memory at `B = 2¹²`
//!    (66 with a sweep per global stage, 209 with a sweep per stage).
//!
//!    **Every one of these orders is bitwise the stage order.** A block, a
//!    lane, a tile and a window each take a stage's comparators restricted
//!    to cells no other block, lane, tile or window of that stage touches,
//!    and run the stages on them in order; comparators on disjoint cells
//!    commute, so only the order *among* disjoint comparators changes, and
//!    every comparator is the scalar rule (`min`/`max` of equal `u64`s is
//!    the identity; a tagged word swaps on a strict tag inequality only).
//!    Workers split a pass (blocks of a block pass, comparators or lanes
//!    of a global one) with one barrier per pass.
//!
//! Nothing is padded in memory: the schedule and every sweep stop at `n`,
//! like the network they implement (a lane or window that straddles `n`
//! is padded in registers only).
//!
//! The one-comparator-at-a-time network is kept as the test oracle
//! (`sort.rs`, compiled into test builds only): the unit tests hold every
//! ISA body of this kernel to its output at every length, block size and
//! thread count, and the entry points to its trace, event for event, at
//! every granularity.
//!
//! `unsafe` here is of two kinds, each block with a `SAFETY:` comment:
//! workers carve disjoint runs out of one shared base pointer (`run_pass`'s
//! contract: distinct units of a pass touch disjoint elements), and the
//! `#[target_feature]` bodies, which are entered only through the
//! crate's one table type (`PerIsa`: `PASSES_U64`, `PASSES_U128`) — its
//! `get` in the entry points, its `runnable` in the tests, each handing
//! out only the levels the CPU runs. The AVX-512 tile's row loads, stores
//! and transpose are `crate::avx512`'s, shared with the compaction.

use std::sync::Barrier;

use olive_memsim::{truncated_stage_len, Tracer, TrackedBuf};

use crate::isa::PerIsa;

/// Cells per private block of the pass schedule (a power of two, at least
/// one register window): 32 KiB of `u64` cells, 64 KiB of packed `u128`
/// words — L1/L2-resident, and small enough that a 2¹⁵-cell group sort
/// still has blocks to hand to every worker.
const BLOCK: usize = 1 << 12;

/// The implementation of the bitonic network the process runs, as run
/// headers name it. There is one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortKernel {
    /// The batched stage kernel of this module.
    Batched,
}

/// The kernel every entry point runs (a function because run headers
/// print it).
pub fn sort_kernel() -> SortKernel {
    SortKernel::Batched
}

/// Payloads the tagged kernel can carry inline beside their 64-bit sort
/// tag (packed `(tag << 64) | payload` and compare-exchanged as one
/// `u128`). The round-trip must be lossless; the payload bits never
/// influence comparisons.
pub trait InlinePayload: Copy {
    /// Packs the payload into the low 64 bits of the sort word.
    fn to_word(self) -> u64;
    /// Recovers the payload from [`InlinePayload::to_word`]'s output.
    fn from_word(w: u64) -> Self;
}

impl InlinePayload for u64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w
    }
}

// ---------------------------------------------------------------------------
// Canonical trace emission
// ---------------------------------------------------------------------------

/// Emits the comparator schedule of the network over `buf` as block
/// events, in the canonical order of the module docs: rounds ascending,
/// flip then strides descending, ascending comparators within a stage,
/// out-of-range comparators omitted.
fn emit_network_trace<T: Copy, TR: Tracer>(buf: &TrackedBuf<T>, tr: &mut TR) {
    let (region, elem_bytes, n) =
        (buf.region(), core::mem::size_of::<T>() as u32, buf.len() as u64);
    let mut k = 2u64;
    while k / 2 < n {
        // Whole blocks keep every flip comparator; the partial block keeps
        // the `rest` nearest its midpoint — the last of its index range.
        let kept = truncated_stage_len(n, k);
        let rest = kept % (k / 2);
        tr.touch_flip_span(region, elem_bytes, k, 0, kept - rest);
        tr.touch_flip_span(region, elem_bytes, k, kept + k / 2 - 2 * rest, rest);
        let mut j = k / 4;
        while j > 0 {
            tr.touch_cex_span(region, elem_bytes, j, 0, truncated_stage_len(n, 2 * j));
            j /= 2;
        }
        k *= 2;
    }
}

// ---------------------------------------------------------------------------
// Compare-exchange sweeps
// ---------------------------------------------------------------------------

/// A word the batched kernel compare-exchanges.
trait Word: Copy + Send + 'static {
    /// Compares behind (or equal to) every word, so an ascending
    /// comparator never moves it down: fills out a partial register
    /// window exactly as `+∞` fills out the truncated network.
    const PAD: Self;

    /// The ascending comparator: `(x, y)` reordered so the smaller is
    /// first, bitwise what the scalar network's `swap iff key(x) > key(y)`
    /// leaves behind.
    fn cex(x: Self, y: Self) -> (Self, Self);
}

/// Raw cells, ordered by value. Swapping equal words is the identity, so
/// min/max is the scalar rule.
impl Word for u64 {
    const PAD: u64 = u64::MAX;

    #[inline(always)]
    fn cex(x: u64, y: u64) -> (u64, u64) {
        (x.min(y), x.max(y))
    }
}

/// Packed `(key << 64) | payload` words: comparisons see **keys only**, so
/// key ties are left in place exactly like the scalar network evaluating
/// `key()`.
impl Word for u128 {
    const PAD: u128 = u128::MAX;

    #[inline(always)]
    fn cex(x: u128, y: u128) -> (u128, u128) {
        let swap = (x >> 64) as u64 > (y >> 64) as u64;
        let diff = (x ^ y) & (swap as u128).wrapping_neg();
        (x ^ diff, y ^ diff)
    }
}

/// Compare-exchanges `lo[t]` with `hi[t]`.
#[inline(always)]
fn sweep<W: Word>(lo: &mut [W], hi: &mut [W]) {
    debug_assert_eq!(lo.len(), hi.len());
    for (a, b) in lo.iter_mut().zip(hi) {
        (*a, *b) = W::cex(*a, *b);
    }
}

/// Compare-exchanges `lo[len − 1 − t]` with `hi[t]` (a flip stage's
/// mirror-image pairs around the midpoint between the two runs).
#[inline(always)]
fn sweep_mirrored<W: Word>(lo: &mut [W], hi: &mut [W]) {
    debug_assert_eq!(lo.len(), hi.len());
    for (a, b) in lo.iter_mut().rev().zip(hi) {
        (*a, *b) = W::cex(*a, *b);
    }
}

/// Comparators of rounds 2, 4 and 8 on one 8-element window, a stage per
/// line: flips pair mirror images, strides pair `i` with `i + j`.
#[rustfmt::skip]
const SORT8: [(usize, usize); 24] = [
    (0, 1), (2, 3), (4, 5), (6, 7),
    (0, 3), (1, 2), (4, 7), (5, 6),
    (0, 1), (2, 3), (4, 5), (6, 7),
    (0, 7), (1, 6), (2, 5), (3, 4),
    (0, 2), (1, 3), (4, 6), (5, 7),
    (0, 1), (2, 3), (4, 5), (6, 7),
];

/// Comparators of stride stages 4, 2 and 1 on one 8-element window — and
/// of any three consecutive stride stages on a lane of 8 elements spaced
/// by the smallest of them.
#[rustfmt::skip]
const MERGE8: [(usize, usize); 12] = [
    (0, 4), (1, 5), (2, 6), (3, 7),
    (0, 2), (1, 3), (4, 6), (5, 7),
    (0, 1), (2, 3), (4, 5), (6, 7),
];

/// Runs the comparators of `net` on one window held in registers (the
/// loop unrolls: `net` is a constant).
#[inline(always)]
fn apply8<W: Word, const C: usize>(w: &mut [W; 8], net: &[(usize, usize); C]) {
    for &(a, b) in net {
        (w[a], w[b]) = W::cex(w[a], w[b]);
    }
}

/// Runs `net` on every aligned 8-element window of `v`. The partial last
/// window is run padded with [`Word::PAD`], which its comparators never
/// move.
#[inline(always)]
fn windows8<W: Word, const C: usize>(v: &mut [W], net: &[(usize, usize); C]) {
    let mut windows = v.chunks_exact_mut(8);
    for w in &mut windows {
        apply8(w.try_into().expect("chunks_exact_mut(8) yields 8-element windows"), net);
    }
    let rest = windows.into_remainder();
    if !rest.is_empty() {
        let mut w = [W::PAD; 8];
        w[..rest.len()].copy_from_slice(rest);
        apply8(&mut w, net);
        rest.copy_from_slice(&w[..rest.len()]);
    }
}

/// The flip stage of round `k` over a slice that starts `k`-aligned.
#[inline(always)]
fn flip_stage<W: Word>(v: &mut [W], k: usize) {
    let mut mid = k / 2;
    while mid < v.len() {
        let len = (k / 2).min(v.len() - mid);
        let (lo, hi) = v[mid - len..mid + len].split_at_mut(len);
        sweep_mirrored(lo, hi);
        mid += k;
    }
}

/// Stride stage `j` over a slice that starts `2j`-aligned.
#[inline(always)]
fn stride_stage<W: Word>(v: &mut [W], j: usize) {
    let mut base = 0;
    while base + j < v.len() {
        let len = j.min(v.len() - base - j);
        let (lo, hi) = v[base..base + j + len].split_at_mut(j);
        sweep(&mut lo[..len], hi);
        base += 2 * j;
    }
}

// ---------------------------------------------------------------------------
// Radix-8 sweeps: three stride stages per pass over memory
// ---------------------------------------------------------------------------

/// The lanes of the fused stages `j, j/2, j/4` that hold a comparator
/// below `n` — a prefix of the lane space, as [`truncated_stage_len`]'s
/// comparators are of a stage's. Lane `t` starts at
/// `i = 2j·⌊t / (j/4)⌋ + t mod (j/4)` and keeps a comparator iff its second
/// element `i + j/4` is below `n`.
fn radix8_lanes(n: usize, j: usize) -> usize {
    let s = j / 4;
    n / (2 * j) * s + (n % (2 * j)).saturating_sub(s).min(s)
}

/// Runs MERGE8 on lanes `[t0, t1)` of the fused stride stages
/// `j, j/2, j/4` over `base[0..n]` (see [`radix8_lanes`]): row `q` of lane
/// `t` is element `i + q·j/4`. Rows at or past `n` are read as
/// [`Word::PAD`] and not written.
///
/// # Safety
///
/// `base` must point to `n` initialized words, `j` must be a power of two
/// `≥ 4`, `t1 <= radix8_lanes(n, j)`, and the caller must have exclusive
/// access to every element of the lanes `[t0, t1)`.
#[inline(always)]
unsafe fn radix8<W: Word>(base: *mut W, n: usize, j: usize, t0: usize, t1: usize) {
    let s = j / 4;
    let mut t = t0;
    while t < t1 {
        let off = t % s;
        let i = (t - off) * 8 + off;
        let len = (s - off).min(t1 - t);
        // SAFETY: lanes `t .. t + len` own exactly the in-bounds parts of
        // these eight runs, `s` apart and disjoint because `len <= s`; a
        // run at or past `n` is empty and starts at most one past the end.
        let row = |q: usize| unsafe {
            let at = (i + q * s).min(n);
            run_at(base, at, len.min(n - at))
        };
        merge8_lanes([row(0), row(1), row(2), row(3), row(4), row(5), row(6), row(7)]);
        t += len;
    }
}

/// MERGE8 on every lane of eight row runs whose lengths do not increase
/// (a run's missing tail is past `n`: [`Word::PAD`]). The lanes every row
/// holds run as one loop over eight runs, vectorized across lanes like
/// [`sweep`]; the few that straddle `n` run padded, one at a time.
#[inline(always)]
fn merge8_lanes<W: Word>(mut rows: [&mut [W]; 8]) {
    let full = rows[7].len();
    let [r0, r1, r2, r3, r4, r5, r6, r7] = &mut rows;
    let (r0, r1, r2, r3) = (&mut r0[..full], &mut r1[..full], &mut r2[..full], &mut r3[..full]);
    let (r4, r5, r6, r7) = (&mut r4[..full], &mut r5[..full], &mut r6[..full], &mut r7[..full]);
    for l in 0..full {
        let mut w = [r0[l], r1[l], r2[l], r3[l], r4[l], r5[l], r6[l], r7[l]];
        apply8(&mut w, &MERGE8);
        [r0[l], r1[l], r2[l], r3[l], r4[l], r5[l], r6[l], r7[l]] = w;
    }
    for l in full..rows[0].len() {
        let mut w = [W::PAD; 8];
        for (x, row) in w.iter_mut().zip(&rows) {
            if let Some(&y) = row.get(l) {
                *x = y;
            }
        }
        apply8(&mut w, &MERGE8);
        for (x, row) in w.iter().zip(&mut rows) {
            if let Some(y) = row.get_mut(l) {
                *y = *x;
            }
        }
    }
}

/// The fused stride stages `j, j/2, j/4` over a slice that starts
/// `2j`-aligned.
#[inline(always)]
fn radix8_stage<W: Word>(v: &mut [W], j: usize) {
    let n = v.len();
    // SAFETY: every lane of the sweep over the exclusively borrowed `v`.
    unsafe { radix8(v.as_mut_ptr(), n, j, 0, radix8_lanes(n, j)) }
}

// ---------------------------------------------------------------------------
// In-register tails of the block passes
// ---------------------------------------------------------------------------

/// The bottom of every block pass, run in registers: the opening rounds
/// 2, 4, 8 and the stride stages ≤ 32 of every later round.
trait Tail<W: Word> {
    /// Rounds 2, 4 and 8 on every aligned 8-element window of `v`.
    ///
    /// # Safety
    ///
    /// The CPU supports the implementation's instruction set.
    unsafe fn sort8(v: &mut [W]);

    /// Stride stages `j, j/2, …, 1` (`4 ≤ j ≤ 32`) over a slice that
    /// starts `2j`-aligned.
    ///
    /// # Safety
    ///
    /// The CPU supports the implementation's instruction set.
    unsafe fn strides(v: &mut [W], j: usize);
}

/// The tail of every body but AVX-512 `u64`: strides 32, 16, 8 as sweeps,
/// the rest on 8-element windows.
struct Windows;

impl<W: Word> Tail<W> for Windows {
    #[inline(always)]
    unsafe fn sort8(v: &mut [W]) {
        windows8(v, &SORT8);
    }

    #[inline(always)]
    unsafe fn strides(v: &mut [W], j: usize) {
        window_strides(v, j);
    }
}

/// [`Windows`]' stride stages `j … 1` (`4 ≤ j ≤ 32`) over a slice that
/// starts `2j`-aligned.
#[inline(always)]
fn window_strides<W: Word>(v: &mut [W], mut j: usize) {
    while j >= 8 {
        stride_stage(v, j);
        j /= 2;
    }
    windows8(v, &MERGE8);
}

/// The AVX-512 tail for `u64` cells: whole 64-cell tiles in eight `zmm`
/// rows, the remainder as [`Windows`] runs it.
#[cfg(target_arch = "x86_64")]
mod tile {
    use core::arch::x86_64::*;

    use super::{window_strides, windows8, Tail, MERGE8, SORT8};
    use crate::avx512::{load, store, transpose};

    /// The 64-cell register tile.
    pub(super) struct Tile;

    impl Tail<u64> for Tile {
        #[inline(always)]
        unsafe fn sort8(v: &mut [u64]) {
            let (tiles, rest) = v.split_at_mut(v.len() / 64 * 64);
            // SAFETY: the caller's contract — this CPU has AVX-512F.
            unsafe { sort8_tiles(tiles) };
            // `rest` starts 64-aligned, so its windows are the network's.
            windows8(rest, &SORT8);
        }

        #[inline(always)]
        unsafe fn strides(v: &mut [u64], j: usize) {
            let (tiles, rest) = v.split_at_mut(v.len() / 64 * 64);
            // SAFETY: the caller's contract — this CPU has AVX-512F.
            unsafe { stride_tiles(tiles, j) };
            // `rest` starts 64-aligned, so `2j`-aligned.
            window_strides(rest, j);
        }
    }

    /// Rounds 2, 4, 8 on every 64-cell tile of `tiles`: transposed, row
    /// `c` holds cell `c` of each of the tile's eight windows, so SORT8's
    /// comparators are row pairs.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sort8_tiles(tiles: &mut [u64]) {
        for tile in tiles.as_chunks_mut::<64>().0 {
            let mut r = transpose(load(tile));
            cex_rows(&mut r, &SORT8);
            store(tile, transpose(r));
        }
    }

    /// Stride stages `j … 1` (`4 ≤ j ≤ 32`) on every 64-cell tile of
    /// `tiles`. Rows are 8 cells apart, so strides 32, 16, 8 pair rows 4,
    /// 2, 1 apart — the three stages of MERGE8, row for cell; transposed,
    /// strides 4, 2, 1 are MERGE8 again.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn stride_tiles(tiles: &mut [u64], j: usize) {
        debug_assert!((4..=32).contains(&j));
        for tile in tiles.as_chunks_mut::<64>().0 {
            let mut r = load(tile);
            if j >= 32 {
                cex_rows(&mut r, &MERGE8[..4]);
            }
            if j >= 16 {
                cex_rows(&mut r, &MERGE8[4..8]);
            }
            if j >= 8 {
                cex_rows(&mut r, &MERGE8[8..]);
            }
            let mut r = transpose(r);
            cex_rows(&mut r, &MERGE8);
            store(tile, transpose(r));
        }
    }

    /// Compare-exchanges rows `a` and `b`, lane by lane, for each pair.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn cex_rows(r: &mut [__m512i; 8], pairs: &[(usize, usize)]) {
        for &(a, b) in pairs {
            (r[a], r[b]) = (_mm512_min_epu64(r[a], r[b]), _mm512_max_epu64(r[a], r[b]));
        }
    }
}

#[cfg(target_arch = "x86_64")]
use tile::Tile;

// ---------------------------------------------------------------------------
// Block passes
// ---------------------------------------------------------------------------

/// Stride stages `j, j/2, …, 1` over a slice that starts `2j`-aligned:
/// what follows the flip in every round. `j` is 4 or a larger power of
/// two. Strides ≥ 64 go three to a radix-8 sweep from the top, a leftover
/// one or two by plain sweeps, and `T` runs the strides ≤ 32.
///
/// # Safety
///
/// The CPU supports `T`'s instruction set.
#[inline(always)]
unsafe fn stride_stages<W: Word, T: Tail<W>>(v: &mut [W], mut j: usize) {
    while j / 4 >= 64 {
        radix8_stage(v, j);
        j /= 8;
    }
    while j > 32 {
        stride_stage(v, j);
        j /= 2;
    }
    // SAFETY: the caller's contract.
    unsafe { T::strides(v, j) }
}

/// Every round `k ≤ B` of the network on one block (`v.len() ≤ B`).
///
/// # Safety
///
/// The CPU supports `T`'s instruction set.
#[inline(always)]
unsafe fn sort_block<W: Word, T: Tail<W>>(v: &mut [W]) {
    // SAFETY: the caller's contract.
    unsafe { T::sort8(v) };
    let mut k = 16;
    while k / 2 < v.len() {
        flip_stage(v, k);
        // SAFETY: the caller's contract.
        unsafe { stride_stages::<W, T>(v, k / 4) };
        k *= 2;
    }
}

// ---------------------------------------------------------------------------
// Pass schedule
// ---------------------------------------------------------------------------

/// One physical pass: a unit of work between two barriers whose work
/// units (blocks, comparators of one stage, or lanes) touch disjoint
/// elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pass {
    /// All rounds `k ≤ block` on every block. Units: blocks.
    SortBlocks,
    /// The flip stage of round `k > block`. Units: its comparators, by
    /// block and then by distance from the block's midpoint.
    Flip {
        /// The round.
        k: usize,
    },
    /// One stride stage `j ≥ block`. Units: its comparators, ascending.
    Stride {
        /// Partner distance.
        j: usize,
    },
    /// Stride stages `j, j/2, j/4 ≥ block` in one radix-8 sweep. Units:
    /// its lanes (see [`radix8_lanes`]), ascending.
    Radix8 {
        /// The largest partner distance.
        j: usize,
    },
    /// Stride stages `block/2 … 1` on every block. Units: blocks.
    MergeBlocks,
}

/// What a pass runs over: `n` words in `block`-word private blocks.
#[derive(Clone, Copy, Debug)]
struct Shape {
    n: usize,
    block: usize,
}

impl Shape {
    /// The physical pass schedule (a pure function of the shape, like
    /// everything else about the network).
    fn passes(self) -> Vec<Pass> {
        let mut passes = vec![Pass::SortBlocks];
        let mut k = 2 * self.block;
        while k / 2 < self.n {
            passes.push(Pass::Flip { k });
            let mut j = k / 4;
            while j / 4 >= self.block {
                passes.push(Pass::Radix8 { j });
                j /= 8;
            }
            while j >= self.block {
                passes.push(Pass::Stride { j });
                j /= 2;
            }
            passes.push(Pass::MergeBlocks);
            k *= 2;
        }
        passes
    }

    /// Work units of one pass (the index space split across workers). The
    /// comparators or lanes a truncated stage keeps are a prefix of its
    /// unit space.
    fn units(self, pass: Pass) -> usize {
        match pass {
            Pass::SortBlocks | Pass::MergeBlocks => self.n.div_ceil(self.block),
            Pass::Flip { k } => truncated_stage_len(self.n as u64, k as u64) as usize,
            Pass::Stride { j } => truncated_stage_len(self.n as u64, 2 * j as u64) as usize,
            Pass::Radix8 { j } => radix8_lanes(self.n, j),
        }
    }
}

/// Runs work units `[u0, u1)` of `pass` over `base[0..shape.n]`, with `T`
/// as the in-register tail of the block passes.
///
/// # Safety
///
/// `base` must point to `shape.n` initialized words, `pass` must come from
/// `shape.passes()`, `u1 <= shape.units(pass)`, the CPU must support `T`'s
/// instruction set, and the caller must have exclusive access to every
/// element the unit range names — distinct units of one pass touch
/// disjoint elements, so any partition of the unit space across threads is
/// safe *within* a pass.
#[inline(always)]
unsafe fn run_pass<W: Word, T: Tail<W>>(
    base: *mut W,
    shape: Shape,
    pass: Pass,
    u0: usize,
    u1: usize,
) {
    let Shape { n, block } = shape;
    match pass {
        Pass::SortBlocks | Pass::MergeBlocks => {
            for b in u0..u1 {
                // SAFETY: block `b < ceil(n / block)` lies inside `[0, n)`
                // and is this caller's alone.
                let v = unsafe { run_at(base, b * block, block.min(n - b * block)) };
                if pass == Pass::SortBlocks {
                    // SAFETY: this function's contract covers `T`.
                    unsafe { sort_block::<W, T>(v) };
                } else {
                    // SAFETY: as above.
                    unsafe { stride_stages::<W, T>(v, block / 2) };
                }
            }
        }
        Pass::Flip { k } => {
            // Unit t is the comparator at distance s = t mod k/2 from the
            // midpoint of block t / (k/2): elements mid − 1 − s and
            // mid + s. Units below `units(pass)` have mid + s < n.
            let half = k / 2;
            let mut t = u0;
            while t < u1 {
                let (s, mid) = (t % half, t / half * k + half);
                let len = (half - s).min(u1 - t);
                // SAFETY: units `t .. t + len` own exactly these two
                // in-bounds runs, which lie on either side of `mid`.
                let (lo, hi) =
                    unsafe { (run_at(base, mid - s - len, len), run_at(base, mid + s, len)) };
                sweep_mirrored(lo, hi);
                t += len;
            }
        }
        Pass::Stride { j } => {
            // Unit t is comparator t of the stage: elements i and i + j
            // with i = 2j · (t / j) + t mod j, below n for kept units.
            let mut t = u0;
            while t < u1 {
                let off = t % j;
                let i = (t - off) * 2 + off;
                let len = (j - off).min(u1 - t);
                // SAFETY: units `t .. t + len` own exactly these two
                // in-bounds runs, disjoint because `len <= j`.
                let (lo, hi) = unsafe { (run_at(base, i, len), run_at(base, i + j, len)) };
                sweep(lo, hi);
                t += len;
            }
        }
        // SAFETY: this function's contract, lane for unit.
        Pass::Radix8 { j } => unsafe { radix8(base, n, j, u0, u1) },
    }
}

/// The run of `len` words at `base[at..]`.
///
/// # Safety
///
/// The run must be in bounds of the allocation behind `base` and not
/// aliased for as long as the returned slice lives.
#[inline(always)]
unsafe fn run_at<'a, W>(base: *mut W, at: usize, len: usize) -> &'a mut [W] {
    unsafe { core::slice::from_raw_parts_mut(base.add(at), len) }
}

/// The signature workers call a pass body through.
///
/// # Safety
///
/// [`run_pass`]'s contract; the CPU supports the body's instruction set.
type PassFn<W> = unsafe fn(*mut W, Shape, Pass, usize, usize);

/// [`run_pass`] compiled for AVX2 (256-bit compare+select).
///
/// # Safety
///
/// [`run_pass`]'s contract; the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_pass_avx2<W: Word>(base: *mut W, shape: Shape, pass: Pass, u0: usize, u1: usize) {
    // SAFETY: the caller's contract.
    unsafe { run_pass::<W, Windows>(base, shape, pass, u0, u1) }
}

/// [`run_pass`] compiled for AVX-512F (`vpminuq`/`vpmaxuq` and friends),
/// with `T` as its tail.
///
/// # Safety
///
/// [`run_pass`]'s contract; the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_pass_avx512<W: Word, T: Tail<W>>(
    base: *mut W,
    shape: Shape,
    pass: Pass,
    u0: usize,
    u1: usize,
) {
    // SAFETY: the caller's contract.
    unsafe { run_pass::<W, T>(base, shape, pass, u0, u1) }
}

/// The bodies for packed `u64` cells, one per instruction set.
const PASSES_U64: PerIsa<PassFn<u64>> = PerIsa {
    portable: run_pass::<u64, Windows>,
    #[cfg(target_arch = "x86_64")]
    avx2: run_pass_avx2::<u64>,
    #[cfg(target_arch = "x86_64")]
    avx512: run_pass_avx512::<u64, Tile>,
};

/// The bodies for tagged `u128` words, one per instruction set.
const PASSES_U128: PerIsa<PassFn<u128>> = PerIsa {
    portable: run_pass::<u128, Windows>,
    #[cfg(target_arch = "x86_64")]
    avx2: run_pass_avx2::<u128>,
    #[cfg(target_arch = "x86_64")]
    avx512: run_pass_avx512::<u128, Windows>,
};

// ---------------------------------------------------------------------------
// Pass driver (serial or barrier-synchronized workers)
// ---------------------------------------------------------------------------

/// A raw base pointer that workers share. Soundness comes from the pass
/// driver's partitioning (disjoint unit ranges → disjoint elements within
/// a pass) plus the per-pass barrier.
struct SendPtr<W>(*mut W);
// SAFETY: the pointer is only dereferenced under `run_pass`'s contract,
// which `sort_words` upholds for every worker; `W: Send` words may be
// written from any thread.
unsafe impl<W: Send> Send for SendPtr<W> {}
// SAFETY: as above — workers never touch the same element within a pass.
unsafe impl<W: Send> Sync for SendPtr<W> {}

/// Runs every pass of the schedule over `v` in `block`-word private
/// blocks, splitting each pass's unit range across `threads` workers — the
/// calling thread and `threads − 1` pool threads ([`crate::pool`], which
/// never queues a task behind a busy thread, so every worker reaches the
/// barrier) — with a barrier between passes. A one-pass schedule runs on
/// the caller alone, as does any pass with fewer units than workers. `run`
/// executes one unit range of one pass.
///
/// The output is identical for every thread count and block size: pass
/// results do not depend on intra-pass execution order (units of a pass
/// touch disjoint elements), and the barrier orders passes.
///
/// # Safety
///
/// The CPU supports `run`'s instruction set.
unsafe fn sort_words<W: Word>(v: &mut [W], threads: usize, block: usize, run: PassFn<W>) {
    assert!(block.is_power_of_two() && block >= 8, "a block holds whole register windows");
    let shape = Shape { n: v.len(), block };
    let passes = shape.passes();
    let workers = if passes.len() == 1 { 1 } else { threads.max(1) };
    let barrier = Barrier::new(workers);
    let ptr = SendPtr(v.as_mut_ptr());
    let (barrier, ptr, passes) = (&barrier, &ptr, &passes);
    let work = move |w: usize| {
        for &pass in passes {
            let units = shape.units(pass);
            let parts = if units < workers { 1 } else { workers };
            if w < parts {
                let (u0, u1) = (units * w / parts, units * (w + 1) / parts);
                // SAFETY: workers take disjoint unit ranges of a scheduled
                // pass over `v`, which this function borrows exclusively;
                // the barrier keeps every worker in the same pass; the
                // caller's contract covers the instruction set.
                unsafe { run(ptr.0, shape, pass, u0, u1) };
            }
            if workers > 1 {
                barrier.wait();
            }
        }
    };
    crate::pool::join((0..workers).map(|w| move || work(w)));
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Sorts packed `u64` cells (any length) ascending by their **raw value**
/// (the aggregation hot path: cells are index-major, so raw order is index
/// order) on `threads` workers. The output and the trace are the same at
/// every thread count and granularity.
pub fn bitonic_sort_u64_with<TR: Tracer>(buf: &mut TrackedBuf<u64>, threads: usize, tr: &mut TR) {
    emit_network_trace(buf, tr);
    sort_cells(buf.as_mut_slice_untraced(), threads);
}

/// Sorts pre-packed `(tag << 64) | payload` words ascending by their
/// **high 64 bits** (the oblivious-shuffle layout) on `threads` workers.
/// Tag ties are left where the network leaves them: a comparator swaps on
/// a strict tag inequality only.
pub fn bitonic_sort_tagged_with<TR: Tracer>(
    buf: &mut TrackedBuf<u128>,
    threads: usize,
    tr: &mut TR,
) {
    emit_network_trace(buf, tr);
    sort_tagged(buf.as_mut_slice_untraced(), threads);
}

/// [`bitonic_sort_u64_with`]'s data movement at the widest level this CPU
/// runs. Not generic, so the bodies are compiled once, in this crate.
fn sort_cells(v: &mut [u64], threads: usize) {
    // SAFETY: `get` picks the body of the level this CPU runs.
    unsafe { sort_words(v, threads, BLOCK, PASSES_U64.get()) }
}

/// [`bitonic_sort_tagged_with`]'s data movement, as [`sort_cells`].
fn sort_tagged(v: &mut [u128], threads: usize) {
    // SAFETY: as in `sort_cells`.
    unsafe { sort_words(v, threads, BLOCK, PASSES_U128.get()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::Oblivious;
    use crate::sort::bitonic_sort;
    use olive_memsim::{Access, Granularity, NullTracer, RecordingTracer};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_words(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    /// The scalar network over `data`, by raw value / by the high half.
    fn reference<W: Word + Oblivious>(data: &[W], key: fn(&W) -> u64) -> Vec<W> {
        let mut buf = TrackedBuf::new(0, data.to_vec());
        bitonic_sort(&mut buf, key, &mut NullTracer);
        buf.into_inner()
    }

    #[test]
    fn every_length_block_size_and_thread_count_matches_the_reference() {
        // Small private blocks put every boundary the schedule has —
        // register window, tile, block, first global round, several global
        // rounds — within reach of an exhaustive sweep over n. At block 8
        // the sweep runs past the first radix-8 round (k = 16·block), its
        // partial 2j group and its pad-filled lanes; at block 64 it crosses
        // tile boundaries at every n mod 64. Low-entropy keys make ties
        // (which must stay in place) the common case.
        assert!(Shape { n: 65, block: 8 }.passes().contains(&Pass::Radix8 { j: 32 }));
        let mut rng = SmallRng::seed_from_u64(12);
        for (block, last) in [(8usize, 32 * 8 + 9), (16, 4 * 16 + 9), (64, 4 * 64 + 9)] {
            for n in 0..=last {
                let cells: Vec<u64> = (0..n).map(|_| rng.gen_range(0..40)).collect();
                let tagged: Vec<u128> =
                    (0..n).map(|i| ((rng.gen_range(0..9u64) as u128) << 64) | i as u128).collect();
                let want_cells = reference(&cells, |c| *c);
                let want_tagged = reference(&tagged, |c| (c >> 64) as u64);
                for threads in [1usize, 2, 3] {
                    let (mut c, mut t) = (cells.clone(), tagged.clone());
                    // SAFETY: `get` picks the bodies of the level this CPU
                    // runs.
                    unsafe { sort_words(&mut c, threads, block, PASSES_U64.get()) };
                    // SAFETY: as above.
                    unsafe { sort_words(&mut t, threads, block, PASSES_U128.get()) };
                    assert_eq!(c, want_cells, "u64 n={n} block={block} threads={threads}");
                    assert_eq!(t, want_tagged, "u128 n={n} block={block} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn every_isa_body_matches_the_scalar_network() {
        // The same inputs through every body, at the schedule's boundaries:
        // global radix-8 rounds at block 8 and 64, tiles and their
        // remainder at 64, and at the real block the in-block radix-8
        // sweeps (strides ≥ 64) and a global one (n > 8·BLOCK).
        let bodies: Vec<_> =
            PASSES_U64.runnable().into_iter().zip(PASSES_U128.runnable()).collect();
        let names: Vec<&str> = bodies.iter().map(|b| b.0 .0).collect();
        eprintln!("sort kernel bodies exercised on this CPU: {names:?}");
        let mut rng = SmallRng::seed_from_u64(22);
        let shapes: [(usize, &[usize]); 3] = [
            (8, &[1, 63, 64, 65, 200, 265, 1000]),
            (64, &[64, 100, 129, 600, 4100]),
            (BLOCK, &[BLOCK, 5000, 8 * BLOCK + 333]),
        ];
        for (block, lengths) in shapes {
            for &n in lengths {
                let cells = random_words(n, n as u64);
                let tagged: Vec<u128> =
                    (0..n).map(|i| ((rng.gen_range(0..4u64) as u128) << 64) | i as u128).collect();
                let want_cells = reference(&cells, |c| *c);
                let want_tagged = reference(&tagged, |c| (c >> 64) as u64);
                for &((name, run_u64), (_, run_u128)) in &bodies {
                    for threads in [1usize, 2, 3] {
                        let (mut c, mut t) = (cells.clone(), tagged.clone());
                        // SAFETY: `runnable` lists the bodies this CPU runs.
                        unsafe { sort_words(&mut c, threads, block, run_u64) };
                        // SAFETY: as above.
                        unsafe { sort_words(&mut t, threads, block, run_u128) };
                        assert!(
                            c == want_cells,
                            "{name} u64 n={n} block={block} threads={threads}"
                        );
                        assert!(
                            t == want_tagged,
                            "{name} u128 n={n} block={block} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_block_sorts_and_one_unit_passes_run_on_the_caller() {
        use std::sync::Mutex;
        use std::thread::ThreadId;
        static CALLS: Mutex<Vec<(ThreadId, Pass)>> = Mutex::new(Vec::new());
        /// The portable body, recording which thread ran which pass.
        unsafe fn recording(base: *mut u64, shape: Shape, pass: Pass, u0: usize, u1: usize) {
            CALLS.lock().unwrap().push((std::thread::current().id(), pass));
            // SAFETY: the caller's contract is `run_pass`'s.
            unsafe { run_pass::<u64, Windows>(base, shape, pass, u0, u1) }
        }
        let caller = std::thread::current().id();
        let mut v = random_words(BLOCK, 1);
        // SAFETY: `recording` is the portable body.
        unsafe { sort_words(&mut v, 3, BLOCK, recording) };
        assert!(v.is_sorted());
        assert_eq!(*CALLS.lock().unwrap(), [(caller, Pass::SortBlocks)], "no worker for one block");
        CALLS.lock().unwrap().clear();
        // BLOCK + 1 cells: two blocks, and a flip of one comparator.
        let mut v = random_words(BLOCK + 1, 2);
        // SAFETY: as above.
        unsafe { sort_words(&mut v, 3, BLOCK, recording) };
        assert!(v.is_sorted());
        let calls = CALLS.lock().unwrap();
        assert_eq!(calls.len(), 3, "each pass on one thread: {calls:?}");
        assert!(calls.iter().all(|&(id, _)| id == caller), "{calls:?}");
    }

    #[test]
    fn schedule_sweeps_memory_a_few_dozen_times() {
        let sweeps = |n: usize, block: usize| Shape { n, block }.passes().len();
        // One sweep per flip, per radix-8 triple, per leftover stride and
        // per block pass: 1 + 2·10 + 21 at 2¹², 1 + 2·7 + 11 at 2¹⁵.
        assert_eq!(sweeps(2_109_210, 1 << 12), 42);
        assert_eq!(sweeps(2_109_210, 1 << 15), 26);
        assert_eq!(sweeps(BLOCK, BLOCK), 1, "a sort that fits one block never leaves it");
        assert_eq!(sweeps(BLOCK + 1, BLOCK), 3, "flip, merge");
        assert_eq!(sweeps(0, BLOCK), 1);
    }

    #[test]
    fn batched_u64_sorts() {
        for n in [0usize, 1, 2, 3, 4, 16, 100, 128, 1000, 1024] {
            let data = random_words(n, n as u64);
            let mut expected = data.clone();
            expected.sort_unstable();
            let mut buf = TrackedBuf::new(0, data);
            bitonic_sort_u64_with(&mut buf, 1, &mut NullTracer);
            assert_eq!(buf.into_inner(), expected, "n={n}");
        }
    }

    #[test]
    fn batched_matches_scalar_bitwise_u64() {
        for (n, threads) in [(64usize, 1usize), (257, 2), (8192, 8), (9001, 3)] {
            let data = random_words(n, 7);
            let mut scalar = TrackedBuf::new(0, data.clone());
            bitonic_sort(&mut scalar, |c| *c, &mut NullTracer);
            let mut batched = TrackedBuf::new(0, data);
            bitonic_sort_u64_with(&mut batched, threads, &mut NullTracer);
            assert_eq!(scalar.into_inner(), batched.into_inner(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn batched_digest_equals_scalar_digest() {
        let data = random_words(300, 9);
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let mut str_ = RecordingTracer::new(granularity);
            let mut sbuf = TrackedBuf::new(5, data.clone());
            bitonic_sort(&mut sbuf, |c| *c, &mut str_);
            for threads in [1usize, 2, 8] {
                let mut btr = RecordingTracer::new(granularity);
                let mut bbuf = TrackedBuf::new(5, data.clone());
                bitonic_sort_u64_with(&mut bbuf, threads, &mut btr);
                assert_eq!(btr.digest(), str_.digest(), "{granularity:?} threads={threads}");
            }
        }
    }

    #[test]
    fn tagged_kernel_matches_scalar_u128() {
        let mut rng = SmallRng::seed_from_u64(4);
        // Force plenty of tag collisions so the tie rule is exercised.
        let data: Vec<u128> =
            (0..250).map(|i| ((rng.gen_range(0..32u64) as u128) << 64) | i as u128).collect();
        let mut scalar = TrackedBuf::new(0, data.clone());
        bitonic_sort(&mut scalar, |c| (c >> 64) as u64, &mut NullTracer);
        let mut batched = TrackedBuf::new(0, data);
        bitonic_sort_tagged_with(&mut batched, 2, &mut NullTracer);
        assert_eq!(scalar.as_slice_untraced(), batched.into_inner());
    }

    #[test]
    fn inline_payload_round_trips() {
        assert_eq!(u64::from_word(0xdead_beefu64.to_word()), 0xdead_beef);
        assert_eq!(u64::from_word(u64::MAX.to_word()), u64::MAX);
    }

    const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];
    const GRANULARITIES: [Granularity; 2] = [Granularity::Element, Granularity::Cacheline];

    /// Lengths on both sides of a register window (8), of one block (4096,
    /// the longest one-pass schedule, which runs on the caller) and of the
    /// first global round (8192), with the powers of two — the degenerate,
    /// untruncated network — between them.
    const LENGTHS: [usize; 16] =
        [0, 1, 2, 3, 7, 8, 9, 100, 1024, 4095, 4096, 4097, 5000, 8191, 8192, 8201];

    /// Runs `sort` on a copy of `data` in region 9 under a tracer that
    /// keeps every event: the sorted words and the trace.
    fn traced<T: Copy>(
        data: &[T],
        granularity: Granularity,
        sort: impl FnOnce(&mut TrackedBuf<T>, &mut RecordingTracer),
    ) -> (Vec<T>, Vec<Access>) {
        let mut tr = RecordingTracer::with_events(granularity);
        let mut buf = TrackedBuf::new(9, data.to_vec());
        sort(&mut buf, &mut tr);
        (buf.into_inner(), tr.events().expect("built with events").to_vec())
    }

    /// The batched kernel's trace is the scalar network's, event for event
    /// — not only digest for digest — at every length, granularity and
    /// thread count, and so are its outputs.
    #[test]
    fn traces_identical_event_for_event_at_both_granularities_and_every_thread_count() {
        for n in LENGTHS {
            let data = random_words(n, 11);
            for granularity in GRANULARITIES {
                let scalar = traced(&data, granularity, |buf, tr| bitonic_sort(buf, |c| *c, tr));
                for threads in THREAD_COUNTS {
                    let batched = traced(&data, granularity, |buf, tr| {
                        bitonic_sort_u64_with(buf, threads, tr)
                    });
                    assert!(batched == scalar, "n={n} {granularity:?} threads={threads}");
                }
            }
        }
    }

    /// The u128 tagged path (the shuffle's layout) must report 16-byte
    /// elements exactly as the scalar network over the same packed words
    /// does — a regression in its trace emission (e.g. the wrong element
    /// size) would silently shift every shuffle trace — and leave tag ties
    /// where the network leaves them.
    #[test]
    fn tagged_kernel_traces_match_scalar_event_for_event() {
        for n in LENGTHS {
            let data: Vec<u128> = (0..n as u128)
                .map(|i| ((i.wrapping_mul(0x9e37_79b9) % 64) << 64) | (i & u64::MAX as u128))
                .collect();
            for granularity in GRANULARITIES {
                let scalar = traced(&data, granularity, |buf, tr| {
                    bitonic_sort(buf, |c| (c >> 64) as u64, tr)
                });
                for threads in THREAD_COUNTS {
                    let batched = traced(&data, granularity, |buf, tr| {
                        bitonic_sort_tagged_with(buf, threads, tr)
                    });
                    assert!(batched == scalar, "n={n} {granularity:?} threads={threads}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The batched kernel sorts every length up to two private blocks
        /// (2 · 2¹² cells) and a register window more — raw cells and
        /// tagged words — bitwise as the scalar network does, with its
        /// trace, on any number of workers.
        #[test]
        fn sort_kernel_matches_scalar_at_any_length(
            n in 0usize..=2 * 4096 + 9,
            near in (0usize..3).prop_map(|i| [8usize, 4096, 8192][i]),
            offset in 0usize..3,
            threads in (0usize..4).prop_map(|i| THREAD_COUNTS[i]),
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // A uniform length and one within ±1 of a window or block boundary.
            for n in [n, near + offset - 1] {
                let cells: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * n as u64 + 1)).collect();
                let tagged: Vec<u128> =
                    cells.iter().map(|&c| ((c as u128 / 8) << 64) | c as u128).collect();
                let run = |threads: Option<usize>| {
                    let mut tr = RecordingTracer::new(Granularity::Cacheline);
                    let mut c = TrackedBuf::new(1, cells.clone());
                    let mut t = TrackedBuf::new(3, tagged.clone());
                    match threads {
                        Some(threads) => {
                            bitonic_sort_u64_with(&mut c, threads, &mut tr);
                            bitonic_sort_tagged_with(&mut t, threads, &mut tr);
                        }
                        None => {
                            bitonic_sort(&mut c, |c| *c, &mut tr);
                            bitonic_sort(&mut t, |c| (c >> 64) as u64, &mut tr);
                        }
                    }
                    (c.into_inner(), t.into_inner(), tr.digest())
                };
                let batched = run(Some(threads));
                prop_assert!(batched.0.windows(2).all(|w| w[0] <= w[1]), "n={} unsorted", n);
                prop_assert_eq!(batched, run(None), "n={}", n);
            }
        }
    }
}
