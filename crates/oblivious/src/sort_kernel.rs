//! The batched sort kernel: the network of [`crate::sort`] run as
//! SIMD-friendly sweeps over private cache-sized blocks, with intra-sort
//! parallelism.
//!
//! The scalar network in [`crate::sort`] dispatches four traced accesses
//! and two `key` evaluations per comparator — correct and readable, but
//! ~10× slower than `std::sort_unstable` because the per-comparator
//! bookkeeping defeats vectorization. This module rebuilds the hot path
//! around four observations:
//!
//! 1. **The trace is a closed-form function of `n`.** A sorting network
//!    touches the same addresses whatever the data (Proposition 5.2), so
//!    the kernel does not need to *derive* the trace from its loads and
//!    stores: it emits the canonical comparator schedule as block events
//!    ([`Tracer::touch_flip_span`] and [`Tracer::touch_cex_span`], one per
//!    stage) and performs the data movement separately. Recording tracers
//!    expand each event deterministically into the exact per-access
//!    sequence of the scalar network, so digests agree at every
//!    granularity — and, because the emission is independent of the
//!    physical execution, they agree at **every thread count** too.
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
//! 4. **Most stages are local.** Every comparator of a round `k ≤ B`, and
//!    every stride stage `j < B` of any round, pairs elements of one
//!    `B`-aligned block. So the kernel does not sweep memory once per
//!    stage; its **pass schedule** is
//!
//!    * one *sort-blocks* pass that runs all rounds `k ≤ B` on each block
//!      while it sits in L1/L2, then
//!    * per round `k = 2B, 4B, …`: the *global* stages (the flip, then
//!      strides `k/4 … B`), one sweep of memory each, and one
//!      *merge-blocks* pass that runs strides `B/2 … 1` on each block.
//!
//!    A 2 M-cell sort makes 66 sweeps of memory at `B = 2¹²` where a
//!    stage-per-sweep schedule makes 209. Inside a block the three
//!    shortest strides (4, 2, 1) and the three opening rounds (2, 4, 8)
//!    run on 8-element windows held in registers. Blocked order is
//!    bitwise the stage order: a block pass only reorders comparators
//!    that act on *disjoint* blocks, and within a block it keeps them in
//!    stage order — comparators on disjoint cells commute. Workers split
//!    a pass (blocks of a block pass, comparator ranges of a global one)
//!    with one barrier per pass.
//!
//! Nothing is padded: the schedule and every sweep stop at `n`, like the
//! network they implement.
//!
//! The scalar reference network stays reachable through the `*_with`
//! entry points (`SortKernel::Scalar`): it is the oracle the differential
//! suites compare this kernel against, and nothing selects it at run time.

use std::sync::Barrier;

use olive_memsim::{truncated_stage_len, Tracer, TrackedBuf};

use crate::isa::{isa, Isa};
use crate::sort::bitonic_sort;

/// Cells per private block of the pass schedule (a power of two, at least
/// one register window): 32 KiB of `u64` cells, 64 KiB of packed `u128`
/// words — L1/L2-resident, and small enough that a 2¹⁵-cell group sort
/// still has blocks to hand to every worker.
const BLOCK: usize = 1 << 12;

/// Below this length the per-pass barrier costs more than the passes;
/// the batched kernel runs on the calling thread.
const MIN_PARALLEL_N: usize = 1 << 12;

/// Which implementation of the bitonic network runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortKernel {
    /// The readable per-comparator reference network of [`crate::sort`].
    Scalar,
    /// The batched stage kernel of this module.
    Batched,
}

/// The kernel the default entry points run: always the batched one.
/// (A function because run headers print it.)
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
/// events, in the canonical order of [`crate::sort`]: rounds ascending,
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

/// Comparators of stride stages 4, 2 and 1 on one 8-element window.
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

/// Runs `net` on every aligned 8-element window of `v`. Strides 4, 2, 1
/// have runs too short for wide sweeps, and fusing them replaces three
/// passes over the block with one. The partial last window is run padded
/// with [`Word::PAD`], which its comparators never move.
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

/// Stride stages `j, j/2, …, 1` over a slice that starts `2j`-aligned:
/// what follows the flip in every round. `j` is 4 or a larger power of two.
#[inline(always)]
fn stride_stages<W: Word>(v: &mut [W], mut j: usize) {
    while j >= 8 {
        let mut base = 0;
        while base + j < v.len() {
            let len = j.min(v.len() - base - j);
            let (lo, hi) = v[base..base + j + len].split_at_mut(j);
            sweep(&mut lo[..len], hi);
            base += 2 * j;
        }
        j /= 2;
    }
    windows8(v, &MERGE8);
}

/// Every round `k ≤ B` of the network on one block (`v.len() ≤ B`).
#[inline(always)]
fn sort_block<W: Word>(v: &mut [W]) {
    windows8(v, &SORT8);
    let mut k = 16;
    while k / 2 < v.len() {
        flip_stage(v, k);
        stride_stages(v, k / 4);
        k *= 2;
    }
}

// ---------------------------------------------------------------------------
// Pass schedule
// ---------------------------------------------------------------------------

/// One physical pass: a unit of work between two barriers whose work
/// units (blocks, or comparators of one stage) touch disjoint elements.
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
    /// comparators a truncated stage keeps are a prefix of its unit space.
    fn units(self, pass: Pass) -> usize {
        match pass {
            Pass::SortBlocks | Pass::MergeBlocks => self.n.div_ceil(self.block),
            Pass::Flip { k } => truncated_stage_len(self.n as u64, k as u64) as usize,
            Pass::Stride { j } => truncated_stage_len(self.n as u64, 2 * j as u64) as usize,
        }
    }
}

/// Runs work units `[u0, u1)` of `pass` over `base[0..shape.n]`.
///
/// # Safety
///
/// `base` must point to `shape.n` initialized words, `pass` must come from
/// `shape.passes()`, `u1 <= shape.units(pass)`, and the caller must have
/// exclusive access to every element the unit range names — distinct units
/// of one pass touch disjoint elements, so any partition of the unit space
/// across threads is safe *within* a pass.
#[inline(always)]
unsafe fn run_pass<W: Word>(base: *mut W, shape: Shape, pass: Pass, u0: usize, u1: usize) {
    let Shape { n, block } = shape;
    match pass {
        Pass::SortBlocks | Pass::MergeBlocks => {
            for b in u0..u1 {
                // SAFETY: block `b < ceil(n / block)` lies inside `[0, n)`
                // and is this caller's alone.
                let v = unsafe { run_at(base, b * block, block.min(n - b * block)) };
                if pass == Pass::SortBlocks {
                    sort_block(v);
                } else {
                    stride_stages(v, block / 2);
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

/// The signature workers call a monomorphized [`run_pass`] through.
type PassFn<W> = unsafe fn(*mut W, Shape, Pass, usize, usize);

macro_rules! isa_monomorphizations {
    ($word:ty, $dispatch:ident, $avx2:ident, $avx512:ident) => {
        /// AVX2 monomorphization (256-bit compare+select).
        ///
        /// # Safety
        ///
        /// [`run_pass`]'s contract; the CPU must support AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2(base: *mut $word, shape: Shape, pass: Pass, u0: usize, u1: usize) {
            unsafe { run_pass(base, shape, pass, u0, u1) }
        }

        /// AVX-512 monomorphization (`vpminuq`/`vpmaxuq` and friends).
        ///
        /// # Safety
        ///
        /// [`run_pass`]'s contract; the CPU must support AVX-512F.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $avx512(base: *mut $word, shape: Shape, pass: Pass, u0: usize, u1: usize) {
            unsafe { run_pass(base, shape, pass, u0, u1) }
        }

        /// Runs units `[u0, u1)` of `pass` at the widest instruction set
        /// the CPU has.
        ///
        /// # Safety
        ///
        /// [`run_pass`]'s contract.
        unsafe fn $dispatch(base: *mut $word, shape: Shape, pass: Pass, u0: usize, u1: usize) {
            match isa() {
                // SAFETY: the caller's contract is `run_pass`'s; the wider
                // monomorphizations run only after feature detection.
                Isa::Portable => unsafe { run_pass(base, shape, pass, u0, u1) },
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { $avx2(base, shape, pass, u0, u1) },
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { $avx512(base, shape, pass, u0, u1) },
            }
        }
    };
}

isa_monomorphizations!(u64, run_pass_u64, run_pass_u64_avx2, run_pass_u64_avx512);
isa_monomorphizations!(u128, run_pass_u128, run_pass_u128_avx2, run_pass_u128_avx512);

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
/// blocks, splitting each pass's unit range across `threads` workers with
/// a barrier between passes. `run` executes one unit range of one pass.
///
/// The output is identical for every thread count and block size: pass
/// results do not depend on intra-pass execution order (units of a pass
/// touch disjoint elements), and the barrier orders passes.
fn sort_words<W: Word>(v: &mut [W], threads: usize, block: usize, run: PassFn<W>) {
    let workers = if v.len() < MIN_PARALLEL_N { 1 } else { threads };
    sort_words_on(v, workers, block, run)
}

/// [`sort_words`] on exactly `workers` threads, whatever the length.
fn sort_words_on<W: Word>(v: &mut [W], workers: usize, block: usize, run: PassFn<W>) {
    assert!(block.is_power_of_two() && block >= 8, "a block holds whole register windows");
    let shape = Shape { n: v.len(), block };
    let passes = shape.passes();
    if workers <= 1 {
        for &pass in &passes {
            // SAFETY: the whole unit range of a scheduled pass over the
            // exclusively borrowed `v`.
            unsafe { run(v.as_mut_ptr(), shape, pass, 0, shape.units(pass)) };
        }
        return;
    }
    let barrier = Barrier::new(workers);
    let ptr = SendPtr(v.as_mut_ptr());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (barrier, ptr, passes) = (&barrier, &ptr, &passes);
            scope.spawn(move || {
                for &pass in passes {
                    let units = shape.units(pass);
                    let (u0, u1) = (units * w / workers, units * (w + 1) / workers);
                    if u1 > u0 {
                        // SAFETY: workers take disjoint unit ranges of a
                        // scheduled pass over `v`, which this scope
                        // borrows exclusively; the barrier keeps every
                        // worker in the same pass.
                        unsafe { run(ptr.0, shape, pass, u0, u1) };
                    }
                    barrier.wait();
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Sorts packed `u64` cells (any length) ascending by their **raw value**
/// (the aggregation hot path: cells are index-major, so raw order is index
/// order), every knob explicit (how the differential tests reach the
/// scalar reference network).
///
/// Both kernels produce bitwise-identical outputs and digest-identical
/// traces at every length, thread count and granularity.
pub fn bitonic_sort_u64_with<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) {
    match kernel {
        SortKernel::Scalar => bitonic_sort(buf, |c| *c, tr),
        SortKernel::Batched => {
            emit_network_trace(buf, tr);
            sort_words(buf.as_mut_slice_untraced(), threads, BLOCK, run_pass_u64);
        }
    }
}

/// Sorts pre-packed `(tag << 64) | payload` words ascending by their
/// **high 64 bits** (the oblivious-shuffle layout). Tag ties are left in
/// place, so the result is bitwise identical to [`bitonic_sort`] with
/// `key = |c| (c >> 64) as u64`.
pub fn bitonic_sort_tagged_with<TR: Tracer>(
    buf: &mut TrackedBuf<u128>,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) {
    match kernel {
        SortKernel::Scalar => bitonic_sort(buf, |c| (c >> 64) as u64, tr),
        SortKernel::Batched => {
            emit_network_trace(buf, tr);
            sort_words(buf.as_mut_slice_untraced(), threads, BLOCK, run_pass_u128);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::Oblivious;
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};
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
        // register window, block, first global round, several global
        // rounds — within reach of an exhaustive sweep over n. Low-entropy
        // keys make ties (which must stay in place) the common case.
        let mut rng = SmallRng::seed_from_u64(12);
        for block in [8usize, 16, 64] {
            for n in 0..=4 * block + 9 {
                let cells: Vec<u64> = (0..n).map(|_| rng.gen_range(0..40)).collect();
                let tagged: Vec<u128> =
                    (0..n).map(|i| ((rng.gen_range(0..9u64) as u128) << 64) | i as u128).collect();
                let want_cells = reference(&cells, |c| *c);
                let want_tagged = reference(&tagged, |c| (c >> 64) as u64);
                for threads in [1usize, 2, 3] {
                    let (mut c, mut t) = (cells.clone(), tagged.clone());
                    // The driver's own size gate is bypassed so the
                    // barrier path runs at these lengths too.
                    sort_words_on(&mut c, threads, block, run_pass_u64);
                    sort_words_on(&mut t, threads, block, run_pass_u128);
                    assert_eq!(c, want_cells, "u64 n={n} block={block} threads={threads}");
                    assert_eq!(t, want_tagged, "u128 n={n} block={block} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn schedule_sweeps_memory_a_few_dozen_times() {
        let sweeps = |n: usize, block: usize| Shape { n, block }.passes().len();
        assert_eq!(sweeps(2_109_210, 1 << 12), 66);
        assert_eq!(sweeps(2_109_210, 1 << 15), 36);
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
            bitonic_sort_u64_with(&mut buf, SortKernel::Batched, 1, &mut NullTracer);
            assert_eq!(buf.into_inner(), expected, "n={n}");
        }
    }

    #[test]
    fn batched_matches_scalar_bitwise_u64() {
        for (n, threads) in [(64usize, 1usize), (257, 2), (8192, 8), (9001, 3)] {
            let data = random_words(n, 7);
            let mut scalar = TrackedBuf::new(0, data.clone());
            bitonic_sort_u64_with(&mut scalar, SortKernel::Scalar, 1, &mut NullTracer);
            let mut batched = TrackedBuf::new(0, data);
            bitonic_sort_u64_with(&mut batched, SortKernel::Batched, threads, &mut NullTracer);
            assert_eq!(scalar.into_inner(), batched.into_inner(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn batched_digest_equals_scalar_digest() {
        let data = random_words(300, 9);
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let mut str_ = RecordingTracer::new(granularity);
            let mut sbuf = TrackedBuf::new(5, data.clone());
            bitonic_sort_u64_with(&mut sbuf, SortKernel::Scalar, 1, &mut str_);
            for threads in [1usize, 2, 8] {
                let mut btr = RecordingTracer::new(granularity);
                let mut bbuf = TrackedBuf::new(5, data.clone());
                bitonic_sort_u64_with(&mut bbuf, SortKernel::Batched, threads, &mut btr);
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
        bitonic_sort_tagged_with(&mut scalar, SortKernel::Scalar, 1, &mut NullTracer);
        let mut batched = TrackedBuf::new(0, data);
        bitonic_sort_tagged_with(&mut batched, SortKernel::Batched, 2, &mut NullTracer);
        assert_eq!(scalar.as_slice_untraced(), batched.into_inner());
    }

    #[test]
    fn inline_payload_round_trips() {
        assert_eq!(u64::from_word(0xdead_beefu64.to_word()), 0xdead_beef);
        assert_eq!(u64::from_word(u64::MAX.to_word()), u64::MAX);
    }
}
