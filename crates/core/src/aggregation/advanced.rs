//! The Advanced oblivious aggregation (Algorithm 4).
//!
//! Computes the dense aggregate *directly from the cell stream* — never
//! indexing `G*` by a secret — in four oblivious steps:
//!
//! 1. **initialization**: append one zero-valued cell per index `0..d`, so
//!    every index is guaranteed present (and the output histogram of
//!    indices is fixed) — `nk + d` cells, and nothing else: the network
//!    sorts any length, so the vector is not padded;
//! 2. **oblivious sort** by index (the bitonic network of
//!    `olive_oblivious::sort_kernel`, truncated at `nk + d`);
//! 3. **oblivious folding**: one linear pass accumulating runs of equal
//!    indices; every position is rewritten — either with the finalized
//!    `(index, sum)` of a completed run or with the dummy `(M₀, 0)` — via
//!    `o_mov`, so run boundaries (the index histogram!) stay hidden;
//! 4. **oblivious compaction**: the fold leaves the `d` real survivors
//!    (one per index) in ascending index order among the dummies, so the
//!    paper's second sort has nothing left to order — an in-place,
//!    order-preserving compaction (`olive_oblivious::compact`) moves them
//!    to the front exactly where that sort put them; take them.
//!
//! Fully oblivious (Proposition 5.2's argument): one fixed sorting
//! network, one fixed linear sweep, one fixed swap schedule — each a pure
//! function of `nk + d`. Complexity, with N = nk + d: O(N log² N) for the
//! sort + O(N log N) for the compaction, O(N) space — the `k·d` product of
//! the Baseline is gone.
//!
//! Worked example (the paper's Appendix E, n=3, k=2, d=4):
//!
//! ```
//! use olive_core::aggregation::{aggregate, AggregatorKind};
//! use olive_fl::SparseGradient;
//! use olive_memsim::NullTracer;
//! // user1: (1, 0.3), (3, 0.5); user2: (1, 0.8), (2, 0.9); user3: (0, 0.4), (1, 0.1)
//! let user = |indices: Vec<u32>, values: Vec<f32>| {
//!     SparseGradient { dense_dim: 4, indices, values }
//! };
//! let updates = [
//!     user(vec![1, 3], vec![0.3, 0.5]),
//!     user(vec![1, 2], vec![0.8, 0.9]),
//!     user(vec![0, 1], vec![0.4, 0.1]),
//! ];
//! let avg = aggregate(AggregatorKind::Advanced, &updates, 4, &mut NullTracer);
//! let sums: Vec<f32> = avg.iter().map(|v| v * 3.0).collect(); // undo the 1/n averaging
//! assert!((sums[0] - 0.4).abs() < 1e-6);
//! assert!((sums[1] - 1.2).abs() < 1e-6);
//! assert!((sums[2] - 0.9).abs() < 1e-6);
//! assert!((sums[3] - 0.5).abs() < 1e-6);
//! ```

use olive_fl::SparseGradient;
use olive_memsim::{ParallelTracer, StateError, StateReader, StateWriter, Tracer, TrackedBuf};
use olive_oblivious::compact::compact_u64;
use olive_oblivious::primitives::Oblivious;
use olive_oblivious::sort_kernel::bitonic_sort_u64_with;

use crate::cell::{cell_index, cell_value, dummy_cell, make_cell, push_cells};
use crate::regions::{REGION_G_STAR, REGION_SCRATCH};

use super::linear::average_in_place;
use super::streaming::Aggregator;

/// Enclave bytes one run of Algorithm 4 over `cells` uploaded cells holds
/// at its peak: the `cells + d` sort vector plus the dense output. The one
/// place the sort-vector length is written down — the streamers' ledger
/// charges and the closed-form `working_set_bytes` all come here.
pub(crate) fn sum_advanced_bytes(cells: usize, d: usize) -> u64 {
    (cells + d) as u64 * 8 + d as u64 * 4
}

/// Computes the **un-averaged** dense sums via Algorithm 4 over the
/// caller's cell vector — extended by the `d` initialization cells and
/// sorted in place, so the uploads are never copied — writing them into a
/// fresh `G*` buffer which is returned for further (oblivious)
/// processing. `cells` comes back empty with its capacity kept, ready to
/// stage the next run. The trace depends only on `(cells.len(), d)` — the
/// sort's trace and output are the same at every `threads` value
/// (`olive_oblivious::sort_kernel`); the compaction is serial.
pub(crate) fn sum_advanced<TR: Tracer>(
    cells: &mut Vec<u64>,
    d: usize,
    threads: usize,
    tr: &mut TR,
) -> TrackedBuf<f32> {
    let mut g = sort_and_fold(std::mem::take(cells), d, threads, tr);
    // Step 4: oblivious compaction; the d real survivors lead, in order.
    let survivors = compact_u64(&mut g, tr);
    // Exactly d for honest cells; a hostile cell's index at or past d
    // survives too, behind them.
    debug_assert!(survivors >= d, "initialization leaves a survivor per index");
    let gstar = emit_gstar(&g, d, tr);
    *cells = g.into_inner();
    cells.clear();
    gstar
}

/// Steps 1–3 of Algorithm 4: the folded `cells.len() + d` vector,
/// survivors ascending among dummies.
fn sort_and_fold<TR: Tracer>(
    mut cells: Vec<u64>,
    d: usize,
    threads: usize,
    tr: &mut TR,
) -> TrackedBuf<u64> {
    // Step 1: initialization — g ← g ∥ {(j, 0)} for j ∈ [d].
    cells.extend((0..d as u32).map(|j| make_cell(j, 0.0)));
    let mut g = TrackedBuf::new(REGION_SCRATCH, cells);

    // Step 2: oblivious sort by index (the packed u64 is index-major, so
    // sorting by raw value is sorting by index).
    bitonic_sort_u64_with(&mut g, threads, tr);

    // Step 3: oblivious folding (Algorithm 4 lines 6–14). The accumulator
    // lives in registers; every pass writes position i−1 exactly once.
    let first = g.read(0, tr);
    let mut acc_idx = cell_index(first);
    let mut acc_val = cell_value(first);
    for i in 1..g.len() {
        let cur = g.read(i, tr);
        let cur_idx = cell_index(cur);
        let cur_val = cell_value(cur);
        let same = cur_idx == acc_idx;
        // Same run → the prior slot becomes a dummy; run ends → the prior
        // slot receives the finalized (index, sum).
        let prior = u64::o_select(same, dummy_cell(), make_cell(acc_idx, acc_val));
        g.write(i - 1, prior, tr);
        acc_val = f32::o_select(same, acc_val + cur_val, cur_val);
        acc_idx = cur_idx;
    }
    let last = g.len() - 1;
    g.write(last, make_cell(acc_idx, acc_val), tr);
    g
}

/// Emits `G*`: a fixed in-order read of the first `d` cells and write-out.
fn emit_gstar<TR: Tracer>(g: &TrackedBuf<u64>, d: usize, tr: &mut TR) -> TrackedBuf<f32> {
    let mut gstar = TrackedBuf::<f32>::zeroed(REGION_G_STAR, d);
    for j in 0..d {
        let cell = g.read(j, tr);
        debug_assert_eq!(
            cell_index(cell),
            j as u32,
            "initialization guarantees exactly one survivor per index"
        );
        gstar.write(j, cell_value(cell), tr);
    }
    gstar
}

/// The cell buffer of the two *staged* kinds (Advanced, DiffOblivious).
///
/// Staging is an untraced linear copy of decoded uploads, so the buffer
/// after chunk i is a pure function of uploads `[0, i]` — ciphertexts
/// untrusted storage already holds, authenticated under the clients'
/// session keys. A checkpoint therefore carries only a constant-size
/// descriptor (`n`, cell count); a restored buffer **owes** that many
/// cells, and the round driver pays them back by re-opening the folded
/// prefix and handing it to [`StagedCells::restage`] before anything else
/// may touch the buffer.
pub(crate) struct StagedCells {
    cells: Vec<u64>,
    /// Clients staged (a restored buffer already counts the owed prefix).
    n: usize,
    /// Cells a loaded descriptor promised that have not been re-staged.
    owed: usize,
}

/// Panic message of any use of a buffer that still owes cells.
pub(crate) const OWED: &str = "staged cells are still owed: restage the folded prefix first";

impl StagedCells {
    pub(crate) fn new() -> Self {
        StagedCells { cells: Vec::new(), n: 0, owed: 0 }
    }

    fn push(&mut self, chunk: &[SparseGradient]) {
        for u in chunk {
            push_cells(&mut self.cells, u);
        }
    }

    /// Appends one chunk's cells and counts its clients.
    pub(crate) fn stage(&mut self, chunk: &[SparseGradient], d: usize) {
        assert_eq!(self.owed, 0, "{OWED}");
        assert!(chunk.iter().all(|u| u.dense_dim == d), "update dimension mismatch");
        self.push(chunk);
        self.n += chunk.len();
    }

    /// Pays back owed cells with a chunk of the folded prefix, without
    /// counting its clients again. Fails — leaving the buffer untouched —
    /// on a chunk the descriptor cannot have covered (more cells than
    /// owed, or the wrong dimension).
    pub(crate) fn restage(&mut self, chunk: &[SparseGradient], d: usize) -> Result<(), StateError> {
        let cells: usize = chunk.iter().map(SparseGradient::k).sum();
        if cells > self.owed || chunk.iter().any(|u| u.dense_dim != d) {
            return Err(StateError::Mismatch);
        }
        self.push(chunk);
        self.owed -= cells;
        Ok(())
    }

    pub(crate) fn clients(&self) -> usize {
        self.n
    }

    pub(crate) fn owed(&self) -> usize {
        self.owed
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.cells.len() as u64 * 8
    }

    /// The descriptor: client count and staged cell count.
    pub(crate) fn save(&self, w: &mut StateWriter) {
        w.put_usize(self.n);
        w.put_usize(self.cells.len() + self.owed);
    }

    /// Bytes [`StagedCells::save`] writes: two words.
    pub(crate) const SAVED_LEN: usize = 2 * 8;

    pub(crate) fn load(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        *self = StagedCells { cells: Vec::new(), n: r.get_usize()?, owed: r.get_usize()? };
        r.expect_end()
    }

    /// The whole round's cells, for finalize.
    pub(crate) fn into_cells(self) -> Vec<u64> {
        assert!(self.n > 0, "no updates to aggregate");
        assert_eq!(self.owed, 0, "{OWED}");
        self.cells
    }
}

/// Algorithm 4 end-to-end as a streamer: oblivious sums followed by the
/// oblivious averaging pass, with output and trace identical at every
/// thread count.
///
/// Algorithm 4 is *inherently monolithic*: its obliviousness proof rests
/// on one Batcher sort over the whole `nk + d` vector, so incoming chunks
/// can only be **staged** (an untraced linear copy of the cells) and the
/// sort/fold/compaction runs at finalize. Chunk boundaries therefore change
/// neither the output bits nor the trace — but the enclave working set
/// still grows with O(nk + d), which is exactly the paper's Figure 10
/// cliff and the reason the Grouped streamer exists. The EPC accounting
/// reports this honestly via [`Aggregator::resident_bytes`].
pub struct AdvancedStreamer {
    staged: StagedCells,
    pub(super) d: usize,
    threads: usize,
}

impl AdvancedStreamer {
    /// Fresh streamer over dimension `d`.
    pub fn init(d: usize, threads: usize) -> Self {
        AdvancedStreamer { staged: StagedCells::new(), d, threads }
    }
}

impl Aggregator for AdvancedStreamer {
    /// Stages the chunk (cells buffered until finalize).
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], _tr: &mut TR) {
        self.staged.stage(chunk, self.d);
    }

    /// Runs Algorithm 4 over everything staged.
    fn finalize<TR: ParallelTracer>(self, tr: &mut TR) -> Vec<f32> {
        let n = self.staged.clients();
        let mut gstar = sum_advanced(&mut self.staged.into_cells(), self.d, self.threads, tr);
        average_in_place(&mut gstar, n, tr);
        gstar.into_inner()
    }

    fn clients(&self) -> usize {
        self.staged.clients()
    }

    /// The staged cell buffer (grows with the round — the O(nk) this
    /// algorithm cannot avoid).
    fn resident_bytes(&self) -> u64 {
        self.staged.resident_bytes()
    }

    /// What Algorithm 4 holds beyond the staged cells it sorts in place:
    /// the `d` initialization cells and the dense output.
    fn finalize_scratch_bytes(&self) -> u64 {
        sum_advanced_bytes(self.staged.len(), self.d) - self.resident_bytes()
    }

    /// Configuration plus the staged-cell descriptor — constant size.
    fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.d);
        w.put_usize(self.threads);
        self.staged.save(w);
    }

    fn state_len(&self) -> usize {
        2 * 8 + StagedCells::SAVED_LEN
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        if r.get_usize()? != self.d || r.get_usize()? != self.threads {
            return Err(StateError::Mismatch);
        }
        self.staged.load(&mut r)
    }

    fn owed_cells(&self) -> usize {
        self.staged.owed()
    }

    fn restage(&mut self, chunk: &[SparseGradient]) -> Result<(), StateError> {
        self.staged.restage(chunk, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::*;
    use crate::aggregation::{aggregate_with_threads, reference_average, AggregatorKind};
    use crate::cell::{concat_cells, DUMMY_INDEX};
    use olive_memsim::{assert_oblivious, truncated_stage_len, Granularity, NullTracer};
    use olive_oblivious::compact::compact_swap_count;

    /// Algorithm 4 as the paper states it — step 4 a second oblivious
    /// sort: the oracle step 4's compaction is held to. Both sorts are the
    /// production network, which `olive-oblivious` holds to the
    /// one-comparator-at-a-time network event for event.
    fn sum_sorting_twice<TR: Tracer>(cells: Vec<u64>, d: usize, tr: &mut TR) -> TrackedBuf<f32> {
        let mut g = sort_and_fold(cells, d, 1, tr);
        bitonic_sort_u64_with(&mut g, 1, tr);
        emit_gstar(&g, d, tr)
    }

    /// The production sums over `cells`, as bits.
    fn sum_bits(cells: &[u64], d: usize) -> Vec<u32> {
        let sums = sum_advanced(&mut cells.to_vec(), d, 1, &mut NullTracer).into_inner();
        sums.iter().map(|x| x.to_bits()).collect()
    }

    /// The production sums over `cells` must be the oracle's, bit for bit.
    fn assert_sums_are_the_oracles(cells: &[u64], d: usize) {
        let want = sum_sorting_twice(cells.to_vec(), d, &mut NullTracer).into_inner();
        assert_eq!(sum_bits(cells, d), want.iter().map(|x| x.to_bits()).collect::<Vec<u32>>());
    }

    /// One-shot Advanced at an explicit thread count.
    fn advanced<TR: ParallelTracer>(
        updates: &[SparseGradient],
        d: usize,
        threads: usize,
        tr: &mut TR,
    ) -> Vec<f32> {
        aggregate_with_threads(AggregatorKind::Advanced, updates, d, threads, tr)
    }

    #[test]
    fn paper_running_example_appendix_e() {
        // n=3, k=2, d=4 — the worked example of Figure 17.
        let g = [
            make_cell(1, 0.3),
            make_cell(3, 0.5),
            make_cell(1, 0.8),
            make_cell(2, 0.9),
            make_cell(0, 0.4),
            make_cell(1, 0.1),
        ];
        let sums = sum_advanced(&mut g.to_vec(), 4, 1, &mut NullTracer).into_inner();
        assert_close(&sums, &[0.4, 1.2, 0.9, 0.5], 1e-6);
    }

    #[test]
    fn output_and_trace_invariant_across_thread_counts() {
        use olive_memsim::RecordingTracer;
        // 128 cells + d = 4000 make a 4128-cell sort vector: past the
        // kernel's internal parallelism threshold (threads ∈ {2, 8} must
        // genuinely run the barrier path for this test to mean anything),
        // past one private block, and not a power of two.
        let d = 4000;
        let updates = random_updates(8, 16, d, 77);
        let run = |threads: usize| {
            let mut tr = RecordingTracer::new(Granularity::Element);
            let out = advanced(&updates, d, threads, &mut tr);
            (out, tr.digest())
        };
        let (ref_out, ref_digest) = run(1);
        for threads in [2usize, 8] {
            let (out, digest) = run(threads);
            let same = ref_out.iter().zip(out.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} changed the f32 bits");
            assert_eq!(digest, ref_digest, "threads={threads} changed the trace");
        }
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        for seed in 0..5 {
            let updates = random_updates(6, 8, 40, seed);
            let got = advanced(&updates, 40, 1, &mut NullTracer);
            assert_close(&got, &reference_average(&updates, 40), 1e-4);
            assert_sums_are_the_oracles(&concat_cells(&updates), 40);
        }
    }

    #[test]
    fn all_clients_same_index_collapses_to_one_run() {
        let updates: Vec<SparseGradient> = (0..5)
            .map(|i| SparseGradient { dense_dim: 8, indices: vec![3], values: vec![i as f32] })
            .collect();
        let got = advanced(&updates, 8, 1, &mut NullTracer);
        assert!((got[3] - 2.0).abs() < 1e-6); // (0+1+2+3+4)/5
        assert!(got.iter().enumerate().all(|(j, &v)| j == 3 || v == 0.0));
        assert_sums_are_the_oracles(&concat_cells(&updates), 8);
    }

    /// Proposition 5.2: identical traces for any same-shape input, at both
    /// granularities.
    #[test]
    fn prop_5_2_fully_oblivious() {
        let inputs = vec![
            random_updates(4, 6, 64, 10),
            random_updates(4, 6, 64, 11),
            random_updates(4, 6, 64, 12),
        ];
        assert_oblivious(Granularity::Element, &inputs, |updates, tr| {
            advanced(updates, 64, 1, tr);
        });
        assert_oblivious(Granularity::Cacheline, &inputs, |updates, tr| {
            advanced(updates, 64, 1, tr);
        });
    }

    /// The fold must hide the index histogram: heavily skewed vs uniform
    /// index multiplicities produce identical traces.
    #[test]
    fn fold_hides_index_histogram() {
        // Input A: all 8 cells hit index 0. Input B: 8 distinct indices.
        let a = SparseGradient { dense_dim: 16, indices: vec![0; 8], values: vec![1.0; 8] };
        let b = SparseGradient { dense_dim: 16, indices: (0..8).collect(), values: vec![1.0; 8] };
        // (Duplicate indices within one client do not occur in top-k, but
        // the aggregate over clients routinely repeats indices; a single
        // update with repeats models the worst-case skew compactly.)
        let inputs = vec![vec![a], vec![b]];
        assert_oblivious(Granularity::Element, &inputs, |updates, tr| {
            advanced(updates, 16, 1, tr);
        });
        for skew in &inputs {
            assert_sums_are_the_oracles(&concat_cells(skew), 16);
        }
    }

    /// Cells no honest client sends — `M₀` with a value, indices at and
    /// past `d` — sit behind the `d` real survivors whichever way step 4
    /// runs: the outputs are the honest cells' own, and the trace is that
    /// of any input of the same shape.
    #[test]
    fn hostile_cells_change_neither_the_outputs_nor_the_trace() {
        use olive_memsim::trace_of;
        let d = 64;
        let honest = concat_cells(&random_updates(4, 6, d, 10));
        let mut hostile = honest.clone();
        hostile.extend([
            make_cell(DUMMY_INDEX, 3.5),
            make_cell(d as u32, 1.0),
            make_cell(DUMMY_INDEX - 1, -2.0),
        ]);
        assert_sums_are_the_oracles(&hostile, d);
        assert_eq!(sum_bits(&hostile, d), sum_bits(&honest, d));
        let same_shape = concat_cells(&random_updates(3, 9, d, 11));
        assert_eq!(same_shape.len(), hostile.len());
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let digest = |cells: &[u64]| {
                trace_of(granularity, |tr| drop(sum_advanced(&mut cells.to_vec(), d, 1, tr)))
            };
            assert_eq!(digest(&hostile), digest(&same_shape), "{granularity:?}");
        }
    }

    #[test]
    fn trace_grows_with_shape_only() {
        use olive_memsim::RecordingTracer;
        let t = |n: usize, k: usize, d: usize| {
            let updates = random_updates(n, k, d, 3);
            let mut tr = RecordingTracer::new(Granularity::Element);
            advanced(&updates, d, 1, &mut tr);
            tr.stats().total()
        };
        // Nothing is padded, so the trace grows strictly with every cell
        // of nk + d — one more client, one more cell per client, one more
        // dimension — including across a power of two (80 → 128 → 129).
        assert!(t(1, 16, 64) < t(2, 16, 64));
        assert!(t(2, 16, 64) < t(2, 17, 64));
        assert!(t(2, 17, 64) < t(2, 17, 65));
        assert!(t(4, 16, 64) < t(4, 16, 65));
        // Shape, not content: a different seed leaves the count alone.
        let other = |seed| {
            let mut tr = RecordingTracer::new(Granularity::Element);
            advanced(&random_updates(2, 16, 64, seed), 64, 1, &mut tr);
            tr.stats().total()
        };
        assert_eq!(other(3), other(4));
    }

    const PINNED_ELEMENT: &str =
        "TraceDigest { lane0: 15228406175031614799, lane1: 16684607007692618335, count: 1961647 }";
    const PINNED_CACHELINE: &str =
        "TraceDigest { lane0: 5531287215747815528, lane1: 8047230492126002354, count: 1961647 }";

    /// An Advanced run whose sort vector is just above a power of two
    /// (nk + d = 2¹³ + 5) must produce this trace — sort, fold, compaction,
    /// `G*` emission, averaging — step by step and through the aggregator,
    /// on one worker and on several. The constants are the digests of the
    /// scalar network's trace, which the batched kernel reproduces event
    /// for event (`olive-oblivious`'s unit tests); they were regenerated on
    /// purpose when step 4 became the compaction (3 452 834 accesses
    /// before).
    #[test]
    fn trace_just_above_a_power_of_two_is_pinned_across_kernels() {
        use olive_memsim::RecordingTracer;
        let (n, k, d) = (7, 171, 7000);
        let cells = (n * k + d) as u64;
        assert_eq!(cells, (1 << 13) + 5);
        // The count from the two closed forms: every stage of the
        // truncated network and S(N) swaps at four accesses each, the one
        // bare read of an odd N, the fold's read + write per cell, and a
        // read + write per dimension for G* and again for the average.
        let comparators: u64 = (1..=14)
            .map(|r| (1..=r).map(|s| truncated_stage_len(cells, 1 << s)).sum::<u64>())
            .sum();
        let swaps = compact_swap_count(cells);
        assert_eq!((comparators, swaps), (426_055, 53_258));
        let accesses = 4 * comparators + 2 * cells + 4 * swaps + cells % 2 + 4 * d as u64;
        assert_eq!(accesses, 1_961_647);
        let updates = random_updates(n, k, d, 5);
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let want = match granularity {
                Granularity::Element => PINNED_ELEMENT,
                Granularity::Cacheline => PINNED_CACHELINE,
            };
            let mut tr = RecordingTracer::new(granularity);
            let mut g = sort_and_fold(concat_cells(&updates), d, 1, &mut tr);
            compact_u64(&mut g, &mut tr);
            average_in_place(&mut emit_gstar(&g, d, &mut tr), n, &mut tr);
            assert_eq!(tr.digest().len(), accesses);
            assert_eq!(format!("{:?}", tr.digest()), want, "{granularity:?} step by step");
            for threads in [1usize, 2, 3] {
                let mut tr = RecordingTracer::new(granularity);
                let got = advanced(&updates, d, threads, &mut tr);
                assert_close(&got, &reference_average(&updates, d), 1e-4);
                assert_eq!(format!("{:?}", tr.digest()), want, "{granularity:?} threads={threads}");
            }
        }
    }

    /// The redefinition, event for event: the new trace is the old one —
    /// Algorithm 4 sorting twice — with exactly the second network's
    /// events replaced by the compaction schedule, nothing before or
    /// after them touched.
    #[test]
    fn new_trace_is_the_old_one_with_the_second_network_replaced() {
        use olive_memsim::RecordingTracer;
        let (d, cells) = (6, concat_cells(&random_updates(3, 5, 6, 9)));
        let events = |run: &dyn Fn(&mut RecordingTracer)| {
            let mut tr = RecordingTracer::with_events(Granularity::Element);
            run(&mut tr);
            tr.events().expect("built with events").to_vec()
        };
        let old = events(&|tr| drop(sum_sorting_twice(cells.clone(), d, tr)));
        let new = events(&|tr| drop(sum_advanced(&mut cells.clone(), d, 1, tr)));
        let scratch = || TrackedBuf::new(REGION_SCRATCH, vec![0u64; cells.len() + d]);
        let network = events(&|tr| bitonic_sort_u64_with(&mut scratch(), 1, tr));
        let compaction = events(&|tr| {
            compact_u64(&mut scratch(), tr);
        });
        // Sort 1 and the fold (a read and a write per cell) come first.
        let before = network.len() + 2 * (cells.len() + d);
        assert_eq!(old[..before], new[..before]);
        assert_eq!(old[..network.len()], network[..]);
        assert_eq!(old[before..before + network.len()], network[..]);
        assert_eq!(new[before..before + compaction.len()], compaction[..]);
        assert_eq!(old[before + network.len()..], new[before + compaction.len()..]);
        assert_eq!(old.len() - before - network.len(), 2 * d, "what follows is G*'s emission");
    }
}
