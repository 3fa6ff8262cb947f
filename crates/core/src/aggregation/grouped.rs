//! The grouped optimization of Advanced (Section 5.3), parallel across
//! groups.
//!
//! Batcher-sorting the full `nk + d` vector has poor locality: beyond the
//! L3 cache (8 MB) every long-stride exchange misses, and beyond the EPC
//! (96 MB) it page-faults with encrypted paging — the Figure 10 cliff at
//! N = 10⁴. The fix: split the n clients into groups of `h`, run Advanced
//! per group (working set `hk + d` cells), and accumulate the group sums
//! into a running total with an oblivious linear pass. Security is
//! unchanged — every step is oblivious and the group schedule is public.
//! Complexity O((n/h)·(hk+d)·log²(hk+d)) — per group one sort plus an
//! O((hk+d)·log(hk+d)) compaction; the optimal `h` balances sort size
//! against per-group overhead and is data-independent (Figure 11).
//!
//! # Parallelism
//!
//! Groups are independent until the carry, so the per-group sorts (the
//! dominant cost) run on `threads` workers of the process's worker pool
//! (`olive_oblivious::pool`): one group per worker, the calling thread
//! taking the wave's first group, with no thread started or left waiting
//! per wave. Three invariants make this safe and reproducible:
//!
//! * **Obliviousness is preserved.** Work is split into waves of `threads`
//!   groups by *position*, each worker traces into its own forked tracer,
//!   and workers are joined in group order — all functions of the public
//!   input shape, never of gradient content (`ParallelTracer`). With
//!   `threads = 1` the historical serial path runs and the trace is
//!   byte-identical to pre-parallel builds.
//! * **Output is bitwise thread-count-invariant.** The carry is a *fixed
//!   left fold* over group partials in group order — exactly the serial
//!   float-addition order — never first-come accumulation, and not a
//!   binary combine tree (f32 addition is non-associative, so a tree
//!   would change low bits vs. serial). The fold is O(G·d) but is linear
//!   work next to the O((hk+d)log²) sorts it sequences.
//! * **The trace *multiset* is thread-count-invariant.** Parallel runs
//!   reorder events across groups (sorts batch per wave, carries follow)
//!   but add or drop none, so the combined adversary view touches exactly
//!   the serial set of (region, offset, op) events.
//!
//! The default thread count is the process's
//! [`RuntimeConfig::threads`](olive_memsim::RuntimeConfig::threads)
//! (`OLIVE_THREADS`, else `available_parallelism().min(8)`).
//!
//! # Staging and scratch
//!
//! Clients buffer until a full processing unit is available (see
//! [`GroupedStreamer`]). A client's cells are staged **once**, straight
//! from its decoded upload into the buffer of its group within the unit —
//! one buffer per worker, kept for the whole round. When the unit fills,
//! each group's run of Algorithm 4 appends the `d` initialization cells
//! and sorts, folds and compacts in that same buffer, which then empties
//! for the next unit with its capacity intact: a round allocates
//! `threads` sort vectors, not two per group, and no upload is cloned or
//! copied between arrival and its group's sort.

use olive_fl::SparseGradient;
use olive_memsim::{ParallelTracer, Tracer, TrackedBuf};

use crate::cell::push_cells;
use crate::regions::REGION_G_STAR;

use super::advanced::{sum_advanced, sum_advanced_bytes};
use super::linear::average_in_place;
use super::streaming::Aggregator;

/// Oblivious carry: the fixed linear read-add-write sweep that folds one
/// group's partial sums into the running total (Section 5.3 step 3).
fn carry_into<TR: Tracer>(partial: &TrackedBuf<f32>, total: &mut TrackedBuf<f32>, tr: &mut TR) {
    for j in 0..total.len() {
        let p = partial.read(j, tr);
        let t = total.read(j, tr);
        total.write(j, t + p, tr);
    }
}

/// Runs one wave — one group per staged buffer in `groups`, each on its
/// own worker (group 0 on the calling thread, the rest on the pool) —
/// joining traces and folding partials strictly in group order.
fn run_wave<TR: ParallelTracer>(
    groups: &mut [Vec<u64>],
    d: usize,
    threads: usize,
    total: &mut TrackedBuf<f32>,
    tr: &mut TR,
) {
    // A full wave saturates the budget with one thread per group
    // (intra = 1); a short wave (the tail, or n/h < threads) hands
    // the leftover budget to each group's intra-sort stages. Safe
    // because sort output and trace are thread-count-invariant.
    let intra = (threads / groups.len()).max(1);
    let mut slots: Vec<Option<(TrackedBuf<f32>, TR::Worker)>> =
        (0..groups.len()).map(|_| None).collect();
    // Worker tracers are forked in group order, each as its task is made.
    olive_oblivious::pool::join(slots.iter_mut().zip(groups).map(|(slot, cells)| {
        let mut wtr = tr.fork_worker();
        move || {
            let partial = sum_advanced(cells, d, intra, &mut wtr);
            *slot = Some((partial, wtr));
        }
    }));
    // Join worker traces and fold partials strictly in group
    // order, regardless of which thread finished first.
    let (partials, workers): (Vec<_>, Vec<_>) =
        slots.into_iter().map(|s| s.expect("every group slot filled")).unzip();
    tr.join_workers(workers);
    for partial in &partials {
        carry_into(partial, total, tr);
    }
}

/// The grouped aggregation with `h` clients per group — the bounded-EPC
/// workhorse of the chunked round pipeline.
///
/// `threads = 1` (or a single group) runs the serial schedule and
/// reproduces the exact pre-parallel trace. Any `threads >= 2` runs groups
/// on pool workers; the output is bitwise identical to serial for
/// every thread count, and the merged trace is deterministic for a fixed
/// `(shape, threads)` pair.
///
/// The running total persists in the enclave; incoming clients buffer
/// until a full **processing unit** is available — one group of `h`
/// clients under a serial budget, one wave of `h·threads` clients under a
/// parallel budget — which then runs (`run_wave` / the serial group).
/// Because the processing schedule is a function of the *arrival count*
/// only, chunk boundaries change neither the output bits nor the trace:
/// streaming at any chunk size reproduces the single-chunk run
/// byte-for-byte. Peak memory is O(threads·(hk + d)) staged cells and sort
/// scratch (the same buffers) + O(threads·d) partials + O(d) for the
/// total — independent of the round size n.
pub struct GroupedStreamer {
    total: TrackedBuf<f32>,
    /// The pending unit's cells, one buffer per group of the unit (module
    /// docs): client `i` of the round stages into buffer
    /// `(i mod h·threads) / h`.
    groups: Vec<Vec<u64>>,
    pub(super) d: usize,
    h: usize,
    threads: usize,
    n: usize,
}

impl GroupedStreamer {
    /// Fresh streamer over dimension `d` with `h` clients per group.
    pub fn init(d: usize, h: usize, threads: usize) -> Self {
        assert!(h >= 1, "group size must be at least 1");
        assert!(threads >= 1, "thread count must be at least 1");
        // The running total lives in the enclave across groups (Section
        // 5.3 step 3: "record the aggregated value in the enclave, and
        // carry over the result to the next group").
        GroupedStreamer {
            total: TrackedBuf::zeroed(REGION_G_STAR, d),
            groups: vec![Vec::new(); threads],
            d,
            h,
            threads,
            n: 0,
        }
    }

    /// Clients per processing unit.
    fn unit(&self) -> usize {
        self.h * self.threads
    }

    /// Appends the next client's cells to its group's buffer. A group's
    /// first client sizes the buffer for the whole run of Algorithm 4 —
    /// `h` uploads like it plus the `d` initialization cells — once per
    /// round: after the first unit it already has the room.
    fn stage(&mut self, u: &SparseGradient) {
        let group = self.n % self.unit() / self.h;
        let cells = &mut self.groups[group];
        if cells.is_empty() {
            cells.reserve(self.h * u.k() + self.d);
        }
        push_cells(cells, u);
    }

    fn staged_cells(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

impl Aggregator for GroupedStreamer {
    /// Stages one chunk of client updates, running every processing unit
    /// (group or wave) as it fills.
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], tr: &mut TR) {
        for u in chunk {
            assert_eq!(u.dense_dim, self.d, "update dimension mismatch");
        }
        for u in chunk {
            self.stage(u);
            self.n += 1;
            if !self.n.is_multiple_of(self.unit()) {
                // A partial trailing unit stays pending — only at
                // finalize is the total count known, and the final
                // schedule (serial if n <= h, a short wave otherwise)
                // depends on it.
                continue;
            }
            if self.threads == 1 {
                // Serial group schedule: spend the whole thread budget
                // *inside* each group's sorts instead (the intra-sort
                // stage parallelism of `olive_oblivious::sort_kernel`).
                // threads = 1 reproduces the serial trace byte-for-byte.
                let partial = sum_advanced(&mut self.groups[0], self.d, 1, tr);
                carry_into(&partial, &mut self.total, tr);
            } else {
                // Waves of `threads` consecutive groups: bounds
                // partial-buffer memory at O(threads·d) and keeps the
                // carry order serial.
                run_wave(&mut self.groups, self.d, self.threads, &mut self.total, tr);
            }
        }
    }

    /// Drains the final partial unit, averages, and returns the dense
    /// update.
    fn finalize<TR: ParallelTracer>(mut self, tr: &mut TR) -> Vec<f32> {
        assert!(self.n > 0, "no updates to aggregate");
        let pending = self.n % self.unit();
        if pending > 0 {
            if self.threads == 1 || self.n <= self.h {
                // The serial schedule — one group, pending < h or n <= h —
                // with the whole intra-sort thread budget (what makes a
                // single huge group n <= h scale).
                let partial = sum_advanced(&mut self.groups[0], self.d, self.threads, tr);
                carry_into(&partial, &mut self.total, tr);
            } else {
                let groups = &mut self.groups[..pending.div_ceil(self.h)];
                run_wave(groups, self.d, self.threads, &mut self.total, tr);
            }
        }
        // Step 4: average only once, after the last group.
        average_in_place(&mut self.total, self.n, tr);
        self.total.into_inner()
    }

    fn clients(&self) -> usize {
        self.n
    }

    /// The running total plus the pending unit's staged cells.
    fn resident_bytes(&self) -> u64 {
        self.d as u64 * 4 + self.staged_cells() as u64 * 8
    }

    /// What one drained wave works in: per in-flight group, one run of
    /// Algorithm 4 — the group's cells and initialization cells, sorted in
    /// its staging buffer, and its dense partial. The buffers keep their
    /// capacity between units; the ledger charges them while a fold runs,
    /// where the round's peak is.
    fn ingest_scratch_bytes(&self, _chunk_clients: usize, k: usize) -> u64 {
        self.threads as u64 * sum_advanced_bytes(self.h * k, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::*;
    use crate::aggregation::{
        aggregate_with_threads, reference_average, AggregatorKind, StreamingAggregator,
    };
    use olive_memsim::{assert_oblivious, Granularity, NullTracer, RecordingTracer, RuntimeConfig};

    /// One-shot Grouped with `h` clients per group.
    fn grouped<TR: ParallelTracer>(
        updates: &[SparseGradient],
        d: usize,
        h: usize,
        threads: usize,
        tr: &mut TR,
    ) -> Vec<f32> {
        aggregate_with_threads(AggregatorKind::Grouped { h }, updates, d, threads, tr)
    }

    #[test]
    fn matches_reference_for_all_h() {
        let updates = random_updates(10, 5, 48, 20);
        let expected = reference_average(&updates, 48);
        for h in [1usize, 2, 3, 5, 10, 99] {
            let got = grouped(&updates, 48, h, RuntimeConfig::process().threads, &mut NullTracer);
            assert_close(&got, &expected, 1e-4);
        }
    }

    #[test]
    fn uneven_last_group_handled() {
        // 10 clients, h = 4 → groups of 4, 4, 2.
        let updates = random_updates(10, 3, 32, 21);
        let got = grouped(&updates, 32, 4, RuntimeConfig::process().threads, &mut NullTracer);
        assert_close(&got, &reference_average(&updates, 32), 1e-4);
    }

    #[test]
    fn oblivious_for_fixed_shape_at_every_thread_count() {
        let inputs = vec![
            random_updates(6, 4, 32, 1),
            random_updates(6, 4, 32, 2),
            random_updates(6, 4, 32, 3),
        ];
        for threads in [1usize, 2, 4] {
            assert_oblivious(Granularity::Element, &inputs, |updates, tr| {
                grouped(updates, 32, 2, threads, tr);
            });
        }
    }

    #[test]
    fn output_bitwise_identical_across_thread_counts() {
        // The fixed left-fold carry must make f32 rounding independent of
        // the worker count — bit-exact, not approximately equal.
        let updates = random_updates(11, 6, 64, 9);
        let serial = grouped(&updates, 64, 3, 1, &mut NullTracer);
        for threads in [2usize, 3, 8] {
            let par = grouped(&updates, 64, 3, threads, &mut NullTracer);
            let same = serial.iter().zip(par.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} changed the f32 bits");
        }
    }

    #[test]
    fn parallel_trace_multiset_equals_serial() {
        let updates = random_updates(9, 4, 40, 17);
        let events = |threads: usize| {
            let mut tr = RecordingTracer::with_events(Granularity::Element);
            grouped(&updates, 40, 2, threads, &mut tr);
            let mut ev: Vec<_> = tr
                .events()
                .unwrap()
                .iter()
                .map(|a| (a.region, a.offset, a.op == olive_memsim::Op::Write))
                .collect();
            ev.sort_unstable();
            ev
        };
        let serial = events(1);
        for threads in [2usize, 8] {
            assert_eq!(events(threads), serial, "threads={threads} changed the event multiset");
        }
    }

    #[test]
    fn parallel_trace_deterministic_per_thread_count() {
        // Scheduling noise (which worker finishes first) must not reach
        // the merged trace: same shape + same threads → same digest.
        let updates = random_updates(8, 4, 32, 23);
        let digest = || {
            let mut tr = RecordingTracer::new(Granularity::Element);
            grouped(&updates, 32, 2, 4, &mut tr);
            tr.digest()
        };
        assert_eq!(digest(), digest());
    }

    /// The restore contract at unit scale, at every thread count: a
    /// descriptor loaded with a partial unit pending (or none) and the
    /// folded prefix replayed in chunks of four — one spanning the
    /// boundary between the running total and the pending suffix — holds
    /// the original's state and finishes on the uninterrupted bits and
    /// trace.
    #[test]
    fn a_replayed_restore_finishes_on_the_uninterrupted_bits() {
        let (d, k, h) = (40, 4, 3);
        let updates = random_updates(20, k, d, 41);
        let kind = AggregatorKind::Grouped { h };
        for threads in [1usize, 2, 3] {
            let unit = h * threads;
            for folded in [unit, unit + 2, 2 * unit - 1] {
                let ctx = format!("threads={threads} folded={folded}");
                let mut a = StreamingAggregator::new(kind, d, threads);
                a.ingest(&updates[..folded], &mut NullTracer);
                let mut b = StreamingAggregator::new(kind, d, threads);
                b.load_state(&a.save_state()).expect("same configuration");
                for chunk in updates[..folded].chunks(4) {
                    b.replay(chunk).expect("a chunk of the folded prefix");
                }
                assert_eq!(b.resident_bytes(), a.resident_bytes(), "{ctx}: the pending unit");

                let mut tra = RecordingTracer::new(Granularity::Element);
                let mut trb = RecordingTracer::new(Granularity::Element);
                a.ingest(&updates[folded..], &mut tra);
                b.ingest(&updates[folded..], &mut trb);
                let (va, vb) = (a.finalize(&mut tra), b.finalize(&mut trb));
                assert!(va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits()), "{ctx}");
                assert_eq!(tra.digest(), trb.digest(), "{ctx}");
            }
        }
    }

    #[test]
    fn grouping_overhead_is_the_d_term() {
        // Grouping pays the d-sized zero-seed vector once per group:
        // with d ≫ k, h=1 (n groups) does far more work than h=n (one
        // group) — the "lowering h too much results in a large amount of
        // data loading" end of the Figure 11 U-curve.
        let updates = random_updates(8, 4, 256, 5);
        let trace_len = |h: usize| {
            let mut tr = RecordingTracer::new(Granularity::Element);
            grouped(&updates, 256, h, RuntimeConfig::process().threads, &mut tr);
            tr.stats().total()
        };
        assert!(trace_len(8) < trace_len(1));
    }
}
