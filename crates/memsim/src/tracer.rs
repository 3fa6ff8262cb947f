//! The tracer trait and its null / recording implementations.

use crate::digest::TraceDigest;
use crate::CACHELINE_BYTES;

/// Identifies a logical memory region visible to the adversary.
///
/// The paper names two: `G` (concatenated client gradients) and `G*`
/// (the aggregated dense gradient). Region ids let a trace distinguish
/// accesses to distinct buffers the way distinct base addresses would.
pub type RegionId = u32;

/// Memory operation kind, matching the paper's `op ∈ {read, write}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One observed access: the paper's triple `(A[i], op, val)` with the value
/// omitted (values are ciphertext/enclave-private; the adversary observes
/// addresses and operations only — Section 3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// Which buffer.
    pub region: RegionId,
    /// Granularity-adjusted offset within the buffer: the element index in
    /// [`Granularity::Element`] mode, the cacheline index in
    /// [`Granularity::Cacheline`] mode.
    pub offset: u64,
    /// Load or store.
    pub op: Op,
}

/// Observation granularity of the side channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// Byte/element-exact observation (e.g. a probe on the memory bus).
    Element,
    /// 64-byte cacheline observation, the practical SGX attack granularity
    /// (controlled-channel / cache attacks, Section 2.3 and Figure 7).
    Cacheline,
}

impl Granularity {
    #[inline]
    fn reduce(self, byte_off: u64) -> u64 {
        match self {
            Granularity::Element => byte_off,
            Granularity::Cacheline => byte_off / CACHELINE_BYTES,
        }
    }
}

/// The footprint of one compare-exchange of elements `i < l`.
#[inline(always)]
fn touch_comparator<TR: Tracer + ?Sized>(
    tr: &mut TR,
    region: RegionId,
    elem_bytes: u32,
    i: u64,
    l: u64,
) {
    let eb = elem_bytes as u64;
    tr.touch(region, i * eb, elem_bytes, Op::Read);
    tr.touch(region, l * eb, elem_bytes, Op::Read);
    tr.touch(region, i * eb, elem_bytes, Op::Write);
    tr.touch(region, l * eb, elem_bytes, Op::Write);
}

/// Comparators one stage of the sorting network keeps when it is truncated
/// at length `n`: the stage pairs the lower half of every `span`-aligned
/// block with its upper half (`span = 2 · stride` for a stride stage,
/// `span = k` for the flip stage of round `k`), and a comparator survives
/// iff its upper element is below `n`. Whole blocks keep `span / 2` each;
/// the partial block keeps one per element past its midpoint.
#[inline]
pub fn truncated_stage_len(n: u64, span: u64) -> u64 {
    debug_assert!(span.is_power_of_two() && span >= 2);
    (n / span) * (span / 2) + (n % span).saturating_sub(span / 2)
}

/// The instrumentation hook. Algorithms call [`Tracer::touch`] for every
/// access to adversary-visible memory.
pub trait Tracer {
    /// Records an access of `len` bytes at byte offset `byte_off` in
    /// `region`.
    fn touch(&mut self, region: RegionId, byte_off: u64, len: u32, op: Op);

    /// Records a contiguous run of **stride-stage** compare-exchanges of
    /// the sorting network as one block event (the sort kernel's batched
    /// trace API).
    ///
    /// The run covers comparators `first .. first + count` of a stage with
    /// partner distance `stride` (a power of two) over `elem_bytes`-sized
    /// elements. Comparator `t` exchanges elements
    ///
    /// ```text
    /// i = ((t & !(stride - 1)) << 1) | (t & (stride - 1)),   l = i + stride
    /// ```
    ///
    /// and its memory footprint is, by definition, `read i, read l,
    /// write i, write l` — exactly what the scalar network performs via
    /// `read_pair`/`write_pair`. `l` grows with `t`, so the comparators a
    /// network truncated at length `n` keeps (`l < n`) are the prefix
    /// `t < `[`truncated_stage_len`]`(n, 2 * stride)`. The event is a pure
    /// function of its arguments; the default implementation *expands* it
    /// into those per-element [`Tracer::touch`] calls, so recording
    /// tracers absorb a digest **identical** to the scalar network's at
    /// every granularity, and any contiguous split of a span expands to
    /// the same sequence. Tracers that discard events ([`NullTracer`])
    /// override this with a no-op, so the batched kernel pays one inlined
    /// no-op per stage instead of four dispatches per comparator.
    #[inline]
    fn touch_cex_span(
        &mut self,
        region: RegionId,
        elem_bytes: u32,
        stride: u64,
        first: u64,
        count: u64,
    ) {
        debug_assert!(stride.is_power_of_two(), "comparator stride must be a power of two");
        for t in first..first + count {
            let i = ((t & !(stride - 1)) << 1) | (t & (stride - 1));
            touch_comparator(self, region, elem_bytes, i, i + stride);
        }
    }

    /// Records a contiguous run of **flip-stage** compare-exchanges as one
    /// block event: the stage that opens round `k` (a power of two) of the
    /// all-ascending network by pairing each element of a `k`-aligned
    /// block with its mirror image. Comparator `t` exchanges elements
    ///
    /// ```text
    /// i = ((t & !(k/2 - 1)) << 1) | (t & (k/2 - 1)),   l = i ^ (k - 1)
    /// ```
    ///
    /// with the same `read i, read l, write i, write l` footprint, the same
    /// expansion rule and the same split invariance as
    /// [`Tracer::touch_cex_span`]. Here `l` *falls* as `t` walks a block,
    /// so a network truncated at `n` keeps every comparator of the whole
    /// blocks and the **last** [`truncated_stage_len`]`(n, k) mod k/2`
    /// comparators of the partial one.
    #[inline]
    fn touch_flip_span(
        &mut self,
        region: RegionId,
        elem_bytes: u32,
        k: u64,
        first: u64,
        count: u64,
    ) {
        debug_assert!(k.is_power_of_two() && k >= 2, "flip round must be a power of two");
        let half = k / 2;
        for t in first..first + count {
            let i = ((t & !(half - 1)) << 1) | (t & (half - 1));
            touch_comparator(self, region, elem_bytes, i, i ^ (k - 1));
        }
    }

    /// Records a run of **conditional pair swaps** as one block event (the
    /// oblivious compaction's trace API): swap `t` of `count` exchanges
    /// elements `lo + t` and `lo + t + stride`, ascending in `t`, with the
    /// comparator's `read i, read l, write i, write l` footprint whether
    /// or not it swaps. Unlike [`Tracer::touch_cex_span`] the lower run may
    /// start anywhere and `stride` is any distance; the same expansion
    /// rule and split invariance hold, and [`NullTracer`] discards it.
    #[inline]
    fn touch_swap_run(
        &mut self,
        region: RegionId,
        elem_bytes: u32,
        lo: u64,
        stride: u64,
        count: u64,
    ) {
        for i in lo..lo + count {
            touch_comparator(self, region, elem_bytes, i, i + stride);
        }
    }

    /// Records a contiguous run of read-modify-write slot accesses as **one
    /// block event** (the Baseline aggregation's stripe-scan trace API).
    ///
    /// The run covers slots `first, first + stride, …` (`count` of them) of
    /// `elem_bytes`-sized elements; each slot's footprint is, by definition,
    /// `read slot, write slot` — exactly what the serial scan performs via
    /// `TrackedBuf::read`/`TrackedBuf::write`. Like [`Tracer::touch_cex_span`]
    /// the event is a pure function of its arguments: the default
    /// implementation expands it into those per-element [`Tracer::touch`]
    /// calls so recording tracers absorb a digest identical to the serial
    /// scan's at every granularity, while [`NullTracer`] overrides it with a
    /// no-op so batched kernels pay nothing per block.
    #[inline]
    fn touch_rw_stripe(
        &mut self,
        region: RegionId,
        elem_bytes: u32,
        first: u64,
        stride: u64,
        count: u64,
    ) {
        let eb = elem_bytes as u64;
        for t in 0..count {
            let j = first + t * stride;
            self.touch(region, j * eb, elem_bytes, Op::Read);
            self.touch(region, j * eb, elem_bytes, Op::Write);
        }
    }

    /// Whether this tracer keeps full event logs (used by code that can
    /// skip expensive bookkeeping otherwise).
    #[inline]
    fn is_recording(&self) -> bool {
        false
    }
}

/// A tracer that can observe a *parallel* oblivious region.
///
/// Data-parallel algorithms (the grouped aggregation of Section 5.3) hand
/// each thread its own [`ParallelTracer::Worker`] so workers never contend
/// on the parent, then merge every worker trace back **in a fixed,
/// data-independent order** (the public group schedule). Because both the
/// work split and the join order are functions of the input *shape* only,
/// forking cannot introduce a data-dependent access pattern: the merged
/// trace is deterministic for a given thread count, and
/// [`crate::assert_oblivious`]-style digest comparison remains sound.
///
/// The parent's digest after a join is a digest *of* the worker digests
/// (see [`TraceDigest::absorb_child`]) — still order-sensitive and
/// collision-resistant, but not equal to a serial replay of the same
/// events. Single-threaded runs should bypass fork/join entirely so that
/// `threads = 1` reproduces the exact historical serial trace.
pub trait ParallelTracer: Tracer {
    /// The per-thread tracer handed to one worker.
    type Worker: Tracer + Send;

    /// Creates a fresh worker tracer inheriting this tracer's
    /// configuration (granularity, event retention).
    fn fork_worker(&self) -> Self::Worker;

    /// Merges worker traces back into this tracer. The caller must supply
    /// the workers in a public, data-independent order; the merge itself
    /// is deterministic in that order.
    fn join_workers(&mut self, workers: impl IntoIterator<Item = Self::Worker>);
}

/// A tracer that compiles to nothing: used on the benchmark hot path.
#[derive(Default, Clone, Copy, Debug)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn touch(&mut self, _region: RegionId, _byte_off: u64, _len: u32, _op: Op) {}

    #[inline(always)]
    fn touch_cex_span(&mut self, _r: RegionId, _eb: u32, _stride: u64, _first: u64, _count: u64) {}

    #[inline(always)]
    fn touch_flip_span(&mut self, _r: RegionId, _eb: u32, _k: u64, _first: u64, _count: u64) {}

    #[inline(always)]
    fn touch_swap_run(&mut self, _r: RegionId, _eb: u32, _lo: u64, _stride: u64, _count: u64) {}

    #[inline(always)]
    fn touch_rw_stripe(&mut self, _r: RegionId, _eb: u32, _first: u64, _stride: u64, _count: u64) {}
}

impl ParallelTracer for NullTracer {
    type Worker = NullTracer;

    #[inline(always)]
    fn fork_worker(&self) -> NullTracer {
        NullTracer
    }

    #[inline(always)]
    fn join_workers(&mut self, _workers: impl IntoIterator<Item = NullTracer>) {}
}

/// Aggregate counters for a recorded trace.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracerStats {
    /// Number of loads observed.
    pub reads: u64,
    /// Number of stores observed.
    pub writes: u64,
}

impl TracerStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A tracer that records the access sequence.
///
/// Always maintains a streaming [`TraceDigest`] and counters; optionally
/// (when built with [`RecordingTracer::with_events`]) retains the full
/// event list, which the attack pipeline consumes to recover sparsified
/// gradient indices.
pub struct RecordingTracer {
    granularity: Granularity,
    digest: TraceDigest,
    stats: TracerStats,
    events: Option<Vec<Access>>,
    /// Optional event cap to guard against runaway memory in tests.
    max_events: usize,
}

impl RecordingTracer {
    /// Digest-only tracer at the given granularity.
    pub fn new(granularity: Granularity) -> Self {
        RecordingTracer {
            granularity,
            digest: TraceDigest::new(),
            stats: TracerStats::default(),
            events: None,
            max_events: usize::MAX,
        }
    }

    /// Tracer that also retains the full event sequence.
    pub fn with_events(granularity: Granularity) -> Self {
        let mut t = Self::new(granularity);
        t.events = Some(Vec::new());
        t
    }

    /// Caps the retained event list at `cap` events (digest and stats keep
    /// running past the cap).
    pub fn with_event_cap(mut self, cap: usize) -> Self {
        self.max_events = cap;
        self
    }

    /// The observation granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Returns the streaming digest of everything observed so far.
    pub fn digest(&self) -> TraceDigest {
        self.digest
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TracerStats {
        self.stats
    }

    /// The retained events, if this tracer was built with
    /// [`RecordingTracer::with_events`].
    pub fn events(&self) -> Option<&[Access]> {
        self.events.as_deref()
    }

    /// Distinct offsets touched in `region` (the index-set leak of
    /// Proposition 3.2: what the attacker extracts from the trace).
    pub fn touched_offsets(&self, region: RegionId) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .events
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .filter(|a| a.region == region)
            .map(|a| a.offset)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl Tracer for RecordingTracer {
    #[inline]
    fn touch(&mut self, region: RegionId, byte_off: u64, len: u32, op: Op) {
        // An element access is one event; at cacheline granularity an access
        // spanning a line boundary shows up as touches on each line covered.
        let (first, last) = match self.granularity {
            Granularity::Element => (byte_off, byte_off),
            Granularity::Cacheline => (
                self.granularity.reduce(byte_off),
                self.granularity.reduce(byte_off + len.max(1) as u64 - 1),
            ),
        };
        let mut unit = first;
        loop {
            self.digest.absorb(region, unit, op);
            match op {
                Op::Read => self.stats.reads += 1,
                Op::Write => self.stats.writes += 1,
            }
            if let Some(ev) = &mut self.events {
                if ev.len() < self.max_events {
                    ev.push(Access { region, offset: unit, op });
                }
            }
            if unit >= last {
                break;
            }
            unit += 1;
        }
    }

    #[inline]
    fn is_recording(&self) -> bool {
        true
    }
}

impl ParallelTracer for RecordingTracer {
    type Worker = RecordingTracer;

    fn fork_worker(&self) -> RecordingTracer {
        let mut w = RecordingTracer::new(self.granularity);
        if self.events.is_some() {
            // Each worker inherits the parent's cap so a capped parent
            // keeps parallel tracing memory bounded (≤ cap per live
            // worker); join enforces the parent cap again on the merged
            // list. Below the cap the retained events are the full
            // multiset; once the cap binds, the retained prefix follows
            // the parallel join order rather than the serial interleave
            // (stats and digest stay exact either way, as for a serial
            // capped tracer).
            w.events = Some(Vec::new());
            w.max_events = self.max_events;
        }
        w
    }

    fn join_workers(&mut self, workers: impl IntoIterator<Item = RecordingTracer>) {
        for w in workers {
            debug_assert_eq!(w.granularity, self.granularity, "worker granularity mismatch");
            self.digest.absorb_child(w.digest);
            self.stats.reads += w.stats.reads;
            self.stats.writes += w.stats.writes;
            if let (Some(ev), Some(wev)) = (&mut self.events, w.events) {
                let room = self.max_events.saturating_sub(ev.len());
                ev.extend(wev.into_iter().take(room));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_silent() {
        let mut t = NullTracer;
        t.touch(0, 0, 8, Op::Read);
        assert!(!t.is_recording());
    }

    #[test]
    fn element_granularity_records_each_access() {
        let mut t = RecordingTracer::with_events(Granularity::Element);
        t.touch(1, 0, 8, Op::Read);
        t.touch(1, 8, 8, Op::Write);
        assert_eq!(t.stats(), TracerStats { reads: 1, writes: 1 });
        assert_eq!(
            t.events().unwrap(),
            &[
                Access { region: 1, offset: 0, op: Op::Read },
                Access { region: 1, offset: 8, op: Op::Write },
            ]
        );
    }

    #[test]
    fn cacheline_granularity_coalesces_within_line() {
        let mut t = RecordingTracer::with_events(Granularity::Cacheline);
        t.touch(1, 0, 8, Op::Read); // line 0
        t.touch(1, 56, 8, Op::Read); // line 0 still
        t.touch(1, 64, 8, Op::Read); // line 1
        let lines: Vec<u64> = t.events().unwrap().iter().map(|a| a.offset).collect();
        assert_eq!(lines, vec![0, 0, 1]);
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut t = RecordingTracer::with_events(Granularity::Cacheline);
        t.touch(1, 60, 8, Op::Write); // bytes 60..68 span lines 0 and 1
        let lines: Vec<u64> = t.events().unwrap().iter().map(|a| a.offset).collect();
        assert_eq!(lines, vec![0, 1]);
        assert_eq!(t.stats().writes, 2);
    }

    #[test]
    fn digests_differ_for_different_sequences() {
        let mut a = RecordingTracer::new(Granularity::Element);
        a.touch(1, 0, 4, Op::Read);
        a.touch(1, 4, 4, Op::Read);
        let mut b = RecordingTracer::new(Granularity::Element);
        b.touch(1, 4, 4, Op::Read);
        b.touch(1, 0, 4, Op::Read);
        assert_ne!(a.digest(), b.digest(), "order must matter");
    }

    #[test]
    fn digests_equal_for_equal_sequences() {
        let build = || {
            let mut t = RecordingTracer::new(Granularity::Element);
            for i in 0..100 {
                t.touch(2, i * 4, 4, if i % 3 == 0 { Op::Write } else { Op::Read });
            }
            t.digest()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn touched_offsets_dedup_sorted() {
        let mut t = RecordingTracer::with_events(Granularity::Element);
        for off in [12u64, 4, 12, 0, 4] {
            t.touch(3, off, 4, Op::Write);
        }
        t.touch(9, 100, 4, Op::Write); // other region ignored
        assert_eq!(t.touched_offsets(3), vec![0, 4, 12]);
    }

    #[test]
    fn fork_join_accumulates_stats_and_events_in_order() {
        let mut parent = RecordingTracer::with_events(Granularity::Element);
        parent.touch(1, 0, 1, Op::Read);
        let mut w0 = parent.fork_worker();
        let mut w1 = parent.fork_worker();
        w0.touch(2, 10, 1, Op::Write);
        w1.touch(3, 20, 1, Op::Read);
        parent.join_workers([w0, w1]);
        assert_eq!(parent.stats(), TracerStats { reads: 2, writes: 1 });
        assert_eq!(
            parent.events().unwrap(),
            &[
                Access { region: 1, offset: 0, op: Op::Read },
                Access { region: 2, offset: 10, op: Op::Write },
                Access { region: 3, offset: 20, op: Op::Read },
            ]
        );
    }

    #[test]
    fn join_digest_depends_on_worker_order_not_thread_timing() {
        let run = |swap: bool| {
            let mut parent = RecordingTracer::new(Granularity::Element);
            let mut a = parent.fork_worker();
            let mut b = parent.fork_worker();
            a.touch(1, 1, 1, Op::Read);
            b.touch(1, 2, 1, Op::Read);
            if swap {
                parent.join_workers([b, a]);
            } else {
                parent.join_workers([a, b]);
            }
            parent.digest()
        };
        assert_eq!(run(false), run(false), "deterministic for a fixed join order");
        assert_ne!(run(false), run(true), "join order is part of the trace identity");
    }

    #[test]
    fn digest_only_parent_forks_digest_only_workers() {
        let parent = RecordingTracer::new(Granularity::Cacheline);
        let w = parent.fork_worker();
        assert_eq!(w.granularity(), Granularity::Cacheline);
        assert!(w.events().is_none());
    }

    #[test]
    fn join_respects_parent_event_cap() {
        let mut parent = RecordingTracer::with_events(Granularity::Element).with_event_cap(2);
        let mut w = parent.fork_worker();
        for i in 0..5 {
            w.touch(1, i, 1, Op::Read);
        }
        assert_eq!(w.events().unwrap().len(), 2, "workers inherit the cap (bounded memory)");
        parent.join_workers([w]);
        assert_eq!(parent.events().unwrap().len(), 2);
        assert_eq!(parent.stats().reads, 5, "stats keep running past the cap");
    }

    #[test]
    fn null_tracer_fork_join_is_free() {
        let mut t = NullTracer;
        let mut w = t.fork_worker();
        w.touch(0, 0, 1, Op::Read);
        t.join_workers([w]);
        assert!(!t.is_recording());
    }

    #[test]
    fn cex_span_expands_to_scalar_comparator_sequence() {
        // The block event must be digest-identical to the per-access trace
        // of the scalar compare-exchange loop it summarizes.
        let elem = 8u32;
        for (stride, first, count) in [(1u64, 0u64, 8u64), (4, 0, 8), (4, 2, 5), (8, 3, 9)] {
            let mut blocked = RecordingTracer::new(Granularity::Element);
            blocked.touch_cex_span(3, elem, stride, first, count);
            let mut scalar = RecordingTracer::new(Granularity::Element);
            for t in first..first + count {
                let i = ((t & !(stride - 1)) << 1) | (t & (stride - 1));
                let l = i + stride;
                scalar.touch(3, i * 8, elem, Op::Read);
                scalar.touch(3, l * 8, elem, Op::Read);
                scalar.touch(3, i * 8, elem, Op::Write);
                scalar.touch(3, l * 8, elem, Op::Write);
            }
            assert_eq!(blocked.digest(), scalar.digest(), "stride {stride} first {first}");
            assert_eq!(blocked.stats(), scalar.stats());
        }
    }

    #[test]
    fn cex_span_expansion_respects_granularity() {
        // At cacheline granularity the expansion goes through the same
        // reduce() as element accesses (8-byte elements → 8 per line).
        let mut t = RecordingTracer::with_events(Granularity::Cacheline);
        t.touch_cex_span(1, 8, 8, 0, 1); // comparator 0: elements 0 and 8
        let lines: Vec<u64> = t.events().unwrap().iter().map(|a| a.offset).collect();
        assert_eq!(lines, vec![0, 1, 0, 1]);
    }

    #[test]
    fn cex_span_splitting_is_associative() {
        // One span of 16 comparators ≡ any contiguous split of it: the
        // batched kernel may chunk spans at an arbitrary fixed block size.
        let whole = {
            let mut t = RecordingTracer::new(Granularity::Element);
            t.touch_cex_span(0, 8, 4, 0, 16);
            t.digest()
        };
        let split = {
            let mut t = RecordingTracer::new(Granularity::Element);
            t.touch_cex_span(0, 8, 4, 0, 5);
            t.touch_cex_span(0, 8, 4, 5, 3);
            t.touch_cex_span(0, 8, 4, 8, 8);
            t.digest()
        };
        assert_eq!(whole, split);
    }

    #[test]
    fn flip_span_expands_to_mirrored_comparator_sequence() {
        // Round k pairs element i of a k-aligned block with its mirror
        // image i ^ (k − 1), lower halves in ascending order.
        let mut t = RecordingTracer::with_events(Granularity::Element);
        t.touch_flip_span(3, 1, 4, 0, 4);
        let offsets: Vec<u64> = t.events().unwrap().iter().map(|a| a.offset).collect();
        assert_eq!(offsets, [0, 3, 0, 3, 1, 2, 1, 2, 4, 7, 4, 7, 5, 6, 5, 6]);
        let ops: Vec<Op> = t.events().unwrap().iter().map(|a| a.op).collect();
        assert_eq!(ops[..4], [Op::Read, Op::Read, Op::Write, Op::Write]);
        assert_eq!(t.stats(), TracerStats { reads: 8, writes: 8 });
        // k = 2 is the stride-1 stage.
        let mut flip = RecordingTracer::new(Granularity::Cacheline);
        flip.touch_flip_span(1, 8, 2, 3, 40);
        let mut cex = RecordingTracer::new(Granularity::Cacheline);
        cex.touch_cex_span(1, 8, 1, 3, 40);
        assert_eq!(flip.digest(), cex.digest());
    }

    #[test]
    fn flip_span_splitting_is_associative() {
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let whole = {
                let mut t = RecordingTracer::new(granularity);
                t.touch_flip_span(0, 8, 8, 0, 16);
                t.digest()
            };
            let split = {
                let mut t = RecordingTracer::new(granularity);
                t.touch_flip_span(0, 8, 8, 0, 5);
                t.touch_flip_span(0, 8, 8, 5, 3);
                t.touch_flip_span(0, 8, 8, 8, 8);
                t.digest()
            };
            assert_eq!(whole, split, "{granularity:?}");
        }
    }

    #[test]
    fn swap_run_expands_to_ascending_pairs_from_any_start() {
        // A run whose lower half starts off any stride boundary, with a
        // stride that is no power of two: pairs (5, 8), (6, 9).
        let mut t = RecordingTracer::with_events(Granularity::Element);
        t.touch_swap_run(3, 1, 5, 3, 2);
        let offsets: Vec<u64> = t.events().unwrap().iter().map(|a| a.offset).collect();
        assert_eq!(offsets, [5, 8, 5, 8, 6, 9, 6, 9]);
        let ops: Vec<Op> = t.events().unwrap().iter().map(|a| a.op).collect();
        assert_eq!(ops[..4], [Op::Read, Op::Read, Op::Write, Op::Write]);
        // Where a stride stage can express the run, the two events agree,
        // and a run splits like a span does.
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let mut cex = RecordingTracer::new(granularity);
            cex.touch_cex_span(1, 8, 8, 8, 8);
            let mut run = RecordingTracer::new(granularity);
            run.touch_swap_run(1, 8, 16, 8, 3);
            run.touch_swap_run(1, 8, 19, 8, 5);
            assert_eq!(run.digest(), cex.digest(), "{granularity:?}");
        }
    }

    #[test]
    fn truncated_stage_len_counts_comparators_below_n() {
        for n in 0..70u64 {
            for span in [2u64, 4, 8, 16, 64] {
                let half = span / 2;
                let padded = n.next_multiple_of(span);
                let stride = (0..padded / 2)
                    .filter(|t| (((t & !(half - 1)) << 1) | (t & (half - 1))) + half < n)
                    .count() as u64;
                let flip = (0..padded / 2)
                    .filter(|t| ((((t & !(half - 1)) << 1) | (t & (half - 1))) ^ (span - 1)) < n)
                    .count() as u64;
                assert_eq!(truncated_stage_len(n, span), stride, "n={n} span={span}");
                assert_eq!(truncated_stage_len(n, span), flip, "n={n} span={span} (flip)");
            }
        }
    }

    #[test]
    fn rw_stripe_expands_to_serial_scan_sequence() {
        // The block event must be digest-identical to the per-access trace
        // of the serial read/write stripe scan it summarizes.
        for (first, stride, count) in [(0u64, 16u64, 4u64), (3, 16, 4), (7, 1, 9), (2, 8, 1)] {
            let mut blocked = RecordingTracer::new(Granularity::Element);
            blocked.touch_rw_stripe(2, 4, first, stride, count);
            let mut serial = RecordingTracer::new(Granularity::Element);
            for t in 0..count {
                let j = first + t * stride;
                serial.touch(2, j * 4, 4, Op::Read);
                serial.touch(2, j * 4, 4, Op::Write);
            }
            assert_eq!(blocked.digest(), serial.digest(), "first {first} stride {stride}");
            assert_eq!(blocked.stats(), serial.stats());
        }
    }

    #[test]
    fn null_tracer_cex_span_is_silent() {
        let mut t = NullTracer;
        t.touch_cex_span(0, 8, 2, 0, 100);
        t.touch_flip_span(0, 8, 4, 0, 100);
        t.touch_swap_run(0, 8, 3, 5, 100);
        assert!(!t.is_recording());
    }

    #[test]
    fn event_cap_limits_retention_not_stats() {
        let mut t = RecordingTracer::with_events(Granularity::Element).with_event_cap(3);
        for i in 0..10 {
            t.touch(1, i, 1, Op::Read);
        }
        assert_eq!(t.events().unwrap().len(), 3);
        assert_eq!(t.stats().reads, 10);
    }
}
