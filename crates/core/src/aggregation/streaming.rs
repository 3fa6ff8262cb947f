//! The streaming [`Aggregator`] trait: chunked, EPC-bounded ingestion.
//!
//! Aggregating a round in one shot forces the enclave to hold **all** n
//! decrypted uploads before any aggregation work starts — peak memory
//! O(nk + d), which caps a round at thousands of clients on a 96 MiB EPC.
//! So every aggregation algorithm *is* an incremental consumer — each
//! streamer implements this trait directly, and the one-shot helper
//! (`aggregate_with_threads`) is its single-chunk special case:
//!
//! ```text
//! init(d, threads) ──▶ ingest(chunk₁) ──▶ … ──▶ ingest(chunkₘ) ──▶ finalize() → Δ̃
//! ```
//!
//! Each chunk of decrypted client updates is obliviously folded into the
//! algorithm's persistent state (a dense d-word accumulator for Linear /
//! Baseline, the ORAM slots, the grouped running total) and then dropped,
//! so the enclave's working set is O(chunk·k + d·threads) instead of
//! O(n·k + d). The chunk size is a **public** parameter — like the thread
//! count and the group size h — so chunking cannot introduce a
//! data-dependent access pattern.
//!
//! # The invariant: chunk boundaries are invisible
//!
//! Every implementation guarantees that streaming at *any* chunk size is
//! **bitwise output- and trace-identical** to the single-chunk run.
//! Three strategies deliver this:
//!
//! * **per-cell incremental** (Linear, Baseline, PathORAM): the
//!   algorithms are left-to-right folds over the cell stream, so the
//!   streamer persists the accumulator and continues the logical `G`
//!   offsets across chunks;
//! * **unit-buffered** (Grouped): clients buffer until a full processing
//!   unit — a group of h (serial) or a wave of h·threads (parallel) — is
//!   available, and the unit schedule is a function of the arrival count
//!   only; each client's cells are staged once, into the buffer its
//!   group is sorted in, and memory stays O(threads·(hk + d)). Its
//!   checkpoint is the running total and the pending unit's cell count:
//!   the pending cells come back as the staged kinds' do;
//! * **staged** (Advanced, DiffOblivious): the algorithm is inherently
//!   monolithic (one sort / one shuffle over the whole round is what its
//!   security argument is about), so chunks stage into the cell buffer
//!   and the real work runs at finalize. Memory remains O(nk) — reported
//!   honestly through [`Aggregator::resident_bytes`]; this is precisely
//!   the paper's Figure 10 EPC cliff, and why production rounds use the
//!   Grouped streamer. Their checkpoints do *not* grow: staged cells are
//!   recomputable from the round's sealed uploads, so `save_state` is a
//!   constant-size descriptor and a restore re-stages the folded prefix.
//!
//! The `tests/` crate asserts the invariant for every kind at chunk sizes
//! {1, 7, n} × threads {1, 2, 8}, plus a proptest over arbitrary chunk
//! partitions.

use olive_fl::SparseGradient;
use olive_memsim::{ParallelTracer, StateError, StateWriter};

use super::advanced::AdvancedStreamer;
use super::baseline::BaselineStreamer;
use super::dobliv::DoblivStreamer;
use super::grouped::GroupedStreamer;
use super::linear::LinearStreamer;
use super::oram::OramStreamer;
use super::AggregatorKind;

/// An aggregation algorithm consuming client updates incrementally.
///
/// Contract (asserted by the integration suite):
///
/// * `ingest` folds a chunk into persistent state; the concatenation of
///   all ingested chunks determines output and trace — the partition into
///   chunks does not;
/// * `finalize` completes the round and returns the averaged dense update
///   of length d; it panics with "no updates to aggregate" if nothing was
///   ingested;
/// * the trace emitted through `tr` is a function of public quantities
///   only (shape, chunk schedule, threads) for the oblivious kinds;
/// * the byte-accounting methods describe the enclave-resident footprint
///   so the round pipeline can charge the EPC budget per chunk.
pub trait Aggregator: Sized {
    /// Folds one chunk of decrypted client updates into the aggregator
    /// state, reporting adversary-visible accesses to `tr`. Panics on a
    /// dimension mismatch ("update dimension mismatch").
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], tr: &mut TR);

    /// Completes the round: drains any buffered unit, averages by the
    /// total client count, and returns the dense update.
    fn finalize<TR: ParallelTracer>(self, tr: &mut TR) -> Vec<f32>;

    /// Clients ingested so far.
    fn clients(&self) -> usize;

    /// Enclave bytes held *between* calls (accumulators, buffered cells,
    /// the ORAM tree). O(d) for the bounded kinds; grows with the round
    /// for the staged kinds.
    fn resident_bytes(&self) -> u64;

    /// Transient enclave bytes one `ingest` of `chunk_clients` updates
    /// with `k` cells each may allocate on top of the resident state
    /// (cell staging copies, per-wave sort scratch).
    fn ingest_scratch_bytes(&self, chunk_clients: usize, k: usize) -> u64 {
        let _ = (chunk_clients, k);
        0
    }

    /// Transient enclave bytes `finalize` may allocate (the monolithic
    /// sort/shuffle vectors of the staged kinds; the dense output).
    fn finalize_scratch_bytes(&self) -> u64 {
        0
    }

    /// Appends what a sealed mid-round checkpoint must carry of this
    /// aggregator: everything that cannot be recomputed from the round's
    /// own sealed uploads. The accumulating kinds snapshot their whole
    /// state, and loading the blob (`load_state`) into a freshly
    /// initialized aggregator of the same configuration reproduces the
    /// instance exactly. The staged kinds (Advanced, DiffOblivious) write
    /// a constant-size descriptor — configuration, client count, staged
    /// cell count: their state *is* the decoded folded prefix, which
    /// untrusted storage already holds as authenticated ciphertexts, so a
    /// loaded streamer reports the right `clients()` but **owes** its
    /// cells ([`Aggregator::owed_cells`]) until the driver re-stages that
    /// prefix ([`Aggregator::restage`]). Grouped is both: it snapshots its
    /// running total and describes its pending partial unit — the last
    /// `n mod h·threads` clients — by cell count, so it owes exactly those
    /// cells, and nothing when no unit is pending. Either way, ingesting
    /// the remaining chunks then yields the same output bits and the same
    /// trace as an uninterrupted run.
    fn write_state(&self, w: &mut StateWriter);

    /// Bytes [`Aggregator::write_state`] appends, so a restore point is
    /// allocated once at its final size.
    fn state_len(&self) -> usize;

    /// [`Aggregator::write_state`] on its own, in a blob of exactly
    /// [`Aggregator::state_len`] bytes.
    fn save_state(&self) -> Vec<u8> {
        let mut w = StateWriter::with_capacity(self.state_len());
        self.write_state(&mut w);
        w.into_bytes()
    }

    /// Restores state captured by [`Aggregator::save_state`]. Fails with
    /// [`StateError::Mismatch`] if the blob describes a different
    /// configuration (dimension, group size, thread budget, kind).
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError>;

    /// Cells a loaded descriptor promised that have not been re-staged
    /// yet: a staged kind's whole prefix, Grouped's pending unit; zero for
    /// a fresh aggregator and always for the accumulating kinds. `ingest`
    /// and `finalize` panic while cells are owed rather than aggregate a
    /// partial round.
    fn owed_cells(&self) -> usize {
        0
    }

    /// Hands a chunk of the already-folded prefix back, in order, to a
    /// restored aggregator that owes cells: appends the cells it owes
    /// (untraced, like the staging `ingest` does) without counting
    /// clients again — all of them for a staged kind, only the pending
    /// unit's for Grouped, whose other clients are already in its
    /// running total. Fails with [`StateError::Mismatch`] on more cells
    /// than are owed, and always when nothing is owed (an accumulating
    /// kind, or Grouped with no unit pending: nothing to re-stage).
    fn restage(&mut self, chunk: &[SparseGradient]) -> Result<(), StateError> {
        let _ = chunk;
        Err(StateError::Mismatch)
    }
}

/// Runtime-dispatched streaming aggregator: one variant per
/// [`AggregatorKind`], so the round pipeline holds a single concrete type
/// while the trait stays generic over the tracer.
pub enum StreamingAggregator {
    /// Algorithm 5 over sparse cells (not oblivious — the attack surface).
    Linear(LinearStreamer),
    /// Algorithm 3 stripe scans.
    Baseline(BaselineStreamer),
    /// Algorithm 4 (staged; monolithic sort at finalize).
    Advanced(AdvancedStreamer),
    /// Section 5.3 grouped Advanced (the bounded-EPC oblivious streamer).
    Grouped(GroupedStreamer),
    /// PathORAM comparator.
    PathOram(OramStreamer),
    /// Section 5.4 DO relaxation (staged; monolithic shuffle at finalize).
    DiffOblivious(DoblivStreamer),
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            StreamingAggregator::Linear($s) => $body,
            StreamingAggregator::Baseline($s) => $body,
            StreamingAggregator::Advanced($s) => $body,
            StreamingAggregator::Grouped($s) => $body,
            StreamingAggregator::PathOram($s) => $body,
            StreamingAggregator::DiffOblivious($s) => $body,
        }
    };
}

impl StreamingAggregator {
    /// The issue-facing `init(d, threads)`: builds the streamer for `kind`
    /// over dimension `d` with the given worker-thread budget.
    pub fn new(kind: AggregatorKind, d: usize, threads: usize) -> Self {
        match kind {
            AggregatorKind::NonOblivious => StreamingAggregator::Linear(LinearStreamer::init(d)),
            AggregatorKind::Baseline { cacheline_weights } => {
                StreamingAggregator::Baseline(BaselineStreamer::init(d, cacheline_weights, threads))
            }
            AggregatorKind::Advanced => {
                StreamingAggregator::Advanced(AdvancedStreamer::init(d, threads))
            }
            AggregatorKind::Grouped { h } => {
                StreamingAggregator::Grouped(GroupedStreamer::init(d, h, threads))
            }
            AggregatorKind::PathOram { posmap } => {
                StreamingAggregator::PathOram(OramStreamer::init(d, posmap))
            }
            AggregatorKind::DiffOblivious { epsilon, delta, seed } => {
                StreamingAggregator::DiffOblivious(DoblivStreamer::init(
                    d, epsilon, delta, seed, threads,
                ))
            }
        }
    }

    /// PathORAM usage counters (accesses, stash high-water mark, evicted
    /// blocks) when this streamer is the ORAM comparator; `None` for
    /// every other kind. The round pipeline samples this per chunk to
    /// feed the `oram_*` telemetry counters.
    pub fn oram_stats(&self) -> Option<olive_oram::OramStats> {
        match self {
            StreamingAggregator::PathOram(s) => Some(s.oram_stats()),
            _ => None,
        }
    }

    /// The model dimension d every update of the round must have.
    pub(crate) fn dim(&self) -> usize {
        dispatch!(self, s => s.d)
    }

    /// One byte naming the variant, prepended to serialized state so a
    /// checkpoint can never be loaded into the wrong algorithm.
    fn kind_tag(&self) -> u8 {
        match self {
            StreamingAggregator::Linear(_) => 0,
            StreamingAggregator::Baseline(_) => 1,
            StreamingAggregator::Advanced(_) => 2,
            StreamingAggregator::Grouped(_) => 3,
            StreamingAggregator::PathOram(_) => 4,
            StreamingAggregator::DiffOblivious(_) => 5,
        }
    }
}

impl Aggregator for StreamingAggregator {
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], tr: &mut TR) {
        dispatch!(self, s => Aggregator::ingest(s, chunk, tr))
    }

    fn finalize<TR: ParallelTracer>(self, tr: &mut TR) -> Vec<f32> {
        dispatch!(self, s => Aggregator::finalize(s, tr))
    }

    fn clients(&self) -> usize {
        dispatch!(self, s => Aggregator::clients(s))
    }

    fn resident_bytes(&self) -> u64 {
        dispatch!(self, s => Aggregator::resident_bytes(s))
    }

    fn ingest_scratch_bytes(&self, chunk_clients: usize, k: usize) -> u64 {
        dispatch!(self, s => Aggregator::ingest_scratch_bytes(s, chunk_clients, k))
    }

    fn finalize_scratch_bytes(&self) -> u64 {
        dispatch!(self, s => Aggregator::finalize_scratch_bytes(s))
    }

    fn write_state(&self, w: &mut StateWriter) {
        w.put_u8(self.kind_tag());
        dispatch!(self, s => Aggregator::write_state(s, w))
    }

    fn state_len(&self) -> usize {
        1 + dispatch!(self, s => Aggregator::state_len(s))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let (&tag, rest) = bytes.split_first().ok_or(StateError::Truncated)?;
        if tag != self.kind_tag() {
            return Err(StateError::Mismatch);
        }
        dispatch!(self, s => Aggregator::load_state(s, rest))
    }

    fn owed_cells(&self) -> usize {
        dispatch!(self, s => Aggregator::owed_cells(s))
    }

    fn restage(&mut self, chunk: &[SparseGradient]) -> Result<(), StateError> {
        dispatch!(self, s => Aggregator::restage(s, chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::*;
    use crate::aggregation::{aggregate_with_threads, reference_average};
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};

    /// Core invariant at unit scale: streaming at chunk sizes 1, 3 and n
    /// is bitwise output- and trace-identical to the one-shot wrapper.
    #[test]
    fn chunking_is_invisible_for_every_kind() {
        let d = 48;
        let updates = random_updates(7, 5, d, 31);
        for kind in all_kinds() {
            let mut one_tr = RecordingTracer::new(Granularity::Element);
            let one = aggregate_with_threads(kind, &updates, d, 1, &mut one_tr);
            for chunk in [1usize, 3, 7] {
                let mut tr = RecordingTracer::new(Granularity::Element);
                let mut agg = StreamingAggregator::new(kind, d, 1);
                for c in updates.chunks(chunk) {
                    agg.ingest(c, &mut tr);
                }
                assert_eq!(agg.clients(), 7);
                let got = agg.finalize(&mut tr);
                let bits_eq = one.iter().zip(got.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(bits_eq, "{kind:?} chunk={chunk}: output bits drifted");
                assert_eq!(tr.digest(), one_tr.digest(), "{kind:?} chunk={chunk}: trace drifted");
            }
        }
    }

    /// The streamers still compute the right answer (vs the dense
    /// reference), independently of the equality-with-one-shot pin.
    #[test]
    fn streaming_matches_reference() {
        let d = 40;
        let updates = random_updates(9, 4, d, 77);
        let expected = reference_average(&updates, d);
        for kind in all_kinds() {
            let mut agg = StreamingAggregator::new(kind, d, 2);
            for c in updates.chunks(4) {
                agg.ingest(c, &mut NullTracer);
            }
            let got = agg.finalize(&mut NullTracer);
            assert_close(&got, &expected, 1e-4);
        }
    }

    /// Bounded kinds keep their resident footprint independent of how
    /// many clients streamed through; staged kinds grow with the round.
    #[test]
    fn resident_bytes_bounded_vs_staged() {
        let d = 64;
        let updates = random_updates(16, 4, d, 9);
        let resident_after = |kind: AggregatorKind, n: usize| {
            let mut agg = StreamingAggregator::new(kind, d, 1);
            for c in updates[..n].chunks(2) {
                agg.ingest(c, &mut NullTracer);
            }
            agg.resident_bytes()
        };
        for kind in [
            AggregatorKind::NonOblivious,
            AggregatorKind::Baseline { cacheline_weights: 16 },
            AggregatorKind::Grouped { h: 2 },
            AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan },
        ] {
            assert_eq!(
                resident_after(kind, 4),
                resident_after(kind, 16),
                "{kind:?} must be n-independent"
            );
        }
        for kind in staged_kinds() {
            assert!(
                resident_after(kind, 4) < resident_after(kind, 16),
                "{kind:?} stages the whole round"
            );
        }
    }

    fn staged_kinds() -> [AggregatorKind; 2] {
        [
            AggregatorKind::Advanced,
            AggregatorKind::DiffOblivious { epsilon: 1.0, delta: 1e-3, seed: 5 },
        ]
    }

    /// The checkpoint contract at unit scale: for every kind, snapshot
    /// after a mid-stream chunk, load into a fresh same-config streamer —
    /// a staged kind then owes its cells, Grouped its pending unit's, and
    /// gets the folded prefix re-staged; an accumulating kind, or Grouped
    /// with nothing pending, owes nothing — and finish both: output bits
    /// AND the *remaining* trace must match.
    #[test]
    fn state_roundtrip_is_invisible_for_every_kind() {
        let (d, k) = (48, 5);
        let updates = random_updates(7, k, d, 55);
        for kind in all_kinds() {
            let mut a = StreamingAggregator::new(kind, d, 1);
            a.ingest(&updates[..4], &mut NullTracer);
            let blob = a.save_state();
            let mut b = StreamingAggregator::new(kind, d, 1);
            b.load_state(&blob).unwrap_or_else(|e| panic!("{kind:?}: load failed: {e}"));
            assert_eq!(b.clients(), 4, "{kind:?}: client count not restored");
            let owed = match kind {
                AggregatorKind::Advanced | AggregatorKind::DiffOblivious { .. } => 4 * k,
                AggregatorKind::Grouped { h } => 4 % h * k,
                _ => 0,
            };
            assert_eq!(b.owed_cells(), owed, "{kind:?}");
            if owed > 0 {
                // Re-staged in two steps: the prefix's own chunking is free.
                b.restage(&updates[..1]).expect("one owed client");
                b.restage(&updates[1..4]).expect("the rest of the prefix");
                assert_eq!((b.owed_cells(), b.clients()), (0, 4), "{kind:?}: clients counted once");
                assert_eq!(b.resident_bytes(), a.resident_bytes(), "{kind:?}");
            }
            assert_eq!(b.restage(&updates[4..5]), Err(StateError::Mismatch), "{kind:?}: not owed");
            let mut tra = RecordingTracer::new(Granularity::Element);
            let mut trb = RecordingTracer::new(Granularity::Element);
            a.ingest(&updates[4..], &mut tra);
            b.ingest(&updates[4..], &mut trb);
            let va = a.finalize(&mut tra);
            let vb = b.finalize(&mut trb);
            let bits_eq = va.iter().zip(vb.iter()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_eq, "{kind:?}: restored output bits drifted");
            assert_eq!(tra.digest(), trb.digest(), "{kind:?}: restored trace drifted");
        }
    }

    /// A staged kind's checkpoint share is a descriptor: the same bytes
    /// however many clients are staged, where its resident state grows —
    /// and a descriptor that promises more than a chunk re-stages keeps
    /// the rest owed, rejecting a chunk of the wrong dimension untouched.
    #[test]
    fn staged_state_is_a_constant_size_descriptor() {
        let (d, k) = (64, 4);
        let updates = random_updates(16, k, d, 9);
        for kind in staged_kinds() {
            let state_after = |n: usize| {
                let mut agg = StreamingAggregator::new(kind, d, 1);
                agg.ingest(&updates[..n], &mut NullTracer);
                agg.save_state()
            };
            let blob = state_after(16);
            assert_eq!(state_after(2).len(), blob.len(), "{kind:?}: state must not grow with n");
            let mut agg = StreamingAggregator::new(kind, d, 1);
            agg.load_state(&blob).expect("same configuration");
            let mut wrong_dim = updates[0].clone();
            wrong_dim.dense_dim = d + 1;
            assert_eq!(agg.restage(&[wrong_dim]), Err(StateError::Mismatch));
            assert_eq!(
                (agg.owed_cells(), agg.resident_bytes()),
                (16 * k, 0),
                "{kind:?}: untouched"
            );
            agg.restage(&updates[..10]).expect("within what is owed");
            assert_eq!(agg.owed_cells(), 6 * k);
            // A descriptor saved while owing still describes the whole prefix.
            assert_eq!(agg.save_state(), blob, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "staged cells are still owed")]
    fn finalize_while_cells_are_owed_panics() {
        let updates = random_updates(3, 4, 16, 2);
        let mut agg = StreamingAggregator::new(AggregatorKind::Advanced, 16, 1);
        agg.ingest(&updates, &mut NullTracer);
        let blob = agg.save_state();
        let mut restored = StreamingAggregator::new(AggregatorKind::Advanced, 16, 1);
        restored.load_state(&blob).expect("same configuration");
        restored.restage(&updates[..2]).expect("part of the prefix");
        restored.finalize(&mut NullTracer);
    }

    /// Cross-kind and cross-config loads are rejected, never absorbed.
    #[test]
    fn state_blob_mismatches_rejected() {
        let d = 48;
        let updates = random_updates(4, 5, d, 21);
        let mut a = StreamingAggregator::new(AggregatorKind::Grouped { h: 2 }, d, 1);
        a.ingest(&updates, &mut NullTracer);
        let blob = a.save_state();
        // Wrong kind.
        let mut b = StreamingAggregator::new(AggregatorKind::Advanced, d, 1);
        assert_eq!(b.load_state(&blob), Err(StateError::Mismatch));
        // Wrong group size.
        let mut c = StreamingAggregator::new(AggregatorKind::Grouped { h: 5 }, d, 1);
        assert_eq!(c.load_state(&blob), Err(StateError::Mismatch));
        // Wrong dimension.
        let mut e = StreamingAggregator::new(AggregatorKind::Grouped { h: 2 }, d * 2, 1);
        assert_eq!(e.load_state(&blob), Err(StateError::Mismatch));
        // Truncated.
        let mut f = StreamingAggregator::new(AggregatorKind::Grouped { h: 2 }, d, 1);
        assert!(f.load_state(&blob[..blob.len() - 3]).is_err());
        // Empty.
        let mut g = StreamingAggregator::new(AggregatorKind::Grouped { h: 2 }, d, 1);
        assert_eq!(g.load_state(&[]), Err(StateError::Truncated));
    }

    #[test]
    #[should_panic(expected = "no updates to aggregate")]
    fn finalize_without_ingest_panics() {
        let agg = StreamingAggregator::new(AggregatorKind::Advanced, 16, 1);
        agg.finalize(&mut NullTracer);
    }

    #[test]
    #[should_panic(expected = "update dimension mismatch")]
    fn dimension_mismatch_panics_at_ingest() {
        let mut updates = random_updates(2, 3, 16, 1);
        updates[1].dense_dim = 8;
        let mut agg = StreamingAggregator::new(AggregatorKind::Grouped { h: 2 }, 16, 1);
        agg.ingest(&updates, &mut NullTracer);
    }
}
