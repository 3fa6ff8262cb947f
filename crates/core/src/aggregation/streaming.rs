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
//!   group is sorted in, and memory stays O(threads·(hk + d));
//! * **staged** (Advanced, DiffOblivious): the algorithm is inherently
//!   monolithic (one sort / one shuffle over the whole round is what its
//!   security argument is about), so chunks stage into the cell buffer
//!   and the real work runs at finalize. Memory remains O(nk) — reported
//!   honestly through [`Aggregator::resident_bytes`]; this is precisely
//!   the paper's Figure 10 EPC cliff, and why production rounds use the
//!   Grouped streamer.
//!
//! The `tests/` crate asserts the invariant for every kind at chunk sizes
//! {1, 7, n} × threads {1, 2, 8}, plus a proptest over arbitrary chunk
//! partitions.
//!
//! # One restore path
//!
//! Whatever the strategy, a streamer's state after chunk i is a pure
//! function of its configuration and the updates of chunks `[0, i]` —
//! uploads untrusted storage already holds as authenticated ciphertexts.
//! So a mid-round checkpoint carries no state of any kind, only a
//! constant-size descriptor ([`StreamingAggregator::save_state`]: kind,
//! public configuration, client count), and every restore is the same
//! replay: a descriptor loaded into a fresh aggregator leaves it *owing*
//! its clients, and the round engine
//! ([`RoundEngine::open`](crate::round::RoundEngine::open)) re-opens the
//! folded prefix and re-ingests it untraced before anything else may
//! touch the aggregator.

use olive_fl::SparseGradient;
use olive_memsim::{NullTracer, ParallelTracer, StateError, StateReader, StateWriter};

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
}

/// Runtime-dispatched streaming aggregator: one streamer per
/// [`AggregatorKind`] behind a single concrete type, so the round
/// pipeline holds one type while the trait stays generic over the tracer
/// — and the one place a restore is described and replayed (module
/// docs).
pub struct StreamingAggregator {
    kind: AggregatorKind,
    threads: usize,
    /// Clients a loaded descriptor promised that [`Self::replay`] has not
    /// re-ingested yet; zero outside a restore.
    owed: usize,
    inner: Streamer,
}

/// The streamer of each [`AggregatorKind`].
enum Streamer {
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
    ($inner:expr, $s:ident => $body:expr) => {
        match $inner {
            Streamer::Linear($s) => $body,
            Streamer::Baseline($s) => $body,
            Streamer::Advanced($s) => $body,
            Streamer::Grouped($s) => $body,
            Streamer::PathOram($s) => $body,
            Streamer::DiffOblivious($s) => $body,
        }
    };
}

/// Panic message of any use of an aggregator that still owes clients.
const OWED: &str = "clients are still owed: replay the folded prefix first";

impl StreamingAggregator {
    /// The issue-facing `init(d, threads)`: builds the streamer for `kind`
    /// over dimension `d` with the given worker-thread budget.
    pub fn new(kind: AggregatorKind, d: usize, threads: usize) -> Self {
        let inner = match kind {
            AggregatorKind::NonOblivious => Streamer::Linear(LinearStreamer::init(d)),
            AggregatorKind::Baseline { cacheline_weights } => {
                Streamer::Baseline(BaselineStreamer::init(d, cacheline_weights, threads))
            }
            AggregatorKind::Advanced => Streamer::Advanced(AdvancedStreamer::init(d, threads)),
            AggregatorKind::Grouped { h } => {
                Streamer::Grouped(GroupedStreamer::init(d, h, threads))
            }
            AggregatorKind::PathOram { posmap } => {
                Streamer::PathOram(OramStreamer::init(d, posmap))
            }
            AggregatorKind::DiffOblivious { epsilon, delta, seed } => {
                Streamer::DiffOblivious(DoblivStreamer::init(d, epsilon, delta, seed, threads))
            }
        };
        StreamingAggregator { kind, threads, owed: 0, inner }
    }

    /// PathORAM usage counters (accesses, stash high-water mark, evicted
    /// blocks) when this streamer is the ORAM comparator; `None` for
    /// every other kind. The round pipeline samples this per chunk to
    /// feed the `oram_*` telemetry counters.
    pub fn oram_stats(&self) -> Option<olive_oram::OramStats> {
        match &self.inner {
            Streamer::PathOram(s) => Some(s.oram_stats()),
            _ => None,
        }
    }

    /// The model dimension d every update of the round must have.
    pub(crate) fn dim(&self) -> usize {
        dispatch!(&self.inner, s => s.d)
    }

    /// The descriptor's configuration part: a tag naming the kind, the
    /// kind's own parameters, d and the thread budget — all public.
    fn write_config(&self, w: &mut StateWriter) {
        match self.kind {
            AggregatorKind::NonOblivious => w.put_u8(0),
            AggregatorKind::Baseline { cacheline_weights } => {
                w.put_u8(1);
                w.put_usize(cacheline_weights);
            }
            AggregatorKind::Advanced => w.put_u8(2),
            AggregatorKind::Grouped { h } => {
                w.put_u8(3);
                w.put_usize(h);
            }
            AggregatorKind::PathOram { posmap } => {
                w.put_u8(4);
                w.put_u8(posmap as u8);
            }
            AggregatorKind::DiffOblivious { epsilon, delta, seed } => {
                w.put_u8(5);
                w.put_f64(epsilon);
                w.put_f64(delta);
                w.put_u64(seed);
            }
        }
        w.put_usize(self.dim());
        w.put_usize(self.threads);
    }

    /// This aggregator's share of a sealed mid-round checkpoint: the
    /// descriptor of its configuration and client count — a few dozen
    /// bytes, whatever the kind and however many clients are folded
    /// (module docs).
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.write_config(&mut w);
        w.put_usize(self.clients());
        w.into_bytes()
    }

    /// Loads a [`StreamingAggregator::save_state`] descriptor into this
    /// fresh aggregator, which then owes the n clients it describes:
    /// [`Aggregator::clients`] reports n, and `ingest` and `finalize` panic
    /// until the round engine has replayed all of them (module docs).
    /// Fails with [`StateError::Mismatch`] on a descriptor of another
    /// configuration (kind, parameters, dimension, thread budget), and
    /// with [`StateError::Truncated`] / [`StateError::Corrupt`] on one
    /// that is cut short or runs on.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        assert_eq!(self.clients(), 0, "a descriptor loads into a fresh aggregator");
        let mut config = StateWriter::new();
        self.write_config(&mut config);
        let config = config.into_bytes();
        let Some(rest) = bytes.strip_prefix(config.as_slice()) else {
            let cut_short = config.starts_with(bytes);
            return Err(if cut_short { StateError::Truncated } else { StateError::Mismatch });
        };
        let mut r = StateReader::new(rest);
        let n = r.get_usize()?;
        r.expect_end()?;
        self.owed = n;
        Ok(())
    }

    /// Re-ingests one chunk of the folded prefix, in order, into an
    /// aggregator that owes clients — untraced: the adversary saw this
    /// schedule when the chunk was first folded. Fails, leaving the
    /// aggregator untouched, with [`StateError::Mismatch`] on more clients
    /// than are owed.
    pub(crate) fn replay(&mut self, chunk: &[SparseGradient]) -> Result<(), StateError> {
        if chunk.len() > self.owed {
            return Err(StateError::Mismatch);
        }
        dispatch!(&mut self.inner, s => s.ingest(chunk, &mut NullTracer));
        self.owed -= chunk.len();
        Ok(())
    }

    /// Clients a loaded descriptor still owes ([`StreamingAggregator::replay`]).
    pub(crate) fn owed(&self) -> usize {
        self.owed
    }
}

impl Aggregator for StreamingAggregator {
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], tr: &mut TR) {
        assert_eq!(self.owed, 0, "{OWED}");
        dispatch!(&mut self.inner, s => s.ingest(chunk, tr))
    }

    fn finalize<TR: ParallelTracer>(self, tr: &mut TR) -> Vec<f32> {
        assert_eq!(self.owed, 0, "{OWED}");
        dispatch!(self.inner, s => s.finalize(tr))
    }

    /// Clients folded so far — a loaded descriptor's clients included,
    /// replayed or still owed.
    fn clients(&self) -> usize {
        dispatch!(&self.inner, s => s.clients()) + self.owed
    }

    fn resident_bytes(&self) -> u64 {
        dispatch!(&self.inner, s => s.resident_bytes())
    }

    fn ingest_scratch_bytes(&self, chunk_clients: usize, k: usize) -> u64 {
        dispatch!(&self.inner, s => s.ingest_scratch_bytes(chunk_clients, k))
    }

    fn finalize_scratch_bytes(&self) -> u64 {
        dispatch!(&self.inner, s => s.finalize_scratch_bytes())
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

    /// The restore contract at unit scale: for every kind, a descriptor
    /// saved after a mid-stream chunk loads into a fresh same-config
    /// streamer that owes those clients; replayed in two steps (the
    /// prefix's own chunking is free) it holds the same resident state,
    /// refuses a client more than it owed, and finishes like the original:
    /// output bits AND the *remaining* trace must match.
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
            assert_eq!((b.clients(), b.owed()), (4, 4), "{kind:?}: the clients are owed");
            b.replay(&updates[..1]).expect("one owed client");
            b.replay(&updates[1..4]).expect("the rest of the prefix");
            assert_eq!((b.owed(), b.clients()), (0, 4), "{kind:?}: clients counted once");
            assert_eq!(b.resident_bytes(), a.resident_bytes(), "{kind:?}");
            assert_eq!(b.save_state(), blob, "{kind:?}");
            assert_eq!(b.replay(&updates[4..5]), Err(StateError::Mismatch), "{kind:?}: not owed");
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

    /// A staged kind's checkpoint share is a descriptor — the same bytes
    /// however many clients are staged, where its resident state grows;
    /// so is every other kind's, and loading one brings no state along.
    /// A descriptor that promises more than a chunk replays keeps the rest
    /// owed, and a chunk past what is owed is refused with the streamer
    /// untouched.
    #[test]
    fn staged_state_is_a_constant_size_descriptor() {
        let (d, k) = (64, 4);
        let updates = random_updates(16, k, d, 9);
        for kind in all_kinds() {
            let state_after = |n: usize| {
                let mut agg = StreamingAggregator::new(kind, d, 1);
                agg.ingest(&updates[..n], &mut NullTracer);
                agg.save_state()
            };
            let blob = state_after(16);
            assert_eq!(state_after(2).len(), blob.len(), "{kind:?}: state must not grow with n");
            let mut agg = StreamingAggregator::new(kind, d, 1);
            let fresh = agg.resident_bytes();
            agg.load_state(&blob).expect("same configuration");
            assert_eq!(agg.resident_bytes(), fresh, "{kind:?}: a descriptor carries no state");
            agg.replay(&updates[..10]).expect("within what is owed");
            let resident = agg.resident_bytes();
            assert_eq!(agg.replay(&updates[..7]), Err(StateError::Mismatch), "{kind:?}");
            assert_eq!((agg.owed(), agg.resident_bytes()), (6, resident), "{kind:?}: untouched");
            // A descriptor saved while owing still describes the whole prefix.
            assert_eq!(agg.save_state(), blob, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "clients are still owed")]
    fn finalize_while_cells_are_owed_panics() {
        let updates = random_updates(3, 4, 16, 2);
        let mut agg = StreamingAggregator::new(AggregatorKind::Advanced, 16, 1);
        agg.ingest(&updates, &mut NullTracer);
        let blob = agg.save_state();
        let mut restored = StreamingAggregator::new(AggregatorKind::Advanced, 16, 1);
        restored.load_state(&blob).expect("same configuration");
        restored.replay(&updates[..2]).expect("part of the prefix");
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
        let load = |kind: AggregatorKind, d: usize, threads: usize, bytes: &[u8]| {
            StreamingAggregator::new(kind, d, threads).load_state(bytes)
        };
        let grouped = AggregatorKind::Grouped { h: 2 };
        assert_eq!(load(grouped, d, 1, &blob), Ok(()));
        assert_eq!(load(AggregatorKind::Advanced, d, 1, &blob), Err(StateError::Mismatch));
        assert_eq!(load(AggregatorKind::Grouped { h: 5 }, d, 1, &blob), Err(StateError::Mismatch));
        assert_eq!(load(grouped, d * 2, 1, &blob), Err(StateError::Mismatch), "dimension");
        assert_eq!(load(grouped, d, 2, &blob), Err(StateError::Mismatch), "thread budget");
        let dobliv = |seed| AggregatorKind::DiffOblivious { epsilon: 1.0, delta: 1e-3, seed };
        let other_seed = StreamingAggregator::new(dobliv(1), d, 1).save_state();
        assert_eq!(load(dobliv(2), d, 1, &other_seed), Err(StateError::Mismatch));
        for cut in 0..blob.len() {
            assert!(load(grouped, d, 1, &blob[..cut]).is_err(), "truncated at {cut}");
        }
        assert_eq!(load(grouped, d, 1, &[]), Err(StateError::Truncated));
        let mut longer = blob.clone();
        longer.push(0);
        assert_eq!(load(grouped, d, 1, &longer), Err(StateError::Corrupt));
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
