//! The round engine: Algorithm 1 lines 8–12 as **one** loop with **one**
//! EPC ledger.
//!
//! The paper's enclave-side round is a single fold — verify, decrypt,
//! obliviously aggregate chunk by chunk, finalize — and every driver in
//! this workspace runs it through the same three calls:
//!
//! ```text
//! RoundEngine::new(aggregator, k, threads, chunks_done, ledger)
//!     ── fold(chunk₁) ─▶ … ─▶ fold(chunkₘ) ── finish() → Δ̃
//!          │  checkpoint_state() + crash_point() after every chunk
//! ```
//!
//! [`OliveSystem::run_round`] and [`OliveSystem::restore_round`] drive it
//! over sealed uploads (opening chunk i+1 on a spare thread while chunk i
//! folds — the `prefetch` argument of [`RoundEngine::fold`]); the shard
//! equivalence suites and the bench rig over pre-decoded updates.
//!
//! # The ledger
//!
//! [`Ledger`] is the only place an EPC charge, release or resize is
//! written. Each event lands on the coordinator's [`EpcBudget`] (and the
//! `epc_charge_bytes` / `epc_free_bytes` telemetry counters under
//! `"coordinator"`) and, when the round is sharded, stripe-weighted on
//! every shard budget (`ShardRuntime::alloc_split`). It remembers what
//! is outstanding, so when a fold or the egress fails — or the scripted
//! coordinator crash fires — *everything* still charged is released
//! before the error surfaces: after any `Err` from the engine every
//! budget is back at `live == 0` and every counter pair balances.
//!
//! The charge schedule per chunk is a pure function of the public chunk
//! schedule: the chunk's staged plaintext, the aggregator's transient
//! ingest scratch, and the *next* chunk's staging (live while this chunk
//! folds, because it is being opened concurrently), then one resize of
//! the aggregator's persistent state.
//!
//! [`OliveSystem::run_round`]: crate::olive::OliveSystem::run_round
//! [`OliveSystem::restore_round`]: crate::olive::OliveSystem::restore_round

use olive_fl::SparseGradient;
use olive_memsim::{FaultKind, FaultPlan, ParallelTracer};
use olive_tee::{EpcBudget, TeeError};
use olive_telemetry::Telemetry;

use crate::aggregation::sharded::note_fault;
use crate::aggregation::{Aggregator, ShardError, ShardRuntime, StreamingAggregator};

/// Telemetry key of the coordinator enclave's budget.
const COORDINATOR: &str = "coordinator";

/// Why a round could not run (or resume) to completion. Every variant is
/// recoverable state, not a panic: the interrupted round stays pending
/// ([`OliveSystem::interrupted`](crate::olive::OliveSystem::interrupted))
/// and [`OliveSystem::restore_round`](crate::olive::OliveSystem::restore_round)
/// can finish it once the cause is repaired — bitwise identical to an
/// uninterrupted round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundError {
    /// The sealed round checkpoint failed to restore: tampered blob
    /// ([`TeeError::AuthFailure`]) or a rollback below the pinned counter
    /// floor ([`TeeError::StaleSeal`]).
    Checkpoint(TeeError),
    /// The shard transport plane failed after its retry/failover budget
    /// was exhausted (which shard, how many attempts, terminal failure).
    Shard(ShardError),
    /// The coordinator enclave died right after chunk `after_chunk` was
    /// folded and checkpointed (a scripted [`FaultKind::CoordinatorKill`]):
    /// aggregator, staged plaintexts, session keys, replay floors and
    /// seal counters are gone; the sealed checkpoint is not.
    CoordinatorKilled {
        /// 0-based index of the last chunk folded before the crash.
        after_chunk: usize,
    },
}

impl core::fmt::Display for RoundError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RoundError::Checkpoint(e) => write!(f, "checkpoint restore failed: {e:?}"),
            RoundError::Shard(e) => write!(f, "shard plane failed: {e}"),
            RoundError::CoordinatorKilled { after_chunk } => {
                write!(f, "coordinator enclave killed after chunk {after_chunk}")
            }
        }
    }
}

impl std::error::Error for RoundError {}

impl From<TeeError> for RoundError {
    fn from(e: TeeError) -> Self {
        RoundError::Checkpoint(e)
    }
}

impl From<ShardError> for RoundError {
    fn from(e: ShardError) -> Self {
        RoundError::Shard(e)
    }
}

/// The round's EPC ledger (module docs): one coordinator budget, the
/// optional shard plane mirroring it, and the list of charges not yet
/// released.
pub struct Ledger {
    coordinator: EpcBudget,
    shards: Option<ShardRuntime>,
    telemetry: Telemetry,
    /// One entry per live charge. Released one by one on abort: the
    /// stripe split is per amount (`split(a) + split(b) ≠ split(a + b)`
    /// under integer rounding), so a lump-sum release would not balance
    /// the shard budgets to the byte.
    outstanding: Vec<u64>,
}

impl Ledger {
    /// A ledger over the coordinator's budget (as the enclave holds it at
    /// round start) and, for a sharded round, the provisioned shard plane.
    pub fn new(coordinator: EpcBudget, shards: Option<ShardRuntime>, telemetry: Telemetry) -> Self {
        Ledger { coordinator, shards, telemetry, outstanding: Vec::new() }
    }

    fn charge(&mut self, bytes: u64) {
        self.coordinator.alloc_counted(bytes, &self.telemetry, COORDINATOR);
        if let Some(rt) = self.shards.as_mut() {
            rt.alloc_split(bytes);
        }
        self.track(bytes);
    }

    fn release(&mut self, bytes: u64) {
        self.untrack(bytes);
        self.coordinator.free_counted(bytes, &self.telemetry, COORDINATOR);
        if let Some(rt) = self.shards.as_mut() {
            rt.free_split(bytes);
        }
    }

    /// A buffer that grew (or shrank) in place: one event, so no budget's
    /// peak ever counts both generations of the same state.
    fn resize(&mut self, old: u64, new: u64) {
        self.untrack(old);
        self.track(new);
        self.coordinator.resize_counted(old, new, &self.telemetry, COORDINATOR);
        if let Some(rt) = self.shards.as_mut() {
            rt.free_split(old);
            rt.alloc_split(new);
        }
    }

    // Empty charges (no next chunk to stage, a kind without scratch) have
    // nothing to release on abort and are not tracked.
    fn track(&mut self, bytes: u64) {
        if bytes > 0 {
            self.outstanding.push(bytes);
        }
    }

    fn untrack(&mut self, bytes: u64) {
        if bytes > 0 {
            let at = self.outstanding.iter().position(|&b| b == bytes);
            self.outstanding.swap_remove(at.expect("release of a charge that is not outstanding"));
        }
    }

    /// The abort path: releases every outstanding charge.
    fn release_all(&mut self) {
        while let Some(&bytes) = self.outstanding.last() {
            self.release(bytes);
        }
    }

    /// Charges `bytes` to the coordinator for the duration of `work` — a
    /// coordinator-only transient (the checkpoint plaintext while it is
    /// built and sealed: it never exists on a shard, so it is not
    /// striped).
    pub fn transient<T>(&mut self, bytes: u64, work: impl FnOnce() -> T) -> T {
        self.coordinator.alloc_counted(bytes, &self.telemetry, COORDINATOR);
        let out = work();
        self.coordinator.free_counted(bytes, &self.telemetry, COORDINATOR);
        out
    }
}

/// What the engine hands back when the round ends, completed or aborted:
/// the persistent pieces it borrowed for the round.
pub struct RoundEnd {
    /// The coordinator budget as the round left it (`live == 0`; `peak`
    /// is the round's working set).
    pub coordinator: EpcBudget,
    /// The shard plane, reusable for the next round.
    pub shards: Option<ShardRuntime>,
    /// The unfired remainder of a fault script armed on an *unsharded*
    /// engine (a sharded engine keeps its script in the shard runtime).
    pub faults: FaultPlan,
}

/// The enclave-side round (module docs).
pub struct RoundEngine {
    agg: StreamingAggregator,
    ledger: Ledger,
    /// Fault script of an unsharded round; a sharded round's script lives
    /// in its [`ShardRuntime`], next to the transport hooks that fire it.
    faults: FaultPlan,
    threads: usize,
    /// Per-client transmitted cells (public: ciphertext length reveals it).
    k: usize,
    /// Absolute number of chunks folded into `agg` (a restored engine
    /// starts above zero), the coordinate fault events are addressed by.
    chunks_done: usize,
    /// Chunks folded by *this* engine.
    folded: u64,
    /// Bytes currently charged for the aggregator's persistent state.
    resident: u64,
    /// Bytes currently charged for the staged (opened, unfolded) chunk.
    staged_bytes: u64,
    /// ORAM eviction count already reported to the `oram_evicted_blocks`
    /// counter (the ORAM reports a running total; telemetry wants
    /// per-chunk deltas). A restored ORAM restarts its non-serialized
    /// counter, so this starts at zero either way.
    oram_evicted_seen: u64,
}

impl RoundEngine {
    /// Starts (or, with a checkpoint-loaded `agg` and `chunks_done > 0`,
    /// resumes) a round: opens the shard plane's round at chunk
    /// `chunks_done` and charges the aggregator's resident state.
    pub fn new(
        agg: StreamingAggregator,
        k: usize,
        threads: usize,
        chunks_done: usize,
        mut ledger: Ledger,
    ) -> Self {
        if let Some(rt) = ledger.shards.as_mut() {
            rt.begin_round();
            // Keep scripted fault coordinates absolute: the resumed half
            // of a round continues the original chunk numbering.
            rt.skip_to_chunk(chunks_done);
        }
        let resident = agg.resident_bytes();
        ledger.charge(resident);
        RoundEngine {
            agg,
            ledger,
            faults: FaultPlan::empty(),
            threads,
            k,
            chunks_done,
            folded: 0,
            resident,
            staged_bytes: 0,
            oram_evicted_seen: 0,
        }
    }

    /// Arms an explicit fault script for this round (replacing whatever
    /// plan — scripted or environmental — was armed).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        *self.faults_mut() = plan;
    }

    fn faults_mut(&mut self) -> &mut FaultPlan {
        match self.ledger.shards.as_mut() {
            Some(rt) => rt.faults_mut(),
            None => &mut self.faults,
        }
    }

    /// Folds one chunk of decrypted updates (Algorithm 1 line 12), with
    /// `prefetch` — opening and decoding the next chunk, whose staged
    /// plaintext is `next_bytes` — overlapped on a spare thread when the
    /// thread budget allows, and returns what `prefetch` produced.
    ///
    /// A sharded round first broadcasts the chunk's cell segment to every
    /// shard (fixed shape: a pure function of the public chunk schedule,
    /// so the transport leaks nothing the schedule doesn't already
    /// reveal). Recovery from shard faults happens inside that call; only
    /// *exhausted* recovery fails the fold — with every charge released
    /// and the chunk unfolded, so the sealed checkpoint of the previous
    /// chunk (or the untrusted round material, at chunk 0) restores the
    /// round exactly.
    pub fn fold<TR: ParallelTracer, T: Send>(
        &mut self,
        chunk: &[SparseGradient],
        next_bytes: u64,
        prefetch: impl FnOnce() -> T + Send,
        tr: &mut TR,
    ) -> Result<T, RoundError> {
        if self.staged_bytes == 0 {
            // Not charged as the previous fold's look-ahead: the first
            // chunk of this engine (or a driver that never prefetches).
            self.staged_bytes = chunk.iter().map(|u| u.k() as u64 * 8).sum();
            self.ledger.charge(self.staged_bytes);
        }
        let scratch = self.agg.ingest_scratch_bytes(chunk.len(), self.k);
        self.ledger.charge(scratch);
        self.ledger.charge(next_bytes);
        if let Some(rt) = self.ledger.shards.as_mut() {
            if let Err(e) = rt.ingress_chunk(chunk) {
                self.ledger.release_all();
                return Err(e.into());
            }
        }
        let next = if self.threads >= 2 && next_bytes > 0 {
            // Pipeline: the prefetch (crypto-bound) runs on an extra
            // worker while the chunk aggregates (memory-bound) on this
            // thread. It rides *on top of* the aggregation's thread
            // budget (up to threads+1 runnable threads): shrinking the
            // aggregation to threads−1 workers would change the Grouped
            // wave schedule and break the bitwise chunk-invariance
            // contract, and the deliberate oversubscription overlaps
            // well.
            let agg = &mut self.agg;
            std::thread::scope(|scope| {
                let opener = scope.spawn(prefetch);
                agg.ingest(chunk, tr);
                opener.join().expect("upload opener thread must not panic")
            })
        } else {
            self.agg.ingest(chunk, tr);
            prefetch()
        };
        self.ledger.release(scratch);
        self.ledger.release(self.staged_bytes);
        self.staged_bytes = next_bytes;
        let resident = self.agg.resident_bytes();
        self.ledger.resize(self.resident, resident);
        self.resident = resident;
        // ORAM comparator rounds expose the stash high-water mark and
        // eviction volume on the side-band counters (deterministic
        // values: both kernels count identically).
        if let Some(stats) = self.agg.oram_stats() {
            let telemetry = &self.ledger.telemetry;
            telemetry.observe("oram_stash_occupancy", "max", stats.max_stash_occupancy as u64);
            let evicted = stats.evicted_blocks - self.oram_evicted_seen;
            self.oram_evicted_seen = stats.evicted_blocks;
            telemetry.count("oram_evicted_blocks", COORDINATOR, evicted);
        }
        self.chunks_done += 1;
        self.folded += 1;
        Ok(next)
    }

    /// The aggregator's serialized state — the engine's share of a sealed
    /// round checkpoint (the driver adds what only it knows: round
    /// counter, RNG state, replay floors).
    pub fn checkpoint_state(&self) -> Vec<u8> {
        self.agg.save_state()
    }

    /// The crash hook, called once the chunk just folded is checkpointed:
    /// fires a scripted [`FaultKind::CoordinatorKill`] at that chunk.
    /// Enclave memory dies with the coordinator, so every charge is
    /// released before [`RoundError::CoordinatorKilled`] surfaces.
    pub fn crash_point(&mut self) -> Result<(), RoundError> {
        let after_chunk = self.chunks_done - 1;
        if !self.faults_mut().fire(FaultKind::CoordinatorKill, after_chunk as u32, 0) {
            return Ok(());
        }
        note_fault(&self.ledger.telemetry, FaultKind::CoordinatorKill, after_chunk as u32, 0);
        self.ledger.release_all();
        Err(RoundError::CoordinatorKilled { after_chunk })
    }

    /// Completes the round: finalizes the aggregator and — sharded —
    /// stripes the delta out to the shards and folds the shard-held
    /// stripes back in ascending shard order (the deterministic merge,
    /// bitwise the canonical delta). An exhausted egress recovery fails
    /// with every charge released; the final checkpoint (all chunks
    /// folded) restores the round at this step.
    pub fn finish<TR: ParallelTracer>(
        mut self,
        tr: &mut TR,
    ) -> (Result<Vec<f32>, RoundError>, RoundEnd) {
        let scratch = self.agg.finalize_scratch_bytes();
        self.ledger.charge(scratch);
        let canonical = self.agg.finalize(tr);
        let delta = match self.ledger.shards.as_mut() {
            Some(rt) => rt.egress_round(&canonical).map_err(RoundError::from),
            None => Ok(canonical),
        };
        self.ledger.release_all();
        let Ledger { coordinator, shards, .. } = self.ledger;
        (delta, RoundEnd { coordinator, shards, faults: self.faults })
    }

    /// Folds pre-decoded chunks back to back (nothing to prefetch) and
    /// finishes — the whole round for a driver that already holds the
    /// updates in the clear (equivalence suites, figure harnesses).
    pub fn run<'a, TR: ParallelTracer>(
        mut self,
        chunks: impl IntoIterator<Item = &'a [SparseGradient]>,
        tr: &mut TR,
    ) -> (Result<Vec<f32>, RoundError>, RoundEnd) {
        for chunk in chunks {
            if let Err(e) = self.fold(chunk, 0, || (), tr) {
                return (Err(e), self.abort());
            }
        }
        self.finish(tr)
    }

    /// Tears down an engine whose round was aborted (the failed call
    /// already released every charge).
    pub fn abort(self) -> RoundEnd {
        debug_assert!(self.ledger.outstanding.is_empty(), "abort follows an engine error");
        let Ledger { coordinator, shards, .. } = self.ledger;
        RoundEnd { coordinator, shards, faults: self.faults }
    }

    /// The round's ledger, for coordinator-only transients.
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// The shard plane this round runs over, if any.
    pub fn shards(&self) -> Option<&ShardRuntime> {
        self.ledger.shards.as_ref()
    }

    /// Absolute number of chunks folded so far.
    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// Chunks folded by this engine (excludes a restored prefix).
    pub fn chunks_folded(&self) -> u64 {
        self.folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::{all_kinds, random_updates, shard_runtime};
    use crate::aggregation::{aggregate_with_threads, AggregatorKind};
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};

    fn engine(kind: AggregatorKind, d: usize, k: usize, t: usize, ledger: Ledger) -> RoundEngine {
        RoundEngine::new(StreamingAggregator::new(kind, d, t), k, t, 0, ledger)
    }

    fn monolithic() -> Ledger {
        Ledger::new(EpcBudget { limit: 1 << 20, ..Default::default() }, None, Telemetry::off())
    }

    fn sharded(d: usize, shards: usize) -> Ledger {
        Ledger::new(EpcBudget::default(), Some(shard_runtime(d, shards, 3)), Telemetry::off())
    }

    /// The engine's degenerate case: one fold of the whole round is the
    /// one-shot helper, bit for bit and access for access — monolithic or
    /// sharded, with or without a spare prefetch thread.
    #[test]
    fn one_fold_of_the_whole_round_is_the_one_shot_aggregate() {
        let (d, n, k) = (48, 7, 5);
        let updates = random_updates(n, k, d, 31);
        for kind in all_kinds() {
            for threads in [1usize, 2] {
                let mut want_tr = RecordingTracer::new(Granularity::Element);
                let want = aggregate_with_threads(kind, &updates, d, threads, &mut want_tr);
                for ledger in [monolithic(), sharded(d, 4)] {
                    let mut tr = RecordingTracer::new(Granularity::Element);
                    let mut eng = engine(kind, d, k, threads, ledger);
                    // A non-zero look-ahead takes the overlapped path.
                    let fetched = eng.fold(&updates, 8, || 7u8, &mut tr).expect("fault-free");
                    assert_eq!(fetched, 7, "fold hands back what the prefetch produced");
                    assert_eq!((eng.chunks_done(), eng.agg.clients()), (1, n));
                    let (got, end) = eng.finish(&mut tr);
                    let got = got.expect("fault-free");
                    let same = want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{kind:?} threads={threads}: output bits drifted");
                    assert_eq!(tr.digest(), want_tr.digest(), "{kind:?} threads={threads}: trace");
                    assert_eq!(end.coordinator.live, 0, "{kind:?}: the ledger balances");
                    assert!(end.shards.iter().all(|rt| rt.live().iter().all(|&b| b == 0)));
                }
            }
        }
    }

    /// The charge schedule, spelled out on the cheapest kind: resident
    /// state for the whole round; per fold the staged chunk, the scratch
    /// and the next chunk's staging; the finalize scratch on top at the
    /// end — and the peak is their simultaneous maximum.
    #[test]
    fn ledger_follows_the_public_chunk_schedule() {
        let (d, k) = (64, 4);
        let updates = random_updates(6, k, d, 9);
        let mut eng = engine(AggregatorKind::NonOblivious, d, k, 1, monolithic());
        let resident = d as u64 * 4;
        let chunk_bytes = 3 * k as u64 * 8;
        assert_eq!(eng.ledger.coordinator.live, resident);
        eng.fold(&updates[..3], chunk_bytes, || (), &mut NullTracer).expect("fault-free");
        assert_eq!(eng.ledger.coordinator.live, resident + chunk_bytes, "look-ahead stays staged");
        assert_eq!(eng.ledger.coordinator.peak, resident + 2 * chunk_bytes);
        eng.fold(&updates[3..], 0, || (), &mut NullTracer).expect("fault-free");
        assert_eq!(eng.ledger.coordinator.live, resident);
        // A coordinator-only transient is live exactly while its work runs.
        assert_eq!(eng.ledger_mut().transient(100, || 42), 42);
        assert_eq!(eng.ledger.coordinator.live, resident);
        let (out, end) = eng.finish(&mut NullTracer);
        out.expect("fault-free");
        assert_eq!((end.coordinator.live, end.coordinator.peak), (0, resident + 2 * chunk_bytes));
        assert!(!end.coordinator.would_page());
    }

    /// A scripted coordinator crash fires once, after its chunk, on
    /// monolithic and sharded engines alike — with every budget released
    /// — and never on a chunk the script does not name.
    #[test]
    fn scripted_crash_fires_after_its_chunk_and_releases_every_charge() {
        let (d, k) = (32, 4);
        let updates = random_updates(6, k, d, 13);
        for ledger in [monolithic(), sharded(d, 2)] {
            let mut eng = engine(AggregatorKind::Advanced, d, k, 1, ledger);
            eng.set_fault_plan(FaultPlan::parse("crash@1,crash@7").expect("well-formed script"));
            eng.fold(&updates[..2], 0, || (), &mut NullTracer).expect("fault-free");
            eng.crash_point().expect("chunk 0 is not scripted");
            eng.fold(&updates[2..4], 0, || (), &mut NullTracer).expect("fault-free");
            assert_eq!(eng.crash_point(), Err(RoundError::CoordinatorKilled { after_chunk: 1 }));
            let sharded = eng.shards().is_some();
            let end = eng.abort();
            assert_eq!(end.coordinator.live, 0);
            assert!(end.shards.iter().all(|rt| rt.live().iter().all(|&b| b == 0)));
            // The unreached event stays armed where the engine found it.
            assert_eq!(end.faults.remaining(), usize::from(!sharded));
        }
    }
}
