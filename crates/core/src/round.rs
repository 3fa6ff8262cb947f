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
//!          │  Checkpoint::{advance, seal} + crash_point() after every chunk
//! ```
//!
//! [`OliveSystem::run_round`] and [`OliveSystem::restore_round`] drive it
//! over sealed uploads (opening chunk i+1 on a spare thread while chunk i
//! folds — the `prefetch` argument of [`RoundEngine::fold`]); the shard
//! equivalence suites and the bench rig over pre-decoded updates.
//!
//! # The ledger
//!
//! [`Ledger`] is the only place a charge, release or resize of the
//! *coordinator's* [`EpcBudget`] is written (mirrored on the
//! `epc_charge_bytes` / `epc_free_bytes` telemetry counters under
//! `"coordinator"`). The coordinator is the one enclave that holds the
//! staged cells, the scratch and the resident state, at every shard
//! count; a shard's own budget carries only what the shard decrypts, and
//! the shard transport charges that itself (`aggregation::sharded`). The
//! ledger keeps the running total of what is charged, so however a round
//! ends — finished, or aborted on a failed fold, upload, egress or the
//! scripted coordinator crash — [`RoundEngine::finish`] /
//! [`RoundEngine::abort`] release *everything* still charged: every
//! budget they hand back is at `live == 0` and every counter pair
//! balances.
//!
//! The charge schedule per chunk is a pure function of the public chunk
//! schedule: the chunk's staged plaintext, the aggregator's transient
//! ingest scratch, and the *next* chunk's staging (live while this chunk
//! folds, because it is being opened concurrently), then one resize of
//! the aggregator's persistent state.
//!
//! # The checkpoint
//!
//! [`Checkpoint`] is the one codec of a sealed restore point — what
//! `OliveSystem` and the bench rig both seal after every fold and decode
//! on restore. It holds only what cannot be recomputed from the round's
//! own sealed uploads: the round's public shape, chunk progress, the
//! DP/sampling generator, the replay floors of the folded prefix (kept as
//! one running snapshot, updated with each chunk's entries) and the
//! aggregator's [`Aggregator::save_state`]. For the staged kinds that
//! state is a descriptor and [`RoundEngine::resume`] rebuilds the cells
//! by re-opening the folded prefix — with the floor snapshot as the
//! commitment to the exact ciphertexts (an AEAD nonce is used once, so
//! equal floors mean the same uploads).
//!
//! [`OliveSystem::run_round`]: crate::olive::OliveSystem::run_round
//! [`OliveSystem::restore_round`]: crate::olive::OliveSystem::restore_round

use olive_fl::SparseGradient;
use olive_memsim::{FaultKind, FaultPlan, ParallelTracer, StateError, StateReader, StateWriter};
use olive_tee::{Enclave, EpcBudget, SealedMessage, TeeError, UserId};
use olive_telemetry::Telemetry;

use crate::aggregation::sharded::note_fault;
use crate::aggregation::{Aggregator, ShardError, ShardRuntime, StreamingAggregator};

/// Telemetry key of the coordinator enclave's budget.
const COORDINATOR: &str = "coordinator";

/// Sealing label for mid-round checkpoints. One label, one monotonic
/// nonce counter: every checkpoint of every round draws from the same
/// sequence, which is what makes the rollback floor a single u64.
pub const CKPT_LABEL: &[u8] = b"round-ckpt";

/// Checkpoint plaintext format version (bump on any layout change).
/// v2: the staged kinds' aggregator state is a descriptor, not cells.
const CKPT_VERSION: u8 = 2;

/// Why a round could not run (or resume) to completion. Every variant is
/// recoverable state, not a panic: the interrupted round stays pending
/// ([`OliveSystem::interrupted`](crate::olive::OliveSystem::interrupted))
/// and [`OliveSystem::restore_round`](crate::olive::OliveSystem::restore_round)
/// can finish it once the cause is repaired — bitwise identical to an
/// uninterrupted round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundError {
    /// The stored round material failed to restore: a tampered blob, a
    /// blob of another round, or a folded prefix that is not the one the
    /// checkpoint committed to ([`TeeError::AuthFailure`]); or a rollback
    /// below the pinned counter floor ([`TeeError::StaleSeal`]).
    Checkpoint(TeeError),
    /// The shard transport plane failed after its retry/failover budget
    /// was exhausted (which shard, how many attempts, terminal failure).
    Shard(ShardError),
    /// The upload in position `slot` of the round failed to verify or
    /// decode (tampered, replayed, stale, from an unsampled user, or a
    /// malformed encoding under a valid tag). Nothing of its chunk is
    /// folded; the round resumes once a genuine upload is in the slot.
    Upload {
        /// 0-based position among the round's uploads.
        slot: usize,
        /// Why the enclave refused it.
        error: TeeError,
    },
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
            RoundError::Upload { slot, error } => write!(f, "upload {slot} refused: {error:?}"),
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

/// The round's EPC ledger (module docs): the coordinator's budget, the
/// running total charged to it, and — carried for the round, never
/// charged from here — the shard plane.
pub struct Ledger {
    coordinator: EpcBudget,
    shards: Option<ShardRuntime>,
    telemetry: Telemetry,
    /// Bytes charged and not yet released.
    outstanding: u64,
}

impl Ledger {
    /// A ledger over the coordinator's budget (as the enclave holds it at
    /// round start) and, for a sharded round, the provisioned shard plane.
    pub fn new(coordinator: EpcBudget, shards: Option<ShardRuntime>, telemetry: Telemetry) -> Self {
        Ledger { coordinator, shards, telemetry, outstanding: 0 }
    }

    fn charge(&mut self, bytes: u64) {
        self.coordinator.alloc_counted(bytes, &self.telemetry, COORDINATOR);
        self.outstanding += bytes;
    }

    fn release(&mut self, bytes: u64) {
        self.coordinator.free_counted(bytes, &self.telemetry, COORDINATOR);
        self.outstanding -= bytes;
    }

    /// A buffer that grew (or shrank) in place: one event, so the peak
    /// never counts both generations of the same state.
    fn resize(&mut self, old: u64, new: u64) {
        self.coordinator.resize_counted(old, new, &self.telemetry, COORDINATOR);
        self.outstanding = self.outstanding - old + new;
    }

    /// The end of a round, finished or aborted: releases everything still
    /// charged and hands the borrowed pieces back. `faults` is an
    /// unsharded round's script; a sharded round's is taken back from the
    /// runtime it was armed on.
    fn end(mut self, faults: FaultPlan) -> RoundEnd {
        self.release(self.outstanding);
        let faults = match self.shards.as_mut() {
            Some(rt) => std::mem::take(rt.faults_mut()),
            None => faults,
        };
        RoundEnd { coordinator: self.coordinator, shards: self.shards, faults }
    }

    /// Charges `bytes` for the duration of `work` (the checkpoint
    /// plaintext while it is built and sealed).
    fn transient<T>(&mut self, bytes: u64, work: impl FnOnce() -> T) -> T {
        self.charge(bytes);
        let out = work();
        self.release(bytes);
        out
    }
}

/// The public shape of one round — everything a checkpoint must agree
/// with the pending round on before it may resume it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundShape {
    /// Round counter t.
    pub round: u64,
    /// Sealed uploads in the round.
    pub uploads: usize,
    /// Uploads opened, decoded and folded per chunk.
    pub chunk_size: usize,
    /// Worker-thread budget the aggregator was built with.
    pub threads: usize,
    /// Cells per upload.
    pub k: usize,
}

/// A round's restore point (module docs): a fresh round starts one with
/// [`Checkpoint::start`], advances and seals it after every fold, and a
/// restore decodes the newest sealed one and carries on from it.
///
/// Plaintext layout (v2), via `StateWriter`:
///
/// ```text
/// u8 version ‖ u64 round ‖ chunks_done ‖ uploads ‖ chunk_size ‖ threads ‖ k
///   ‖ 4 × u64 generator state
///   ‖ n_floors ‖ n_floors × (u32 user, u64 nonce counter)   — sorted by user
///   ‖ bytes StreamingAggregator::save_state()
/// ```
pub struct Checkpoint {
    shape: RoundShape,
    chunks_done: usize,
    /// The enclave's DP/sampling generator: the post-restore noise draw
    /// must be the exact draw the uninterrupted round would have made.
    pub rng_state: [u64; 4],
    /// Round-start floors overridden by exactly the uploads of the
    /// `chunks_done` *folded* chunks, sorted by user. Uploads the
    /// double-buffered opener had opened but not folded get no entry, so
    /// after a restore they are accepted again, not taken for replays.
    floors: Vec<(UserId, u64)>,
    agg_state: Vec<u8>,
}

impl Checkpoint {
    /// The restore point of a round nothing is folded of yet:
    /// `base_floors` are the replay floors as of round start.
    pub fn start(shape: RoundShape, rng_state: [u64; 4], base_floors: &[(UserId, u64)]) -> Self {
        let mut floors = base_floors.to_vec();
        floors.sort_unstable_by_key(|&(user, _)| user);
        Checkpoint { shape, chunks_done: 0, rng_state, floors, agg_state: Vec::new() }
    }

    /// Chunks folded as of this restore point.
    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// The aggregator state sealed in (empty before the first seal).
    pub fn agg_state(&self) -> &[u8] {
        &self.agg_state
    }

    /// Records the next chunk — the uploads `msgs` — as folded: only its
    /// ≤ `chunk_size` floor entries are touched, never all N users.
    pub fn advance(&mut self, msgs: &[SealedMessage]) {
        let known = self.floors.len();
        for m in msgs {
            match self.floors[..known].binary_search_by_key(&m.user, |&(user, _)| user) {
                Ok(at) => self.floors[at].1 = m.nonce_counter,
                Err(_) => self.floors.push((m.user, m.nonce_counter)),
            }
        }
        if self.floors.len() > known {
            // First uploads of users the enclave had no floor for yet.
            self.floors.sort_unstable_by_key(|&(user, _)| user);
        }
        self.chunks_done += 1;
    }

    /// Seals this restore point under [`CKPT_LABEL`] with the engine's
    /// current aggregator state. The plaintext is enclave-resident while
    /// it is built and sealed, and charged like any other transient.
    pub fn seal(&mut self, engine: &mut RoundEngine, enclave: &mut Enclave) -> Vec<u8> {
        debug_assert_eq!(self.chunks_done, engine.chunks_done);
        self.agg_state = engine.checkpoint_state();
        let plain = self.encode();
        engine.ledger.transient(plain.len() as u64, || enclave.seal(&plain, CKPT_LABEL))
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u8(CKPT_VERSION);
        w.put_u64(self.shape.round);
        w.put_usize(self.chunks_done);
        w.put_usize(self.shape.uploads);
        w.put_usize(self.shape.chunk_size);
        w.put_usize(self.shape.threads);
        w.put_usize(self.shape.k);
        for word in self.rng_state {
            w.put_u64(word);
        }
        w.put_usize(self.floors.len());
        for &(user, counter) in &self.floors {
            w.put_u32(user);
            w.put_u64(counter);
        }
        w.put_bytes(&self.agg_state);
        w.into_bytes()
    }

    /// Parses an unsealed checkpoint and validates it against the round
    /// it is asked to resume: version and every field of `shape` must
    /// match, and the progress must fit the round.
    pub fn decode(plain: &[u8], shape: RoundShape) -> Result<Self, StateError> {
        let mut r = StateReader::new(plain);
        if r.get_u8()? != CKPT_VERSION || r.get_u64()? != shape.round {
            return Err(StateError::Mismatch);
        }
        let chunks_done = r.get_usize()?;
        if r.get_usize()? != shape.uploads
            || r.get_usize()? != shape.chunk_size
            || r.get_usize()? != shape.threads
            || r.get_usize()? != shape.k
        {
            return Err(StateError::Mismatch);
        }
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64()?;
        }
        let n_floors = r.get_usize()?;
        let mut floors = Vec::with_capacity(n_floors.min(plain.len() / 12 + 1));
        for _ in 0..n_floors {
            floors.push((r.get_u32()?, r.get_u64()?));
        }
        let agg_state = r.get_bytes()?.to_vec();
        r.expect_end()?;
        if chunks_done > shape.uploads.div_ceil(shape.chunk_size) {
            return Err(StateError::Corrupt);
        }
        Ok(Checkpoint { shape, chunks_done, rng_state, floors, agg_state })
    }
}

/// Enclave-resident bytes of one *staged* upload chunk: the decoded
/// `(index, value)` pairs (8 B per transmitted cell, read off the public
/// ciphertext lengths: payload = 8-byte header + 8k, ciphertext =
/// payload + 16-byte tag).
pub fn staged_chunk_bytes(msgs: &[SealedMessage]) -> u64 {
    msgs.iter().map(|m| m.ciphertext.len().saturating_sub(8 + 16) as u64).sum()
}

/// Opens one chunk of uploads — `msgs`, positions `first_slot..` of the
/// round — through [`Enclave::open_upload_batch`] and decodes the
/// plaintext gradient encodings: the `prefetch` half of a
/// [`RoundEngine::fold`], the restore path's re-open, and the ingestion
/// benchmarks' opener. The first upload that fails to verify or decode
/// fails the chunk with [`RoundError::Upload`] (a malformed encoding
/// under a valid tag reads as [`TeeError::AuthFailure`]).
pub fn open_and_decode(
    enclave: &mut Enclave,
    msgs: &[SealedMessage],
    first_slot: usize,
) -> Result<Vec<SparseGradient>, RoundError> {
    let decode = |plain: Vec<u8>| SparseGradient::decode(&plain).ok_or(TeeError::AuthFailure);
    let refused = |slot, error| RoundError::Upload { slot, error };
    let opened = enclave.open_upload_batch(msgs).into_iter().zip(first_slot..);
    opened.map(|(plain, slot)| plain.and_then(decode).map_err(|e| refused(slot, e))).collect()
}

/// What the engine hands back when the round ends, completed or aborted:
/// the persistent pieces it borrowed for the round.
pub struct RoundEnd {
    /// The coordinator budget as the round left it (`live == 0`; `peak`
    /// is the round's working set).
    pub coordinator: EpcBudget,
    /// The shard plane, reusable for the next round.
    pub shards: Option<ShardRuntime>,
    /// The unfired remainder of the round's fault script, at every S —
    /// what the next engine (a restore's included) re-arms.
    pub faults: FaultPlan,
}

/// The enclave-side round (module docs).
pub struct RoundEngine {
    agg: StreamingAggregator,
    ledger: Ledger,
    /// Fault script of an unsharded round; a sharded round's script lives
    /// in its [`ShardRuntime`], next to the transport hooks that fire it,
    /// for as long as the round runs.
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
    /// A sharded round first hands every shard the chunk's public
    /// descriptor (a pure function of the chunk schedule; no cell leaves
    /// the coordinator). Recovery from shard faults happens inside that
    /// call; only *exhausted* recovery fails the fold — with the chunk
    /// unfolded, so the sealed checkpoint of the previous chunk (or the
    /// untrusted round material, at chunk 0) restores the round exactly.
    /// A `prefetch` that can fail hands its own `Result` back through
    /// `T`: by then this chunk *is* folded, so the driver checkpoints it
    /// before it looks.
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
            rt.ingress_chunk(chunk)?;
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
        self.resize_resident();
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
    /// round checkpoint ([`Checkpoint::seal`] adds the rest).
    pub(crate) fn checkpoint_state(&self) -> Vec<u8> {
        self.agg.save_state()
    }

    /// Brings an engine built over a checkpoint-loaded aggregator level
    /// with `ckpt`, and the enclave's replay floors with it.
    ///
    /// An accumulating kind is whole after `load_state`: the floors are
    /// set to the sealed folded-prefix snapshot and that is all. A staged
    /// kind owes its cells, so the floors are rewound to `base_floors`
    /// (round start) and chunks `[0, chunks_done)` of `uploads` are
    /// re-opened, decoded and re-staged — untraced, like the staging they
    /// repeat, away from the shard plane (shards keep their own
    /// progress), and charged through the ledger like the resident growth
    /// they are. Two sealed values then decide whether that was the
    /// prefix the checkpoint was taken over: no cell may be owed, and the
    /// enclave's floors must equal the sealed snapshot entry for entry —
    /// a missing, swapped, substituted or unverifiable upload fails one
    /// of them (or the open itself). Any failure surfaces as
    /// [`RoundError::Checkpoint`]; the caller then tears the engine down
    /// with [`RoundEngine::abort`].
    pub fn resume(
        &mut self,
        enclave: &mut Enclave,
        uploads: &[SealedMessage],
        base_floors: &[(UserId, u64)],
        ckpt: &Checkpoint,
    ) -> Result<(), RoundError> {
        let owed = self.agg.owed_cells();
        if owed == 0 {
            enclave.restore_replay_floors(&ckpt.floors);
            return Ok(());
        }
        let _span = self.ledger.telemetry.span(
            "restage_prefix",
            &[("chunks", (ckpt.chunks_done as u64).into()), ("cells", (owed as u64).into())],
        );
        enclave.restore_replay_floors(base_floors);
        let chunk_size = ckpt.shape.chunk_size;
        let folded = (ckpt.chunks_done * chunk_size).min(uploads.len());
        let restaged =
            uploads[..folded].chunks(chunk_size).all(|msgs| self.restage_chunk(enclave, msgs));
        if restaged && self.agg.owed_cells() == 0 && enclave.replay_floors() == ckpt.floors {
            return Ok(());
        }
        Err(RoundError::Checkpoint(TeeError::AuthFailure))
    }

    /// Re-opens one folded chunk and appends its cells to the restored
    /// aggregator; `false` if an upload does not verify or the cells do
    /// not fit what is owed.
    fn restage_chunk(&mut self, enclave: &mut Enclave, msgs: &[SealedMessage]) -> bool {
        let Ok(chunk) = open_and_decode(enclave, msgs, 0) else {
            return false;
        };
        let staged = staged_chunk_bytes(msgs);
        self.ledger.charge(staged);
        let appended = self.agg.restage(&chunk).is_ok();
        self.ledger.release(staged);
        self.resize_resident();
        appended
    }

    /// One ledger resize to the aggregator's current persistent state.
    fn resize_resident(&mut self) {
        let resident = self.agg.resident_bytes();
        self.ledger.resize(self.resident, resident);
        self.resident = resident;
    }

    /// The crash hook, called once the chunk just folded is checkpointed:
    /// fires a scripted [`FaultKind::CoordinatorKill`] at that chunk
    /// ([`RoundError::CoordinatorKilled`]; enclave memory dies with the
    /// coordinator, and [`RoundEngine::abort`] releases its charges).
    pub fn crash_point(&mut self) -> Result<(), RoundError> {
        let after_chunk = self.chunks_done - 1;
        if !self.faults_mut().fire(FaultKind::CoordinatorKill, after_chunk as u32, 0) {
            return Ok(());
        }
        note_fault(&self.ledger.telemetry, FaultKind::CoordinatorKill, after_chunk as u32, 0);
        Err(RoundError::CoordinatorKilled { after_chunk })
    }

    /// Completes the round: finalizes the aggregator and — sharded —
    /// stripes the delta out to the shards and folds the shard-held
    /// stripes back in ascending shard order (the deterministic merge,
    /// bitwise the canonical delta). An exhausted egress recovery fails
    /// the round; the final checkpoint (all chunks folded) restores it at
    /// this step.
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
        (delta, self.ledger.end(self.faults))
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

    /// Tears down an engine whose round will not finish here — a call
    /// failed, or an upload did — releasing whatever is still charged.
    pub fn abort(self) -> RoundEnd {
        self.ledger.end(self.faults)
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
        assert_eq!(eng.ledger.transient(100, || 42), 42);
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
            let end = eng.abort();
            assert_eq!(end.coordinator.live, 0);
            assert!(end.shards.iter().all(|rt| rt.live().iter().all(|&b| b == 0)));
            // The unreached event comes back for the restore, at every S.
            assert_eq!(end.faults.remaining(), 1);
        }
    }

    /// A provisioned enclave in round 3 and that round's `n` sealed uploads.
    fn sealed_round(n: usize, k: usize, d: usize) -> (Enclave, Vec<SealedMessage>) {
        let seed = [7u8; 32];
        let service = olive_tee::AttestationService::new(seed);
        let mut enclave = Enclave::launch(&olive_tee::EnclaveConfig::default(), seed);
        let users = 0..n as UserId;
        let mut sessions =
            crate::olive::provision_clients(&service, &mut enclave, b"t", seed, users.clone());
        enclave.begin_round(3, users.collect());
        let updates = random_updates(n, k, d, 17);
        let sealed =
            sessions.iter_mut().zip(&updates).map(|(s, u)| s.seal_upload(3, &u.encode())).collect();
        (enclave, sealed)
    }

    fn shape(uploads: usize, chunk_size: usize, k: usize) -> RoundShape {
        RoundShape { round: 3, uploads, chunk_size, threads: 1, k }
    }

    /// The running floor snapshot is the per-checkpoint rebuild it
    /// replaces (round-start floors overridden by every folded upload,
    /// sorted by user) whether or not the enclave knew the users before;
    /// the codec round-trips it; and no shape mismatch, version drift or
    /// truncation decodes.
    #[test]
    fn checkpoint_codec_roundtrips_and_rejects_what_it_was_not_sealed_for() {
        let (_, sealed) = sealed_round(7, 2, 16);
        let base = [(5, 40), (2, 9), (11, 1)]; // user 11 is not in the round
        let shape = shape(7, 3, 2);
        let mut ckpt = Checkpoint::start(shape, [1, 2, 3, 4], &base);
        for (i, msgs) in sealed.chunks(3).take(2).enumerate() {
            ckpt.advance(msgs);
            let mut want: std::collections::BTreeMap<UserId, u64> = base.into_iter().collect();
            want.extend(sealed[..3 * (i + 1)].iter().map(|m| (m.user, m.nonce_counter)));
            assert_eq!(ckpt.floors, want.into_iter().collect::<Vec<_>>(), "after chunk {i}");
        }
        ckpt.agg_state = vec![9, 8, 7];
        let plain = ckpt.encode();
        let back = Checkpoint::decode(&plain, shape).expect("sealed for this shape");
        assert_eq!(
            (back.chunks_done(), back.rng_state, back.agg_state()),
            (2, [1, 2, 3, 4], &[9u8, 8, 7][..])
        );
        assert_eq!(back.floors, ckpt.floors);
        assert_eq!(back.encode(), plain);

        for wrong in [
            RoundShape { round: 4, ..shape },
            RoundShape { uploads: 8, ..shape },
            RoundShape { chunk_size: 2, ..shape },
            RoundShape { threads: 2, ..shape },
            RoundShape { k: 3, ..shape },
        ] {
            assert_eq!(Checkpoint::decode(&plain, wrong).err(), Some(StateError::Mismatch));
        }
        let mut v1 = plain.clone();
        v1[0] = 1;
        assert_eq!(Checkpoint::decode(&v1, shape).err(), Some(StateError::Mismatch));
        for cut in 0..plain.len() {
            assert!(Checkpoint::decode(&plain[..cut], shape).is_err(), "truncated at {cut}");
        }
        ckpt.chunks_done = 4; // 7 uploads in chunks of 3 make 3 chunks
        assert_eq!(Checkpoint::decode(&ckpt.encode(), shape).err(), Some(StateError::Corrupt));
    }

    /// A refused upload on the forward path is a structured error, never a
    /// panic — in the chunk about to be folded (nothing folds) and in the
    /// prefetched one (its predecessor is folded first; on two threads the
    /// refusal crosses the opener thread's join) — and aborting releases
    /// everything, the look-ahead staging included, at every S.
    #[test]
    fn a_refused_upload_is_an_error_with_every_budget_balanced() {
        let (d, n, k, chunk) = (32, 6, 4, 2);
        for (threads, bad, shards) in [(1usize, 1usize, 1usize), (2, 1, 4), (1, 3, 4), (2, 3, 1)] {
            let (mut enclave, mut sealed) = sealed_round(n, k, d);
            sealed[bad].ciphertext[9] ^= 0x10;
            let ledger = if shards > 1 { sharded(d, shards) } else { monolithic() };
            let mut eng = engine(AggregatorKind::Advanced, d, k, threads, ledger);
            let refused = Err(RoundError::Upload { slot: bad, error: TeeError::AuthFailure });
            let first = open_and_decode(&mut enclave, &sealed[..chunk], 0);
            if bad < chunk {
                assert_eq!(first, refused, "threads={threads}");
            } else {
                let staged = first.expect("chunk 0 is genuine");
                let next = &sealed[chunk..2 * chunk];
                let fetched = eng.fold(
                    &staged,
                    staged_chunk_bytes(next),
                    || open_and_decode(&mut enclave, next, chunk),
                    &mut NullTracer,
                );
                assert_eq!(fetched.expect("the fold itself succeeds"), refused);
                assert_eq!(eng.chunks_done(), 1, "chunk 0 is folded all the same");
                assert!(eng.ledger.outstanding > eng.agg.resident_bytes(), "look-ahead staged");
            }
            let end = eng.abort();
            assert_eq!(end.coordinator.live, 0, "threads={threads} bad={bad}");
            assert!(end.shards.iter().all(|rt| rt.live().iter().all(|&b| b == 0)));
        }
    }

    /// Resume at engine level, on the ledger: an accumulating kind takes
    /// the sealed floors as they are; a staged kind re-opens the folded
    /// prefix, its cells land on the budget as resident growth, and the
    /// engine then finishes on the uninterrupted round's bits. A prefix
    /// that opens but is not the sealed one fails with every charge
    /// released.
    #[test]
    fn resume_restages_a_staged_prefix_on_the_ledger() {
        let (d, n, k, chunk) = (32, 6, 4, 2);
        for kind in [AggregatorKind::Grouped { h: 2 }, AggregatorKind::Advanced] {
            let (mut enclave, sealed) = sealed_round(n, k, d);
            let base = enclave.replay_floors();
            let mut ckpt = Checkpoint::start(shape(n, chunk, k), [0; 4], &base);
            let mut eng = engine(kind, d, k, 1, monolithic());
            for msgs in sealed.chunks(chunk).take(2) {
                let updates = open_and_decode(&mut enclave, msgs, 0).expect("genuine");
                eng.fold(&updates, 0, || (), &mut NullTracer).expect("fault-free");
                ckpt.advance(msgs);
            }
            let blob = ckpt.seal(&mut eng, &mut enclave);
            let last = open_and_decode(&mut enclave, &sealed[2 * chunk..], 0).expect("genuine");
            eng.fold(&last, 0, || (), &mut NullTracer).expect("fault-free");
            let want = eng.finish(&mut NullTracer).0.expect("fault-free");

            let restored = |enclave: &mut Enclave| {
                let plain = enclave.unseal(&blob, CKPT_LABEL).expect("genuine blob");
                let ckpt = Checkpoint::decode(&plain, shape(n, chunk, k)).expect("this round's");
                let mut agg = StreamingAggregator::new(kind, d, 1);
                agg.load_state(ckpt.agg_state()).expect("same configuration");
                (RoundEngine::new(agg, k, 1, ckpt.chunks_done(), monolithic()), ckpt)
            };
            let (mut eng, ckpt) = restored(&mut enclave);
            eng.resume(&mut enclave, &sealed, &base, &ckpt).expect("genuine prefix");
            assert_eq!(enclave.replay_floors(), ckpt.floors, "{kind:?}: floors cover the prefix");
            assert_eq!(eng.ledger.coordinator.live, eng.agg.resident_bytes(), "{kind:?}");
            if kind == AggregatorKind::Advanced {
                let cells = (2 * chunk * k) as u64 * 8;
                assert_eq!(eng.ledger.coordinator.live, cells, "re-staged cells are charged");
                // Charged as a fold charges it: the staged chunk is released
                // before the resident state it was copied into is resized.
                assert_eq!(eng.ledger.coordinator.peak, cells);
            }
            let last = open_and_decode(&mut enclave, &sealed[2 * chunk..], 0).expect("genuine");
            eng.fold(&last, 0, || (), &mut NullTracer).expect("fault-free");
            let got = eng.finish(&mut NullTracer).0.expect("fault-free");
            assert!(want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()), "{kind:?}");

            // An unfolded upload swapped into the prefix opens and pays the
            // owed cells back in full: only the floor commitment tells it
            // from the prefix the checkpoint was sealed over.
            let mut swapped = sealed.clone();
            swapped.swap(1, 2 * chunk);
            let (mut eng, ckpt) = restored(&mut enclave);
            let resumed = eng.resume(&mut enclave, &swapped, &base, &ckpt);
            if kind == AggregatorKind::Advanced {
                assert_eq!(resumed, Err(RoundError::Checkpoint(TeeError::AuthFailure)));
                assert_eq!(eng.abort().coordinator.live, 0, "a failed resume releases everything");
            } else {
                resumed.expect("an accumulating kind never reads the prefix");
            }
        }
    }
}
