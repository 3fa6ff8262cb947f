//! The round engine: Algorithm 1 lines 8–12 as **one** driver with **one**
//! EPC ledger.
//!
//! The paper's enclave-side round is a single loop — verify, decrypt,
//! obliviously fold, next — and the protocol around that loop is written
//! here once, over the round as untrusted server memory holds it
//! ([`SealedRound`]):
//!
//! ```text
//! RoundEngine::open(aggregator, round, enclave, store, ledger)
//!   │  a blob in the store: unseal against the pinned floor → decode against
//!   │  the round's shape → load_state; then, blob or not: rewind the floors
//!   │  to round start → replay chunks [0, chunks_done) → check the digest
//! .ingest(uploads, enclave, store, tracer)     per remaining chunk i:
//!   │  fold chunk i, then open chunk i+1 (each on all t workers) →
//!   │  advance + seal the restore point, pin the rollback floor → crash
//!   │  hook → only then look at chunk i+1's refusal
//! .finish(tracer) → Δ̃        every failure on the way: (error, RoundEnd)
//! ```
//!
//! A fresh round is the degenerate restore — a store with nothing in it —
//! so [`OliveSystem::run_round`] and [`OliveSystem::restore_round`] make
//! the same two calls after their own preambles (sample–train–seal vs.
//! relaunch–re-attest–re-provision), and the integration suites make them
//! over their own sealed uploads. There is no
//! other driver: the loop body (`fold`) is crate-private, and the
//! clear-text driver over pre-decoded updates (`new` → `run`) exists for
//! this crate's unit tests alone.
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
//! ends — finished, or aborted on stored material that does not resume, a
//! failed fold, upload, egress or the scripted coordinator crash — the
//! [`RoundEnd`] it hands back has every budget at `live == 0` and every
//! counter pair balanced.
//!
//! The charge schedule per chunk is a pure function of the public chunk
//! schedule: the chunk's staged plaintext, the aggregator's transient
//! ingest scratch, and the *next* chunk's staging (live for the whole
//! fold, Algorithm 1's double buffer), then one resize of the
//! aggregator's persistent state.
//!
//! # The restore point
//!
//! The engine owns its restore point: chunk progress, the DP/sampling
//! generator and the prefix digest — a running SHA-256 seeded with the
//! round and its round-start replay floors, then extended per folded
//! chunk with each upload's user, nonce counter and GCM tag, in fold
//! order — live in the engine and nowhere else, and are sealed — with the
//! round's public shape and the aggregator's descriptor
//! ([`StreamingAggregator::save_state`]) — under `"round-ckpt"` after
//! every fold. The blob holds only what cannot be recomputed from the
//! round's own sealed uploads: no aggregator state of any kind, since
//! every kind's state is a pure function of the folded prefix, which
//! [`RoundEngine::open`] replays; and no per-user entry, so its size
//! depends on neither the registered N nor the chunks folded. Untrusted
//! storage is a [`SealedStore`]: the newest blob and the
//! rollback-protected pin of its seal counter.
//!
//! The digest binds the round-start floors and the folded prefix upload
//! by upload, in order: a flipped, dropped, substituted or reordered
//! prefix, or other round-start floors, recompute to another digest. A
//! GCM tag under one key and nonce authenticates one ciphertext, so the
//! (user, nonce, tag) triple stands for the upload.
//!
//! [`OliveSystem::run_round`]: crate::olive::OliveSystem::run_round
//! [`OliveSystem::restore_round`]: crate::olive::OliveSystem::restore_round

use olive_fl::SparseGradient;
use olive_memsim::{
    FaultPlan, ParallelTracer, RecoveryStats, StateError, StateReader, StateWriter,
};
use olive_tee::{Enclave, EpcBudget, SealedMessage, SealedStore, TeeError, UserId};
use olive_telemetry::Telemetry;

use crate::aggregation::{Aggregator, ShardError, ShardRuntime, StreamingAggregator};

/// Telemetry key of the coordinator enclave's budget.
const COORDINATOR: &str = "coordinator";

/// Sealing label for mid-round checkpoints. One label, one monotonic
/// nonce counter: every checkpoint of every round draws from the same
/// sequence, which is what makes the rollback floor a single u64.
const CKPT_LABEL: &[u8] = b"round-ckpt";

/// Checkpoint plaintext format version (bump on any layout change).
/// v2: the staged kinds' aggregator state is a descriptor, not cells.
/// v3: every kind's is — every restore replays the folded prefix.
/// v4: the replay-floor snapshot is a 32-byte prefix digest.
const CKPT_VERSION: u8 = 4;

/// Checkpoint plaintext bytes ahead of the descriptor: version, round,
/// five sizes, the generator's four words and the digest's four.
const CKPT_HEADER_LEN: usize = 1 + 8 + 5 * 8 + 4 * 8 + 4 * 8;

/// Domain tag of the prefix digest's seed.
const PREFIX_TAG: &[u8] = b"olive-round-prefix-v1";

/// What stored round material that does not restore fails as — tampered,
/// sealed for another round, or over another prefix — and what a restore
/// reports for all of them alike.
const UNUSABLE: RoundError = RoundError::Checkpoint(TeeError::AuthFailure);

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
    /// A shard tunnel frame did not open or a stripe receipt did not
    /// match (which shard, and how). The plane does not retry: the round
    /// aborts and restores over a re-provisioned plane.
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
    /// folded and checkpointed (a crash point of the round's [`FaultPlan`]):
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

/// Deterministic per-round telemetry summary embedded in every
/// [`RoundReport`](crate::olive::RoundReport). Always populated — armed
/// or not, it is plain accounting over the round's schedule, not sink
/// output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTelemetry {
    /// Ingestion chunks folded by the completing invocation (a restored
    /// round counts the chunks folded after the restore point).
    pub chunks: u64,
    /// Coordinator round checkpoints sealed during those chunks.
    pub ckpt_seals: u64,
    /// Total bytes of the sealed coordinator checkpoint blobs.
    pub ckpt_bytes: u64,
    /// In-band recovery work: always zero, since the shard plane fails
    /// loudly instead of recovering. Kept only because the benchmark
    /// package reads it (`core.recovery_attempts`).
    pub recovery: RecoveryStats,
}

/// What the engine borrows for the round (module docs): the coordinator's
/// budget with the running total charged to it, and — carried, never
/// charged from here — the shard plane and the round's crash script.
pub struct Ledger {
    coordinator: EpcBudget,
    shards: Option<ShardRuntime>,
    /// The round's crash points, at every S.
    faults: FaultPlan,
    telemetry: Telemetry,
    /// Bytes charged and not yet released.
    outstanding: u64,
}

impl Ledger {
    /// A ledger over the coordinator's budget (as the enclave holds it at
    /// round start) and, for a sharded round, the provisioned shard plane;
    /// no crash point is armed.
    pub fn new(coordinator: EpcBudget, shards: Option<ShardRuntime>, telemetry: Telemetry) -> Self {
        Ledger { coordinator, shards, faults: FaultPlan::empty(), telemetry, outstanding: 0 }
    }

    /// Arms the round's crash points; the unfired remainder comes back in
    /// [`RoundEnd::faults`].
    pub fn arm(&mut self, plan: FaultPlan) {
        self.faults = plan;
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

    /// Charges `bytes` for the duration of `work` (the checkpoint
    /// plaintext while it is built and sealed).
    fn transient<T>(&mut self, bytes: u64, work: impl FnOnce() -> T) -> T {
        self.charge(bytes);
        let out = work();
        self.release(bytes);
        out
    }

    /// The end of a round, finished or aborted: releases everything still
    /// charged and hands the borrowed pieces back, with the engine's
    /// generator state and tallies.
    fn end(mut self, rng_state: [u64; 4], telemetry: RoundTelemetry) -> RoundEnd {
        self.release(self.outstanding);
        RoundEnd {
            coordinator: self.coordinator,
            shards: self.shards,
            faults: self.faults,
            rng_state,
            telemetry,
        }
    }
}

/// The public shape of one round — what a checkpoint must agree with the
/// round it is asked to resume on, beside the number of uploads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundShape {
    /// Round counter t.
    pub round: u64,
    /// Uploads opened, decoded and folded per chunk.
    pub chunk_size: usize,
    /// Worker-thread budget the aggregator was built with.
    pub threads: usize,
    /// Cells per upload (public: ciphertext length reveals it).
    pub k: usize,
}

/// One round as untrusted server memory holds it — everything outside
/// the enclave, which therefore survives a crash. The sampled set is
/// public, the uploads are ciphertexts, and the floors are nonce counters
/// already visible on the wire: integrity of all of it is enforced by the
/// sealed restore point, not here.
pub struct SealedRound<'a> {
    /// The round's public shape.
    pub shape: RoundShape,
    /// The sealed uploads, in processing order.
    pub uploads: &'a [SealedMessage],
    /// Replay floors as of round start (before any upload was opened):
    /// what the prefix digest is seeded with, and what a restore rewinds
    /// to before it re-opens the folded prefix.
    pub base_floors: &'a [(UserId, u64)],
    /// The enclave's DP/sampling generator as of round start: the restore
    /// point of a round nothing is folded of yet.
    pub rng_state: [u64; 4],
}

/// The engine's restore point (module docs), and the codec of its sealed
/// form. Plaintext layout (v4), via `StateWriter`:
///
/// ```text
/// u8 version ‖ u64 round ‖ chunks_done ‖ uploads ‖ chunk_size ‖ threads ‖ k
///   ‖ 4 × u64 generator state
///   ‖ 4 × u64 prefix digest
///   ‖ bytes StreamingAggregator::save_state()               — the descriptor
/// ```
///
/// Everything before the descriptor is [`CKPT_HEADER_LEN`] bytes, so the
/// plaintext's size is known before a byte of it is written.
struct Checkpoint {
    /// Absolute number of chunks folded (a restored engine starts above
    /// zero), the coordinate crash points are addressed by.
    chunks_done: usize,
    /// The enclave's DP/sampling generator: the post-restore noise draw
    /// must be the exact draw the uninterrupted round would have made.
    rng_state: [u64; 4],
    /// The prefix digest of the *folded and sealed* chunks, as the SHA-256
    /// output's four little-endian words. Uploads the double-buffered
    /// opener had opened but not folded are not in it, so after a restore
    /// they are accepted again, not taken for replays.
    head: [u64; 4],
}

/// SHA-256 of `bytes` as four little-endian words.
fn digest_words(bytes: &[u8]) -> [u64; 4] {
    let digest = olive_tee::attestation::digest(bytes);
    core::array::from_fn(|i| {
        u64::from_le_bytes(digest[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    })
}

impl Checkpoint {
    /// The restore point of a round nothing is folded of yet: the digest
    /// seeded with the round and its round-start floors, sorted by user.
    fn start(round: u64, rng_state: [u64; 4], base_floors: &[(UserId, u64)]) -> Self {
        let mut floors = base_floors.to_vec();
        floors.sort_unstable();
        let mut seed = Vec::with_capacity(PREFIX_TAG.len() + 8 + 12 * floors.len());
        seed.extend_from_slice(PREFIX_TAG);
        seed.extend_from_slice(&round.to_le_bytes());
        for (user, counter) in floors {
            seed.extend_from_slice(&user.to_le_bytes());
            seed.extend_from_slice(&counter.to_le_bytes());
        }
        Checkpoint { chunks_done: 0, rng_state, head: digest_words(&seed) }
    }

    /// Covers the chunk just folded — the uploads `msgs`, in fold order:
    /// `head ← SHA-256(head ‖ user ‖ nonce counter ‖ GCM tag …)`.
    fn cover(&mut self, msgs: &[SealedMessage]) {
        let mut link = Vec::with_capacity(32 + msgs.len() * (4 + 8 + 16));
        for word in self.head {
            link.extend_from_slice(&word.to_le_bytes());
        }
        for m in msgs {
            link.extend_from_slice(&m.user.to_le_bytes());
            link.extend_from_slice(&m.nonce_counter.to_le_bytes());
            link.extend_from_slice(&m.ciphertext[m.plaintext_len()..]);
        }
        self.head = digest_words(&link);
    }

    /// The sealed plaintext, written once into a buffer of its exact size.
    fn encode(&self, shape: RoundShape, uploads: usize, agg: &StreamingAggregator) -> Vec<u8> {
        let descriptor = agg.save_state();
        let mut w = StateWriter::with_capacity(CKPT_HEADER_LEN + 8 + descriptor.len());
        w.put_u8(CKPT_VERSION);
        w.put_u64(shape.round);
        w.put_usize(self.chunks_done);
        w.put_usize(uploads);
        w.put_usize(shape.chunk_size);
        w.put_usize(shape.threads);
        w.put_usize(shape.k);
        for word in self.rng_state.into_iter().chain(self.head) {
            w.put_u64(word);
        }
        w.put_bytes(&descriptor);
        w.into_bytes()
    }

    /// Parses an unsealed checkpoint (and the aggregator descriptor sealed
    /// in it) and validates it against the round it is asked to resume:
    /// version, every field of `shape` and the upload count must match,
    /// and the progress must fit the round.
    fn decode(
        plain: &[u8],
        shape: RoundShape,
        uploads: usize,
    ) -> Result<(Self, &[u8]), StateError> {
        let mut r = StateReader::new(plain);
        if r.get_u8()? != CKPT_VERSION || r.get_u64()? != shape.round {
            return Err(StateError::Mismatch);
        }
        let chunks_done = r.get_usize()?;
        if r.get_usize()? != uploads
            || r.get_usize()? != shape.chunk_size
            || r.get_usize()? != shape.threads
            || r.get_usize()? != shape.k
        {
            return Err(StateError::Mismatch);
        }
        let (mut rng_state, mut head) = ([0u64; 4], [0u64; 4]);
        for word in rng_state.iter_mut().chain(&mut head) {
            *word = r.get_u64()?;
        }
        let agg_state = r.get_bytes()?;
        r.expect_end()?;
        if chunks_done > uploads.div_ceil(shape.chunk_size) {
            return Err(StateError::Corrupt);
        }
        Ok((Checkpoint { chunks_done, rng_state, head }, agg_state))
    }
}

/// Bytes of one upload's decoded `(index, value)` pairs — 8 per
/// transmitted cell, read off the public ciphertext length: the plaintext
/// is the encoding's header then 8k bytes of cells.
pub(crate) fn upload_cell_bytes(msg: &SealedMessage) -> usize {
    msg.plaintext_len().saturating_sub(SparseGradient::HEADER_LEN)
}

/// Enclave-resident bytes of one *staged* upload chunk.
fn staged_chunk_bytes(msgs: &[SealedMessage]) -> u64 {
    msgs.iter().map(|m| upload_cell_bytes(m) as u64).sum()
}

/// Opens one chunk of uploads and decodes the plaintext gradient
/// encodings, one result per upload: [`Enclave::open_upload_batch`]'s
/// verdicts, with a malformed encoding under a valid tag — or a
/// well-formed one of any dimension but the round's `d`, whose indices
/// were only range-checked against the dimension the client wrote — read
/// as [`TeeError::AuthFailure`] (its nonce still raises the floor, as it
/// would have opened). Decryption and decoding — nearly all of the work —
/// run on `threads` workers, each over a contiguous slice of the chunk;
/// the replay checks and floor updates then run on the caller in upload
/// order ([`Enclave::accept_upload`]).
fn open_slots(
    enclave: &mut Enclave,
    msgs: &[SealedMessage],
    d: usize,
    threads: usize,
) -> Vec<Result<SparseGradient, TeeError>> {
    let shared = &*enclave;
    let per_worker = msgs.len().div_ceil(threads.max(1)).max(1);
    let mut parts: Vec<Vec<Result<Option<SparseGradient>, TeeError>>> =
        vec![Vec::new(); msgs.len().div_ceil(per_worker)];
    let decode = |plain: Vec<u8>| SparseGradient::decode(&plain).filter(|u| u.dense_dim == d);
    olive_oblivious::pool::join(parts.iter_mut().zip(msgs.chunks(per_worker)).map(
        |(part, mine)| {
            move || part.extend(mine.iter().map(|m| shared.decrypt_upload(m).map(decode)))
        },
    ));
    let decrypted = msgs.iter().zip(parts.into_iter().flatten());
    decrypted.map(|(m, d)| enclave.accept_upload(m, d)?.ok_or(TeeError::AuthFailure)).collect()
}

/// [`open_slots`] over one chunk — positions `first_slot..` of the round:
/// the prefetch half of a fold and the restore path's re-open. The first
/// upload that fails to verify or decode fails the chunk with
/// [`RoundError::Upload`].
fn open_and_decode(
    enclave: &mut Enclave,
    msgs: &[SealedMessage],
    first_slot: usize,
    d: usize,
    threads: usize,
) -> Result<Vec<SparseGradient>, RoundError> {
    let opened = open_slots(enclave, msgs, d, threads).into_iter().zip(first_slot..);
    opened
        .map(|(update, slot)| update.map_err(|error| RoundError::Upload { slot, error }))
        .collect()
}

/// What the engine hands back when the round ends, completed or aborted:
/// the persistent pieces it borrowed for the round, and its tallies.
#[derive(Debug)]
pub struct RoundEnd {
    /// The coordinator budget as the round left it (`live == 0`; `peak`
    /// is the round's working set).
    pub coordinator: EpcBudget,
    /// The shard plane, reusable for the next round.
    pub shards: Option<ShardRuntime>,
    /// The unfired remainder of the round's crash points — what an
    /// interrupted round's restore re-arms.
    pub faults: FaultPlan,
    /// The DP/sampling generator as the engine's restore point holds it:
    /// what the enclave draws the round's noise from.
    pub rng_state: [u64; 4],
    /// What this engine folded and sealed.
    pub telemetry: RoundTelemetry,
}

/// A round that will not finish in this engine: why, and what the engine
/// hands back — everything released, the round restorable.
pub type Aborted = (RoundError, Box<RoundEnd>);

/// The enclave-side round (module docs).
pub struct RoundEngine {
    agg: StreamingAggregator,
    ledger: Ledger,
    shape: RoundShape,
    ckpt: Checkpoint,
    /// Chunks folded and checkpoints sealed by *this* engine.
    tally: RoundTelemetry,
    /// Bytes currently charged for the aggregator's persistent state.
    resident: u64,
    /// Bytes currently charged for the staged (opened, unfolded) chunk.
    staged_bytes: u64,
    /// ORAM eviction count already reported to the `oram_evicted_blocks`
    /// counter (the ORAM reports a running total; telemetry wants
    /// per-chunk deltas). A restore starts it at the replayed prefix's
    /// count, which the invocation that folded the prefix reported.
    oram_evicted_seen: u64,
}

impl RoundEngine {
    /// An engine for a round whose updates the test already holds in the
    /// clear (`fold` / [`RoundEngine::run`]): nothing sealed, so nothing to
    /// restore from — it starts at chunk 0.
    #[cfg(test)]
    pub(crate) fn new(agg: StreamingAggregator, k: usize, threads: usize, ledger: Ledger) -> Self {
        let shape = RoundShape { round: 0, chunk_size: 0, threads, k };
        let mut engine = Self::assemble(agg, shape, Checkpoint::start(0, [0; 4], &[]), ledger);
        engine.start();
        engine
    }

    fn assemble(
        agg: StreamingAggregator,
        shape: RoundShape,
        ckpt: Checkpoint,
        ledger: Ledger,
    ) -> Self {
        RoundEngine {
            agg,
            ledger,
            shape,
            ckpt,
            tally: RoundTelemetry::default(),
            resident: 0,
            staged_bytes: 0,
            oram_evicted_seen: 0,
        }
    }

    /// Opens the shard plane's round at the restore point's chunk and
    /// charges the aggregator's resident state.
    fn start(&mut self) {
        if let Some(rt) = self.ledger.shards.as_mut() {
            rt.begin_round();
            // Keep descriptor chunk indices absolute: the resumed half of
            // a round continues the original chunk numbering.
            rt.skip_to_chunk(self.ckpt.chunks_done);
        }
        self.resident = self.agg.resident_bytes();
        self.ledger.charge(self.resident);
    }

    /// Opens the engine of `round` from untrusted storage, over `agg` — a
    /// fresh aggregator of the round's configuration.
    ///
    /// A blob in `store` is unsealed against the store's pinned floor
    /// ([`TeeError::StaleSeal`] for an older genuine blob,
    /// [`TeeError::AuthFailure`] for a tampered one), decoded against the
    /// round's shape (a blob sealed for another round is as unusable as a
    /// tampered one), and its descriptor loaded, leaving `agg` owing the
    /// folded clients. Then — for every kind, and for an empty store (or
    /// none) too, where nothing is folded — the one restore path: the
    /// enclave's replay floors are rewound to round start and chunks
    /// `[0, chunks_done)` of the uploads are re-opened, decoded and
    /// replayed into `agg` — untraced (the adversary saw that schedule
    /// when the chunks were first folded), away from the shard plane
    /// (shards keep their own progress), charged through the ledger as a
    /// fold charges them, covered into the prefix digest as a fold covers
    /// them, and neither sealed nor tallied. Two sealed values then decide
    /// whether that was the prefix the checkpoint was taken over: no
    /// client may be owed, and the digest — recomputed from the round's
    /// round-start floors and the replayed uploads — must equal the sealed
    /// one. A missing, reordered, substituted or unverifiable upload, or
    /// other round-start floors, fail one of them or the open itself, as
    /// [`RoundError::Checkpoint`].
    pub fn open(
        agg: StreamingAggregator,
        round: &SealedRound<'_>,
        enclave: &mut Enclave,
        store: Option<&SealedStore>,
        ledger: Ledger,
    ) -> Result<Self, Aborted> {
        let start = Checkpoint::start(round.shape.round, round.rng_state, round.base_floors);
        Self::assemble(agg, round.shape, start, ledger)
            .or_abort(|engine| engine.restore(round, enclave, store))
    }

    /// `step`, or the abort its failure means.
    fn or_abort(
        mut self,
        step: impl FnOnce(&mut Self) -> Result<(), RoundError>,
    ) -> Result<Self, Aborted> {
        match step(&mut self) {
            Ok(()) => Ok(self),
            Err(e) => Err((e, Box::new(self.abort()))),
        }
    }

    fn restore(
        &mut self,
        round: &SealedRound<'_>,
        enclave: &mut Enclave,
        store: Option<&SealedStore>,
    ) -> Result<(), RoundError> {
        // The digest `open` seeded from the round's own floors: the replay
        // below must recompute the sealed one from it.
        let seed = self.ckpt.head;
        let sealed = store.and_then(|store| Some((store.newest.as_deref()?, store.floor())));
        if let Some((blob, floor)) = sealed {
            let plain = enclave.unseal_with_floor(blob, CKPT_LABEL, floor)?;
            let (ckpt, descriptor) = Checkpoint::decode(&plain, self.shape, round.uploads.len())
                .map_err(|_| UNUSABLE)?;
            self.agg.load_state(descriptor).map_err(|_| UNUSABLE)?;
            self.ckpt = ckpt;
        }
        self.start();
        let chunks_done = self.ckpt.chunks_done;
        let prefix =
            &round.uploads[..(chunks_done * self.shape.chunk_size).min(round.uploads.len())];
        let _span = (chunks_done > 0).then(|| {
            let cells = prefix.iter().map(upload_cell_bytes).sum::<usize>() / 8;
            let fields =
                [("chunks", (chunks_done as u64).into()), ("cells", (cells as u64).into())];
            self.ledger.telemetry.span("restage_prefix", &fields)
        });
        let sealed_head = std::mem::replace(&mut self.ckpt.head, seed);
        enclave.restore_replay_floors(round.base_floors);
        for msgs in prefix.chunks(self.shape.chunk_size) {
            self.replay_chunk(enclave, msgs)?;
        }
        if let Some(stats) = self.agg.oram_stats() {
            self.oram_evicted_seen = stats.evicted_blocks;
        }
        if self.agg.owed() == 0 && self.ckpt.head == sealed_head {
            return Ok(());
        }
        Err(UNUSABLE)
    }

    /// Re-opens one folded chunk, replays it into the restored aggregator
    /// — charged as a fold charges a chunk: its staged plaintext and the
    /// ingest scratch, released once it is folded — and covers it into
    /// the prefix digest. An upload that does not verify, or a chunk past
    /// what the descriptor owes, makes the stored material unusable.
    fn replay_chunk(
        &mut self,
        enclave: &mut Enclave,
        msgs: &[SealedMessage],
    ) -> Result<(), RoundError> {
        let (d, threads) = (self.agg.dim(), self.shape.threads);
        let chunk = open_and_decode(enclave, msgs, 0, d, threads).map_err(|_| UNUSABLE)?;
        let charged =
            staged_chunk_bytes(msgs) + self.agg.ingest_scratch_bytes(msgs.len(), self.shape.k);
        self.ledger.charge(charged);
        let replayed = self.agg.replay(&chunk);
        self.ledger.release(charged);
        self.resize_resident();
        replayed.map_err(|_| UNUSABLE)?;
        self.ckpt.cover(msgs);
        Ok(())
    }

    /// Ingests every chunk of `uploads` past the restore point: opened,
    /// decoded, folded, checkpointed into `store` (`None` seals nothing),
    /// and offered to the crash hook — chunk i+1 being opened as chunk i's
    /// fold completes (`fold`).
    ///
    /// The order is the protocol: the restore point is advanced, sealed
    /// and pinned *before* the crash hook and before a refused upload of
    /// the prefetched chunk may end the round, so whatever ends it, the
    /// store covers every folded chunk. Sealing touches only
    /// enclave-private state (seal counter, sealing key), so it emits no
    /// adversary-visible trace events — checkpoint cadence cannot perturb
    /// the bitwise trace contract.
    pub fn ingest<TR: ParallelTracer>(
        self,
        uploads: &[SealedMessage],
        enclave: &mut Enclave,
        store: Option<&mut SealedStore>,
        tr: &mut TR,
    ) -> Result<Self, Aborted> {
        self.or_abort(|engine| engine.ingest_chunks(uploads, enclave, store, tr))
    }

    fn ingest_chunks<TR: ParallelTracer>(
        &mut self,
        uploads: &[SealedMessage],
        enclave: &mut Enclave,
        mut store: Option<&mut SealedStore>,
        tr: &mut TR,
    ) -> Result<(), RoundError> {
        let telemetry = self.ledger.telemetry.clone();
        let RoundShape { chunk_size, threads, .. } = self.shape;
        let d = self.agg.dim();
        let msg_chunks: Vec<&[SealedMessage]> = uploads.chunks(chunk_size).collect();
        // Chunk `i` opened and decoded; nothing past the last one.
        let open = |enclave: &mut Enclave, i: usize| match msg_chunks.get(i) {
            Some(msgs) => open_and_decode(enclave, msgs, i * chunk_size, d, threads),
            None => Ok(Vec::new()),
        };
        let first = self.ckpt.chunks_done;
        let mut staged = open(enclave, first)?;
        for (i, msgs) in msg_chunks.iter().enumerate().skip(first) {
            let _chunk_span = telemetry.span(
                "ingest_chunk",
                &[("chunk", (i as u64).into()), ("clients", (msgs.len() as u64).into())],
            );
            let next_bytes = msg_chunks.get(i + 1).map_or(0, |msgs| staged_chunk_bytes(msgs));
            let next = self.fold(&staged, next_bytes, || open(&mut *enclave, i + 1), tr)?;
            if let Some(store) = store.as_deref_mut() {
                self.ckpt.cover(msgs);
                self.seal(uploads.len(), enclave, store);
            }
            self.crash_point()?;
            // Only now may a refused upload of chunk i+1 end the round:
            // the restore point above already covers chunk i.
            staged = next?;
        }
        Ok(())
    }

    /// Seals the restore point with the aggregator's current state under
    /// `"round-ckpt"` and parks the blob in `store`, which pins the
    /// rollback floor to its seal counter. The plaintext is
    /// enclave-resident while it is built and sealed, and charged like
    /// any other transient.
    fn seal(&mut self, uploads: usize, enclave: &mut Enclave, store: &mut SealedStore) {
        let chunks_done = self.ckpt.chunks_done as u64;
        let mut span =
            self.ledger.telemetry.span("checkpoint_seal", &[("chunks_done", chunks_done.into())]);
        let plain = self.ckpt.encode(self.shape, uploads, &self.agg);
        let sealed = self.ledger.transient(plain.len() as u64, || enclave.seal(&plain, CKPT_LABEL));
        let blob_bytes = sealed.len() as u64;
        span.field("blob_bytes", blob_bytes.into());
        self.ledger.telemetry.observe("ckpt_blob_bytes", COORDINATOR, blob_bytes);
        store.put(sealed);
        self.tally.ckpt_seals += 1;
        self.tally.ckpt_bytes += blob_bytes;
    }

    /// Folds one chunk of decrypted updates (Algorithm 1 line 12), then
    /// runs `prefetch` — opening and decoding the next chunk, whose staged
    /// plaintext is `next_bytes` — and returns what it produced.
    ///
    /// The two steps run one after the other, each on all of the round's
    /// `threads` workers (the caller and pool threads, never more): the
    /// aggregator parallelizes its own ingest (Grouped's waves, Baseline's
    /// scan) and the open decrypts across workers. Algorithm 1's overlap of
    /// opening chunk i+1 with folding chunk i is kept in the ledger — the
    /// next chunk's staging is charged for the whole fold — while the
    /// cores are never oversubscribed: running the open beside a
    /// `threads`-wide fold would put `threads + 1` threads on `threads`
    /// cores, and shrinking the fold instead would change Grouped's wave
    /// schedule and with it the trace.
    ///
    /// A sharded round first hands every shard the chunk's public
    /// descriptor (a pure function of the chunk schedule; no cell leaves
    /// the coordinator). A frame that does not open fails the fold — with
    /// the chunk unfolded, so the sealed checkpoint of the previous chunk
    /// (or the untrusted round material, at chunk 0) restores the round
    /// exactly.
    /// A `prefetch` that can fail hands its own `Result` back through
    /// `T`: by then this chunk *is* folded, so the driver checkpoints it
    /// before it looks.
    pub(crate) fn fold<TR: ParallelTracer, T>(
        &mut self,
        chunk: &[SparseGradient],
        next_bytes: u64,
        prefetch: impl FnOnce() -> T,
        tr: &mut TR,
    ) -> Result<T, RoundError> {
        if self.staged_bytes == 0 {
            // Not charged as the previous fold's look-ahead: the first
            // chunk of this engine (or a driver that never prefetches).
            self.staged_bytes = chunk.iter().map(|u| u.k() as u64 * 8).sum();
            self.ledger.charge(self.staged_bytes);
        }
        let scratch = self.agg.ingest_scratch_bytes(chunk.len(), self.shape.k);
        self.ledger.charge(scratch);
        self.ledger.charge(next_bytes);
        if let Some(rt) = self.ledger.shards.as_mut() {
            rt.ingress_chunk(chunk)?;
        }
        self.agg.ingest(chunk, tr);
        let next = prefetch();
        self.ledger.release(scratch);
        self.ledger.release(self.staged_bytes);
        self.staged_bytes = next_bytes;
        self.resize_resident();
        // ORAM comparator rounds expose the stash high-water mark and
        // eviction volume on the side-band counters (deterministic
        // values).
        if let Some(stats) = self.agg.oram_stats() {
            let telemetry = &self.ledger.telemetry;
            telemetry.observe("oram_stash_occupancy", "max", stats.max_stash_occupancy as u64);
            let evicted = stats.evicted_blocks - self.oram_evicted_seen;
            self.oram_evicted_seen = stats.evicted_blocks;
            telemetry.count("oram_evicted_blocks", COORDINATOR, evicted);
        }
        self.ckpt.chunks_done += 1;
        self.tally.chunks += 1;
        Ok(next)
    }

    /// The aggregator's descriptor — its share of a sealed restore point.
    #[cfg(test)]
    pub(crate) fn checkpoint_state(&self) -> Vec<u8> {
        self.agg.save_state()
    }

    /// One ledger resize to the aggregator's current persistent state.
    fn resize_resident(&mut self) {
        let resident = self.agg.resident_bytes();
        self.ledger.resize(self.resident, resident);
        self.resident = resident;
    }

    /// The crash hook, called once the chunk just folded is checkpointed:
    /// fires a scripted crash point at that chunk
    /// ([`RoundError::CoordinatorKilled`]; enclave memory dies with the
    /// coordinator, and aborting releases its charges), labelled
    /// `crash@<chunk>` on a `fault_fired` telemetry event.
    pub(crate) fn crash_point(&mut self) -> Result<(), RoundError> {
        let after_chunk = self.ckpt.chunks_done - 1;
        if !self.ledger.faults.fire(after_chunk) {
            return Ok(());
        }
        let telemetry = &self.ledger.telemetry;
        if telemetry.is_armed() {
            let site = FaultPlan::site(after_chunk);
            telemetry.event("fault_fired", &[("site", site.as_str().into())]);
        }
        Err(RoundError::CoordinatorKilled { after_chunk })
    }

    /// Completes the round: finalizes the aggregator and — sharded —
    /// stripes the delta out to the shards and folds the shard-held
    /// stripes back in ascending shard order (the deterministic merge,
    /// bitwise the canonical delta). A failed egress fails the round; the
    /// final checkpoint (all chunks folded) restores it at this step.
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
        (delta, self.ledger.end(self.ckpt.rng_state, self.tally))
    }

    /// Folds pre-decoded chunks back to back (nothing to prefetch) and
    /// finishes — the whole round for a unit test that already holds the
    /// updates in the clear.
    #[cfg(test)]
    pub(crate) fn run<'a, TR: ParallelTracer>(
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

    /// Tears down an engine whose round will not finish here, releasing
    /// whatever is still charged.
    pub fn abort(self) -> RoundEnd {
        self.ledger.end(self.ckpt.rng_state, self.tally)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::aggregation::AggregatorKind;

    /// A provisioned enclave in round 3 and that round's sealed uploads,
    /// as the sealed-round driver's caller holds them.
    pub(crate) struct Sealed {
        pub(crate) kind: AggregatorKind,
        pub(crate) d: usize,
        pub(crate) shape: RoundShape,
        pub(crate) enclave: Enclave,
        pub(crate) uploads: Vec<SealedMessage>,
        pub(crate) base_floors: Vec<(UserId, u64)>,
    }

    impl Sealed {
        pub(crate) fn new(
            kind: AggregatorKind,
            updates: &[SparseGradient],
            d: usize,
            threads: usize,
            chunk_size: usize,
        ) -> Self {
            Self::after_round_2(kind, updates, d, threads, chunk_size, 0)
        }

        /// [`Sealed::new`] on an enclave where clients `0..earlier`
        /// (registered beside the round's own) each uploaded in round 2,
        /// so every one of them holds a replay floor at round start.
        pub(crate) fn after_round_2(
            kind: AggregatorKind,
            updates: &[SparseGradient],
            d: usize,
            threads: usize,
            chunk_size: usize,
            earlier: usize,
        ) -> Self {
            let seed = [7u8; 32];
            let service = olive_tee::AttestationService::new(seed);
            let mut enclave = Enclave::launch(&olive_tee::EnclaveConfig::default(), seed);
            let registered = 0..updates.len().max(earlier) as UserId;
            let mut sessions =
                crate::olive::provision_clients(&service, &mut enclave, b"t", seed, registered);
            enclave.begin_round(2, (0..earlier as UserId).collect());
            for session in &mut sessions[..earlier] {
                enclave.open_upload(&session.seal_upload(2, b"earlier")).expect("genuine");
            }
            enclave.begin_round(3, (0..updates.len() as UserId).collect());
            let base_floors = enclave.replay_floors();
            let uploads = sessions
                .iter_mut()
                .zip(updates)
                .map(|(s, u)| s.seal_upload(3, &u.encode()))
                .collect();
            let shape = RoundShape { round: 3, chunk_size, threads, k: updates[0].k() };
            Sealed { kind, d, shape, enclave, uploads, base_floors }
        }

        pub(crate) fn open(
            &mut self,
            store: Option<&SealedStore>,
            ledger: Ledger,
        ) -> Result<RoundEngine, Aborted> {
            let round = SealedRound {
                shape: self.shape,
                uploads: &self.uploads,
                base_floors: &self.base_floors,
                rng_state: [0; 4],
            };
            let agg = StreamingAggregator::new(self.kind, self.d, self.shape.threads);
            RoundEngine::open(agg, &round, &mut self.enclave, store, ledger)
        }

        /// The driver's whole round — open from `store`, ingest, finish:
        /// the delta, or what ended the round, and what the engine handed
        /// back either way.
        pub(crate) fn drive<TR: ParallelTracer>(
            &mut self,
            store: Option<&mut SealedStore>,
            ledger: Ledger,
            tr: &mut TR,
        ) -> (Result<Vec<f32>, RoundError>, RoundEnd) {
            let ingested = self
                .open(store.as_deref(), ledger)
                .and_then(|engine| engine.ingest(&self.uploads, &mut self.enclave, store, tr));
            match ingested {
                Ok(engine) => engine.finish(tr),
                Err((e, end)) => (Err(e), *end),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::Sealed;
    use super::*;
    use crate::aggregation::test_support::{all_kinds, random_updates, shard_runtime};
    use crate::aggregation::{aggregate_with_threads, AggregatorKind};
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};

    fn engine(kind: AggregatorKind, d: usize, k: usize, t: usize, ledger: Ledger) -> RoundEngine {
        RoundEngine::new(StreamingAggregator::new(kind, d, t), k, t, ledger)
    }

    /// A ledger over a 1 MiB coordinator budget and, at S > 1, a shard
    /// plane, with `plan` armed.
    fn armed(d: usize, shards: usize, plan: FaultPlan) -> Ledger {
        let plane = (shards > 1).then(|| shard_runtime(d, shards, 3));
        let budget = EpcBudget { limit: 1 << 20, ..Default::default() };
        let mut ledger = Ledger::new(budget, plane, Telemetry::off());
        ledger.arm(plan);
        ledger
    }

    /// [`armed`] with no crash point.
    fn plain(d: usize, shards: usize) -> Ledger {
        armed(d, shards, FaultPlan::empty())
    }

    fn monolithic() -> Ledger {
        plain(0, 1)
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn balanced(end: &RoundEnd) -> bool {
        end.coordinator.live == 0 && end.shards.iter().all(|rt| rt.live().iter().all(|&b| b == 0))
    }

    /// The engine's degenerate cases: one fold of the whole round is the
    /// one-shot helper, bit for bit and access for access — monolithic or
    /// sharded, on one worker or two — and so is the sealed-round driver's
    /// fresh round, a restore with nothing folded: opened over an empty
    /// store (or over none, sealing nothing — a checkpoint changes neither
    /// bits nor trace) and ingested in chunks.
    #[test]
    fn one_fold_of_the_whole_round_is_the_one_shot_aggregate() {
        let (d, n, k, chunk) = (48, 7, 5, 3);
        let updates = random_updates(n, k, d, 31);
        for kind in all_kinds() {
            for (threads, shards) in [(1usize, 1usize), (1, 4), (2, 1), (2, 4)] {
                let ctx = format!("{kind:?} threads={threads} S={shards}");
                let ledger = || plain(d, shards);
                let mut want_tr = RecordingTracer::new(Granularity::Element);
                let want = aggregate_with_threads(kind, &updates, d, threads, &mut want_tr);

                let mut tr = RecordingTracer::new(Granularity::Element);
                let mut eng = engine(kind, d, k, threads, ledger());
                // A non-zero look-ahead is charged through the fold.
                let fetched = eng.fold(&updates, 8, || 7u8, &mut tr).expect("fault-free");
                assert_eq!(fetched, 7, "fold hands back what the prefetch produced");
                assert_eq!((eng.ckpt.chunks_done, eng.agg.clients()), (1, n));
                let (got, end) = eng.finish(&mut tr);
                assert!(same_bits(&want, &got.expect("fault-free")), "{ctx}: output bits drifted");
                assert_eq!(tr.digest(), want_tr.digest(), "{ctx}: trace");
                assert!(balanced(&end), "{ctx}: the ledger balances");

                for sealing in [false, true] {
                    let mut round = Sealed::new(kind, &updates, d, threads, chunk);
                    let mut store = SealedStore::default();
                    let mut tr = RecordingTracer::new(Granularity::Element);
                    let (got, end) = round.drive(sealing.then_some(&mut store), ledger(), &mut tr);
                    let ctx = format!("{ctx} sealing={sealing}");
                    assert!(same_bits(&want, &got.expect("fault-free")), "{ctx}: output bits");
                    assert_eq!(tr.digest(), want_tr.digest(), "{ctx}: trace");
                    assert!(balanced(&end), "{ctx}: the ledger balances");
                    let chunks = n.div_ceil(chunk) as u64;
                    let tally = (end.telemetry.chunks, end.telemetry.ckpt_seals);
                    assert_eq!(tally, (chunks, if sealing { chunks } else { 0 }), "{ctx}");
                    assert_eq!(store.newest.is_some(), sealing, "{ctx}");
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

    /// One crash script spans a round's restores, at every S: each
    /// scripted crash fires once, after its chunk is sealed, on monolithic
    /// and sharded engines alike and with every budget released; the
    /// unfired remainder comes back to be re-armed on the reopened engine;
    /// and a crash point the round never reaches never fires. Three legs,
    /// one store: the round finishes on the uninterrupted bits.
    #[test]
    fn scripted_crash_fires_after_its_chunk_and_releases_every_charge() {
        let (d, n, k, chunk) = (32, 10, 4, 2);
        let updates = random_updates(n, k, d, 13);
        for shards in [1usize, 4] {
            let ledger = |plan: FaultPlan| armed(d, shards, plan);
            let mut round = Sealed::new(AggregatorKind::Advanced, &updates, d, 1, chunk);
            let (want, _) = round.drive(None, plain(d, shards), &mut NullTracer);
            let want = want.expect("nothing armed");

            let mut store = SealedStore::default();
            let mut plan = FaultPlan::crash_after([1, 3, 9]);
            for (after_chunk, remaining) in [(1, 2), (3, 1)] {
                let (out, end) = round.drive(Some(&mut store), ledger(plan), &mut NullTracer);
                assert_eq!(out, Err(RoundError::CoordinatorKilled { after_chunk }), "S={shards}");
                assert!(balanced(&end), "S={shards}: a crash releases every charge");
                assert_eq!(end.telemetry.ckpt_seals, 2, "chunks {after_chunk} and before, sealed");
                assert_eq!(end.faults.remaining(), remaining, "S={shards}");
                plan = end.faults;
            }
            let (got, end) = round.drive(Some(&mut store), ledger(plan), &mut NullTracer);
            assert!(same_bits(&want, &got.expect("no crash left to reach")), "S={shards}");
            assert_eq!((end.telemetry.chunks, end.faults.remaining()), (1, 1), "S={shards}");
            assert!(balanced(&end));
        }
    }

    /// The prefix digest is a chain: seeded with the round and the
    /// round-start floors (in any order: they are sorted), then extended
    /// chunk by chunk in fold order — so another round, other floors, a
    /// reordered, shortened or re-tagged prefix all reach another head.
    /// The codec round-trips it into a plaintext of one size, and no shape
    /// mismatch, version drift or truncation decodes.
    #[test]
    fn checkpoint_codec_roundtrips_and_rejects_what_it_was_not_sealed_for() {
        let kind = AggregatorKind::NonOblivious;
        let sealed = Sealed::new(kind, &random_updates(7, 2, 16, 17), 16, 1, 3).uploads;
        let base = [(5, 40), (2, 9), (11, 1)]; // user 11 is not in the round
        let shape = RoundShape { round: 3, chunk_size: 3, threads: 1, k: 2 };
        let head = |round: u64, floors: &[(UserId, u64)], prefix: &[SealedMessage]| {
            let mut ckpt = Checkpoint::start(round, [0; 4], floors);
            for msgs in prefix.chunks(3) {
                ckpt.cover(msgs);
            }
            ckpt.head
        };
        let want = head(3, &base, &sealed[..6]);
        assert_eq!(head(3, &[(2, 9), (5, 40), (11, 1)], &sealed[..6]), want, "floors sorted");
        let mut reordered = sealed[..6].to_vec();
        reordered.swap(0, 4);
        let mut within = sealed[..6].to_vec();
        within.swap(0, 1);
        let mut retagged = sealed[..6].to_vec();
        *retagged[2].ciphertext.last_mut().expect("a tag") ^= 1;
        for (what, other) in [
            ("round", head(4, &base, &sealed[..6])),
            ("a floor fewer", head(3, &base[..2], &sealed[..6])),
            ("a floor moved", head(3, &[(5, 41), (2, 9), (11, 1)], &sealed[..6])),
            ("reordered across chunks", head(3, &base, &reordered)),
            ("reordered within a chunk", head(3, &base, &within)),
            ("an upload short", head(3, &base, &sealed[..5])),
            ("a tag", head(3, &base, &retagged)),
        ] {
            assert_ne!(other, want, "{what}");
        }

        let mut ckpt = Checkpoint::start(3, [1, 2, 3, 4], &base);
        for msgs in sealed.chunks(3).take(2) {
            ckpt.cover(msgs);
            ckpt.chunks_done += 1;
        }
        assert_eq!(ckpt.head, want);
        let agg = StreamingAggregator::new(kind, 16, 1);
        let plain = ckpt.encode(shape, 7, &agg);
        assert_eq!(plain.len(), CKPT_HEADER_LEN + 8 + agg.save_state().len());
        let (back, agg_state) =
            Checkpoint::decode(&plain, shape, 7).expect("sealed for this shape");
        assert_eq!(
            (back.chunks_done, back.rng_state, back.head, agg_state),
            (2, [1, 2, 3, 4], want, &agg.save_state()[..])
        );
        assert_eq!(back.encode(shape, 7, &agg), plain);

        let mismatch = |shape, uploads| {
            assert_eq!(
                Checkpoint::decode(&plain, shape, uploads).err(),
                Some(StateError::Mismatch)
            );
        };
        mismatch(shape, 8);
        for wrong in [
            RoundShape { round: 4, ..shape },
            RoundShape { chunk_size: 2, ..shape },
            RoundShape { threads: 2, ..shape },
            RoundShape { k: 3, ..shape },
        ] {
            mismatch(wrong, 7);
        }
        let mut v1 = plain.clone();
        v1[0] = 1;
        assert_eq!(Checkpoint::decode(&v1, shape, 7).err(), Some(StateError::Mismatch));
        for cut in 0..plain.len() {
            assert!(Checkpoint::decode(&plain[..cut], shape, 7).is_err(), "truncated at {cut}");
        }
        ckpt.chunks_done = 4; // 7 uploads in chunks of 3 make 3 chunks
        let overrun = ckpt.encode(shape, 7, &agg);
        assert_eq!(Checkpoint::decode(&overrun, shape, 7).err(), Some(StateError::Corrupt));
    }

    /// A refused upload on the forward path is a structured error, never a
    /// panic — in the first chunk (nothing folds) and in a prefetched one
    /// (on two threads the refusal comes back from the pool's workers). The
    /// ordering rule: every chunk before the refused one is folded *and
    /// sealed* before the refusal may end the round, so the store restores
    /// right up to it; and aborting releases everything, the look-ahead
    /// staging included, at every S.
    #[test]
    fn a_refused_upload_is_an_error_with_every_budget_balanced() {
        let (d, n, k, chunk) = (32, 6, 4, 2);
        let updates = random_updates(n, k, d, 17);
        for (threads, bad, shards) in [(1usize, 1usize, 1usize), (2, 1, 4), (1, 3, 4), (2, 3, 1)] {
            let ctx = format!("threads={threads} bad={bad} S={shards}");
            let mut round = Sealed::new(AggregatorKind::Advanced, &updates, d, threads, chunk);
            round.uploads[bad].ciphertext[9] ^= 0x10;
            let mut store = SealedStore::default();
            let (out, end) = round.drive(Some(&mut store), plain(d, shards), &mut NullTracer);
            let refused = RoundError::Upload { slot: bad, error: TeeError::AuthFailure };
            assert_eq!(out, Err(refused), "{ctx}");
            let before = (bad / chunk) as u64;
            assert_eq!((end.telemetry.chunks, end.telemetry.ckpt_seals), (before, before), "{ctx}");
            assert!(balanced(&end), "{ctx}");
            if before > 0 {
                let reopened = round.open(Some(&store), monolithic()).expect("sealed before it");
                assert_eq!(reopened.ckpt.chunks_done as u64, before, "{ctx}");
            } else {
                assert!(store.newest.is_none(), "{ctx}: nothing was folded");
            }
        }
    }

    /// An upload sealed under its client's genuine session key but written
    /// for another dimension — its indices in range only under the forged
    /// d — is refused at the open like a malformed encoding, never handed
    /// to an aggregator (whose fold would assert on it): for every kind,
    /// on one worker and across two, monolithic and sharded, the round
    /// ends naming the slot with every budget balanced and the chunks
    /// before it sealed, and it finishes on the uninterrupted bits once
    /// the genuine upload is back in the slot.
    #[test]
    fn a_wrong_dimension_upload_is_refused_at_the_open() {
        let (d, n, k, chunk, bad) = (32, 6, 4, 2, 3);
        let updates = random_updates(n, k, d, 19);
        let mut forged = updates.clone();
        let indices = (d as u32..(d + k) as u32).collect();
        forged[bad] = SparseGradient { dense_dim: 2 * d, indices, values: vec![1.0; k] };
        for kind in all_kinds() {
            for (threads, shards) in [(1usize, 1usize), (2, 4)] {
                let ctx = format!("{kind:?} threads={threads} S={shards}");
                let mut genuine = Sealed::new(kind, &updates, d, threads, chunk);
                let want = genuine.drive(None, monolithic(), &mut NullTracer).0.expect("genuine");
                let mut round = Sealed::new(kind, &forged, d, threads, chunk);
                let mut store = SealedStore::default();
                let (out, end) = round.drive(Some(&mut store), plain(d, shards), &mut NullTracer);
                let refused = RoundError::Upload { slot: bad, error: TeeError::AuthFailure };
                assert_eq!(out, Err(refused), "{ctx}");
                assert!(balanced(&end), "{ctx}");
                assert_eq!(end.telemetry.ckpt_seals, (bad / chunk) as u64, "{ctx}");
                round.uploads[bad] = genuine.uploads[bad].clone();
                let (got, end) = round.drive(Some(&mut store), plain(d, shards), &mut NullTracer);
                assert!(same_bits(&want, &got.expect("the slot verifies now")), "{ctx}");
                assert!(balanced(&end), "{ctx}");
            }
        }
    }

    /// The round's open — decrypt and decode on the pool, accept in upload
    /// order — is `open_upload_batch` then decode, slot for slot and floor
    /// for floor, at every worker count, on a hostile chunk: a tampered
    /// copy before the genuine upload under the same nonce (which is then
    /// accepted), a replay after an accepted copy, a tampered replay, and
    /// stale, unsampled and unknown-user messages whose nonces are also
    /// at or below a floor (the first refusal wins over the replay).
    #[test]
    fn the_pooled_open_is_the_serial_open() {
        let (d, n, k) = (32, 5, 4);
        let updates = random_updates(n, k, d, 23);
        let hostile = || {
            let mut round = Sealed::new(AggregatorKind::Advanced, &updates, d, 1, n);
            let unknown = n as UserId; // sampled, never registered
            round.enclave.begin_round(3, (0..=unknown).collect());
            round.enclave.restore_replay_floors(&[(1, 9), (unknown, 9)]);
            round
        };
        let u = hostile().uploads;
        let mut tampered = u[0].clone();
        tampered.ciphertext[3] ^= 2;
        let mut tampered_replay = u[2].clone();
        tampered_replay.ciphertext[0] ^= 1;
        let stale = SealedMessage { round: 2, ..u[2].clone() };
        let unsampled = SealedMessage { user: n as UserId + 1, ..u[2].clone() };
        let unknown = SealedMessage { user: n as UserId, ..u[3].clone() };
        let batch = [
            tampered,
            u[0].clone(),
            u[1].clone(), // below user 1's floor
            u[2].clone(),
            u[2].clone(),
            tampered_replay,
            stale,
            unsampled,
            unknown,
            u[3].clone(),
            u[4].clone(),
        ];
        let mut serial = hostile();
        let decode = |plain: Vec<u8>| SparseGradient::decode(&plain).ok_or(TeeError::AuthFailure);
        let want: Vec<_> = serial
            .enclave
            .open_upload_batch(&batch)
            .into_iter()
            .map(|opened| opened.and_then(decode))
            .collect();
        use TeeError::*;
        let refusals = [
            Some(AuthFailure),
            None,
            Some(Replay),
            None,
            Some(Replay),
            Some(Replay),
            Some(WrongRound),
            Some(NotSampled),
            Some(UnknownUser),
            None,
            None,
        ];
        assert_eq!(want.iter().map(|r| r.as_ref().err().copied()).collect::<Vec<_>>(), refusals);
        assert_eq!(
            want[1].as_ref().ok(),
            Some(&updates[0]),
            "the genuine upload after its forgery"
        );
        for threads in [1usize, 2, 3] {
            let mut pooled = hostile();
            let opened = open_slots(&mut pooled.enclave, &batch, d, threads);
            assert_eq!(opened, want, "threads={threads}");
            assert_eq!(pooled.enclave.replay_floors(), serial.enclave.replay_floors());

            let mut pooled = hostile();
            let refused = open_and_decode(&mut pooled.enclave, &batch, 40, d, threads);
            assert_eq!(refused, Err(RoundError::Upload { slot: 40, error: AuthFailure }));
            assert_eq!(pooled.enclave.replay_floors(), serial.enclave.replay_floors());
        }
    }

    /// Kill after chunks 0 and 1, reopen from the store, finish — bitwise
    /// the uninterrupted run, for every kind at every S: the restore
    /// re-opens the folded prefix and replays it, charged like the folds
    /// it repeats. On the way, everything that is not the round's newest
    /// restore point is refused by the open itself with every budget at
    /// `live == 0`: a genuine blob from below the pinned floor as a
    /// rollback, a blob of another shape like a tampered one, a prefix
    /// that opens but is not the sealed one, and round-start floors that
    /// are not the round's.
    #[test]
    fn resume_restages_a_staged_prefix_on_the_ledger() {
        let (d, n, k, chunk) = (32, 6, 4, 2);
        let updates = random_updates(n, k, d, 17);
        for (kind, shards) in all_kinds().into_iter().flat_map(|kind| [(kind, 1usize), (kind, 4)]) {
            let ctx = format!("{kind:?} S={shards}");
            let mut round = Sealed::new(kind, &updates, d, 1, chunk);
            let want = round.drive(None, monolithic(), &mut NullTracer).0.expect("fault-free");
            let mut store = SealedStore::default();
            let mut blobs = Vec::new();
            for after_chunk in [0, 1] {
                let ledger = armed(d, shards, FaultPlan::crash_after([after_chunk]));
                let (killed, _) = round.drive(Some(&mut store), ledger, &mut NullTracer);
                assert_eq!(killed, Err(RoundError::CoordinatorKilled { after_chunk }), "{ctx}");
                blobs.push(store.newest.clone().expect("sealed before the crash"));
            }
            let refused = |round: &mut Sealed, store: &SealedStore, why: TeeError| {
                let (e, end) = round.open(Some(store), plain(d, shards)).err().expect("refused");
                assert_eq!(e, RoundError::Checkpoint(why), "{ctx}");
                assert!(balanced(&end), "{ctx}: a failed open releases everything");
            };
            store.newest = Some(blobs[0].clone());
            refused(&mut round, &store, TeeError::StaleSeal);
            store.newest = Some(blobs[1].clone());
            round.shape.chunk_size = 3;
            refused(&mut round, &store, TeeError::AuthFailure);
            round.shape.chunk_size = chunk;
            // An unfolded upload swapped into the prefix opens and pays the
            // owed clients back in full: only the prefix digest tells it
            // from the prefix the checkpoint was sealed over.
            round.uploads.swap(1, 2 * chunk);
            refused(&mut round, &store, TeeError::AuthFailure);
            round.uploads.swap(1, 2 * chunk);
            // A floor for a user outside the round changes no open: only
            // the digest's seed sees it.
            round.base_floors.push((n as UserId + 5, 1));
            refused(&mut round, &store, TeeError::AuthFailure);
            round.base_floors.pop();

            let eng = round.open(Some(&store), plain(d, shards)).expect("genuine prefix");
            assert_eq!(eng.ckpt.chunks_done, 2, "{ctx}");
            let prefix = &round.uploads[..2 * chunk];
            let mut want_head = Checkpoint::start(3, [0; 4], &round.base_floors);
            prefix.chunks(chunk).for_each(|msgs| want_head.cover(msgs));
            assert_eq!(eng.ckpt.head, want_head.head, "{ctx}: the replay recomputed the digest");
            let floors: Vec<_> = prefix.iter().map(|m| (m.user, m.nonce_counter)).collect();
            assert_eq!(round.enclave.replay_floors(), floors, "{ctx}: floors cover the prefix");
            assert_eq!(eng.ledger.coordinator.live, eng.agg.resident_bytes(), "{ctx}");
            if kind == AggregatorKind::Advanced {
                let cells = (2 * chunk * k) as u64 * 8;
                assert_eq!(eng.ledger.coordinator.live, cells, "replayed cells are charged");
                // Charged as a fold charges it: the staged chunk is released
                // before the resident state it was copied into is resized.
                assert_eq!(eng.ledger.coordinator.peak, cells);
            }
            let eng = eng
                .ingest(&round.uploads, &mut round.enclave, Some(&mut store), &mut NullTracer)
                .expect("fault-free");
            let (got, end) = eng.finish(&mut NullTracer);
            assert!(same_bits(&want, &got.expect("fault-free")), "{ctx}");
            assert_eq!(end.telemetry.chunks, 1, "{ctx}: only the last chunk was left to fold");
            assert!(balanced(&end), "{ctx}");
        }
    }

    /// The prefix digest binds the folded prefix's order: a prefix
    /// reordered within itself after the crash — across chunks or within
    /// one — is refused for every kind at every S, with every budget
    /// released and the blob still in the store, so the round stays
    /// pending; once the uploads are back in order it restores to the
    /// uninterrupted bits.
    #[test]
    fn a_reordered_prefix_is_refused_and_the_round_stays_pending() {
        let (d, n, k, chunk) = (32, 6, 4, 2);
        let updates = random_updates(n, k, d, 29);
        for (kind, shards) in all_kinds().into_iter().flat_map(|kind| [(kind, 1usize), (kind, 4)]) {
            let ctx = format!("{kind:?} S={shards}");
            let mut round = Sealed::new(kind, &updates, d, 1, chunk);
            let want = round.drive(None, monolithic(), &mut NullTracer).0.expect("fault-free");
            let mut store = SealedStore::default();
            let ledger = armed(d, shards, FaultPlan::crash_after([1]));
            let (killed, _) = round.drive(Some(&mut store), ledger, &mut NullTracer);
            assert_eq!(killed, Err(RoundError::CoordinatorKilled { after_chunk: 1 }), "{ctx}");
            let blob = store.newest.clone();
            for (a, b) in [(0, 3), (2, 3)] {
                // Across the folded chunks 0 and 1, and within chunk 1.
                round.uploads.swap(a, b);
                let (got, end) = round.drive(Some(&mut store), plain(d, shards), &mut NullTracer);
                assert_eq!(got, Err(UNUSABLE), "{ctx}: swap({a}, {b})");
                assert!(balanced(&end), "{ctx}: swap({a}, {b})");
                assert_eq!(store.newest, blob, "{ctx}: the restore point stays");
                round.uploads.swap(a, b);
            }
            let (got, end) = round.drive(Some(&mut store), plain(d, shards), &mut NullTracer);
            assert!(same_bits(&want, &got.expect("the sealed order restores")), "{ctx}");
            assert!(balanced(&end), "{ctx}");
        }
    }

    /// The sealed restore point has one size: the blob a round leaves
    /// after chunk 0 or after chunk 1 is as long whether no client, 16 or
    /// 64 registered clients hold a replay floor at round start — and the
    /// round killed over 64 floors restores to its uninterrupted bits.
    #[test]
    fn the_restore_point_has_one_size_whatever_n_and_the_chunks_folded() {
        let (d, n, k, chunk) = (32, 6, 4, 2);
        let updates = random_updates(n, k, d, 37);
        let kind = AggregatorKind::Advanced;
        let descriptor = StreamingAggregator::new(kind, d, 1).save_state().len();
        let sealed_len = 8 + CKPT_HEADER_LEN + 8 + descriptor + 16; // counter, plaintext, tag
        for earlier in [0usize, 16, 64] {
            let fresh = || Sealed::after_round_2(kind, &updates, d, 1, chunk, earlier);
            assert_eq!(fresh().base_floors.len(), earlier, "floors at round start");
            for after_chunk in [0, 1] {
                let mut round = fresh();
                let mut store = SealedStore::default();
                let ledger = armed(d, 1, FaultPlan::crash_after([after_chunk]));
                let (killed, _) = round.drive(Some(&mut store), ledger, &mut NullTracer);
                assert_eq!(killed, Err(RoundError::CoordinatorKilled { after_chunk }));
                let blob = store.newest.as_ref().expect("sealed before the crash");
                assert_eq!(blob.len(), sealed_len, "earlier={earlier} after_chunk={after_chunk}");
                if earlier == 64 && after_chunk == 1 {
                    let want = fresh().drive(None, monolithic(), &mut NullTracer).0;
                    let (got, _) = round.drive(Some(&mut store), monolithic(), &mut NullTracer);
                    assert!(same_bits(&want.expect("fault-free"), &got.expect("restores")));
                }
            }
        }
    }
}
