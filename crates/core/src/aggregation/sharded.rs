//! Sharded multi-enclave aggregation: the `G`-region dimension split into
//! `S` contiguous stripes, one mutually attested shard enclave per stripe:
//! the transport, failover and receipted-egress plane a partitioned
//! aggregation (TENNOR makes that move for oblivious NN inference) would
//! run over, with the compute still in the coordinator.
//!
//! ## Topology and invariants
//!
//! The **coordinator** enclave (the one clients attest and upload to)
//! remains the round's canonical compute site: every upload is opened,
//! every cell folded, and the adversary-visible trace emitted there,
//! exactly as in the monolithic path. Sharding adds a *transport* plane
//! around that schedule:
//!
//! * every shard runs in its own enclave, mutually attested to the
//!   coordinator through a [`ShardTunnel`] (measurement pinned both ways);
//! * **ingress** hands every shard what it keeps of a staged chunk: the
//!   chunk's 24-byte public descriptor (absolute chunk index, clients,
//!   cells), a pure function of the chunk schedule. The sparse index sets
//!   are the secret (§3), and a shard has no compute that reads them, so
//!   no client cell ever leaves the coordinator: an enclave that never
//!   holds them has nothing to leak. Each shard advances its chunk count
//!   and a running cell tally, and seals both after every chunk;
//! * **egress** seals each shard's stripe of the finalized delta through
//!   its tunnel; the shard answers with a receipt carrying the stripe
//!   hash and its cell tally, the coordinator checks both against what it
//!   sent — a chunk lost across a failover fails the round instead of
//!   passing unnoticed — and folds the shard-held stripes back together
//!   in ascending shard order, a deterministic fold that reproduces the
//!   canonical delta bit for bit;
//! * each shard's [`olive_tee::EpcBudget`] is charged what that enclave
//!   decrypts and holds, where it happens: the descriptor while it is
//!   tallied, and its `4·|stripe|`-byte stripe from the egress open until
//!   the receipt is out (both counted under `shard{i}` on the telemetry
//!   stream). The staged cells, the sort scratch and the resident state
//!   live in the coordinator, whose budget the round engine's ledger
//!   ([`crate::round::Ledger`]) charges in full at every S.
//!
//! Because the canonical schedule never changes, the round output,
//! signature and trace digest are bitwise identical at every shard count
//! — the repo's hard invariant. What the plane does **not** do is shrink
//! the Advanced working set: every cell is still staged and sorted in one
//! enclave. Per-shard compute needs cells *routed* to their stripe's
//! shard with the per-shard counts hidden (ROADMAP item 4), which nobody
//! has built; a cell payload comes back together with the compute that
//! reads it.
//!
//! ## Faults and recovery
//!
//! A fleet of S enclaves will lose members mid-round, so every transport
//! operation here is **fallible and recovering**, driven by a
//! deterministic [`FaultPlan`] (tests, CI chaos pass, `OLIVE_FAULTS`):
//!
//! * delivery failures (frame tamper/drop, receipt corruption) are
//!   retried under a bounded [`RetryPolicy`] with a *simulated* backoff
//!   clock recorded in [`RecoveryStats`] — tunnel replay floors tolerate
//!   the sequence gaps, so a retry is always safe;
//! * a **shard kill** triggers mid-round failover: the runtime relaunches
//!   the enclave under a fresh DH epoch (fresh tunnel keys — the dead
//!   instance's AEAD nonce sequence can never be continued), re-attests
//!   it under [`SHARD_CODE_IDENTITY`], rebuilds both tunnel ends via the
//!   provisioning-time [`TunnelAnchor`], restores the shard's chunk
//!   tally from its newest sealed `"shard-ckpt"` blob, and resumes the
//!   chunk stream. The checkpoint's monotonic counter floor is pinned
//!   coordinator-side (standing in for rollback-protected NV storage),
//!   so a rolled-back blob — the [`FaultKind::StaleSeal`] fault — is
//!   rejected and the genuine newest one recovered instead, and a
//!   relaunched shard can never reseal with a previously used nonce;
//! * when the retry budget is exhausted the operation fails with a
//!   structured [`ShardError`] naming the shard, the attempt count and
//!   the final failure — never a panic — leaving the round restorable.
//!
//! All of this machinery lives strictly in the side-band transport plane:
//! it emits no tracer events and never touches the canonical compute, so
//! a recovered round is bitwise identical to the fault-free one **by
//! construction** (and the fault proptests pin it).

use olive_fl::SparseGradient;
use olive_memsim::{
    FaultEvent, FaultKind, FaultPlan, RecoveryStats, RetryPolicy, ShardPlan, StateError,
    StateReader, StateWriter, EGRESS_CHUNK,
};
use olive_tee::attestation::Measurement;
use olive_tee::{
    attestation::digest, AttestationService, Enclave, EnclaveConfig, Quote, SealedStore,
    ShardTunnel, TeeError, TunnelAnchor, TunnelError, TunnelRole,
};
use olive_telemetry::Telemetry;

/// Code identity every shard enclave must measure to (what the
/// coordinator pins when it verifies a shard's quote, and vice versa the
/// shards pin the coordinator's measurement).
pub const SHARD_CODE_IDENTITY: &str = "olive-shard-aggregator-v1";

/// Attestation user data binding shard quotes to the shard plane (the
/// coordinator keeps its own client-facing context: re-attesting it under
/// a different context would change the transcript its session keys are
/// bound to).
const SHARD_ATTEST_CONTEXT: &[u8] = b"olive-shard-plane-v1";

/// Tunnel message kinds.
const MSG_CHUNK: u8 = 1;
const MSG_STRIPE: u8 = 2;
const MSG_RECEIPT: u8 = 3;

/// Sealing label for per-shard checkpoints (the shard-plane sibling of
/// the coordinator's `"round-ckpt"` label).
const SHARD_CKPT_LABEL: &[u8] = b"shard-ckpt";

/// Version byte leading every shard checkpoint blob.
const SHARD_CKPT_VERSION: u64 = 1;

/// What finally went wrong with one shard operation after recovery was
/// exhausted (the terminal failure of the last attempt).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFailure {
    /// Tunnel establishment or transport failed (attestation refused,
    /// AEAD authentication failure, replay).
    Tunnel(TunnelError),
    /// A shard checkpoint failed to unseal on restore (tampered blob, or
    /// a rollback below the pinned counter floor).
    Seal(TeeError),
    /// A tunnel frame was dropped in flight (the receiver never saw it).
    Dropped,
    /// A shard's egress receipt authenticated but named a stripe hash
    /// other than the one the coordinator sealed, or a cell tally other
    /// than that of the chunks the coordinator delivered.
    ReceiptMismatch,
}

impl core::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShardFailure::Tunnel(e) => write!(f, "tunnel failure: {e}"),
            ShardFailure::Seal(e) => write!(f, "checkpoint failure: {e}"),
            ShardFailure::Dropped => write!(f, "tunnel frame dropped"),
            ShardFailure::ReceiptMismatch => write!(f, "stripe receipt mismatch"),
        }
    }
}

impl std::error::Error for ShardFailure {}

/// A structured shard-plane error: which shard failed, how many attempts
/// recovery spent on it, and the terminal [`ShardFailure`]. Surfaced by
/// every fallible [`ShardRuntime`] operation instead of a panic, so the
/// round driver can abort cleanly with the round still restorable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardError {
    /// The shard the operation targeted.
    pub shard: u32,
    /// Attempts consumed (1 = failed without retry budget left to spend).
    pub attempts: u32,
    /// The last attempt's failure.
    pub failure: ShardFailure,
}

impl core::fmt::Display for ShardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "shard {} failed after {} attempt(s): {}",
            self.shard, self.attempts, self.failure
        )
    }
}

impl std::error::Error for ShardError {}

/// One shard enclave plus both endpoints of its coordinator tunnel (the
/// simulation holds the whole deployment in one process, so the pair
/// lives side by side; a real deployment holds one end per machine).
struct ShardState {
    enclave: Enclave,
    /// Telemetry key of this shard's budget and blobs (`shard{i}`).
    key: String,
    coord_end: ShardTunnel,
    shard_end: ShardTunnel,
    /// Chunks this shard was handed this round (sealed into its
    /// checkpoints next to `cells`).
    chunks_done: u64,
    /// Cells those chunks' descriptors named — the public tally the
    /// shard's egress receipt reports.
    cells: u64,
    /// The per-shard platform seed, kept so a relaunch rebuilds the same
    /// sealing key (checkpoints must unseal across the restart).
    seed: [u8; 32],
    /// DH epoch of the current enclave incarnation; bumped on every
    /// relaunch so each incarnation presents a fresh tunnel key share.
    dh_epoch: u32,
    /// Newest sealed shard checkpoint, held in untrusted storage
    /// (coordinator-side in the simulation), under the pinned floor for
    /// `"shard-ckpt"` blobs: it survives the enclave's death, so a
    /// relaunched shard rejects every blob older than the newest and —
    /// after unsealing — can never reseal with a reused nonce.
    ckpt: SealedStore,
    /// The previous generation's blob — what a rollback attack (the
    /// [`FaultKind::StaleSeal`] fault) serves a relaunched shard.
    ckpt_prev: Option<Vec<u8>>,
}

/// The provisioned shard plane: `S` shard enclaves, their tunnels, the
/// stripe plan that maps coordinates onto them, and the
/// failover machinery (attestation handle, tunnel anchor, fault plan,
/// retry policy) that keeps the plane serving across shard deaths.
pub struct ShardRuntime {
    plan: ShardPlan,
    shards: Vec<ShardState>,
    /// Cloned platform handle, for re-attesting relaunched shards.
    service: AttestationService,
    /// The coordinator's quote (shards pin it when re-establishing).
    coord_quote: Quote,
    coord_measurement: Measurement,
    /// The coordinator's tunnel identity, captured at provisioning — lets
    /// the runtime bring up replacement tunnels mid-round without a
    /// borrow of the coordinator enclave.
    anchor: TunnelAnchor,
    shard_cfg: EnclaveConfig,
    /// Round epoch stamped into shard checkpoints (guards against a blob
    /// from an earlier round restoring into the current one).
    round_epoch: u64,
    /// Absolute index of the next ingress chunk — the coordinate fault
    /// events are addressed by (kept absolute across a coordinator
    /// restore via [`ShardRuntime::skip_to_chunk`]).
    chunk_cursor: u32,
    /// Cells of the chunks delivered this round — what every shard's
    /// egress receipt must tally to.
    cells_sent: u64,
    faults: FaultPlan,
    retry: RetryPolicy,
    stats: RecoveryStats,
    /// Side-band metrics handle (disarmed by default): ingress/egress/
    /// relaunch spans, fault and recovery events, per-shard EPC counters
    /// and checkpoint-blob histograms. Strictly read-only over the round —
    /// arming it never perturbs output, signature or trace.
    telemetry: Telemetry,
}

impl core::fmt::Debug for ShardRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.shards.len())
            .field("round_epoch", &self.round_epoch)
            .field("chunk_cursor", &self.chunk_cursor)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ShardRuntime {
    /// Launches and mutually attests `shards` shard enclaves against the
    /// (already client-attested) coordinator.
    ///
    /// The coordinator re-attests under its *existing* `user_data`
    /// context so its transcript — which every client session key is
    /// bound to — is unchanged; shard quotes use the shard-plane context.
    /// Both directions of every tunnel pin the peer's measurement, so a
    /// shard enclave only ever accepts frames from the verified
    /// coordinator and the coordinator only accepts receipts from
    /// verified shards.
    pub fn provision(
        service: &AttestationService,
        coordinator: &mut Enclave,
        coordinator_context: &[u8],
        seed_bytes: [u8; 32],
        epc_bytes: u64,
        d: usize,
        shards: usize,
    ) -> Result<Self, ShardError> {
        Self::provision_with_plan(
            service,
            coordinator,
            coordinator_context,
            seed_bytes,
            epc_bytes,
            ShardPlan::even(d, shards),
        )
    }

    /// [`ShardRuntime::provision`] with an explicit stripe plan (uneven
    /// boundaries included) — boundary placement is public topology and
    /// must never change the round output or trace, which the proptest
    /// suite pins through this entry point.
    pub fn provision_with_plan(
        service: &AttestationService,
        coordinator: &mut Enclave,
        coordinator_context: &[u8],
        seed_bytes: [u8; 32],
        epc_bytes: u64,
        plan: ShardPlan,
    ) -> Result<Self, ShardError> {
        let coord_quote = coordinator.attest(service, coordinator_context);
        let coord_measurement = coordinator.measurement();
        let anchor = TunnelAnchor::capture(coordinator).map_err(|e| ShardError {
            shard: 0,
            attempts: 1,
            failure: ShardFailure::Tunnel(e),
        })?;
        let shard_cfg = EnclaveConfig { code_identity: SHARD_CODE_IDENTITY.to_string(), epc_bytes };
        let mut rt = ShardRuntime {
            shards: Vec::with_capacity(plan.shards()),
            plan,
            service: service.clone(),
            coord_quote,
            coord_measurement,
            anchor,
            shard_cfg,
            round_epoch: 0,
            chunk_cursor: 0,
            cells_sent: 0,
            faults: FaultPlan::empty(),
            retry: RetryPolicy::default(),
            stats: RecoveryStats::default(),
            telemetry: Telemetry::off(),
        };
        for shard in 0..rt.plan.shards() as u32 {
            let mut seed = seed_bytes;
            seed[16..20].copy_from_slice(&shard.to_be_bytes());
            seed[20] ^= 0x5D;
            let (enclave, coord_end, shard_end) = rt
                .launch_shard(shard, seed, 0)
                .map_err(|failure| ShardError { shard, attempts: 1, failure })?;
            rt.shards.push(ShardState {
                enclave,
                key: format!("shard{shard}"),
                coord_end,
                shard_end,
                chunks_done: 0,
                cells: 0,
                seed,
                dh_epoch: 0,
                ckpt: SealedStore::default(),
                ckpt_prev: None,
            });
        }
        Ok(rt)
    }

    /// Launches shard `shard`'s enclave at DH epoch `dh_epoch` (0 = first
    /// incarnation), attests it under the shard-plane context, and brings
    /// up both ends of its coordinator tunnel — fresh keys on both sides,
    /// the anchor supplying the coordinator half.
    fn launch_shard(
        &self,
        shard: u32,
        seed: [u8; 32],
        dh_epoch: u32,
    ) -> Result<(Enclave, ShardTunnel, ShardTunnel), ShardFailure> {
        let mut enclave = Enclave::launch_with_dh_epoch(&self.shard_cfg, seed, dh_epoch);
        let quote = enclave.attest(&self.service, SHARD_ATTEST_CONTEXT);
        let coord_end = self
            .anchor
            .establish(self.service.public_key(), &enclave.measurement(), &quote, shard)
            .map_err(ShardFailure::Tunnel)?;
        let shard_end = ShardTunnel::establish(
            TunnelRole::Shard,
            &enclave,
            self.service.public_key(),
            &self.coord_measurement,
            &self.coord_quote,
            shard,
        )
        .map_err(ShardFailure::Tunnel)?;
        Ok((enclave, coord_end, shard_end))
    }

    /// Arms side-band telemetry on the whole shard plane: the runtime
    /// itself, every shard enclave (seal/open byte counters) and both
    /// ends of every tunnel (frame counters), and emits one
    /// `shard_provisioned` event per stripe so the topology is on the
    /// stream. Re-threaded automatically across relaunches.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (i, sh) in self.shards.iter_mut().enumerate() {
            sh.enclave.set_telemetry(telemetry.clone());
            sh.coord_end.set_telemetry(telemetry.clone());
            sh.shard_end.set_telemetry(telemetry.clone());
            if telemetry.is_armed() {
                let range = self.plan.range(i);
                telemetry.event(
                    "shard_provisioned",
                    &[
                        ("shard", (i as u64).into()),
                        ("stripe_lo", (range.start as u64).into()),
                        ("stripe_hi", (range.end as u64).into()),
                    ],
                );
            }
        }
        self.telemetry = telemetry;
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Arms a fault script on the plane, where it stays until it fires
    /// or is replaced — by the next call, or by a round's own script
    /// ([`crate::round::Ledger::arm`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The armed script — the round engine fires its coordinator-level
    /// events from the same plan the transport hooks consume.
    pub(crate) fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Recovery work done over this runtime's lifetime.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Re-aligns the absolute chunk cursor after a coordinator restore,
    /// so fault events keep firing at their scripted absolute chunk
    /// indices in the resumed half of the round.
    pub(crate) fn skip_to_chunk(&mut self, chunks_done: usize) {
        self.chunk_cursor = chunks_done as u32;
    }

    /// Opens a fresh per-round accounting epoch on every shard budget
    /// (mirrors [`Enclave::begin_round`]'s epoch on the coordinator) and
    /// resets the per-round transport state. The armed fault script is
    /// left as it is: a round's script is armed where the round starts
    /// (`OliveSystem::run_round`), not here.
    pub fn begin_round(&mut self) {
        self.round_epoch += 1;
        self.chunk_cursor = 0;
        self.cells_sent = 0;
        for sh in &mut self.shards {
            sh.enclave.epc.begin_epoch();
            sh.chunks_done = 0;
            sh.cells = 0;
            // Checkpoint blobs are per-round; the pinned floor is not.
            sh.ckpt.newest = None;
            sh.ckpt_prev = None;
        }
    }

    /// Hands every shard one staged chunk's public descriptor — absolute
    /// chunk index, clients, cells; the cells themselves stay in the
    /// coordinator — through its tunnel, and has the shard seal its
    /// advanced tally. The frame is a transient EPC charge on the shard
    /// while it is tallied.
    ///
    /// Every delivery runs under the fault plan and retry policy; a shard
    /// kill triggers mid-round failover (relaunch, re-attest, rekey,
    /// restore from checkpoint). Exhausted recovery returns a
    /// [`ShardError`]; the chunk cursor then stays put, and the round is
    /// restorable over a re-provisioned plane.
    pub fn ingress_chunk(&mut self, staged: &[SparseGradient]) -> Result<(), ShardError> {
        let chunk = self.chunk_cursor;
        let cells: u64 = staged.iter().map(|u| u.k() as u64).sum();
        let descriptor = [u64::from(chunk), staged.len() as u64, cells];
        let frame: Vec<u8> = descriptor.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _span = self.telemetry.span(
            "shard_ingress",
            &[
                ("chunk", chunk.into()),
                ("shards", (self.shards.len() as u64).into()),
                ("frame_bytes", (frame.len() as u64).into()),
            ],
        );
        for i in 0..self.shards.len() {
            self.with_recovery(i, "in", chunk, |rt| rt.try_deliver(i, chunk, &frame))?;
            self.checkpoint_shard(i);
        }
        self.chunk_cursor += 1;
        self.cells_sent += cells;
        Ok(())
    }

    /// Distributes the finalized delta stripewise to the shards and folds
    /// the shard-held stripes back in ascending shard order — the
    /// deterministic merge. Each shard's receipt carries the hash of the
    /// stripe it holds and its cell tally; the coordinator verifies both
    /// against the stripe it sealed and the chunks it delivered, so the
    /// reassembled delta is bitwise the canonical one by construction.
    ///
    /// Egress-phase faults (kill/tamper/drop at [`EGRESS_CHUNK`], receipt
    /// corruption) recover exactly like ingress ones; exhaustion returns
    /// a [`ShardError`] with the round still restorable.
    pub fn egress_round(&mut self, delta: &[f32]) -> Result<Vec<f32>, ShardError> {
        assert_eq!(delta.len(), self.plan.d(), "delta dimension must match the plan");
        let _span =
            self.telemetry.span("shard_egress", &[("shards", (self.shards.len() as u64).into())]);
        let mut out = Vec::with_capacity(delta.len());
        for i in 0..self.shards.len() {
            let stripe = &delta[self.plan.range(i)];
            let mut bytes = Vec::with_capacity(stripe.len() * 4);
            for v in stripe {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            let held = self.with_recovery(i, "eg", EGRESS_CHUNK, |rt| rt.try_egress(i, &bytes))?;
            out.extend_from_slice(&held);
        }
        Ok(out)
    }

    /// One shard operation (`phase` = `"in"` delivery / `"eg"` egress, at
    /// fault coordinate `chunk`) under the retry/failover loop: a scripted
    /// kill relaunches the shard first, a failed attempt is retried with
    /// simulated backoff, and an exhausted budget is a [`ShardError`].
    fn with_recovery<T>(
        &mut self,
        i: usize,
        phase: &str,
        chunk: u32,
        mut attempt: impl FnMut(&mut Self) -> Result<T, ShardFailure>,
    ) -> Result<T, ShardError> {
        let shard = i as u32;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > 1 {
                self.stats.retries += 1;
                let backoff = self.retry.backoff_ms(attempts);
                self.stats.backoff_ms += backoff;
                self.note_retry(phase, chunk, shard, attempts, backoff);
            }
            if self.faults.fire(FaultKind::ShardKill, chunk, shard) {
                note_fault(&self.telemetry, FaultKind::ShardKill, chunk, shard);
                self.relaunch_shard(i).map_err(|failure| ShardError {
                    shard,
                    attempts,
                    failure,
                })?;
            }
            match attempt(self) {
                Ok(done) => return Ok(done),
                Err(failure) if attempts >= self.retry.max_attempts => {
                    return Err(ShardError { shard, attempts, failure });
                }
                Err(_) => {}
            }
        }
    }

    /// Coordinator → shard over the (faultable) wire: seals `payload`,
    /// applies a scripted drop or tamper, and opens it inside the shard —
    /// whose budget holds the `payload.len()` decrypted bytes until the
    /// caller, done with them, frees the transient.
    fn send_down(
        &mut self,
        i: usize,
        chunk: u32,
        kind: u8,
        payload: &[u8],
    ) -> Result<Vec<u8>, ShardFailure> {
        let shard = i as u32;
        let sh = &mut self.shards[i];
        let mut msg = sh.coord_end.seal(kind, payload);
        if self.faults.fire(FaultKind::TunnelDrop, chunk, shard) {
            // The frame never arrives; the send sequence number is
            // burned, which the receiver's floor tolerates as a gap.
            note_fault(&self.telemetry, FaultKind::TunnelDrop, chunk, shard);
            return Err(ShardFailure::Dropped);
        }
        if self.faults.fire(FaultKind::TunnelTamper, chunk, shard) {
            note_fault(&self.telemetry, FaultKind::TunnelTamper, chunk, shard);
            msg.tamper();
        }
        let transient = payload.len() as u64;
        sh.enclave.epc.alloc_counted(transient, &self.telemetry, &sh.key);
        sh.shard_end.open(&msg).map_err(|e| {
            sh.enclave.epc.free_counted(transient, &self.telemetry, &sh.key);
            ShardFailure::Tunnel(e)
        })
    }

    /// One delivery attempt: seal, (faultable) transport, open, tally.
    fn try_deliver(&mut self, i: usize, chunk: u32, frame: &[u8]) -> Result<(), ShardFailure> {
        let plain = self.send_down(i, chunk, MSG_CHUNK, frame)?;
        // The descriptor's third word.
        let cells = plain[16..].try_into().expect("an authenticated 24-byte descriptor");
        let sh = &mut self.shards[i];
        sh.chunks_done += 1;
        sh.cells += u64::from_le_bytes(cells);
        sh.enclave.epc.free_counted(frame.len() as u64, &self.telemetry, &sh.key);
        Ok(())
    }

    /// One egress attempt: stripe down, receipt up, hash and tally check.
    fn try_egress(&mut self, i: usize, bytes: &[u8]) -> Result<Vec<f32>, ShardFailure> {
        let held = self.send_down(i, EGRESS_CHUNK, MSG_STRIPE, bytes)?;
        let sh = &mut self.shards[i];
        let mut receipt = stripe_receipt(&held, sh.cells);
        // A receipt-corruption fault models a faulty shard *computing* the
        // wrong receipt: the frame authenticates, the content is wrong, and
        // the coordinator's hash compare catches it. (Frame-level tampering
        // is TunnelTamper's job and dies at the AEAD instead.)
        if self.faults.fire(FaultKind::ReceiptCorrupt, EGRESS_CHUNK, i as u32) {
            note_fault(&self.telemetry, FaultKind::ReceiptCorrupt, EGRESS_CHUNK, i as u32);
            receipt[0] ^= 0x01;
        }
        let up = sh.shard_end.seal(MSG_RECEIPT, &receipt);
        let opened = sh.coord_end.open(&up);
        // The receipt is out: the shard no longer needs the plaintext.
        sh.enclave.epc.free_counted(bytes.len() as u64, &self.telemetry, &sh.key);
        if opened.map_err(ShardFailure::Tunnel)? != stripe_receipt(bytes, self.cells_sent) {
            return Err(ShardFailure::ReceiptMismatch);
        }
        let word = |v: &[u8]| f32::from_bits(u32::from_le_bytes(v.try_into().expect("4-byte f32")));
        Ok(held.chunks_exact(4).map(word).collect())
    }

    /// Seals the shard's state (`round_epoch`, `chunks_done`, `cells`)
    /// under the `"shard-ckpt"` label inside the shard enclave and parks
    /// the blob in untrusted storage, advancing the pinned counter floor.
    /// The previous blob is kept around as the rollback-attack corpus for
    /// the [`FaultKind::StaleSeal`] fault.
    fn checkpoint_shard(&mut self, i: usize) {
        let sh = &mut self.shards[i];
        let mut w = StateWriter::new();
        w.put_u64(SHARD_CKPT_VERSION);
        w.put_u64(self.round_epoch);
        w.put_u64(sh.chunks_done);
        w.put_u64(sh.cells);
        let blob = sh.enclave.seal(&w.into_bytes(), SHARD_CKPT_LABEL);
        self.telemetry.observe("ckpt_blob_bytes", &sh.key, blob.len() as u64);
        sh.ckpt_prev = sh.ckpt.put(blob);
    }

    /// Mid-round shard failover: relaunch the enclave under the next DH
    /// epoch, re-attest it, rebuild both tunnel ends (fresh keys on both
    /// sides — the anchor supplies the coordinator half), and restore the
    /// shard's tally from the newest checkpoint under the pinned floor.
    /// A stale blob served by the untrusted store is rejected
    /// ([`TeeError::StaleSeal`]) and the genuine newest one loaded
    /// instead — one extra (counted, backed-off) recovery step.
    fn relaunch_shard(&mut self, i: usize) -> Result<(), ShardFailure> {
        self.stats.relaunches += 1;
        let shard = i as u32;
        self.shards[i].dh_epoch += 1;
        let (seed, dh_epoch) = (self.shards[i].seed, self.shards[i].dh_epoch);
        let _span = self
            .telemetry
            .span("shard_relaunch", &[("shard", shard.into()), ("dh_epoch", dh_epoch.into())]);
        let (mut enclave, coord_end, shard_end) = self.launch_shard(shard, seed, dh_epoch)?;
        let sh = &mut self.shards[i];
        // Restore the tally (there is no blob before the round's first
        // chunk, and nothing to restore). The untrusted store may serve a
        // rolled-back blob (the StaleSeal fault); the pinned floor
        // catches it and recovery falls back to the genuine newest.
        let (chunks_done, cells) = if let Some(newest) = sh.ckpt.newest.as_deref() {
            let (floor, epoch) = (sh.ckpt.floor(), self.round_epoch);
            let mut restored = None;
            if let Some(prev) = sh.ckpt_prev.as_ref() {
                if self.faults.fire(FaultKind::StaleSeal, EGRESS_CHUNK, shard) {
                    note_fault(&self.telemetry, FaultKind::StaleSeal, EGRESS_CHUNK, shard);
                    match restore_ckpt(&mut enclave, prev, floor, epoch) {
                        Err(ShardFailure::Seal(TeeError::StaleSeal)) => {
                            // Rollback detected: count the extra fetch of the
                            // genuine blob as one recovery retry.
                            self.stats.retries += 1;
                            self.stats.backoff_ms += self.retry.backoff_ms(2);
                        }
                        other => restored = Some(other?),
                    }
                }
            }
            match restored {
                Some(state) => state,
                None => restore_ckpt(&mut enclave, newest, floor, epoch)?,
            }
        } else {
            (0, 0)
        };
        sh.enclave = enclave;
        sh.coord_end = coord_end;
        sh.shard_end = shard_end;
        sh.chunks_done = chunks_done;
        sh.cells = cells;
        // The fresh incarnation carries fresh handles: re-thread telemetry
        // into the relaunched enclave and both rebuilt tunnel ends.
        sh.enclave.set_telemetry(self.telemetry.clone());
        sh.coord_end.set_telemetry(self.telemetry.clone());
        sh.shard_end.set_telemetry(self.telemetry.clone());
        self.telemetry.event(
            "shard_restore",
            &[
                ("shard", shard.into()),
                ("chunks_done", chunks_done.into()),
                ("cells", cells.into()),
            ],
        );
        Ok(())
    }

    /// Emits one `recovery_attempt` event and bumps the `retry_attempts`
    /// counter under the retried site (`in@chunk.shard` ingress,
    /// `eg@e.shard` egress).
    fn note_retry(&self, phase: &str, chunk: u32, shard: u32, attempt: u32, backoff_ms: u64) {
        if !self.telemetry.is_armed() {
            return;
        }
        let chunk = if chunk == EGRESS_CHUNK { "e".to_string() } else { chunk.to_string() };
        let site = format!("{phase}@{chunk}.{shard}");
        self.telemetry.event(
            "recovery_attempt",
            &[
                ("site", site.as_str().into()),
                ("attempt", attempt.into()),
                ("backoff_ms", backoff_ms.into()),
            ],
        );
        self.telemetry.count("retry_attempts", &site, 1);
    }

    /// Per-shard EPC peaks (bytes) for the current accounting epoch, in
    /// shard order (a relaunched shard's peak restarts with its new
    /// incarnation).
    pub fn peaks(&self) -> Vec<u64> {
        self.shards.iter().map(|sh| sh.enclave.epc.peak).collect()
    }

    /// Per-shard live EPC bytes (zero after a balanced round).
    pub fn live(&self) -> Vec<u64> {
        self.shards.iter().map(|sh| sh.enclave.epc.live).collect()
    }

    /// True if any shard's epoch peak exceeds its own EPC limit — the
    /// sharded deployment's paging predicate.
    pub fn any_would_page(&self) -> bool {
        self.shards.iter().any(|sh| sh.enclave.epc.would_page())
    }
}

/// An egress receipt: `stripe hash ‖ cell tally` — what the shard answers
/// with, and what the coordinator expects from what it sent.
fn stripe_receipt(stripe: &[u8], cells: u64) -> Vec<u8> {
    [&digest(stripe)[..], &cells.to_be_bytes()].concat()
}

/// Unseals and decodes one shard checkpoint inside `enclave`, enforcing
/// the pinned counter floor and the current round epoch.
fn restore_ckpt(
    enclave: &mut Enclave,
    blob: &[u8],
    floor: u64,
    round_epoch: u64,
) -> Result<(u64, u64), ShardFailure> {
    let plain =
        enclave.unseal_with_floor(blob, SHARD_CKPT_LABEL, floor).map_err(ShardFailure::Seal)?;
    let corrupt = |_: StateError| ShardFailure::Seal(TeeError::AuthFailure);
    let mut r = StateReader::new(&plain);
    let version = r.get_u64().map_err(corrupt)?;
    let epoch = r.get_u64().map_err(corrupt)?;
    if version != SHARD_CKPT_VERSION || epoch != round_epoch {
        // Genuine blob, wrong generation: a cross-round rollback.
        return Err(ShardFailure::Seal(TeeError::StaleSeal));
    }
    Ok((r.get_u64().map_err(corrupt)?, r.get_u64().map_err(corrupt)?))
}

/// Emits one `fault_fired` telemetry event for a consumed fault-plan
/// event, labeled with the `kind@chunk.shard` site grammar shared with
/// `OLIVE_FAULTS` scripts.
pub(crate) fn note_fault(telemetry: &Telemetry, kind: FaultKind, chunk: u32, shard: u32) {
    if telemetry.is_armed() {
        let site = FaultEvent { kind, chunk, shard }.render();
        telemetry.event("fault_fired", &[("site", site.as_str().into())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::{random_updates, shard_runtime as runtime};
    use crate::aggregation::{Aggregator, AggregatorKind, StreamingAggregator};
    use crate::round::{Ledger, RoundEngine, RoundError};
    use olive_memsim::{FaultEvent, NullTracer};
    use olive_tee::EpcBudget;

    /// A single-threaded round engine of `kind` over the shard plane `rt`.
    fn engine(kind: AggregatorKind, d: usize, k: usize, rt: ShardRuntime) -> RoundEngine {
        let ledger = Ledger::new(EpcBudget::default(), Some(rt), Telemetry::off());
        RoundEngine::new(StreamingAggregator::new(kind, d, 1), k, 1, ledger)
    }

    /// The shard-plane error behind a failed engine call.
    fn shard_error(e: RoundError) -> ShardError {
        match e {
            RoundError::Shard(e) => e,
            other => panic!("expected a shard error, got {other:?}"),
        }
    }

    #[test]
    fn sharded_matches_monolithic_bitwise() {
        let (d, n, k) = (96, 24, 6);
        let updates = random_updates(n, k, d, 11);
        let mut mono = StreamingAggregator::new(AggregatorKind::Advanced, d, 1);
        for chunk in updates.chunks(5) {
            mono.ingest(chunk, &mut NullTracer);
        }
        let want = mono.finalize(&mut NullTracer);
        for shards in [1usize, 2, 4, 8] {
            let (got, end) = engine(AggregatorKind::Advanced, d, k, runtime(d, shards, 3))
                .run(updates.chunks(5), &mut NullTracer);
            let got = got.expect("fault-free round");
            let rt = end.shards.expect("the plane comes back");
            assert_eq!(rt.peaks().len(), shards);
            assert!(rt.live().iter().all(|&b| b == 0), "S={shards}: budgets must balance");
            assert_eq!(end.coordinator.live, 0, "S={shards}: coordinator must balance");
            let same = want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "S={shards} changed the round output");
        }
    }

    /// A shard budget carries exactly what the shard decrypts and holds —
    /// a chunk descriptor while it is tallied, its stripe at egress — so a
    /// completed round peaks at the larger of the two (the 24-byte frame
    /// at S = 4, the stripe at S = 1 here), and every budget is empty after
    /// a completed, an aborted and a `crash@`-killed round alike.
    #[test]
    fn shard_budgets_track_stripe_share_plus_transport() {
        let (d, n, k, chunk) = (20, 40, 8, 20);
        let updates = random_updates(n, k, d, 9);
        let frame = 24u64;
        let tamper = FaultEvent { kind: FaultKind::TunnelTamper, chunk: 1, shard: 0 };
        let exhausting = FaultPlan::from_events(vec![tamper; RetryPolicy::MAX_ATTEMPTS as usize]);
        let crash = FaultPlan::parse("crash@0").expect("well-formed script");
        for shards in [1usize, 4] {
            for (plan, completes) in
                [(FaultPlan::empty(), true), (exhausting.clone(), false), (crash.clone(), false)]
            {
                let mut rt = runtime(d, shards, 2);
                rt.set_fault_plan(plan);
                let mut eng = engine(AggregatorKind::Advanced, d, k, rt);
                let folded = updates.chunks(chunk).try_for_each(|c| {
                    eng.fold(c, 0, || (), &mut NullTracer)?;
                    eng.crash_point()
                });
                let (out, end) = match folded {
                    Ok(()) => eng.finish(&mut NullTracer),
                    Err(e) => (Err(e), eng.abort()),
                };
                assert_eq!(out.is_ok(), completes, "S={shards}: {out:?}");
                let rt = end.shards.expect("the plane comes back");
                assert!(rt.live().iter().all(|&b| b == 0), "S={shards}: shard budgets balance");
                assert_eq!(end.coordinator.live, 0, "S={shards}: the coordinator balances");
                if completes {
                    let want: Vec<u64> =
                        (0..shards).map(|i| frame.max(4 * rt.plan.range(i).len() as u64)).collect();
                    assert_eq!(rt.peaks(), want, "S={shards}");
                }
            }
        }
    }

    /// Checkpoint blobs stay shard-agnostic: the canonical aggregator
    /// state is the round's whole restorable truth, so a round sealed at
    /// S=4 restores at S=1 (and vice versa) — shard topology is runtime
    /// configuration, not persisted state.
    #[test]
    fn state_blob_is_shard_agnostic() {
        let (d, n, k) = (64, 12, 4);
        let updates = random_updates(n, k, d, 13);
        let kind = AggregatorKind::Grouped { h: 3 };
        let mut sharded = engine(kind, d, k, runtime(d, 4, 4));
        sharded.fold(&updates[..6], 0, || (), &mut NullTracer).expect("fault-free chunk");
        let blob = sharded.checkpoint_state();
        // A monolithic aggregator resumes from the sharded blob.
        let mut mono = StreamingAggregator::new(kind, d, 1);
        mono.load_state(&blob).expect("shard topology must not enter the blob");
        mono.ingest(&updates[6..], &mut NullTracer);
        let want = mono.finalize(&mut NullTracer);
        sharded.fold(&updates[6..], 0, || (), &mut NullTracer).expect("fault-free chunk");
        let got = sharded.finish(&mut NullTracer).0.expect("fault-free round");
        let same = want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "sharded and monolithic continuations must agree bitwise");
    }

    /// A faulted round — kills, tampers, drops, receipt corruption, a
    /// stale-seal rollback on restore — recovers to the *bitwise* same
    /// output as the fault-free round. That it finishes at all says the
    /// shard checkpoints carried every tally across the relaunches: the
    /// egress receipts would not match otherwise.
    #[test]
    fn scripted_faults_recover_bitwise() {
        let (d, n, k) = (96, 24, 6);
        let updates = random_updates(n, k, d, 17);
        let run = |plan: FaultPlan| {
            let mut rt = runtime(d, 4, 5);
            rt.set_fault_plan(plan);
            let mut eng = engine(AggregatorKind::Advanced, d, k, rt);
            for chunk in updates.chunks(5) {
                eng.fold(chunk, 0, || (), &mut NullTracer).expect("recovers");
            }
            let (out, end) = eng.finish(&mut NullTracer);
            let stats = end.shards.expect("the plane comes back").recovery_stats();
            (out.expect("recovers"), stats)
        };
        let (want, _) = run(FaultPlan::empty());
        let plan = FaultPlan::parse(
            "kill@2.1,stale@e.1,tamper@1.0,drop@3.2,tamper@e.3,receipt@e.0,kill@e.2",
        )
        .expect("well-formed script");
        let (got, stats) = run(plan);
        let same = want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "recovered round must be bitwise the fault-free one");
        assert_eq!(stats.relaunches, 2, "both kills trigger failover");
        assert!(stats.retries >= 4, "tampers/drops/receipt/stale each cost a retry");
        assert!(stats.backoff_ms > 0, "retries accrue simulated backoff");
    }

    /// Satellite regression (the shard sibling of the coordinator's PR 4
    /// test): across relaunch → unseal → reseal, the shard's checkpoint
    /// counters stay strictly monotone — the pinned floor survives the
    /// enclave's death, so no incarnation can ever reuse a sealing nonce
    /// or accept a rolled-back blob.
    #[test]
    fn shard_seal_counter_continuity_across_relaunch() {
        let (d, n, k) = (64, 16, 4);
        let updates = random_updates(n, k, d, 19);
        let mut rt = runtime(d, 2, 6);
        // Two kills of shard 0, the second served a rolled-back blob.
        rt.set_fault_plan(
            FaultPlan::parse("kill@2.0,kill@3.0,stale@e.0").expect("well-formed script"),
        );
        let mut floors_seen = vec![0u64];
        for chunk in updates.chunks(4) {
            rt.ingress_chunk(chunk).expect("recovers");
            let f = rt.shards[0].ckpt.floor();
            assert!(
                f > *floors_seen.last().expect("seeded"),
                "checkpoint counter must advance strictly past {floors_seen:?}"
            );
            floors_seen.push(f);
        }
        rt.egress_round(&vec![0.5; d]).expect("recovers");
        let stats = rt.recovery_stats();
        assert_eq!(stats.relaunches, 2);
        assert!(stats.retries >= 1, "the stale blob costs one recovery retry");
    }

    /// Exhausting the retry budget yields a structured error naming the
    /// shard, the attempts, and the terminal failure — never a panic —
    /// and leaves every budget balanced.
    #[test]
    fn recovery_exhaustion_is_a_structured_error() {
        let (d, n, k) = (64, 8, 4);
        let updates = random_updates(n, k, d, 23);
        let exhaust = |event: FaultEvent, seed: u8| {
            let mut rt = runtime(d, 2, seed);
            rt.set_fault_plan(FaultPlan::from_events(vec![
                event;
                RetryPolicy::MAX_ATTEMPTS as usize
            ]));
            let (out, end) = engine(AggregatorKind::NonOblivious, d, k, rt)
                .run([updates.as_slice()], &mut NullTracer);
            let rt = end.shards.expect("the plane comes back");
            assert!(rt.live().iter().all(|&b| b == 0), "an aborted round must balance");
            assert_eq!(end.coordinator.live, 0, "an aborted round must balance");
            shard_error(out.expect_err("budget exhausted"))
        };
        let err = exhaust(FaultEvent { kind: FaultKind::TunnelTamper, chunk: 0, shard: 1 }, 8);
        assert_eq!(
            err,
            ShardError {
                shard: 1,
                attempts: RetryPolicy::MAX_ATTEMPTS,
                failure: ShardFailure::Tunnel(TunnelError::AuthFailure),
            }
        );
        // Drops exhaust to their own terminal failure.
        let err =
            exhaust(FaultEvent { kind: FaultKind::TunnelDrop, chunk: EGRESS_CHUNK, shard: 0 }, 9);
        assert_eq!(err.failure, ShardFailure::Dropped);
        assert_eq!(err.shard, 0);
    }

    /// The receipt's second half: a shard whose tally is one chunk short
    /// of what the coordinator delivered — what a failover that lost a
    /// chunk would leave behind — fails egress with a structured
    /// `ReceiptMismatch` on every attempt, never a delta.
    #[test]
    fn a_shard_tally_one_chunk_short_fails_egress() {
        let (d, k) = (64, 4);
        let updates = random_updates(8, k, d, 29);
        let mut rt = runtime(d, 2, 10);
        for chunk in updates.chunks(4) {
            rt.ingress_chunk(chunk).expect("fault-free delivery");
        }
        rt.shards[1].cells -= 4 * k as u64;
        let err = rt.egress_round(&vec![0.5; d]).expect_err("the tally is short");
        let (attempts, failure) = (RetryPolicy::MAX_ATTEMPTS, ShardFailure::ReceiptMismatch);
        assert_eq!(err, ShardError { shard: 1, attempts, failure });
        assert!(rt.live().iter().all(|&b| b == 0), "a refused egress still balances");
    }
}
