//! The Olive system: Algorithm 1 (and its DP variant, Algorithm 6)
//! end-to-end on the simulated TEE.
//!
//! Round flow, mirroring the paper line by line:
//! 1. provisioning — every client remote-attests the enclave and derives a
//!    per-user AES-GCM session key (line 1);
//! 2. each round, the enclave samples participants `Q_t` (line 5);
//! 3. sampled clients locally train, top-k sparsify, optionally clip, and
//!    encrypt their deltas (lines 7, 15–23);
//! 4. the enclave verifies membership and authenticity, decrypts
//!    (lines 8–11), and aggregates **obliviously** (line 12) — under the
//!    chosen [`AggregatorKind`], with every adversary-visible access
//!    reported to the caller's [`ParallelTracer`]. This is the
//!    [`RoundEngine`]'s sealed-round driver (`open` from the checkpoint
//!    store → `ingest` → `finish`; this module only supplies the preamble
//!    — sample–train–seal, or after a crash relaunch–re-attest–
//!    re-provision): uploads are opened a chunk at a time (decrypted
//!    across the round's workers, accepted in upload order — the verdicts
//!    of [`Enclave::open_upload_batch`]) and folded incrementally,
//!    bounding the enclave working set at O(chunk·k + d·threads), with
//!    chunk i+1 staged while chunk i folds;
//! 5. in DP mode the enclave perturbs the aggregate with Gaussian noise
//!    calibrated to (σ, C) before it leaves the enclave (Algorithm 6
//!    line 12), and the RDP accountant tracks the spent budget;
//! 6. the update is applied to the global model and the enclave signs the
//!    result so clients can detect server-side tampering (Section 5.6).

use olive_data::ClientData;
use olive_dp::{GaussianMechanism, RdpAccountant};
use olive_fl::{local_update, sample_clients, ClientConfig, FedAvgServer};
use olive_memsim::{FaultPlan, ParallelTracer, RuntimeConfig};
use olive_nn::Model;
use olive_tee::{
    AttestationService, ClientSession, Enclave, EnclaveConfig, SealedMessage, SealedStore, UserId,
};
use olive_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::aggregation::advanced::sum_advanced_bytes;
use crate::aggregation::{AggregatorKind, ShardRuntime, StreamingAggregator};
use crate::round::{upload_cell_bytes, Ledger, RoundEngine, RoundShape, SealedRound};

pub use crate::round::{RoundError, RoundTelemetry};

/// Attestation user data binding the enclave quote to the FL protocol.
const ATTEST_CONTEXT: &[u8] = b"olive-fl-v1";

/// Central-DP configuration (Algorithm 6).
#[derive(Clone, Copy, Debug)]
pub struct DpConfig {
    /// Noise multiplier σ.
    pub sigma: f64,
    /// ℓ2 clipping bound C.
    pub clip: f32,
    /// Target δ for ε reporting.
    pub delta: f64,
}

/// System configuration.
#[derive(Clone, Debug)]
pub struct OliveConfig {
    /// Total registered clients N.
    pub n_clients: usize,
    /// Per-round sampling rate q.
    pub sample_rate: f64,
    /// Client-side training hyperparameters (includes the sparsifier).
    pub client: ClientConfig,
    /// Which in-enclave aggregation algorithm to run.
    pub aggregator: AggregatorKind,
    /// Server learning rate η_s.
    pub server_lr: f32,
    /// Enable Algorithm 6 (client clipping + enclave Gaussian noise).
    pub dp: Option<DpConfig>,
    /// Master seed (sampling, training batch order, DP noise).
    pub seed: u64,
}

/// What one round produced — including everything the *adversary* gets
/// (the processing order of users, needed by the attack's trace parser).
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round counter t.
    pub round: u64,
    /// Users processed, in upload-processing order (public to the server).
    pub processed_users: Vec<UserId>,
    /// Per-user transmitted k (public: ciphertext length reveals it).
    pub k_per_user: usize,
    /// Cumulative (ε, δ)-DP spent, if DP mode is on.
    pub epsilon_spent: Option<f64>,
    /// Peak enclave working-set bytes observed during this round's
    /// chunked ingestion + aggregation (staged chunks, aggregator-resident
    /// state and transient scratch, charged per chunk).
    pub working_set_bytes: u64,
    /// Whether the round would page encrypted memory: the coordinator's
    /// working-set peak against the enclave's *configured* EPC budget
    /// (`EnclaveConfig::epc_bytes` — not a hardcoded constant), or any
    /// shard enclave's own peak against its own.
    pub would_page: bool,
    /// Per-shard EPC peaks (bytes) observed this round, in stripe order:
    /// the larger of a 24-byte chunk descriptor and the shard's egress
    /// stripe — what a shard enclave decrypts, not a share of the
    /// coordinator's working set. Empty when the round ran monolithically
    /// (S = 1).
    pub shard_peaks: Vec<u64>,
    /// Enclave signature over the updated global parameters.
    pub model_signature: [u8; 32],
    /// Deterministic side-band telemetry summary (chunk/checkpoint
    /// accounting, and an always-zero recovery record).
    pub telemetry: RoundTelemetry,
}

/// The running system: server + enclave + provisioned clients.
pub struct OliveSystem {
    /// The FedAvg server (global model lives here).
    pub server: FedAvgServer,
    enclave: Enclave,
    service: AttestationService,
    enclave_cfg: EnclaveConfig,
    seed_bytes: [u8; 32],
    sessions: Vec<ClientSession>,
    clients: Vec<ClientData>,
    scratch: Model,
    cfg: OliveConfig,
    rng: SmallRng,
    round: u64,
    accountant: RdpAccountant,
    /// The round knobs — workers, chunk size, shard count and the
    /// side-band metrics handle — fixed at provisioning, each overridable
    /// by its setter. The handle is threaded through the enclave, every
    /// client session and the shard plane, and re-threaded across every
    /// relaunch.
    runtime: RuntimeConfig,
    /// The provisioned shard plane when rounds run sharded (S > 1);
    /// `None` on the monolithic path. Lazily (re)built by
    /// [`OliveSystem::ensure_shard_runtime`] whenever the shard count
    /// changes. Shard enclaves model separate machines: they survive a
    /// coordinator crash, but the restore path re-provisions them anyway
    /// (fresh tunnels to the relaunched coordinator).
    shard_rt: Option<ShardRuntime>,
    /// Provisioning generation of the shard plane. Mixed into the shard
    /// platform seeds so a re-provisioned plane (after a coordinator
    /// restore) presents *fresh* DH shares: the relaunched coordinator's
    /// are its old ones, so the same shard keys would re-derive the same
    /// tunnel keys, and the restarted frame sequence would reuse the
    /// aborted round's AES-GCM nonces under them.
    shard_provision_epoch: u32,
    /// The crash points the next call that drives a round arms: an
    /// explicit script ([`OliveSystem::set_fault_plan`]), or what an
    /// interrupted round left unfired.
    pending_faults: FaultPlan,
    /// The interrupted round awaiting [`OliveSystem::restore_round`]:
    /// untrusted server-side material (public sample, ciphertexts) that
    /// survives an enclave crash.
    pending: Option<PendingRound>,
    /// Untrusted checkpoint storage: the newest sealed restore point of
    /// the round in flight, and the rollback-protected pin of its seal
    /// counter — [`OliveSystem::restore_round`] refuses any blob sealed
    /// earlier.
    ckpts: SealedStore,
}

/// The untrusted remainder of an in-flight round: everything that lives
/// *outside* the enclave and therefore survives a crash. The sampled set
/// is public (Algorithm 1 publishes the processing order), the sealed
/// uploads are ciphertexts in server memory, and the replay floors are
/// nonce counters already visible on the wire — integrity of all of it is
/// enforced by the sealed checkpoint, not by this struct.
struct PendingRound {
    sampled: Vec<UserId>,
    sealed: Vec<SealedMessage>,
    /// Round counter, per-client k, and the chunk geometry and thread
    /// budget the round started with — so a restore, also of a round
    /// that died *before its first checkpoint* (e.g. a refused upload in
    /// chunk 0), runs the same schedule.
    shape: RoundShape,
    /// Replay floors as of round start (before any upload was opened) —
    /// kept as they were across any number of restores: the sealed prefix
    /// digest is seeded with them, so a restore over other floors fails.
    base_floors: Vec<(UserId, u64)>,
    /// DP/sampling generator state right after the sample was drawn
    /// (training seeds are derived per-user, not drawn from this stream,
    /// so post-prepare the next draw is the finalize-time noise).
    rng_after_prepare: [u64; 4],
}

impl OliveSystem {
    /// Provisions the system: launches the enclave, runs remote
    /// attestation with every client, and registers the session keys
    /// (Algorithm 1 line 1), under the default enclave configuration and
    /// the process's [`RuntimeConfig`]. Panics if any client rejects the
    /// enclave — in the simulation that indicates a harness bug.
    pub fn new(model: Model, clients: Vec<ClientData>, cfg: OliveConfig) -> Self {
        let runtime = RuntimeConfig::process().clone();
        Self::with_enclave_config(model, clients, cfg, EnclaveConfig::default(), runtime)
    }

    /// [`OliveSystem::new`] with an explicit enclave configuration and
    /// explicit round knobs. The enclave configuration is how a deployment
    /// with a different usable-EPC budget (or code identity) is
    /// provisioned: [`RoundReport::would_page`] compares the observed
    /// working-set peak against *its* `epc_bytes`. `runtime` takes the
    /// place of the process's [`RuntimeConfig`]; a zero thread, chunk or
    /// shard count panics, as in the setters.
    pub fn with_enclave_config(
        model: Model,
        clients: Vec<ClientData>,
        cfg: OliveConfig,
        enclave_cfg: EnclaveConfig,
        runtime: RuntimeConfig,
    ) -> Self {
        assert_eq!(clients.len(), cfg.n_clients, "client shards vs n_clients mismatch");
        assert!(cfg.client.batch_size > 0, "client batch size must be positive");
        assert!(runtime.threads >= 1, "thread count must be at least 1");
        assert!(runtime.chunk >= 1, "chunk size must be at least 1");
        assert!(runtime.shards >= 1, "shard count must be at least 1");
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&cfg.seed.to_be_bytes());
        let telemetry = &runtime.metrics;
        let service = AttestationService::new(seed_bytes);
        let mut enclave = Enclave::launch(&enclave_cfg, seed_bytes);
        enclave.set_telemetry(telemetry.clone());
        let users = clients.iter().map(|c| c.user);
        let mut sessions =
            provision_clients(&service, &mut enclave, ATTEST_CONTEXT, seed_bytes, users);
        for session in &mut sessions {
            session.set_telemetry(telemetry.clone());
        }
        let scratch = model.clone();
        let server = FedAvgServer::new(model, cfg.server_lr);
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x011F_E5EED);
        OliveSystem {
            server,
            enclave,
            service,
            enclave_cfg,
            seed_bytes,
            sessions,
            clients,
            scratch,
            cfg,
            rng,
            round: 0,
            accountant: RdpAccountant::new(),
            runtime,
            shard_rt: None,
            shard_provision_epoch: 0,
            pending_faults: FaultPlan::empty(),
            pending: None,
            ckpts: SealedStore::default(),
        }
    }

    /// Replaces the system-wide telemetry handle and re-threads it
    /// through every instrumented component: the coordinator enclave,
    /// every client session, and the shard plane (if provisioned).
    /// Arming or swapping the sink never perturbs round output,
    /// signature or trace — telemetry is strictly side-band.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.runtime.metrics = telemetry.clone();
        self.enclave.set_telemetry(telemetry.clone());
        for s in &mut self.sessions {
            s.set_telemetry(telemetry.clone());
        }
        if let Some(rt) = self.shard_rt.as_mut() {
            rt.set_telemetry(telemetry);
        }
    }

    /// Pins the worker-thread count for parallel round work (client-side
    /// training and the grouped aggregation), in place of the
    /// [`RuntimeConfig::threads`] the system was provisioned with; `1`
    /// forces the exact serial code paths and traces.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "thread count must be at least 1");
        self.runtime.threads = threads;
    }

    /// The worker-thread count rounds will use.
    pub fn threads(&self) -> usize {
        self.runtime.threads
    }

    /// Pins the ingestion chunk size (clients opened, decoded and folded
    /// per step), in place of [`RuntimeConfig::chunk`]. The chunk size is
    /// public and does not affect the round output or the aggregation
    /// trace — only the enclave's peak working set and the open/aggregate
    /// overlap granularity.
    pub fn set_chunk(&mut self, chunk: usize) {
        assert!(chunk >= 1, "chunk size must be at least 1");
        self.runtime.chunk = chunk;
    }

    /// The ingestion chunk size rounds will use.
    pub fn chunk(&self) -> usize {
        self.runtime.chunk
    }

    /// Pins the shard count (stripes of the `G` dimension, one enclave
    /// per stripe), in place of [`RuntimeConfig::shards`]. Sharding is
    /// public topology and changes neither the round output nor the
    /// trace — only how the enclave memory plane is partitioned. The
    /// effective count is clamped to the model dimension (a stripe must
    /// be non-empty).
    pub fn set_shards(&mut self, shards: usize) {
        assert!(shards >= 1, "shard count must be at least 1");
        self.runtime.shards = shards;
    }

    /// The shard count rounds will use.
    pub fn shards(&self) -> usize {
        self.runtime.shards
    }

    /// (Re)provisions the shard plane to match the configured count:
    /// drops it on the monolithic path, keeps a matching runtime, and
    /// launches + mutually attests a fresh one when the count changed.
    /// The coordinator re-attests under [`ATTEST_CONTEXT`] — the same
    /// user data as client provisioning, so its transcript (which every
    /// client session key is bound to) is unchanged.
    ///
    /// Each provisioning generation mixes a fresh epoch into the shard
    /// platform seeds: a re-provisioned plane must not reuse its
    /// predecessor's tunnel keys, or the new tunnels' restarted frame
    /// sequences would repeat AES-GCM nonces under them.
    fn ensure_shard_runtime(&mut self) -> Result<(), RoundError> {
        let s = self.shards().min(self.server.dim());
        if s <= 1 {
            self.shard_rt = None;
            return Ok(());
        }
        if self.shard_rt.as_ref().is_some_and(|rt| rt.shards() == s) {
            return Ok(());
        }
        self.shard_provision_epoch += 1;
        let _span = self.runtime.metrics.span(
            "shard_provision",
            &[
                ("shards", (s as u64).into()),
                ("d", (self.server.dim() as u64).into()),
                ("epoch", self.shard_provision_epoch.into()),
            ],
        );
        let mut seed = self.seed_bytes;
        for (b, e) in seed[8..12].iter_mut().zip(self.shard_provision_epoch.to_be_bytes()) {
            *b ^= e;
        }
        let mut rt = ShardRuntime::provision(
            &self.service,
            &mut self.enclave,
            ATTEST_CONTEXT,
            seed,
            self.enclave_cfg.epc_bytes,
            self.server.dim(),
            s,
        )?;
        rt.set_telemetry(self.runtime.metrics.clone());
        self.shard_rt = Some(rt);
        Ok(())
    }

    /// Arms coordinator crash points for the next [`run_round`] — or,
    /// while a round is interrupted, for its next [`restore_round`]
    /// (replacing what is left of that round's script). A crash fires at
    /// every S, right after its chunk is folded and checkpointed, as
    /// [`RoundError::CoordinatorKilled`].
    ///
    /// This is the only way to arm a crash. The crash points that have
    /// not fired when the round is interrupted span its restores;
    /// whatever is left when the round completes is dropped with it, so
    /// the next round starts with nothing armed.
    ///
    /// [`run_round`]: OliveSystem::run_round
    /// [`restore_round`]: OliveSystem::restore_round
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.pending_faults = plan;
    }

    /// Live EPC bytes on the coordinator's budget followed by every shard
    /// budget, in stripe order — all zero between rounds, *also* after an
    /// aborted one (the engine's ledger releases on abort).
    pub fn epc_live(&self) -> Vec<u64> {
        let shards = self.shard_rt.as_ref().map(|rt| rt.live()).unwrap_or_default();
        std::iter::once(self.enclave.epc.live).chain(shards).collect()
    }

    /// The current global parameters θ_t.
    pub fn global_params(&self) -> Vec<f32> {
        self.server.params()
    }

    /// Model dimension d.
    pub fn dim(&self) -> usize {
        self.server.dim()
    }

    /// The label set of a client (ground truth for attack evaluation —
    /// *not* visible to the adversary).
    pub fn client_label_set(&self, user: UserId) -> &[usize] {
        &self.clients[user as usize].label_set
    }

    /// Runs one full round (Algorithm 1 lines 4–14 / Algorithm 6),
    /// reporting the enclave's memory accesses during aggregation to `tr`.
    ///
    /// The enclave never materializes the whole round: the sealed uploads
    /// go through the [`RoundEngine`] in chunks of [`OliveSystem::chunk`]
    /// clients (its ledger charging the EPC budget per chunk; each chunk
    /// folds and then the next one opens, each step on all of the round's
    /// workers). The round output and the aggregation
    /// trace are bitwise identical at every chunk size (the streaming
    /// contract), so this changes memory and throughput, never results.
    ///
    /// Rounds are **crash-safe**: after every folded chunk the enclave
    /// seals a restore point (round counter, RNG state, one digest of
    /// the round-start replay floors and the folded uploads in order, and
    /// whatever of the aggregator cannot be recomputed from the round's
    /// own sealed uploads) under `"round-ckpt"`, so a crashed
    /// round — a scripted crash ([`OliveSystem::set_fault_plan`])
    /// surfaces as [`RoundError::CoordinatorKilled`] — resumes via
    /// [`OliveSystem::restore_round`] instead of restarting, bitwise
    /// identical in output and trace to an uninterrupted run.
    ///
    /// Sharded rounds (S > 1) do not heal in-band: a shard tunnel frame
    /// that does not open, or a stripe receipt that does not match, ends
    /// the round at once with [`RoundError::Shard`].
    ///
    /// An upload the enclave refuses (tampered, replayed, malformed) ends
    /// the round with [`RoundError::Upload`] naming its slot — after the
    /// chunks before it are folded and checkpointed, never a panic.
    ///
    /// On any `Err` the round stays pending ([`OliveSystem::interrupted`])
    /// with every EPC budget balanced, and
    /// [`OliveSystem::restore_round`] finishes it.
    pub fn run_round<TR: ParallelTracer>(
        &mut self,
        tr: &mut TR,
    ) -> Result<RoundReport, RoundError> {
        assert!(
            self.pending.is_none(),
            "an interrupted round must be restored (restore_round) before starting a new one"
        );
        self.ensure_shard_runtime()?;
        let _round_span = self.runtime.metrics.span("round", &[("round", self.round.into())]);
        let pending = self.prepare_round();
        if pending.sampled.is_empty() {
            return Ok(self.finish_empty_round(pending.shape.round));
        }
        self.drive(pending, tr)
    }

    /// Algorithm 1 lines 4–7 + 15–23: sample, train, sparsify, encrypt.
    /// Everything this returns lives in *untrusted* server memory — it is
    /// the part of a round that survives an enclave crash.
    fn prepare_round(&mut self) -> PendingRound {
        let t = self.round;
        // Line 5: secure in-enclave sampling.
        let sampled = sample_clients(self.cfg.n_clients, self.cfg.sample_rate, &mut self.rng);
        let _span = self.runtime.metrics.span(
            "sample",
            &[("round", t.into()), ("participants", (sampled.len() as u64).into())],
        );
        self.enclave.begin_round(t, sampled.clone());
        let base_floors = self.enclave.replay_floors();

        // Lines 7 + 15–23: local training, sparsify, clip, encrypt. The
        // ciphertexts sit in *untrusted* server memory (no EPC pressure)
        // until the enclave pulls them in chunk by chunk.
        let global = self.server.params();
        let mut client_cfg = self.cfg.client;
        if let Some(dp) = self.cfg.dp {
            client_cfg.clip = Some(dp.clip);
        }
        let sealed = self.train_and_seal(&sampled, &global, &client_cfg, t);
        let k = sealed.first().map_or(0, |m| upload_cell_bytes(m) / 8);
        let shape = RoundShape { round: t, chunk_size: self.chunk(), threads: self.threads(), k };
        PendingRound { sampled, sealed, shape, base_floors, rng_after_prepare: self.rng.state() }
    }

    /// An honest Poisson sample is empty with probability `(1−q)^N`.
    /// Before this short-circuit that shape reached `finalize` with
    /// n = 0, where the linear average's 0/0 produced NaN deltas that
    /// poisoned the global model. Zero participants mean zero privacy
    /// loss, so DP mode adds no noise and composes nothing — the
    /// accountant's running ε is simply re-reported.
    fn finish_empty_round(&mut self, t: u64) -> RoundReport {
        let delta = vec![0.0f32; self.server.dim()];
        self.server.apply_aggregate(&delta);
        let model_signature = self.sign_params(t);
        self.round += 1;
        let report = RoundReport {
            round: t,
            processed_users: Vec::new(),
            k_per_user: 0,
            epsilon_spent: self.cfg.dp.map(|dp| self.accountant.epsilon(dp.delta)),
            working_set_bytes: 0,
            would_page: false,
            // No engine ran, so no shard was charged anything.
            shard_peaks: self.shard_rt.as_ref().map(|rt| vec![0; rt.shards()]).unwrap_or_default(),
            model_signature,
            telemetry: RoundTelemetry::default(),
        };
        self.runtime.metrics.flush_stats();
        report
    }

    /// Lines 8–12 (+ Algorithm 6 line 12 and line 14): the sealed uploads
    /// through the [`RoundEngine`] under the adversary's tracer — opened
    /// from the checkpoint store, ingested, finished — then noise, apply,
    /// sign. A fresh round finds the store empty and starts at chunk 0; a
    /// restore finds the interrupted round's newest restore point. Either
    /// way it is the same two calls.
    ///
    /// The engine takes the coordinator's budget, the shard plane and the
    /// round's crash points for the round and hands them back when it
    /// ends — so there is one exit for every abort (stored material that
    /// does not resume, a refused upload, a shard failure at ingress or
    /// egress, a scripted coordinator crash): the round goes back to
    /// pending, the invocation's counters are flushed, and the error
    /// surfaces.
    fn drive<TR: ParallelTracer>(
        &mut self,
        pending: PendingRound,
        tr: &mut TR,
    ) -> Result<RoundReport, RoundError> {
        let t = pending.shape.round;
        let agg =
            StreamingAggregator::new(self.cfg.aggregator, self.server.dim(), pending.shape.threads);
        let mut ledger =
            Ledger::new(self.enclave.epc, self.shard_rt.take(), self.runtime.metrics.clone());
        ledger.arm(std::mem::take(&mut self.pending_faults));
        let round = SealedRound {
            shape: pending.shape,
            uploads: &pending.sealed,
            base_floors: &pending.base_floors,
            rng_state: pending.rng_after_prepare,
        };
        let ingested = RoundEngine::open(agg, &round, &mut self.enclave, Some(&self.ckpts), ledger)
            .and_then(|engine| {
                engine.ingest(round.uploads, &mut self.enclave, Some(&mut self.ckpts), tr)
            });
        let fin_span =
            ingested.is_ok().then(|| self.runtime.metrics.span("finalize", &[("round", t.into())]));
        let (delta, end) = match ingested {
            Ok(engine) => engine.finish(tr),
            Err((e, end)) => (Err(e), *end),
        };
        self.enclave.epc = end.coordinator;
        self.shard_rt = end.shards;
        // The generator lives in the enclave: after a crash it is what the
        // restore point sealed, not what the dead enclave held.
        self.rng = SmallRng::from_state(end.rng_state);
        let mut delta = match delta {
            Ok(delta) => delta,
            Err(e) => {
                drop(fin_span);
                if let RoundError::CoordinatorKilled { .. } = e {
                    // The simulated crash: enclave memory — aggregator
                    // state, staged plaintexts, session keys, replay
                    // floors, seal counters — vanishes with the dying
                    // enclave. What survives is untrusted storage (the
                    // round's ciphertexts and the sealed checkpoint) plus
                    // the rollback-protected counter floor. The shard
                    // enclaves model separate machines and outlive the
                    // crash; the restore path re-provisions their tunnels
                    // against the relaunched coordinator.
                    self.relaunch_enclave();
                }
                self.pending_faults = end.faults;
                self.pending = Some(pending);
                self.runtime.metrics.flush_stats();
                return Err(e);
            }
        };

        // Algorithm 6 line 12: enclave-side Gaussian perturbation. The
        // finalize() above divides by the realized n; Algorithm 6 scales
        // by qN, so rescale before noising.
        let n = pending.sampled.len();
        let epsilon_spent = if let Some(dp) = self.cfg.dp {
            let qn = (self.cfg.sample_rate * self.cfg.n_clients as f64) as f32;
            let rescale = n as f32 / qn.max(1.0);
            for x in &mut delta {
                *x *= rescale;
            }
            let mech = GaussianMechanism::new(dp.sigma / qn.max(1.0) as f64, dp.clip);
            mech.perturb(&mut delta, &mut self.rng);
            self.accountant.add_subsampled_gaussian(self.cfg.sample_rate, dp.sigma, 1);
            Some(self.accountant.epsilon(dp.delta))
        } else {
            None
        };

        // Line 14: global update + enclave signature (Section 5.6).
        self.server.apply_aggregate(&delta);
        let model_signature = self.sign_params(t);

        self.round += 1;
        // The round is durable in the model now; the checkpoint is dead
        // weight (and so is what is left of the round's crash points,
        // dropped with `end`).
        self.ckpts.newest = None;
        let rt = self.shard_rt.as_ref();
        let report = RoundReport {
            round: t,
            processed_users: pending.sampled,
            k_per_user: pending.shape.k,
            epsilon_spent,
            working_set_bytes: self.enclave.epc.peak,
            would_page: self.enclave.epc.would_page() || rt.is_some_and(|rt| rt.any_would_page()),
            shard_peaks: rt.map(|rt| rt.peaks()).unwrap_or_default(),
            model_signature,
            telemetry: end.telemetry,
        };
        drop(fin_span);
        // Drain the accumulated counters/histograms at the round
        // boundary — a deterministic point, so the stream's record order
        // is reproducible run to run.
        self.runtime.metrics.flush_stats();
        Ok(report)
    }

    /// Whether an aborted round is awaiting [`OliveSystem::restore_round`].
    pub fn interrupted(&self) -> bool {
        self.pending.is_some()
    }

    /// The newest sealed checkpoint as untrusted storage holds it (test
    /// hook: what an attacker could copy).
    pub fn checkpoint_blob(&self) -> Option<&[u8]> {
        self.ckpts.newest.as_deref()
    }

    /// Replaces the stored checkpoint blob (test hook: the
    /// tamper/rollback attacker writing to untrusted storage).
    pub fn set_checkpoint_blob(&mut self, blob: Vec<u8>) {
        self.ckpts.newest = Some(blob);
    }

    /// Cold (re)launch of the coordinator enclave: same platform seed ⇒
    /// same sealing key and DH keypair, everything in enclave memory gone.
    fn relaunch_enclave(&mut self) {
        self.enclave = Enclave::launch(&self.enclave_cfg, self.seed_bytes);
        self.enclave.set_telemetry(self.runtime.metrics.clone());
    }

    /// Recovers an interrupted round from the newest sealed checkpoint
    /// and runs it to completion.
    ///
    /// The restore path re-does provisioning from scratch — exactly what
    /// a crashed deployment does: relaunch the enclave (same platform
    /// seed ⇒ same sealing key and DH keypair, so existing client
    /// sessions stay valid), re-attest, re-register the session keys,
    /// and re-provision the shard plane (fresh tunnel keys via the
    /// provisioning epoch). From there it is
    /// [`OliveSystem::run_round`]'s path: [`RoundEngine::open`] unseals
    /// the stored blob against the rollback-protected floor, rebuilds the
    /// aggregator, rewinds the replay floors to round start and replays
    /// the folded prefix of the round's own sealed uploads, which must be
    /// exactly the prefix the checkpoint's digest sealed, in order, over
    /// the round's own round-start floors (a flipped, dropped,
    /// substituted or reordered upload never yields a different
    /// aggregate) — and ingestion continues from the next chunk. A round
    /// that died *before its first checkpoint* (a refused upload or shard
    /// failure in chunk 0) has no blob and is restarted whole from the
    /// untrusted round material — nothing was folded, so that too is
    /// exact. Output and trace are bitwise identical to the uninterrupted
    /// round. On error — including a further scripted crash — the
    /// interrupted round stays pending, so the caller can repair storage
    /// and retry.
    pub fn restore_round<TR: ParallelTracer>(
        &mut self,
        tr: &mut TR,
    ) -> Result<RoundReport, RoundError> {
        let pending = self.pending.as_ref().expect("restore_round requires an interrupted round");
        let _span = self.runtime.metrics.span(
            "round_restore",
            &[
                ("round", pending.shape.round.into()),
                ("has_checkpoint", self.ckpts.newest.is_some().into()),
            ],
        );

        // Cold relaunch + re-provisioning.
        self.relaunch_enclave();
        self.enclave.attest(&self.service, ATTEST_CONTEXT);
        for s in &self.sessions {
            self.enclave
                .register_client(s.user(), s.dh_public())
                .expect("the enclave re-attested above");
        }
        // A fresh coordinator means fresh tunnels: re-provision the shard
        // plane against the relaunched enclave (the shard machines
        // survived the crash, but their attested channels died with the
        // coordinator's ephemeral state).
        self.shard_rt = None;
        self.ensure_shard_runtime()?;

        let pending = self.pending.take().expect("checked above");
        self.enclave.begin_round(pending.shape.round, pending.sampled.clone());
        self.drive(pending, tr)
    }

    /// Signs `t ∥ θ` with the enclave's output key (Section 5.6).
    fn sign_params(&mut self, t: u64) -> [u8; 32] {
        self.enclave.sign_output(&signed_payload(t, &self.server.params()))
    }

    /// Each sampled client's whole step — local training, sparsify, clip,
    /// encode, seal (Algorithm 1 lines 15–23) — parallelized across the
    /// round's workers, the caller and pool threads (client-side compute,
    /// outside the enclave). The sample is ascending, so a worker owns the
    /// sessions of its own contiguous slice of it; it holds one update at a
    /// time and reuses one encode buffer.
    /// The uploads come back in sample order, the same bytes at every
    /// thread count: each session seals exactly one of them.
    fn train_and_seal(
        &mut self,
        sampled: &[UserId],
        global: &[f32],
        client_cfg: &ClientConfig,
        round: u64,
    ) -> Vec<SealedMessage> {
        let n_threads = self.threads();
        let (clients, seed) = (&self.clients, self.cfg.seed);
        let step = |model: &mut Model, buf: &mut Vec<u8>, session: &mut ClientSession| {
            let user = session.user();
            let data = &clients[user as usize].dataset;
            let update =
                local_update(model, global, data, client_cfg, seed ^ (round << 20) ^ user as u64);
            buf.resize(update.encoded_len(), 0);
            update.encode_to(buf);
            session.seal_upload(round, buf)
        };
        let mut sessions = sessions_of(&mut self.sessions, sampled);
        let (template, step) = (&self.scratch, &step);
        let chunk = sampled.len().div_ceil(n_threads).max(1);
        let mut parts: Vec<Vec<SealedMessage>> = vec![Vec::new(); sampled.len().div_ceil(chunk)];
        olive_oblivious::pool::join(parts.iter_mut().zip(sessions.chunks_mut(chunk)).map(
            |(part, mine)| {
                move || {
                    let (mut model, mut buf) = (template.clone(), Vec::new());
                    part.extend(mine.iter_mut().map(|session| step(&mut model, &mut buf, session)));
                }
            },
        ));
        parts.into_iter().flatten().collect()
    }

    /// Verifies an enclave model signature (what a client would do).
    pub fn verify_model_signature(&self, round: u64, params: &[f32], sig: &[u8; 32]) -> bool {
        self.enclave.verify_output(&signed_payload(round, params), sig)
    }
}

/// The byte string the enclave signs for round `t`: `t ∥ θ`.
fn signed_payload(t: u64, params: &[f32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(params.len() * 4 + 8);
    payload.extend_from_slice(&t.to_be_bytes());
    for p in params {
        payload.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    payload
}

/// The sessions of `sampled` — strictly ascending user ids, each its own
/// session's index — as disjoint mutable borrows, in sample order.
fn sessions_of<'a>(
    sessions: &'a mut [ClientSession],
    sampled: &[UserId],
) -> Vec<&'a mut ClientSession> {
    let mut rest = sessions.iter_mut().enumerate();
    let mut next = |user: UserId| rest.find(|(i, _)| *i == user as usize).expect("ascending");
    sampled.iter().map(|&user| next(user).1).collect()
}

/// Algorithm 1 line 1 for a set of clients: the enclave attests under
/// `context`, and every user verifies the quote, derives its session key
/// (seeded per user from `seed_bytes`) and is registered with the enclave.
/// Panics if a client rejects the enclave — in the simulation that
/// indicates a harness bug.
pub fn provision_clients(
    service: &AttestationService,
    enclave: &mut Enclave,
    context: &[u8],
    seed_bytes: [u8; 32],
    users: impl Iterator<Item = UserId>,
) -> Vec<ClientSession> {
    let quote = enclave.attest(service, context);
    let measurement = enclave.measurement();
    users
        .map(|user| {
            let mut cs = seed_bytes;
            cs[24..28].copy_from_slice(&user.to_be_bytes());
            cs[28] ^= 0xC1;
            let session =
                ClientSession::establish(user, service.public_key(), &measurement, &quote, cs)
                    .expect("attestation must succeed in the simulation");
            enclave
                .register_client(user, session.dh_public())
                .expect("the enclave attested above, so registration is permitted");
            session
        })
        .collect()
}

/// Working-set estimate (bytes) for each aggregator in closed form — what
/// the enclave holds at the round's peak (drives the EPC/grouping analysis
/// of Sections 5.3 and 5.5, e.g. the paper's 122 MB at n = 3000 on the
/// MNIST MLP). `n` is the participant count, `k` the per-client cell
/// count and `threads` the worker budget: the grouped algorithm keeps up
/// to `threads` group sort vectors (plus their partial sums) in flight per
/// wave, so its footprint scales with the worker count; the serial
/// algorithms ignore it. For Advanced this is to the byte the
/// `RoundReport::working_set_bytes` of a round — finalize is its peak,
/// and a checkpointed round can exceed it by at most the plaintext being
/// sealed beside the staged cells (a fixed 113-byte header with the
/// prefix digest, plus the aggregator's length-prefixed descriptor —
/// and not at all once that is below the 12·d bytes finalize adds).
/// For Grouped it leaves out the O(chunk·k) plaintext staged around a
/// fold (the chunk being folded and the look-ahead chunk) and the pending
/// partial unit resident beside it (fewer than h·threads clients' cells),
/// which a measured round carries on top — as it does the checkpoint
/// plaintext (header + the descriptor; no term in n, d or k). On the
/// benchmark's `grouped_t2` (n = 5000, k = 421, d = 4210, h = 64, two
/// threads, chunk 64) the measured 1,195,640 B is the closed form's
/// 548,984 B plus three 64-client runs of 215,552 B — the folded chunk,
/// the look-ahead and the group pending from the chunk before — not two.
pub fn working_set_bytes(
    kind: AggregatorKind,
    n: usize,
    k: usize,
    d: usize,
    threads: usize,
) -> u64 {
    let cell = 8u64;
    let nk = n * k;
    match kind {
        AggregatorKind::NonOblivious => nk as u64 * cell + d as u64 * 4,
        AggregatorKind::Baseline { cacheline_weights } => {
            nk as u64 * cell + (d.div_ceil(cacheline_weights) * cacheline_weights) as u64 * 4
        }
        AggregatorKind::Advanced => sum_advanced_bytes(nk, d),
        AggregatorKind::Grouped { h } => {
            // Per in-flight group: one sort vector + one d-sized partial;
            // shared: the running total (Section 5.3: this is exactly
            // what the optimization shrinks below cache/EPC size).
            let hk = h.max(1).min(n) * k;
            let groups = n.div_ceil(h.max(1)).max(1);
            let in_flight = threads.clamp(1, groups) as u64;
            in_flight * sum_advanced_bytes(hk, d) + d as u64 * 4
        }
        AggregatorKind::PathOram { posmap } => {
            // The full ORAM working set — tree, stash, position map
            // (recursively), access scratch — via the closed-form mirror
            // of the construction arithmetic, plus the staged cells.
            olive_oram::predicted_resident_bytes(d.max(1), 20, 16, posmap) + nk as u64 * cell
        }
        AggregatorKind::DiffOblivious { .. } => nk as u64 * cell * 2 + d as u64 * 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_data::synthetic::{Generator, SyntheticConfig};
    use olive_data::{partition, LabelAssignment};
    use olive_fl::{SparseGradient, Sparsifier};
    use olive_memsim::NullTracer;
    use olive_nn::zoo::mlp;
    use olive_tee::TeeError;

    /// The unit-test federation: 8 clients, top-10% sparsified MLP.
    fn tiny_parts(
        aggregator: AggregatorKind,
        dp: Option<DpConfig>,
    ) -> (Model, Vec<ClientData>, OliveConfig) {
        let gen = Generator::new(SyntheticConfig::tiny(12, 4), 3);
        let clients = partition(&gen, 8, LabelAssignment::Fixed(2), 10, 1);
        let model = mlp(12, 6, 4, 0.0, 5);
        let d = model.param_count();
        let cfg = OliveConfig {
            n_clients: 8,
            sample_rate: 0.5,
            client: ClientConfig {
                epochs: 1,
                batch_size: 5,
                lr: 0.1,
                sparsifier: Sparsifier::TopK(d / 10),
                clip: None,
            },
            aggregator,
            server_lr: 1.0,
            dp,
            seed: 77,
        };
        (model, clients, cfg)
    }

    fn tiny_system(aggregator: AggregatorKind, dp: Option<DpConfig>) -> OliveSystem {
        let (model, clients, cfg) = tiny_parts(aggregator, dp);
        OliveSystem::new(model, clients, cfg)
    }

    /// A tiny system that samples every client, in chunks of two.
    fn full_sample_system(kind: AggregatorKind, threads: usize, shards: usize) -> OliveSystem {
        let (model, clients, mut cfg) = tiny_parts(kind, None);
        cfg.sample_rate = 1.0;
        let mut sys = OliveSystem::new(model, clients, cfg);
        sys.set_threads(threads);
        sys.set_chunk(2);
        sys.set_shards(shards);
        sys
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_client_batch_size_is_rejected_at_provisioning() {
        let (model, clients, mut cfg) = tiny_parts(AggregatorKind::NonOblivious, None);
        cfg.client.batch_size = 0;
        OliveSystem::new(model, clients, cfg);
    }

    #[test]
    fn round_runs_and_updates_model() {
        let mut sys = tiny_system(AggregatorKind::Advanced, None);
        let before = sys.global_params();
        let report = sys.run_round(&mut NullTracer).expect("round");
        assert!(!report.processed_users.is_empty());
        assert!(report.epsilon_spent.is_none());
        let after = sys.global_params();
        assert_ne!(before, after, "global model must move");
        assert!(sys.verify_model_signature(0, &after, &report.model_signature));
        assert!(!sys.verify_model_signature(0, &before, &report.model_signature));
    }

    #[test]
    fn all_aggregators_produce_same_model() {
        // With identical seeds, every oblivious aggregator must yield the
        // same global trajectory as the non-oblivious reference.
        let reference = {
            let mut sys = tiny_system(AggregatorKind::NonOblivious, None);
            sys.run_round(&mut NullTracer).expect("round");
            sys.global_params()
        };
        for kind in [
            AggregatorKind::Baseline { cacheline_weights: 16 },
            AggregatorKind::Advanced,
            AggregatorKind::Grouped { h: 2 },
        ] {
            let mut sys = tiny_system(kind, None);
            sys.run_round(&mut NullTracer).expect("round");
            let params = sys.global_params();
            for (a, b) in reference.iter().zip(params.iter()) {
                assert!((a - b).abs() < 1e-4, "{kind:?} diverged");
            }
        }
    }

    #[test]
    fn threaded_working_set_scales_with_workers() {
        let kind = AggregatorKind::Grouped { h: 4 };
        let serial = working_set_bytes(kind, 16, 8, 256, 1);
        let w2 = working_set_bytes(kind, 16, 8, 256, 2);
        let w4 = working_set_bytes(kind, 16, 8, 256, 4);
        assert!(serial < w2 && w2 < w4, "{serial} < {w2} < {w4}");
        // Capped at the group count: 16 clients / h=4 → 4 groups.
        assert_eq!(w4, working_set_bytes(kind, 16, 8, 256, 64));
        // Serial algorithms are unaffected by the worker count.
        assert_eq!(
            working_set_bytes(AggregatorKind::Advanced, 16, 8, 256, 8),
            working_set_bytes(AggregatorKind::Advanced, 16, 8, 256, 1)
        );
    }

    #[test]
    fn thread_count_does_not_change_the_round() {
        // One full round — parallel training + parallel grouped
        // aggregation — must be bitwise reproducible at any thread count.
        let run = |threads: usize| {
            let mut sys = tiny_system(AggregatorKind::Grouped { h: 2 }, None);
            sys.set_threads(threads);
            assert_eq!(sys.threads(), threads);
            let report = sys.run_round(&mut NullTracer).expect("round");
            (sys.global_params(), report.model_signature)
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let (params, signature) = run(threads);
            assert_eq!(serial.0, params, "threads={threads} changed the global model");
            assert_eq!(serial.1, signature, "threads={threads} changed the signed output");
        }
    }

    /// Clients seal on their training workers, and no byte depends on how
    /// many there are: with DP clipping on, every thread count hands the
    /// enclave the same uploads — user, round, nonce counter, ciphertext —
    /// and leaves every session's nonce counter where the serial run does
    /// (the next upload each session seals carries the same counter), for
    /// a sample split across workers and for a 3-client one, which stays
    /// serial. The uploads hash to pinned digests.
    #[test]
    fn uploads_do_not_depend_on_the_worker_count() {
        let dp = DpConfig { sigma: 1.0, clip: 0.05, delta: 1e-5 };
        let pinned = [
            (8, "36a7be4d26af0f586163c09325e81a57d8496b29e6892573496fa7cbae9e3859"),
            (3, "201f8767e20f47f7d59ae3da2e424de7b19d05066090158b0fb5be006ff0e701"),
        ];
        for (n, digest) in pinned {
            let run = |threads: usize| {
                let (model, mut clients, mut cfg) = tiny_parts(AggregatorKind::Advanced, Some(dp));
                clients.truncate(n);
                (cfg.n_clients, cfg.sample_rate) = (n, 1.0);
                let mut sys = OliveSystem::new(model, clients, cfg);
                sys.set_threads(threads);
                let sealed = sys.prepare_round().sealed;
                let next: Vec<u64> =
                    sys.sessions.iter_mut().map(|s| s.seal_upload(1, &[]).nonce_counter).collect();
                let fields: Vec<_> = sealed
                    .into_iter()
                    .map(|m| (m.user, m.round, m.nonce_counter, m.ciphertext))
                    .collect();
                (fields, next)
            };
            let (serial, serial_next) = run(1);
            assert_eq!(serial.len(), n);
            let mut bytes = Vec::new();
            for (user, round, counter, ciphertext) in &serial {
                bytes.extend_from_slice(&user.to_be_bytes());
                bytes.extend_from_slice(&round.to_be_bytes());
                bytes.extend_from_slice(&counter.to_be_bytes());
                bytes.extend_from_slice(ciphertext);
            }
            let hex: String =
                olive_tee::attestation::digest(&bytes).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, digest, "n={n}: the uploads moved");
            for threads in [2usize, 3] {
                let (uploads, next) = run(threads);
                assert_eq!(uploads, serial, "n={n} threads={threads}: uploads differ");
                assert_eq!(next, serial_next, "n={n} threads={threads}: nonce counters differ");
            }
        }
    }

    /// The sharding contract at round level: the shard count is public
    /// topology that must change neither the global model bits, nor the
    /// signature, nor the aggregation trace, nor the coordinator's working
    /// set — it only adds the per-shard transport peaks to the report.
    #[test]
    fn shard_count_does_not_change_the_round() {
        use olive_memsim::{Granularity, RecordingTracer};
        let run = |shards: usize| {
            let mut sys = tiny_system(AggregatorKind::Advanced, None);
            sys.set_threads(1);
            sys.set_shards(shards);
            assert_eq!(sys.shards(), shards);
            let mut tr = RecordingTracer::new(Granularity::Element);
            let report = sys.run_round(&mut tr).expect("round");
            (sys.global_params(), tr.digest(), report)
        };
        let (ref_params, ref_digest, ref_report) = run(1);
        assert!(ref_report.shard_peaks.is_empty(), "monolithic rounds report no shard peaks");
        for shards in [2usize, 4, 8] {
            let (params, digest, report) = run(shards);
            assert_eq!(params, ref_params, "S={shards} changed the global model");
            assert_eq!(digest, ref_digest, "S={shards} changed the aggregation trace");
            assert_eq!(
                report.model_signature, ref_report.model_signature,
                "S={shards} changed the signed output"
            );
            assert_eq!(
                report.working_set_bytes, ref_report.working_set_bytes,
                "the canonical working-set report is shard-independent"
            );
            assert_eq!(report.shard_peaks.len(), shards);
            assert!(report.shard_peaks.iter().all(|&p| p > 0), "every shard sees charges");
        }
    }

    /// The closed form and the ledger agree to the byte at a shape that is
    /// not a power of two (they share `sum_advanced_bytes`) — measured on
    /// the engine with nothing sealed. Advanced peaks at finalize, holding
    /// exactly the closed form. A Grouped round peaks in a fold, holding
    /// the closed form plus the plaintext the closed form leaves out: the
    /// chunk being folded and the look-ahead chunk opened beside it,
    /// `chunk · k` cells each.
    /// Checkpointing — what `run_round` does — adds one transient on top
    /// of a fold's resident state: the plaintext being sealed (header,
    /// prefix digest and the aggregator's descriptor), which for Advanced
    /// is the only thing a round's peak may exceed the closed form by.
    /// The linear fold's closed form is the materialize-all round (one
    /// chunk of all n clients); streaming it in chunks of two holds two
    /// chunks of plaintext instead, on the same bits.
    #[test]
    fn closed_form_working_set_matches_the_measured_round() {
        let (n, k, d) = (8, 10, 106);
        let updates = crate::aggregation::test_support::random_updates(n, k, d, 5);
        let measured = |kind: AggregatorKind, threads: usize, chunk: usize| {
            let mut round =
                crate::round::test_support::Sealed::new(kind, &updates, d, threads, chunk);
            let ledger = Ledger::new(olive_tee::EpcBudget::default(), None, Telemetry::off());
            let (delta, end) = round.drive(None, ledger, &mut NullTracer);
            let bits: Vec<u32> = delta.expect("fault-free").iter().map(|v| v.to_bits()).collect();
            (bits, end.coordinator.peak)
        };
        let closed = working_set_bytes(AggregatorKind::Advanced, n, k, d, 1);
        assert_eq!(
            measured(AggregatorKind::Advanced, 1, 3).1,
            closed,
            "nk + d = 186: no power of two"
        );
        let linear = AggregatorKind::NonOblivious;
        let (whole, whole_peak) = measured(linear, 1, n);
        assert_eq!(whole_peak, working_set_bytes(linear, n, k, d, 1), "materialize-all");
        let (streamed, streamed_peak) = measured(linear, 1, 2);
        assert_eq!(streamed, whole, "streaming changes no bit");
        assert_eq!(streamed_peak, d as u64 * 4 + 2 * (2 * k) as u64 * 8, "two chunks staged");
        assert!(streamed_peak < whole_peak);
        let mut sys = full_sample_system(AggregatorKind::Advanced, 1, 1);
        sys.set_chunk(3);
        let report = sys.run_round(&mut NullTracer).expect("round");
        let shape = (report.processed_users.len(), report.k_per_user, sys.dim());
        assert_eq!(shape, (n, k, d), "the round the closed form was taken for");
        let checkpointed = report.working_set_bytes;
        // Header (version, round, five sizes, generator, prefix digest),
        // the descriptor's length prefix and its 25 bytes.
        let ckpt_plain = (1 + 8 + 5 * 8 + 32 + 32) + 8 + 25;
        assert!(
            (closed..=closed + ckpt_plain).contains(&checkpointed),
            "{checkpointed} vs closed form {closed} + at most {ckpt_plain}"
        );
        for threads in [1usize, 2] {
            // One processing unit (h · threads clients) per chunk.
            let kind = AggregatorKind::Grouped { h: 2 };
            let chunk = 2 * threads;
            let staged = 2 * (chunk * k) as u64 * 8;
            let closed = working_set_bytes(kind, n, k, d, threads);
            assert_eq!(measured(kind, threads, chunk).1, closed + staged, "threads={threads}");
        }
    }

    /// A checkpoint commits to the folded prefix it leaves in untrusted
    /// storage: a round of any kind killed after three chunks must refuse
    /// to resume over a prefix with one ciphertext bit-flipped, one upload
    /// dropped, one upload replaced by a *genuine* second upload of the
    /// same user under a later nonce, or two uploads swapped, and over
    /// round-start floors with an entry added — each a structured error
    /// with the round still pending and every budget balanced, never a
    /// different aggregate — and then restore bitwise from the genuine
    /// material, one tracer spanning every attempt. Grouped with h = 4 is
    /// killed with four clients in its running total and two pending: a
    /// victim in each part.
    #[test]
    fn restore_rejects_any_prefix_but_the_sealed_one() {
        use olive_memsim::{Granularity, RecordingTracer};
        let cases = [
            (AggregatorKind::NonOblivious, 3),
            (AggregatorKind::Baseline { cacheline_weights: 16 }, 3),
            (AggregatorKind::Advanced, 3),
            (AggregatorKind::DiffOblivious { epsilon: 8.0, delta: 0.01, seed: 3 }, 3),
            (AggregatorKind::Grouped { h: 4 }, 3),
            (AggregatorKind::Grouped { h: 4 }, 5),
            (AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan }, 3),
        ];
        for ((kind, slot), shards) in cases.into_iter().flat_map(|case| [(case, 1), (case, 4)]) {
            let ctx = format!("{kind:?} S={shards} slot={slot}");
            let system = || full_sample_system(kind, 1, shards);
            let mut reference = system();
            let mut ref_tr = RecordingTracer::new(Granularity::Element);
            let ref_report = reference.run_round(&mut ref_tr).expect("round");

            let mut sys = system();
            let mut tr = RecordingTracer::new(Granularity::Element);
            sys.set_fault_plan(FaultPlan::crash_after([2]));
            let killed = RoundError::CoordinatorKilled { after_chunk: 2 };
            assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed);
            let genuine = sys.pending.as_ref().expect("pending").sealed.clone();
            let (t, victim) = (genuine[slot].round, genuine[slot].user);

            let mut flipped = genuine.clone();
            flipped[slot].ciphertext[9] ^= 0x10;
            let mut dropped = genuine.clone();
            dropped.remove(slot);
            let mut substituted = genuine.clone();
            let other = SparseGradient {
                dense_dim: sys.dim(),
                indices: (0..ref_report.k_per_user as u32).collect(),
                values: vec![1.0; ref_report.k_per_user],
            };
            substituted[slot] = sys.sessions[victim as usize].seal_upload(t, &other.encode());
            assert!(substituted[slot].nonce_counter > genuine[slot].nonce_counter);

            let mut reordered = genuine.clone();
            reordered.swap(0, slot);
            let floors = sys.pending.as_ref().expect("pending").base_floors.clone();
            let mut more_floors = floors.clone();
            more_floors.push((UserId::MAX, 1));

            for (what, stored, base) in [
                ("flip", flipped, &floors),
                ("drop", dropped, &floors),
                ("swap", substituted, &floors),
                ("reorder", reordered, &floors),
                ("floors", genuine.clone(), &more_floors),
            ] {
                let pending = sys.pending.as_mut().expect("pending");
                (pending.sealed, pending.base_floors) = (stored, base.clone());
                assert_eq!(
                    sys.restore_round(&mut tr).unwrap_err(),
                    RoundError::Checkpoint(TeeError::AuthFailure),
                    "{ctx} {what}"
                );
                assert!(sys.interrupted(), "{ctx} {what}: the round stays pending");
                assert!(sys.epc_live().iter().all(|&b| b == 0), "{ctx} {what}: budgets balance");
            }

            let pending = sys.pending.as_mut().expect("pending");
            (pending.sealed, pending.base_floors) = (genuine, floors);
            let report = sys.restore_round(&mut tr).expect("genuine material restores");
            assert_eq!(sys.global_params(), reference.global_params(), "{ctx}");
            assert_eq!(report.model_signature, ref_report.model_signature);
            assert_eq!(tr.digest(), ref_tr.digest(), "{ctx}: trace digest");
            assert!(sys.epc_live().iter().all(|&b| b == 0));
        }
    }

    /// Every budget's EPC charges and frees in the counter records flushed
    /// to `stream` so far, summed over the flushes: `(charged, freed)` by
    /// budget key.
    fn epc_counter_totals(stream: &str) -> std::collections::BTreeMap<String, (u64, u64)> {
        let mut totals = std::collections::BTreeMap::<String, (u64, u64)>::new();
        for line in stream.lines().filter(|l| l.contains("\"record\":\"counter\"")) {
            let field = |key: &str| line.split(key).nth(1)?.split(['"', '}']).nth(1);
            let (Some(name), Some(key)) = (field("\"name\":"), field("\"key\":")) else {
                continue;
            };
            let charged = match name {
                "epc_charge_bytes" => true,
                "epc_free_bytes" => false,
                _ => continue,
            };
            let total = line.split("\"total\":").nth(1).and_then(|t| t.split('}').next());
            let total: u64 = total.expect("a counter total").parse().expect("an integer total");
            let entry = totals.entry(key.to_string()).or_default();
            *(if charged { &mut entry.0 } else { &mut entry.1 }) += total;
        }
        totals
    }

    /// One upload the enclave cannot authenticate (it holds a wrong key
    /// for the user: to the enclave, a tampered ciphertext) ends `run_round`
    /// with the slot named, the round pending, every budget balanced and
    /// the invocation's own counters flushed balanced, on one worker and
    /// across two alike. The chunks before it are checkpointed — in chunk
    /// 0 there are none, and no blob is sealed — so once the slot verifies
    /// (a restore re-registers every session) the round finishes bitwise,
    /// one tracer over both legs, whole from the untrusted round material
    /// when there was no blob.
    #[test]
    fn a_refused_upload_leaves_the_round_pending_and_restorable() {
        use olive_memsim::{Granularity, RecordingTracer};
        for (threads, shards, slot) in [(1usize, 1usize, 5usize), (2, 4, 5), (1, 4, 0), (2, 1, 1)] {
            let ctx = format!("threads={threads} S={shards} slot={slot}");
            let system = || full_sample_system(AggregatorKind::Advanced, threads, shards);
            let mut reference = system();
            let mut ref_tr = RecordingTracer::new(Granularity::Element);
            let ref_report = reference.run_round(&mut ref_tr).expect("round");
            let victim = ref_report.processed_users[slot];

            let mut sys = system();
            let telemetry = Telemetry::to_buffer();
            sys.set_telemetry(telemetry.clone());
            let mut tr = RecordingTracer::new(Granularity::Element);
            sys.enclave.register_client(victim, 0xBAD).expect("attested at provisioning");
            let refused = RoundError::Upload { slot, error: TeeError::AuthFailure };
            assert_eq!(sys.run_round(&mut tr).unwrap_err(), refused, "{ctx}");
            assert!(sys.interrupted(), "{ctx}: the round stays pending");
            assert!(sys.epc_live().iter().all(|&b| b == 0), "{ctx}: budgets balance");
            assert_eq!(sys.checkpoint_blob().is_none(), slot < 2, "{ctx}: chunk 0 seals nothing");
            // A refusal in chunk 0 comes before any descriptor reaches a
            // shard; the restore charges every budget.
            let balanced = |what: &str, budgets: usize| {
                let totals = epc_counter_totals(&telemetry.buffer_contents().expect("buffer"));
                assert_eq!(totals.len(), budgets, "{ctx} {what}: {totals:?}");
                assert!(totals.contains_key("coordinator"), "{ctx} {what}");
                for (key, (charged, freed)) in totals {
                    assert_eq!(charged, freed, "{ctx} {what}: {key} charge != free");
                }
            };
            let shard_budgets = if shards > 1 { shards } else { 0 };
            balanced("after the abort", 1 + if slot < 2 { 0 } else { shard_budgets });
            let report = sys.restore_round(&mut tr).expect("the slot verifies now");
            balanced("after the restore", 1 + shard_budgets);
            assert_eq!(sys.global_params(), reference.global_params(), "{ctx}");
            assert_eq!(report.model_signature, ref_report.model_signature, "{ctx}");
            assert_eq!(tr.digest(), ref_tr.digest(), "{ctx}: every folded chunk folded once");
        }
    }

    /// The streaming contract at round level: the ingestion chunk size is
    /// a public knob that must change neither the global model bits nor
    /// the aggregation trace.
    #[test]
    fn chunk_size_does_not_change_the_round() {
        use olive_memsim::{Granularity, RecordingTracer};
        let run = |chunk: usize, threads: usize| {
            let mut sys = tiny_system(AggregatorKind::Grouped { h: 2 }, None);
            sys.set_threads(threads);
            sys.set_chunk(chunk);
            assert_eq!(sys.chunk(), chunk);
            let mut tr = RecordingTracer::new(Granularity::Element);
            sys.run_round(&mut tr).expect("round");
            (sys.global_params(), tr.digest())
        };
        for threads in [1usize, 2] {
            let (ref_params, ref_digest) = run(64, threads);
            for chunk in [1usize, 2, 3] {
                let (params, digest) = run(chunk, threads);
                assert_eq!(params, ref_params, "chunk={chunk} threads={threads} changed model");
                assert_eq!(digest, ref_digest, "chunk={chunk} threads={threads} changed trace");
            }
        }
    }

    /// EPC accounting is balanced (everything charged per chunk is freed),
    /// a smaller chunk size yields a no-larger working-set peak, and the
    /// enclave's EPC high-water mark is **per round** (epoch-scoped by
    /// `begin_round`), matching the round report exactly — not a lifetime
    /// maximum that round 2 would inherit from round 1.
    #[test]
    fn streaming_epc_accounting_balances_and_bounds() {
        let peak = |chunk: usize| {
            let mut sys = tiny_system(AggregatorKind::NonOblivious, None);
            sys.set_threads(1);
            sys.set_chunk(chunk);
            let r1 = sys.run_round(&mut NullTracer).expect("round");
            assert!(r1.working_set_bytes > 0);
            assert_eq!(sys.enclave.epc.live, 0, "all round allocations must be freed");
            assert_eq!(
                sys.enclave.epc.peak, r1.working_set_bytes,
                "round-1 EPC peak must equal the report's working set"
            );
            // A second, differently-shaped round: its peak must stand on
            // its own, not under round 1's shadow.
            sys.set_chunk(1);
            let r2 = sys.run_round(&mut NullTracer).expect("round");
            assert_eq!(sys.enclave.epc.live, 0);
            assert_eq!(
                sys.enclave.epc.peak, r2.working_set_bytes,
                "round-2 EPC peak must reset to round 2's own working set"
            );
            r1.working_set_bytes
        };
        assert!(peak(1) <= peak(64), "smaller chunks must not increase the peak");
    }

    /// Regression pin for the empty-sample NaN bug: an honest Poisson
    /// sample selects nobody with probability `(1−q)^N`; that round used
    /// to reach `finalize` with n = 0, where the 0/0 average produced NaN
    /// deltas that silently poisoned θ forever. The short-circuit must
    /// leave the model bit-identical, sign it, and spend no extra ε.
    #[test]
    fn empty_sampled_round_is_a_finite_noop() {
        let dp = DpConfig { sigma: 1.12, clip: 0.5, delta: 1e-5 };
        let (model, clients, mut cfg) = tiny_parts(AggregatorKind::Advanced, Some(dp));
        cfg.sample_rate = 0.01; // ≈92% of rounds sample nobody
        let mut sys = OliveSystem::new(model, clients, cfg);
        let mut saw_empty = false;
        for _ in 0..12 {
            let before = sys.global_params();
            let report = sys.run_round(&mut NullTracer).expect("round");
            let after = sys.global_params();
            assert!(after.iter().all(|x| x.is_finite()), "NaN/∞ leaked into θ");
            if report.processed_users.is_empty() {
                saw_empty = true;
                assert_eq!(before, after, "an empty round must not move the model");
                assert_eq!(report.k_per_user, 0);
                assert_eq!(report.working_set_bytes, 0);
                assert!(!report.would_page);
                let eps = report.epsilon_spent.expect("dp mode still reports ε");
                assert!(eps.is_finite(), "ε must stay finite with zero compositions");
                assert!(sys.verify_model_signature(report.round, &after, &report.model_signature));
            }
        }
        assert!(saw_empty, "q=0.01 over 12 rounds should hit an empty sample");
    }

    /// `would_page` compares against the *configured* EPC budget, not a
    /// hardcoded constant — and, sharded, it still asks the coordinator,
    /// the one enclave that holds the whole working set: a budget below
    /// the Advanced peak pages at S = 4 although every shard's own
    /// transport peak fits it many times over.
    #[test]
    fn would_page_uses_configured_epc_budget() {
        let (model, clients, cfg) = tiny_parts(AggregatorKind::Advanced, None);
        let round = |epc_bytes: u64, shards: usize| {
            let enclave_cfg = olive_tee::EnclaveConfig { epc_bytes, ..Default::default() };
            let mut sys = OliveSystem::with_enclave_config(
                model.clone(),
                clients.clone(),
                cfg.clone(),
                enclave_cfg,
                RuntimeConfig::process().clone(),
            );
            sys.set_shards(shards);
            sys.run_round(&mut NullTracer).expect("round")
        };
        assert!(round(64, 1).would_page, "a 64-byte EPC must page");
        let roomy = round(96 << 20, 1);
        assert!(!roomy.would_page, "a tiny round fits the default 96 MiB EPC");
        let tight = roomy.working_set_bytes * 6 / 10;
        let sharded = round(tight, 4);
        assert_eq!(sharded.working_set_bytes, roomy.working_set_bytes);
        assert!(sharded.shard_peaks.iter().all(|&p| p < tight), "{:?}", sharded.shard_peaks);
        assert!(sharded.would_page, "the coordinator is over budget at every S");
        assert!(!round(roomy.working_set_bytes, 4).would_page, "an exact fit does not page");
    }

    #[test]
    fn dp_mode_reports_epsilon_and_noises() {
        let dp = DpConfig { sigma: 1.12, clip: 0.5, delta: 1e-5 };
        let mut sys = tiny_system(AggregatorKind::Advanced, Some(dp));
        let r1 = sys.run_round(&mut NullTracer).expect("round");
        let e1 = r1.epsilon_spent.expect("dp mode reports epsilon");
        let r2 = sys.run_round(&mut NullTracer).expect("round");
        let e2 = r2.epsilon_spent.unwrap();
        assert!(e2 > e1, "budget accumulates: {e1} -> {e2}");
    }

    #[test]
    fn rounds_progress_and_sampling_varies() {
        let mut sys = tiny_system(AggregatorKind::Advanced, None);
        let a = sys.run_round(&mut NullTracer).expect("round");
        let b = sys.run_round(&mut NullTracer).expect("round");
        assert_eq!(a.round, 0);
        assert_eq!(b.round, 1);
    }

    #[test]
    fn training_improves_global_model() {
        let gen = Generator::new(SyntheticConfig::tiny(12, 4), 3);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let test = gen.sample_balanced(25, &mut rng);
        let mut sys = tiny_system(AggregatorKind::Advanced, None);
        let (loss0, _) = sys.server.model.evaluate(&test.features, &test.labels, 32);
        for _ in 0..6 {
            sys.run_round(&mut NullTracer).expect("round");
        }
        let (loss1, _) = sys.server.model.evaluate(&test.features, &test.labels, 32);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1}");
    }
}
