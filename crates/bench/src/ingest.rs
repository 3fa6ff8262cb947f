//! Round-ingestion rig: drives the enclave upload path (seal → open →
//! decode → fold) at production client counts without the FL training
//! loop, for the `ingestion` and `checkpoint` benches and their EPC
//! working-set reports.
//!
//! The rig is provisioning, [`IngestionRig::seal_round`], and the
//! sealed-round driver `OliveSystem::run_round` makes its round with —
//! [`RoundEngine::open`] → `ingest` → `finish` — so the protocol, the
//! timings and the EPC peaks are the production round's; a
//! [`PassConfig`] picks the shape:
//!
//! * **streaming** — uploads are opened in chunks and folded through the
//!   engine; the enclave holds O(chunk·k) staged cells;
//! * **materialize-all** — the historical shape, as the one-chunk case
//!   (`chunk = n`): every upload is opened and decoded (O(n·k) enclave
//!   bytes) before a single fold;
//! * per-chunk checkpoint sealing on or off, and an optional shard plane.
//!
//! A checkpointing pass splits its own wall time from the driver's
//! `checkpoint_seal` spans: the program times itself, the rig reads it.
//!
//! The timed configs use `NonOblivious` (the O(nk) linear fold) so they
//! measure *ingestion* — session lookup, AEAD verification, decode, fold
//! — rather than oblivious-sort cost, which the `aggregation`/`grouping`
//! benches already cover.

use olive_core::aggregation::{AggregatorKind, ShardRuntime, StreamingAggregator};
use olive_core::olive::provision_clients;
use olive_core::round::{Ledger, RoundEngine, RoundShape, SealedRound};
use olive_fl::SparseGradient;
use olive_memsim::NullTracer;
use olive_tee::{
    AttestationService, ClientSession, Enclave, EnclaveConfig, SealedMessage, SealedStore,
};
use olive_telemetry::Telemetry;
use std::time::Instant;

/// The shape of one ingestion pass.
#[derive(Clone, Copy, Debug)]
pub struct PassConfig {
    /// Aggregation algorithm.
    pub kind: AggregatorKind,
    /// Clients opened, decoded and folded per step (`n` = materialize-all).
    pub chunk: usize,
    /// Seal the round's restore point after every folded chunk — the
    /// per-chunk overhead `OliveSystem::run_round` pays.
    pub checkpoint: bool,
}

impl PassConfig {
    /// No checkpoints.
    pub fn streaming(kind: AggregatorKind, chunk: usize) -> Self {
        PassConfig { kind, chunk, checkpoint: false }
    }
}

/// What one pass produced and cost.
pub struct Pass {
    /// The round's averaged update.
    pub delta: Vec<f32>,
    /// The coordinator's EPC peak, charged by the engine's ledger exactly
    /// as `OliveSystem::run_round` charges it.
    pub peak_bytes: u64,
    /// The shard plane the pass ran over (reusable for the next pass);
    /// `ShardRuntime::peaks` holds each shard's measured transport peak.
    pub shards: Option<ShardRuntime>,
    /// Untrusted checkpoint storage as the pass left it: the newest
    /// restore point under its pinned floor (empty without checkpointing).
    pub checkpoints: SealedStore,
    /// Nanoseconds of ingestion work (open + fold + finalize): the pass's
    /// wall time minus `ckpt_ns`. Splitting one pass keeps the overhead
    /// ratio immune to the run-to-run jitter that drowns a few-percent
    /// effect when two separate passes are compared wall-clock to
    /// wall-clock.
    pub ingest_ns: u64,
    /// Nanoseconds inside the driver's `checkpoint_seal` spans (state
    /// snapshot + encode + seal); zero without checkpointing.
    pub ckpt_ns: u64,
}

/// A provisioned enclave + n attested client sessions + fixed payloads.
pub struct IngestionRig {
    service: AttestationService,
    enclave: Enclave,
    seed_bytes: [u8; 32],
    sessions: Vec<ClientSession>,
    users: Vec<u32>,
    payloads: Vec<Vec<u8>>,
    round: u64,
    /// Replay floors as of the newest `seal_round` (before any open).
    base_floors: Vec<(u32, u64)>,
    /// Model dimension.
    pub d: usize,
    /// Transmitted cells per client.
    pub k: usize,
}

impl IngestionRig {
    /// Provisions `n` clients with `k`-sparse uploads over dimension `d`
    /// (the same attestation handshake `OliveSystem::new` performs).
    pub fn new(n: usize, k: usize, d: usize, seed: u64) -> Self {
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_be_bytes());
        let service = AttestationService::new(seed_bytes);
        let mut enclave = Enclave::launch(&EnclaveConfig::default(), seed_bytes);
        let users: Vec<u32> = (0..n as u32).collect();
        let context = b"olive-ingestion-bench";
        let sessions =
            provision_clients(&service, &mut enclave, context, seed_bytes, users.iter().copied());
        let payloads: Vec<Vec<u8>> = crate::synthetic_updates(n, k, d, seed ^ 0xBEEF)
            .iter()
            .map(SparseGradient::encode)
            .collect();
        IngestionRig {
            service,
            enclave,
            seed_bytes,
            sessions,
            users,
            payloads,
            round: 0,
            base_floors: Vec::new(),
            d,
            k,
        }
    }

    /// Provisions a shard plane of `shards` enclaves around this rig's
    /// coordinator — the same re-attestation + tunnel handshake
    /// `OliveSystem` performs when `OLIVE_SHARDS` > 1. Call once per
    /// topology and reuse across passes (provisioning is handshake cost,
    /// not per-round cost).
    pub fn provision_shards(&mut self, shards: usize) -> ShardRuntime {
        let mut seed = self.seed_bytes;
        seed[23] ^= 0x5A;
        let epc_bytes = self.enclave.epc.limit;
        ShardRuntime::provision(
            &self.service,
            &mut self.enclave,
            b"olive-ingestion-bench",
            seed,
            epc_bytes,
            self.d,
            shards,
        )
        .expect("bench provisioning is fault-free")
    }

    /// Clients provisioned.
    pub fn n(&self) -> usize {
        self.sessions.len()
    }

    /// Starts a fresh round and seals every client's upload (client-side
    /// work, but part of each timed pass: GCM nonces are single-use, so a
    /// new round needs new ciphertexts).
    pub fn seal_round(&mut self) -> Vec<SealedMessage> {
        self.round += 1;
        self.enclave.begin_round(self.round, self.users.clone());
        self.base_floors = self.enclave.replay_floors();
        let round = self.round;
        self.sessions
            .iter_mut()
            .zip(self.payloads.iter())
            .map(|(s, p)| s.seal_upload(round, p))
            .collect()
    }

    /// The enclave's configured EPC limit (bytes).
    pub fn epc_limit(&self) -> u64 {
        self.enclave.epc.limit
    }

    /// Opens the engine of the newest sealed round — `msgs`, run under
    /// `cfg` — from `store`. Over an empty store that is chunk 0; over the
    /// store a checkpointing pass left it is the restore path's
    /// enclave-side work, as `restore_round` does it: unseal against the
    /// pinned floor, decode, rebuild the aggregator, and for a staged kind
    /// re-open and re-stage the folded prefix — the engine comes back level
    /// with the checkpoint and ready to ingest the next chunk.
    pub fn open(
        &mut self,
        msgs: &[SealedMessage],
        cfg: PassConfig,
        store: &SealedStore,
        shards: Option<ShardRuntime>,
        telemetry: Telemetry,
    ) -> RoundEngine {
        let ledger = Ledger::new(self.enclave.epc, shards, telemetry);
        let round = SealedRound {
            shape: RoundShape { round: self.round, chunk_size: cfg.chunk, threads: 1, k: self.k },
            uploads: msgs,
            base_floors: &self.base_floors,
            rng_state: [0; 4],
        };
        let agg = StreamingAggregator::new(cfg.kind, self.d, 1);
        RoundEngine::open(agg, &round, &mut self.enclave, Some(store), ledger)
            .unwrap_or_else(|(e, _)| panic!("the rig's own material must open: {e}"))
    }

    /// One round of enclave-side upload processing through the
    /// sealed-round driver, over `shards` when given (chunk descriptors
    /// through the attested tunnels, the finalized delta striped out with
    /// receipts — the full `OLIVE_SHARDS` round shape; arm fault scripts
    /// on the runtime beforehand).
    pub fn pass(
        &mut self,
        msgs: &[SealedMessage],
        cfg: PassConfig,
        shards: Option<ShardRuntime>,
    ) -> Pass {
        // Armed only to read the seal spans back: an un-checkpointed pass
        // has none, and pays for no sink.
        let telemetry = if cfg.checkpoint { Telemetry::to_buffer() } else { Telemetry::off() };
        let mut checkpoints = SealedStore::default();
        let t0 = Instant::now();
        let (delta, end) = self
            .open(msgs, cfg, &checkpoints, shards, telemetry.clone())
            .ingest(
                msgs,
                &mut self.enclave,
                cfg.checkpoint.then_some(&mut checkpoints),
                &mut NullTracer,
            )
            .unwrap_or_else(|(e, _)| panic!("bench fault scripts stay recoverable: {e}"))
            .finish(&mut NullTracer);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let ckpt_ns =
            span_wall_ns(&telemetry.buffer_contents().unwrap_or_default(), "checkpoint_seal");
        self.enclave.epc = end.coordinator;
        Pass {
            delta: delta.expect("bench fault scripts stay recoverable"),
            peak_bytes: end.coordinator.peak,
            shards: end.shards,
            checkpoints,
            ingest_ns: wall_ns - ckpt_ns,
            ckpt_ns,
        }
    }
}

/// Total wall nanoseconds of the `name` spans in a telemetry stream
/// (`"wall":{"ns":…}` is the last key of a span record).
fn span_wall_ns(stream: &str, name: &str) -> u64 {
    let tag = format!("\"record\":\"span\",\"name\":\"{name}\"");
    let ns = |line: &str| {
        let wall = line.rsplit_once("\"wall\":{\"ns\":")?.1;
        wall.trim_end_matches('}').parse::<u64>().ok()
    };
    stream.lines().filter(|line| line.contains(&tag)).filter_map(ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn streaming_and_materialize_agree_and_ws_separates() {
        let mut rig = IngestionRig::new(40, 8, 256, 3);
        let kind = AggregatorKind::NonOblivious;
        let msgs = rig.seal_round();
        let stream = rig.pass(&msgs, PassConfig::streaming(kind, 4), None);
        let msgs = rig.seal_round();
        let mat = rig.pass(&msgs, PassConfig::streaming(kind, rig.n()), None);
        assert_eq!(stream.delta.len(), 256);
        assert!(same_bits(&stream.delta, &mat.delta), "pipelines must agree bitwise");
        assert!(
            stream.peak_bytes < mat.peak_bytes,
            "streaming peak {} must undercut materialize-all peak {}",
            stream.peak_bytes,
            mat.peak_bytes
        );
    }

    #[test]
    fn sharded_pass_matches_monolithic_and_balances() {
        let mut rig = IngestionRig::new(30, 6, 128, 21);
        let cfg = PassConfig::streaming(AggregatorKind::NonOblivious, 4);
        let msgs = rig.seal_round();
        let reference = rig.pass(&msgs, cfg, None).delta;
        let mut rt = rig.provision_shards(4);
        for _ in 0..2 {
            let msgs = rig.seal_round();
            let pass = rig.pass(&msgs, cfg, Some(rt));
            rt = pass.shards.expect("the plane comes back");
            assert!(
                same_bits(&pass.delta, &reference),
                "sharded pass must agree bitwise with the monolithic pass"
            );
            assert_eq!(rt.peaks().len(), 4);
            assert!(rt.peaks().iter().all(|&p| p > 0), "every shard does real work");
            assert!(rt.live().iter().all(|&b| b == 0), "shard budgets balance per pass");
        }
    }

    /// Checkpointing changes nothing about the round, its cost is read
    /// off the driver's own spans, and the store the pass leaves — the
    /// last blob, sealed with every chunk folded — opens an engine that
    /// finishes on the pass's own bits, for an accumulating kind (whole
    /// after `load_state`) and a staged one (prefix re-staged) alike.
    #[test]
    fn checkpointed_pass_restores_the_folded_aggregator() {
        let mut rig = IngestionRig::new(12, 4, 64, 5);
        for kind in [AggregatorKind::Grouped { h: 3 }, AggregatorKind::Advanced] {
            let msgs = rig.seal_round();
            let plain = rig.pass(&msgs, PassConfig::streaming(kind, 5), None);
            assert_eq!(plain.ckpt_ns, 0, "nothing sealed, nothing timed");
            let msgs = rig.seal_round();
            let cfg = PassConfig { checkpoint: true, ..PassConfig::streaming(kind, 5) };
            let ckpt = rig.pass(&msgs, cfg, None);
            assert!(
                same_bits(&plain.delta, &ckpt.delta),
                "checkpointing must not change the round"
            );
            assert!(ckpt.peak_bytes >= plain.peak_bytes, "the sealed plaintext is charged");
            assert!(ckpt.ckpt_ns > 0 && ckpt.ingest_ns > 0, "three seal spans were read back");
            let restored = rig.open(&msgs, cfg, &ckpt.checkpoints, None, Telemetry::off());
            assert_eq!(restored.chunks_done(), 3);
            let (delta, end) = restored.finish(&mut NullTracer);
            assert!(same_bits(&delta.expect("fault-free"), &ckpt.delta), "{kind:?}");
            assert_eq!(end.coordinator.live, 0, "{kind:?}: the restore's charges balance");
        }
    }
}
