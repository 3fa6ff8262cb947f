//! Round-ingestion rig: drives the enclave upload path (seal → open →
//! decode → fold) at production client counts without the FL training
//! loop, for the `ingestion` and `checkpoint` benches and their EPC
//! working-set reports.
//!
//! Every pass runs the sealed uploads through the same
//! [`RoundEngine`] `OliveSystem::run_round` drives, so timings and EPC
//! peaks are the production round's; a [`PassConfig`] picks the shape:
//!
//! * **streaming** — uploads are opened in chunks and folded through the
//!   engine; the enclave holds O(chunk·k) staged cells;
//! * **materialize-all** — the historical shape, as the one-chunk case
//!   (`chunk = n`): every upload is opened and decoded (O(n·k) enclave
//!   bytes) before a single fold;
//! * batched or per-message (`serial`) opening, isolating the
//!   `open_upload_batch` amortization from the memory story;
//! * per-chunk checkpoint sealing on or off, and an optional shard plane.
//!
//! The timed configs use `NonOblivious` (the O(nk) linear fold) so they
//! measure *ingestion* — session lookup, AEAD verification, decode, fold
//! — rather than oblivious-sort cost, which the `aggregation`/`grouping`
//! benches already cover.

use olive_core::aggregation::{Aggregator, AggregatorKind, ShardRuntime, StreamingAggregator};
use olive_core::olive::provision_clients;
use olive_core::round::{
    open_and_decode, staged_chunk_bytes, Checkpoint, Ledger, RoundEngine, RoundShape, CKPT_LABEL,
};
use olive_fl::SparseGradient;
use olive_memsim::NullTracer;
use olive_tee::{AttestationService, ClientSession, Enclave, EnclaveConfig, SealedMessage};
use olive_telemetry::Telemetry;
use std::time::Instant;

/// The shape of one ingestion pass.
#[derive(Clone, Copy, Debug)]
pub struct PassConfig {
    /// Aggregation algorithm.
    pub kind: AggregatorKind,
    /// Clients opened, decoded and folded per step (`n` = materialize-all).
    pub chunk: usize,
    /// `Enclave::open_upload_batch` per chunk, or one `open_upload` per
    /// message.
    pub batch_open: bool,
    /// Seal the production round's crash-safe checkpoint after every
    /// folded chunk (`olive_core::round::Checkpoint` under the
    /// `"round-ckpt"` label) — the per-chunk overhead
    /// `OliveSystem::run_round` pays by default.
    pub checkpoint: bool,
}

impl PassConfig {
    /// Batched opening, no checkpoints.
    pub fn streaming(kind: AggregatorKind, chunk: usize) -> Self {
        PassConfig { kind, chunk, batch_open: true, checkpoint: false }
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
    /// The newest sealed checkpoint (empty without checkpointing).
    pub last_checkpoint: Vec<u8>,
    /// Nanoseconds of ingestion work (open + fold + finalize). Timing
    /// both phases inside one pass keeps the overhead ratio immune to the
    /// run-to-run jitter that drowns a few-percent effect when two
    /// separate passes are compared wall-clock to wall-clock.
    pub ingest_ns: u64,
    /// Nanoseconds of checkpoint machinery (floor update + state
    /// snapshot + seal).
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

    /// One round of enclave-side upload processing through the
    /// [`RoundEngine`], over `shards` when given (chunk descriptors
    /// through the attested tunnels, the finalized delta striped out with
    /// receipts — the full `OLIVE_SHARDS` round shape; arm fault scripts
    /// on the runtime beforehand).
    pub fn pass(
        &mut self,
        msgs: &[SealedMessage],
        cfg: PassConfig,
        shards: Option<ShardRuntime>,
    ) -> Pass {
        let ledger = Ledger::new(self.enclave.epc, shards, Telemetry::off());
        let agg = StreamingAggregator::new(cfg.kind, self.d, 1);
        let mut engine = RoundEngine::new(agg, self.k, 1, 0, ledger);
        let chunks: Vec<&[SealedMessage]> = msgs.chunks(cfg.chunk).collect();
        let (mut ingest_ns, mut ckpt_ns) = (0u64, 0u64);
        let mut ckpt = timed(&mut ckpt_ns, || {
            let start = || Checkpoint::start(self.shape(msgs, cfg), [0; 4], &self.base_floors);
            cfg.checkpoint.then(start)
        });
        let mut last_checkpoint = Vec::new();
        // `None` past the last chunk: nothing left to open.
        let open = |enclave: &mut Enclave, msgs: Option<&[SealedMessage]>| {
            msgs.map_or_else(Vec::new, |msgs| open_chunk(enclave, msgs, cfg.batch_open))
        };
        let first = chunks.first().copied();
        let mut staged = timed(&mut ingest_ns, || open(&mut self.enclave, first));
        for i in 0..chunks.len() {
            let next = chunks.get(i + 1).copied();
            let enclave = &mut self.enclave;
            let folded = timed(&mut ingest_ns, || {
                let next_bytes = next.map_or(0, staged_chunk_bytes);
                engine.fold(&staged, next_bytes, || open(enclave, next), &mut NullTracer)
            });
            staged = folded.expect("bench fault scripts stay recoverable");
            if let Some(ckpt) = ckpt.as_mut() {
                last_checkpoint = timed(&mut ckpt_ns, || {
                    ckpt.advance(chunks[i]);
                    ckpt.seal(&mut engine, &mut self.enclave)
                });
            }
        }
        let (delta, end) = timed(&mut ingest_ns, || engine.finish(&mut NullTracer));
        self.enclave.epc = end.coordinator;
        Pass {
            delta: delta.expect("bench fault scripts stay recoverable"),
            peak_bytes: end.coordinator.peak,
            shards: end.shards,
            last_checkpoint,
            ingest_ns,
            ckpt_ns,
        }
    }

    /// The public shape of the round `msgs` makes under `cfg`.
    fn shape(&self, msgs: &[SealedMessage], cfg: PassConfig) -> RoundShape {
        let (round, uploads) = (self.round, msgs.len());
        RoundShape { round, uploads, chunk_size: cfg.chunk, threads: 1, k: self.k }
    }

    /// The restore path's enclave-side work, as `restore_round` does it:
    /// unseal and decode the blob, rebuild the aggregator from its
    /// serialized state, and resume — which for a staged kind re-opens
    /// and re-stages the folded prefix of `msgs` (the round the blob was
    /// sealed in, run under `cfg`). Returns the engine, level with the
    /// checkpoint and ready to fold the next chunk.
    pub fn restore_checkpoint(
        &mut self,
        sealed: &[u8],
        msgs: &[SealedMessage],
        cfg: PassConfig,
    ) -> RoundEngine {
        let plain = self.enclave.unseal(sealed, CKPT_LABEL).expect("genuine blob");
        let ckpt = Checkpoint::decode(&plain, self.shape(msgs, cfg)).expect("this round's blob");
        let mut agg = StreamingAggregator::new(cfg.kind, self.d, 1);
        agg.load_state(ckpt.agg_state()).expect("same-config state");
        let ledger = Ledger::new(self.enclave.epc, None, Telemetry::off());
        let mut engine = RoundEngine::new(agg, self.k, 1, ckpt.chunks_done(), ledger);
        engine.resume(&mut self.enclave, msgs, &self.base_floors, &ckpt).expect("genuine prefix");
        engine
    }
}

/// Runs `f`, adding its wall time in nanoseconds to `slot`.
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_nanos() as u64;
    out
}

/// Opens and decodes one chunk, batched or message by message.
fn open_chunk(
    enclave: &mut Enclave,
    msgs: &[SealedMessage],
    batch_open: bool,
) -> Vec<SparseGradient> {
    if batch_open {
        open_and_decode(enclave, msgs, 0).expect("rig uploads must verify")
    } else {
        msgs.iter()
            .map(|m| {
                let plain = enclave.open_upload(m).expect("rig uploads must verify");
                SparseGradient::decode(&plain).expect("well-formed encoding")
            })
            .collect()
    }
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

    #[test]
    fn serial_and_batch_open_agree() {
        let mut rig = IngestionRig::new(10, 4, 64, 9);
        let batch = PassConfig::streaming(AggregatorKind::NonOblivious, 3);
        let msgs = rig.seal_round();
        let a = rig.pass(&msgs, batch, None).delta;
        let msgs = rig.seal_round();
        let b = rig.pass(&msgs, PassConfig { batch_open: false, ..batch }, None).delta;
        assert!(same_bits(&a, &b));
    }

    /// Checkpointing changes nothing about the round, and the last blob
    /// — sealed with every chunk folded — restores an engine that
    /// finishes on the pass's own bits, for an accumulating kind (whole
    /// after `load_state`) and a staged one (prefix re-staged) alike.
    #[test]
    fn checkpointed_pass_restores_the_folded_aggregator() {
        let mut rig = IngestionRig::new(12, 4, 64, 5);
        for kind in [AggregatorKind::Grouped { h: 3 }, AggregatorKind::Advanced] {
            let msgs = rig.seal_round();
            let plain = rig.pass(&msgs, PassConfig::streaming(kind, 5), None);
            let msgs = rig.seal_round();
            let cfg = PassConfig { checkpoint: true, ..PassConfig::streaming(kind, 5) };
            let ckpt = rig.pass(&msgs, cfg, None);
            assert!(
                same_bits(&plain.delta, &ckpt.delta),
                "checkpointing must not change the round"
            );
            assert!(ckpt.peak_bytes >= plain.peak_bytes, "the sealed plaintext is charged");
            let restored = rig.restore_checkpoint(&ckpt.last_checkpoint, &msgs, cfg);
            assert_eq!(restored.chunks_done(), 3);
            let (delta, end) = restored.finish(&mut NullTracer);
            assert!(same_bits(&delta.expect("fault-free"), &ckpt.delta), "{kind:?}");
            assert_eq!(end.coordinator.live, 0, "{kind:?}: the restore's charges balance");
        }
    }
}
