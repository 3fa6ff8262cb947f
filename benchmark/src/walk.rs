//! The layer walk: one round re-enacted from outside, layer by layer.
//!
//! `OliveSystem::run_round` is the unit of truth but a single opaque call.
//! The walk provisions the same deployment from the same seed and then
//! performs the round by calling each layer's public functions in the
//! order `run_round` does, timing every call from here. It is
//! single-threaded, so its stages tile its own wall time; and because it
//! draws the same random streams it must end every round with the same
//! parameters and the same enclave signature as the program — which is
//! what makes its per-stage seconds admissible as a profile of the round.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use olive_core::aggregation::{Aggregator, ShardRuntime, StreamingAggregator};
use olive_core::olive::OliveConfig;
use olive_data::ClientData;
use olive_dp::{GaussianMechanism, RdpAccountant};
use olive_fl::{local_update, sample_clients, ClientConfig, FedAvgServer, SparseGradient};
use olive_memsim::{NullTracer, StateError, StateReader, StateWriter};
use olive_nn::Model;
use olive_tee::{AttestationService, ClientSession, Enclave, EnclaveConfig, SealedMessage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::workload::Workload;

// The program's own protocol constants (`olive.rs`), repeated so the
// walk's quotes, session keys and checkpoint blobs are the program's.
const ATTEST_CONTEXT: &[u8] = b"olive-fl-v1";
const CKPT_LABEL: &[u8] = b"round-ckpt";
const CKPT_VERSION: u8 = 1;

/// The walk's stages in round order. Metric names are `<layer>.<call>_s`.
pub const STAGES: [&str; 14] = [
    "fl.local_update_s",
    "fl.encode_s",
    "tee.seal_upload_s",
    "tee.open_batch_s",
    "fl.decode_s",
    "core.ingest_s",
    "core.save_state_s",
    "tee.seal_ckpt_s",
    "core.shard_ingress_s",
    "core.shard_egress_s",
    "core.finalize_s",
    "dp.perturb_s",
    "fl.apply_aggregate_s",
    "tee.sign_s",
];

const LOCAL_UPDATE: usize = 0;
const ENCODE: usize = 1;
const SEAL_UPLOAD: usize = 2;
const OPEN_BATCH: usize = 3;
const DECODE: usize = 4;
const INGEST: usize = 5;
const SAVE_STATE: usize = 6;
const SEAL_CKPT: usize = 7;
const SHARD_INGRESS: usize = 8;
const SHARD_EGRESS: usize = 9;
const FINALIZE: usize = 10;
const PERTURB: usize = 11;
const APPLY: usize = 12;
const SIGN: usize = 13;

/// Runs `f`, adding its wall time to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// What one walked round did and produced.
pub struct WalkRound {
    pub round: u64,
    /// Seconds per stage, indexed like [`STAGES`].
    pub stage_s: [f64; STAGES.len()],
    pub sampled: Vec<u32>,
    /// Global parameters the round started from.
    pub global: Vec<f32>,
    /// The decoded uploads, in processing order — what the enclave folded.
    pub updates: Vec<SparseGradient>,
    /// The aggregate before DP rescaling and noise.
    pub pre_noise: Vec<f32>,
    pub signature: [u8; 32],
    pub opened_bytes: u64,
    pub shard_segment_bytes: u64,
    /// The round's newest sealed checkpoint.
    pub last_ckpt: Vec<u8>,
}

impl WalkRound {
    pub fn total_s(&self) -> f64 {
        self.stage_s.iter().sum()
    }

    pub fn cells(&self) -> u64 {
        self.updates.iter().map(|u| u.k() as u64).sum()
    }
}

/// The deployment `OliveSystem::new` provisions, held as its parts.
pub struct Walk {
    wl: Workload,
    cfg: OliveConfig,
    server: FedAvgServer,
    scratch: Model,
    enclave: Enclave,
    sessions: Vec<ClientSession>,
    clients: Vec<ClientData>,
    shard_rt: Option<ShardRuntime>,
    rng: SmallRng,
    accountant: RdpAccountant,
    round: u64,
}

impl Walk {
    /// Mirrors `OliveSystem::new` plus the shard provisioning its first
    /// round performs.
    pub fn new(wl: Workload, seed: u64) -> Self {
        let (model, clients, cfg) = wl.build(seed);
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_be_bytes());
        let enclave_cfg = EnclaveConfig::default();
        let service = AttestationService::new(seed_bytes);
        let mut enclave = Enclave::launch(&enclave_cfg, seed_bytes);
        let quote = enclave.attest(&service, ATTEST_CONTEXT);
        let measurement = enclave.measurement();
        let sessions = clients
            .iter()
            .map(|c| {
                let mut cs = seed_bytes;
                cs[24..28].copy_from_slice(&c.user.to_be_bytes());
                cs[28] ^= 0xC1;
                let session = ClientSession::establish(
                    c.user,
                    service.public_key(),
                    &measurement,
                    &quote,
                    cs,
                )
                .expect("the walk's clients attest the walk's enclave");
                enclave.register_client(c.user, session.dh_public()).expect("attested above");
                session
            })
            .collect();
        let d = model.param_count();
        let shards = wl.shards.min(d);
        let shard_rt = (shards > 1).then(|| {
            // First provisioning generation: epoch 1 mixed into the seed.
            let mut shard_seed = seed_bytes;
            shard_seed[11] ^= 1;
            ShardRuntime::provision(
                &service,
                &mut enclave,
                ATTEST_CONTEXT,
                shard_seed,
                enclave_cfg.epc_bytes,
                d,
                shards,
            )
            .expect("fault-free provisioning")
        });
        Walk {
            wl,
            scratch: model.clone(),
            server: FedAvgServer::new(model, cfg.server_lr),
            enclave,
            sessions,
            clients,
            shard_rt,
            rng: SmallRng::seed_from_u64(seed ^ 0x011F_E5EED),
            accountant: RdpAccountant::new(),
            round: 0,
            cfg,
        }
    }

    pub fn params(&self) -> Vec<f32> {
        self.server.params()
    }

    pub fn dim(&self) -> usize {
        self.server.dim()
    }

    fn client_cfg(&self) -> ClientConfig {
        let mut client_cfg = self.cfg.client;
        if let Some(dp) = self.cfg.dp {
            client_cfg.clip = Some(dp.clip);
        }
        client_cfg
    }

    /// One round, stage by stage, in `run_round`'s order.
    pub fn round(&mut self) -> WalkRound {
        let mut s = [0.0f64; STAGES.len()];
        let t = self.round;
        let d = self.dim();
        let sampled = sample_clients(self.cfg.n_clients, self.cfg.sample_rate, &mut self.rng);
        assert!(!sampled.is_empty(), "benchmark workloads never draw an empty sample");
        self.enclave.begin_round(t, sampled.clone());
        if let Some(rt) = self.shard_rt.as_mut() {
            rt.begin_round();
        }
        let base_floors = self.enclave.replay_floors();
        let global = self.server.params();
        let client_cfg = self.client_cfg();

        let trained: Vec<SparseGradient> = timed(&mut s[LOCAL_UPDATE], || {
            sampled
                .iter()
                .map(|&u| {
                    let data = &self.clients[u as usize].dataset;
                    let seed = train_seed(self.cfg.seed, t, u);
                    local_update(&mut self.scratch, &global, data, &client_cfg, seed)
                })
                .collect()
        });
        let encoded: Vec<Vec<u8>> =
            timed(&mut s[ENCODE], || trained.iter().map(SparseGradient::encode).collect());
        let sealed: Vec<SealedMessage> = timed(&mut s[SEAL_UPLOAD], || {
            sampled
                .iter()
                .zip(&encoded)
                .map(|(&u, payload)| self.sessions[u as usize].seal_upload(t, payload))
                .collect()
        });
        let k = trained[0].k();
        drop((trained, encoded));

        let mut agg = StreamingAggregator::new(self.cfg.aggregator, d, 1);
        let mut updates = Vec::with_capacity(sealed.len());
        let mut opened_bytes = 0u64;
        let mut shard_segment_bytes = 0u64;
        let mut last_ckpt = Vec::new();
        for (i, msgs) in sealed.chunks(self.wl.chunk).enumerate() {
            let plains: Vec<Vec<u8>> = timed(&mut s[OPEN_BATCH], || {
                self.enclave
                    .open_upload_batch(msgs)
                    .into_iter()
                    .map(|r| r.expect("sampled, registered, fresh uploads verify"))
                    .collect()
            });
            opened_bytes += plains.iter().map(|p| p.len() as u64).sum::<u64>();
            let staged: Vec<SparseGradient> = timed(&mut s[DECODE], || {
                plains
                    .iter()
                    .map(|p| SparseGradient::decode(p).expect("well-formed client encoding"))
                    .collect()
            });
            if let Some(rt) = self.shard_rt.as_mut() {
                timed(&mut s[SHARD_INGRESS], || {
                    rt.ingress_chunk(&staged).expect("fault-free ingress")
                });
                let segment: u64 = staged.iter().map(|u| u.k() as u64 * 8).sum();
                shard_segment_bytes += segment * rt.shards() as u64;
            }
            timed(&mut s[INGEST], || agg.ingest(&staged, &mut NullTracer));
            let plain = timed(&mut s[SAVE_STATE], || {
                self.checkpoint_plain(t, &sealed, &base_floors, &agg, k, i + 1)
            });
            last_ckpt = timed(&mut s[SEAL_CKPT], || self.enclave.seal(&plain, CKPT_LABEL));
            updates.extend(staged);
        }

        let mut delta = timed(&mut s[FINALIZE], || agg.finalize(&mut NullTracer));
        if let Some(rt) = self.shard_rt.as_mut() {
            delta =
                timed(&mut s[SHARD_EGRESS], || rt.egress_round(&delta).expect("fault-free egress"));
        }
        let pre_noise = delta.clone();
        if let Some(dp) = self.cfg.dp {
            timed(&mut s[PERTURB], || {
                let qn = (self.cfg.sample_rate * self.cfg.n_clients as f64) as f32;
                let rescale = sampled.len() as f32 / qn.max(1.0);
                for x in &mut delta {
                    *x *= rescale;
                }
                let mech = GaussianMechanism::new(dp.sigma / qn.max(1.0) as f64, dp.clip);
                mech.perturb(&mut delta, &mut self.rng);
                self.accountant.add_subsampled_gaussian(self.cfg.sample_rate, dp.sigma, 1);
                black_box(self.accountant.epsilon(dp.delta));
            });
        }
        timed(&mut s[APPLY], || self.server.apply_aggregate(&delta));
        let signature = timed(&mut s[SIGN], || {
            let params = self.server.params();
            let mut payload = Vec::with_capacity(params.len() * 4 + 8);
            payload.extend_from_slice(&t.to_be_bytes());
            for p in &params {
                payload.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            self.enclave.sign_output(&payload)
        });
        self.round += 1;
        WalkRound {
            round: t,
            stage_s: s,
            sampled,
            global,
            updates,
            pre_noise,
            signature,
            opened_bytes,
            shard_segment_bytes,
            last_ckpt,
        }
    }

    /// The plaintext `run_round` seals after chunk `chunks_done − 1`:
    /// round header, DP generator state, the replay floors of every
    /// folded upload, and the aggregator's serialized state.
    fn checkpoint_plain(
        &self,
        t: u64,
        sealed: &[SealedMessage],
        base_floors: &[(u32, u64)],
        agg: &StreamingAggregator,
        k: usize,
        chunks_done: usize,
    ) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u8(CKPT_VERSION);
        w.put_u64(t);
        w.put_usize(chunks_done);
        w.put_usize(sealed.len());
        w.put_usize(self.wl.chunk);
        w.put_usize(1);
        w.put_usize(k);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        let folded = (chunks_done * self.wl.chunk).min(sealed.len());
        let mut floors: BTreeMap<u32, u64> = base_floors.iter().copied().collect();
        for m in &sealed[..folded] {
            floors.insert(m.user, m.nonce_counter);
        }
        w.put_usize(floors.len());
        for (u, c) in floors {
            w.put_u32(u);
            w.put_u64(c);
        }
        w.put_bytes(&agg.save_state());
        w.into_bytes()
    }

    /// Probe — the read side of the checkpoint layer: unseal `blob` and
    /// rebuild the aggregator from it. Returns the seconds it took and
    /// the client count the restored aggregator holds.
    pub fn restore_probe(&mut self, blob: &[u8]) -> Result<(f64, usize), StateError> {
        let t0 = Instant::now();
        let plain = self.enclave.unseal(blob, CKPT_LABEL).map_err(|_| StateError::Corrupt)?;
        let mut r = StateReader::new(&plain);
        r.get_u8()?;
        r.get_u64()?;
        for _ in 0..5 {
            r.get_usize()?;
        }
        for _ in 0..4 {
            r.get_u64()?;
        }
        for _ in 0..r.get_usize()? {
            r.get_u32()?;
            r.get_u64()?;
        }
        let mut agg = StreamingAggregator::new(self.cfg.aggregator, self.dim(), 1);
        agg.load_state(r.get_bytes()?)?;
        r.expect_end()?;
        Ok((t0.elapsed().as_secs_f64(), agg.clients()))
    }

    /// Probe — one level below `fl.local_update_s`: repeats the round's
    /// local training through the `nn` and `fl` calls `local_update`
    /// makes, timing the model steps (`nn.train_batch_s`: forward,
    /// backward, SGD) and the sparsifier (`fl.from_dense_s`) apart.
    /// Returns `None` if the repeat did not reproduce the round's uploads.
    pub fn training_probe(&mut self, r: &WalkRound) -> Option<(f64, f64)> {
        let cfg = self.client_cfg();
        let (mut train_s, mut from_dense_s) = (0.0, 0.0);
        for (&user, expected) in r.sampled.iter().zip(&r.updates) {
            let data = &self.clients[user as usize].dataset;
            let model = &mut self.scratch;
            model.set_params(&r.global);
            model.zero_grads();
            let seed = train_seed(self.cfg.seed, r.round, user);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xC11E_27A1);
            let n = data.len();
            let mut order: Vec<usize> = (0..n).collect();
            for _ in 0..cfg.epochs {
                for t in (1..n).rev() {
                    let j = rng.gen_range(0..=t);
                    order.swap(t, j);
                }
                for batch in order.chunks(cfg.batch_size) {
                    let mut xs = Vec::with_capacity(batch.len() * data.feature_dim);
                    let mut ys = Vec::with_capacity(batch.len());
                    for &i in batch {
                        xs.extend_from_slice(data.row(i));
                        ys.push(data.labels[i]);
                    }
                    timed(&mut train_s, || {
                        model.train_batch(&xs, &ys);
                        model.sgd_step(cfg.lr);
                    });
                }
            }
            let local = model.get_params();
            let delta: Vec<f32> = local.iter().zip(&r.global).map(|(l, g)| l - g).collect();
            let mut sparse = timed(&mut from_dense_s, || {
                SparseGradient::from_dense(&delta, cfg.sparsifier, &mut rng)
            });
            if let Some(c) = cfg.clip {
                sparse.clip_l2(c);
            }
            if !same_update(&sparse, expected) {
                return None;
            }
        }
        Some((train_s, from_dense_s))
    }
}

/// The per-client training seed `run_round` derives.
fn train_seed(seed: u64, round: u64, user: u32) -> u64 {
    seed ^ (round << 20) ^ user as u64
}

fn same_update(a: &SparseGradient, b: &SparseGradient) -> bool {
    a.dense_dim == b.dense_dim && a.indices == b.indices && same_bits(&a.values, &b.values)
}

pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Probe — the aggregation layer used differently: the same cells through
/// a fresh `StreamingAggregator` with a `threads` budget, chunked as the
/// round chunks them. Returns `(ingest_s, finalize_s, delta)`.
pub fn aggregate_probe(
    wl: &Workload,
    d: usize,
    threads: usize,
    updates: &[SparseGradient],
) -> (f64, f64, Vec<f32>) {
    let (mut ingest_s, mut finalize_s) = (0.0, 0.0);
    let mut agg = StreamingAggregator::new(wl.aggregator, d, threads);
    for chunk in updates.chunks(wl.chunk) {
        timed(&mut ingest_s, || agg.ingest(chunk, &mut NullTracer));
    }
    let delta = timed(&mut finalize_s, || agg.finalize(&mut NullTracer));
    (ingest_s, finalize_s, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use olive_core::aggregation::reference_average;

    /// The walk's whole claim, at miniature N: for every workload (DP,
    /// sharded and threaded ones included) two walked rounds leave the
    /// same parameters and signatures as two `run_round` calls.
    #[test]
    fn walk_reproduces_run_round_bitwise() {
        for w in WORKLOADS {
            let mini = w.with_clients(40);
            let mut system = mini.system(11);
            let mut walk = Walk::new(mini, 11);
            for _ in 0..2 {
                let report = system.run_round(&mut NullTracer).expect("fault-free round");
                let r = walk.round();
                assert_eq!(r.sampled, report.processed_users, "{}", w.name);
                assert!(same_bits(&walk.params(), &system.global_params()), "{}", w.name);
                assert_eq!(r.signature, report.model_signature, "{}", w.name);
                assert_eq!(report.telemetry.chunks as usize, r.sampled.len().div_ceil(w.chunk));
                assert_eq!(r.shard_segment_bytes > 0, w.shards > 1);

                let reference = reference_average(&r.updates, walk.dim());
                for (a, b) in r.pre_noise.iter().zip(&reference) {
                    assert!((a - b).abs() <= 1e-5, "{}", w.name);
                }
                let (secs, clients) = walk.restore_probe(&r.last_ckpt).expect("genuine blob");
                assert!(secs > 0.0);
                assert_eq!(clients, r.sampled.len());
                assert!(walk.training_probe(&r).is_some(), "{}", w.name);
                let (_, _, delta) = aggregate_probe(&mini, walk.dim(), 2, &r.updates);
                assert!(same_bits(&delta, &r.pre_noise), "{}", w.name);
                assert!(r.total_s() > 0.0 && r.cells() == (r.sampled.len() * w.top_k) as u64);
            }
        }
    }

    #[test]
    fn restore_probe_rejects_a_tampered_blob() {
        let mini = WORKLOADS[1].with_clients(8);
        let mut walk = Walk::new(mini, 5);
        let mut blob = walk.round().last_ckpt;
        let last = blob.len() - 1;
        blob[last] ^= 1;
        assert!(walk.restore_probe(&blob).is_err());
    }
}
