//! Shared helpers for the cross-crate integration tests.
//!
//! All three behavioural suites (`end_to_end`, `attack_defense`,
//! `encoding_leak`) draw on **one canonical small deployment**, generated
//! once per test binary and cloned per test. Dataset synthesis, label
//! partitioning, model init and the attacker pool are fixture-seeded and
//! paid once; only the protocol seed (sampling order, training batches,
//! DP noise) varies per test. This keeps the suites fast as scenario
//! coverage grows and makes regressions comparable across suites — every
//! test sees literally the same federation.

use std::sync::OnceLock;

use olive_core::aggregation::{AggregatorKind, ShardRuntime, StreamingAggregator};
use olive_core::olive::{DpConfig, OliveConfig, OliveSystem, RoundError};
use olive_core::round::{Ledger, RoundEngine};
use olive_data::synthetic::{Dataset, Generator, SyntheticConfig};
use olive_data::{partition, ClientData, LabelAssignment};
use olive_fl::{local_update, ClientConfig, SparseGradient, Sparsifier};
use olive_memsim::ParallelTracer;
use olive_memsim::ShardPlan;
use olive_nn::zoo::mlp;
use olive_nn::Model;
use olive_tee::{AttestationService, Enclave, EnclaveConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed of the canonical deployment's *data* (clients, model init, pool).
/// Per-test seeds only steer the protocol on top of this fixed world.
const FIXTURE_SEED: u64 = 7;

/// The canonical small deployment: 16 clients, 5 classes, 1 label each,
/// an MLP with ~1k parameters, and a balanced attacker/test pool.
struct CanonicalFixture {
    clients: Vec<ClientData>,
    model: Model,
    pool: Dataset,
}

fn fixture() -> &'static CanonicalFixture {
    static FIXTURE: OnceLock<CanonicalFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let generator = Generator::new(SyntheticConfig::tiny(32, 5), FIXTURE_SEED);
        let clients = partition(&generator, 16, LabelAssignment::Fixed(1), 20, FIXTURE_SEED);
        let model = mlp(32, 12, 5, 0.0, FIXTURE_SEED);
        let mut rng = SmallRng::seed_from_u64(FIXTURE_SEED ^ 1);
        let pool = generator.sample_balanced(25, &mut rng);
        CanonicalFixture { clients, model, pool }
    })
}

fn client_config(d: usize) -> ClientConfig {
    ClientConfig {
        epochs: 2,
        batch_size: 10,
        lr: 0.25,
        sparsifier: Sparsifier::TopK(d / 16),
        clip: None,
    }
}

/// A system over the canonical deployment. `seed` steers only the
/// protocol randomness (participant sampling, batch order, DP noise) —
/// the federation itself is the shared fixture.
pub fn small_system(
    aggregator: AggregatorKind,
    dp: Option<DpConfig>,
    seed: u64,
) -> (OliveSystem, Dataset) {
    let fx = fixture();
    let d = fx.model.param_count();
    let cfg = OliveConfig {
        n_clients: fx.clients.len(),
        sample_rate: 0.6,
        client: client_config(d),
        aggregator,
        server_lr: 0.8,
        dp,
        seed,
    };
    let system = OliveSystem::new(fx.model.clone(), fx.clients.clone(), cfg);
    (system, fx.pool.clone())
}

/// Sparse top-k updates a handful of canonical clients would upload in
/// round 0 — real trained gradients for encoding/trace tests, computed
/// once per test binary.
pub fn canonical_updates() -> &'static [SparseGradient] {
    static UPDATES: OnceLock<Vec<SparseGradient>> = OnceLock::new();
    UPDATES.get_or_init(|| {
        let fx = fixture();
        let global: Vec<f32> = fx.model.get_params();
        let cfg = client_config(global.len());
        let mut scratch = fx.model.clone();
        fx.clients
            .iter()
            .take(4)
            .map(|c| {
                local_update(&mut scratch, &global, &c.dataset, &cfg, FIXTURE_SEED ^ c.user as u64)
            })
            .collect()
    })
}

/// One whole round of pre-decoded `updates` through a single-threaded
/// [`RoundEngine`] over the shard plane `rt`, in chunks of `chunk`: the
/// delta (or the error that aborted the round) and the plane as the
/// round left it. Completed or aborted, the coordinator's budget must
/// balance.
pub fn engine_round<TR: ParallelTracer>(
    kind: AggregatorKind,
    updates: &[SparseGradient],
    d: usize,
    chunk: usize,
    rt: ShardRuntime,
    tr: &mut TR,
) -> (Result<Vec<f32>, RoundError>, ShardRuntime) {
    let k = updates.iter().map(|u| u.k()).max().unwrap_or(0);
    let budget = olive_tee::EpcBudget::default();
    let ledger = Ledger::new(budget, Some(rt), olive_telemetry::Telemetry::off());
    let engine = RoundEngine::new(StreamingAggregator::new(kind, d, 1), k, 1, ledger);
    let (out, end) = engine.run(updates.chunks(chunk), tr);
    assert_eq!(end.coordinator.live, 0, "{kind:?}: the coordinator budget must balance");
    (out, end.shards.expect("the plane comes back"))
}

/// Random sparse updates for the engine-level suites: `n` clients, `k` of
/// `d` coordinates each (sorted, distinct within a client, colliding
/// across clients), values in (−1, 1).
pub fn random_updates(n: usize, k: usize, d: usize, seed: u64) -> Vec<SparseGradient> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut idxs: Vec<u32> = (0..d as u32).collect();
            for t in 0..k {
                let j = rng.gen_range(t..d);
                idxs.swap(t, j);
            }
            let mut indices: Vec<u32> = idxs[..k].to_vec();
            indices.sort_unstable();
            let values = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            SparseGradient { dense_dim: d, indices, values }
        })
        .collect()
}

/// SHA-256 of `bytes` as lowercase hex — the form byte pins are kept in.
pub fn sha256_hex(bytes: &[u8]) -> String {
    olive_crypto::sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// One of every aggregator kind (both Baseline granularities).
pub fn all_kinds() -> Vec<AggregatorKind> {
    vec![
        AggregatorKind::NonOblivious,
        AggregatorKind::Baseline { cacheline_weights: 16 },
        AggregatorKind::Baseline { cacheline_weights: 1 },
        AggregatorKind::Advanced,
        AggregatorKind::Grouped { h: 3 },
        AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan },
        AggregatorKind::DiffOblivious { epsilon: 1.0, delta: 1e-3, seed: 11 },
    ]
}

/// A shard plane provisioned over `plan`, around a throwaway attested
/// coordinator.
pub fn shard_runtime(plan: ShardPlan) -> ShardRuntime {
    let service = AttestationService::new([7; 32]);
    let mut coordinator = Enclave::launch(&EnclaveConfig::default(), [8; 32]);
    coordinator.attest(&service, b"shard-suites");
    ShardRuntime::provision_with_plan(
        &service,
        &mut coordinator,
        b"shard-suites",
        [9; 32],
        96 << 20,
        plan,
    )
    .expect("provisioning succeeds in the simulation")
}
