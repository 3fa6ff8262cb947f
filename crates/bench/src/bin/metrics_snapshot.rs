//! Deterministic telemetry snapshot: a crashed-and-restored round and a
//! clean one, projected.
//!
//! Runs the pinned deployment — the canonical 16-client federation under
//! `Grouped {h: 3}`, chunk 3, one thread, four shards — with telemetry
//! armed into an in-memory buffer. Round 1 kills the coordinator after
//! chunk 1 and finishes through `restore_round` (so the stream carries
//! `fault_fired`, `round_restore` and the shard plane's re-provisioning);
//! round 2 runs clean. It prints the **deterministic projection** of the
//! stream (every record minus its wall-clock suffix) to stdout.
//!
//! The projection is a pure function of the computation: span ids and
//! nesting, chunk/shard/crash sites, byte counters.
//! CI diffs this output against the committed golden file
//! (`crates/bench/golden/metrics_snapshot.jsonl`), so any change to the
//! telemetry schema or to what the round *does* shows up as a reviewable
//! snapshot diff — and silent nondeterminism in the metrics plane fails
//! the build.
//!
//! Every knob that could vary by host is pinned in-process: the crypto
//! backend (`OLIVE_CRYPTO=ct` — counter keys embed the backend name) and
//! a whole `RuntimeConfig` — threads, chunk size, shard count — with the
//! sink a buffer, whatever `OLIVE_METRICS` says.
//! `--quick` is accepted for the experiments sweep and changes nothing:
//! the snapshot is already one small round.

use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{OliveConfig, OliveSystem, RoundError};
use olive_data::synthetic::{Generator, SyntheticConfig};
use olive_data::{partition, LabelAssignment};
use olive_fl::{ClientConfig, Sparsifier};
use olive_memsim::{FaultPlan, NullTracer, RuntimeConfig};
use olive_nn::zoo::mlp;
use olive_tee::EnclaveConfig;
use olive_telemetry::{deterministic_projection, Telemetry};

/// Data seed of the snapshot federation (matches the integration-test
/// fixture so the round shape is the one the telemetry suite already
/// pins).
const FIXTURE_SEED: u64 = 7;

fn main() {
    // Pin the crypto backend before anything reads it. The backend name
    // is embedded in counter keys ("sealed_bytes"/"ct"), so hardware AES
    // detection must not steer it.
    std::env::set_var("OLIVE_CRYPTO", "ct");

    let generator = Generator::new(SyntheticConfig::tiny(32, 5), FIXTURE_SEED);
    let clients = partition(&generator, 16, LabelAssignment::Fixed(1), 20, FIXTURE_SEED);
    let model = mlp(32, 12, 5, 0.0, FIXTURE_SEED);
    let d = model.param_count();
    let cfg = OliveConfig {
        n_clients: clients.len(),
        sample_rate: 0.6,
        client: ClientConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.25,
            sparsifier: Sparsifier::TopK(d / 16),
            clip: None,
        },
        aggregator: AggregatorKind::Grouped { h: 3 },
        server_lr: 0.8,
        dp: None,
        seed: 97,
    };
    // The buffer is armed after provisioning (`set_telemetry` below): the
    // snapshot starts at round 1.
    let runtime = RuntimeConfig { threads: 1, chunk: 3, shards: 4, metrics: Telemetry::off() };
    let enclave = EnclaveConfig::default();
    let mut sys = OliveSystem::with_enclave_config(model, clients, cfg, enclave, runtime);
    sys.set_fault_plan(FaultPlan::crash_after([1]));

    let tel = Telemetry::to_buffer();
    sys.set_telemetry(tel.clone());

    // Round 1 dies after chunk 1 and restores; round 2 is clean and pins
    // the flush boundary (counters cleared between rounds, span ids
    // running).
    let killed = RoundError::CoordinatorKilled { after_chunk: 1 };
    assert_eq!(sys.run_round(&mut NullTracer).expect_err("the scripted crash fires"), killed);
    sys.restore_round(&mut NullTracer).expect("the crashed round restores");
    sys.run_round(&mut NullTracer).expect("a clean round");

    let stream = tel.buffer_contents().expect("buffer sink");
    print!("{}", deterministic_projection(&stream));
}
