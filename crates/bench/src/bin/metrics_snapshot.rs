//! Deterministic telemetry snapshot: one chaos round, projected.
//!
//! Runs the pinned CI chaos deployment — the canonical 16-client
//! federation under `Grouped {h: 3}`, chunk 3, one thread, four shards,
//! the scripted fault plan `seed:1337x5@6.4` — with telemetry armed into
//! an in-memory buffer, and prints the **deterministic projection** of
//! the stream (every record minus its wall-clock suffix) to stdout.
//!
//! The projection is a pure function of the computation: span ids and
//! nesting, chunk/shard/fault sites, byte counters, recovery attempts.
//! CI diffs this output against the committed golden file
//! (`crates/bench/golden/metrics_snapshot.jsonl`), so any change to the
//! telemetry schema or to what the round *does* shows up as a reviewable
//! snapshot diff — and silent nondeterminism in the metrics plane fails
//! the build.
//!
//! Every knob that could vary by host is pinned in-process: the crypto
//! backend (`OLIVE_CRYPTO=ct` — counter keys embed the backend name) and
//! a whole `RuntimeConfig` — threads, chunk size, shard count, no ambient
//! fault script — with the sink a buffer, whatever `OLIVE_METRICS` says.
//! `--quick` is accepted for the experiments sweep and changes nothing:
//! the snapshot is already one small round.

use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{OliveConfig, OliveSystem};
use olive_data::synthetic::{Generator, SyntheticConfig};
use olive_data::{partition, LabelAssignment};
use olive_fl::{ClientConfig, Sparsifier};
use olive_memsim::{FaultPlan, NullTracer, RuntimeConfig};
use olive_nn::zoo::mlp;
use olive_tee::EnclaveConfig;
use olive_telemetry::{deterministic_projection, Telemetry};

/// Data seed of the snapshot federation (matches the integration-test
/// fixture so the round shape is the one the chaos suite already pins).
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
    // Round 2 arms `faults`, so it is empty. The buffer is armed after
    // provisioning (`set_telemetry` below): the snapshot starts at round 1.
    let runtime = RuntimeConfig {
        threads: 1,
        chunk: 3,
        shards: 4,
        faults: FaultPlan::empty(),
        metrics: Telemetry::off(),
    };
    let enclave = EnclaveConfig::default();
    let mut sys = OliveSystem::with_enclave_config(model, clients, cfg, enclave, runtime);
    sys.set_fault_plan(
        FaultPlan::parse("seed:1337x5@6.4").expect("the CI spec must stay parseable"),
    );

    let tel = Telemetry::to_buffer();
    sys.set_telemetry(tel.clone());

    // Round 1 rides the chaos script; round 2 is fault-free and pins the
    // flush boundary (counters cleared between rounds, span ids running).
    for _ in 0..2 {
        sys.run_round(&mut NullTracer).expect("the scripted faults must all recover");
    }

    let stream = tel.buffer_contents().expect("buffer sink");
    print!("{}", deterministic_projection(&stream));
}
