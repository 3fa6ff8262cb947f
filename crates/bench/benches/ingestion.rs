//! Round-ingestion bench: streaming vs materialize-all at
//! n ∈ {1k, 10k, 100k} clients.
//!
//! Each iteration is one full round of enclave-side upload processing —
//! seal (client side, unavoidable: GCM nonces are single-use), then the
//! sealed-round driver `OliveSystem::run_round` runs (`RoundEngine::open`
//! → `ingest` → `finish`: open, decode, fold) — with k = 128 cells per
//! client and d = 16384, so at
//! n = 100k the materialize-all pipeline stages n·k·8 ≈ 102 MiB of cells
//! inside the enclave: **over the 96 MiB EPC budget**, while the
//! streaming pipeline peaks at O(chunk·k + d) ≈ a quarter MiB. The
//! working-set report below makes that machine-readable.
//!
//! Before timing, each configuration runs once for its EPC peak (charged
//! by the round engine's ledger, exactly as `OliveSystem::run_round`
//! charges the EPC budget) and emits one `ingestion_ws` bench record per
//! config on the telemetry stream (`OLIVE_METRICS`):
//!
//! ```text
//! {"record":"bench","name":"ingestion_ws","deterministic":{"config":"streaming_batch",
//!  "n":100000,...,"peak_bytes":...,"epc_limit":...,"would_page":false}}
//! ```
//!
//! The shard sweep (S ∈ {1, 2, 4, 8}) runs the same round through a
//! provisioned shard plane: the timed `sharded_s{S}` benches (NonOblivious
//! fold, like the other timed configs) price the tunnel transport — per
//! chunk and shard one 24-byte descriptor frame, then the receipted
//! stripe egress. (A shard's EPC peak is the closed form
//! `max(24, 4·|stripe|)`, pinned by a unit test, so there is no per-shard
//! working-set record.)
//!
//! `OLIVE_BENCH_FULL=1` includes n = 100k; the default sweep stops at
//! 10k so the CI smoke job stays fast. Timings land in `OLIVE_BENCH_JSON`
//! like every other bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_bench::ingest::{IngestionRig, PassConfig};
use olive_core::aggregation::AggregatorKind;
use olive_memsim::RuntimeConfig;
use std::cell::RefCell;

const K: usize = 128;
const D: usize = 16_384;
const CHUNK: usize = 256;

/// One `ingestion_ws` bench record: the config's measured EPC peak
/// against the enclave's limit.
fn ws_report(rig: &mut IngestionRig, config: &str, chunk: usize) {
    let msgs = rig.seal_round();
    let pass = rig.pass(&msgs, PassConfig::streaming(AggregatorKind::NonOblivious, chunk), None);
    let (peak, limit) = (pass.peak_bytes, rig.epc_limit());
    let fields = [
        ("config", config.into()),
        ("n", (rig.n() as u64).into()),
        ("k", (K as u64).into()),
        ("d", (D as u64).into()),
        ("chunk", (chunk as u64).into()),
        ("peak_bytes", peak.into()),
        ("epc_limit", limit.into()),
        ("would_page", (peak > limit).into()),
    ];
    RuntimeConfig::process().metrics.bench("ingestion_ws", &fields, &[]);
}

fn bench_ingestion(c: &mut Criterion) {
    let full = olive_bench::bench_full();
    let sizes: &[usize] = if full { &[1_000, 10_000, 100_000] } else { &[1_000, 10_000] };
    if !full {
        println!("ingestion: n = 100000 skipped (set OLIVE_BENCH_FULL=1 to include it)");
    }
    let mut group = c.benchmark_group("round_ingestion");
    group.sample_size(10);
    for &n in sizes {
        let rig = RefCell::new(IngestionRig::new(n, K, D, 42));
        // The memory story, printed once per configuration before timing.
        ws_report(&mut rig.borrow_mut(), "streaming_batch", CHUNK);
        ws_report(&mut rig.borrow_mut(), "materialize_all", n);

        let streaming = PassConfig::streaming(AggregatorKind::NonOblivious, CHUNK);
        for (label, cfg) in [
            ("streaming_batch", streaming),
            ("materialize_batch", PassConfig { chunk: n, ..streaming }),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let mut rig = rig.borrow_mut();
                    let msgs = rig.seal_round();
                    rig.pass(&msgs, cfg, None).delta
                })
            });
        }

        // The shard sweep: the transport-cost timing.
        for shards in [1usize, 2, 4, 8] {
            let rt = RefCell::new(Some(rig.borrow_mut().provision_shards(shards)));
            group.bench_with_input(
                BenchmarkId::new(&format!("sharded_s{shards}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut rig = rig.borrow_mut();
                        let msgs = rig.seal_round();
                        let live = rt.borrow_mut().take();
                        let pass = rig.pass(&msgs, streaming, live);
                        *rt.borrow_mut() = pass.shards;
                        pass.delta
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ingestion);
criterion_main!(benches);
