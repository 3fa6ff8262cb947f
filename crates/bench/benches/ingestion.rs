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
//! chunk and shard one 24-byte descriptor frame and one sealed shard
//! checkpoint, then the receipted stripe egress. (A shard's EPC peak is
//! the closed form `max(24, 4·|stripe|)`, pinned by a unit test, so there
//! is no per-shard working-set record.)
//!
//! At n = 10k the sweep also emits one `recovery_overhead` record — the
//! cost of one full mid-round shard failover at S = 4 (scripted kill at
//! chunk 20 → relaunch, re-attest, restore from the sealed shard
//! checkpoint, resume) on top of the fault-free sharded pass, with the
//! recovered delta asserted bitwise against the fault-free one in-bench.
//!
//! `OLIVE_BENCH_FULL=1` includes n = 100k; the default sweep stops at
//! 10k so the CI smoke job stays fast. Timings land in `OLIVE_BENCH_JSON`
//! like every other bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_bench::ingest::{IngestionRig, PassConfig};
use olive_core::aggregation::AggregatorKind;
use olive_memsim::FaultPlan;
use std::cell::RefCell;
use std::time::Instant;

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
    olive_telemetry::Telemetry::from_env().bench("ingestion_ws", &fields, &[]);
}

fn bench_ingestion(c: &mut Criterion) {
    let full = std::env::var("OLIVE_BENCH_FULL").as_deref() == Ok("1");
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

        // The recovery-cost story, recorded once at n = 10k: what one
        // full mid-round shard failover costs on top of the fault-free
        // sharded pass. Both run in the same pass set and the recovered
        // delta is asserted bitwise against the fault-free one, so the
        // record prices *recovery*, not drift.
        if n == 10_000 {
            const REPS: u32 = 3;
            let shards = 4usize;
            let kill_site = "kill@20.2";
            let mut rig = rig.borrow_mut();
            let mut rt = rig.provision_shards(shards);
            let mut reference: Vec<u32> = Vec::new();
            let mut totals = [0u64; 2]; // [sharded, failover]
            for rep in 0..=REPS {
                for faulted in [false, true] {
                    let msgs = rig.seal_round();
                    if faulted {
                        rt.set_fault_plan(FaultPlan::parse(kill_site).expect("well-formed script"));
                    }
                    let t0 = Instant::now();
                    let pass = rig.pass(&msgs, streaming, Some(rt));
                    let ns = t0.elapsed().as_nanos() as u64;
                    rt = pass.shards.expect("the plane comes back");
                    let bits: Vec<u32> = pass.delta.iter().map(|v| v.to_bits()).collect();
                    if rep == 0 {
                        reference = bits; // warm-up pass: discard the timing
                    } else {
                        totals[usize::from(faulted)] += ns;
                        assert_eq!(bits, reference, "recovered delta must match bitwise");
                    }
                }
            }
            let stats = rt.recovery_stats();
            olive_telemetry::Telemetry::from_env().bench(
                "recovery_overhead",
                &[
                    ("n", (n as u64).into()),
                    ("k", (K as u64).into()),
                    ("d", (D as u64).into()),
                    ("chunk", (CHUNK as u64).into()),
                    ("shards", (shards as u64).into()),
                    ("fault", kill_site.into()),
                    ("reps", (REPS as u64).into()),
                    ("relaunches", stats.relaunches.into()),
                    ("sim_backoff_ms", stats.backoff_ms.into()),
                ],
                &[
                    ("sharded_ns", (totals[0] / REPS as u64).into()),
                    ("failover_ns", (totals[1] / REPS as u64).into()),
                ],
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ingestion);
criterion_main!(benches);
