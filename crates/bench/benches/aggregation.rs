//! Criterion microbench backing Figure 9: aggregation algorithms across
//! model sizes (reduced sizes; the `fig09` binary runs paper scale).
//!
//! PathORAM aggregation runs at d ≤ 1 000 (linear-scan posmap, the
//! historical entry) and d = 10 000 (recursive posmap — the fast path)
//! by default, and at d = 100 000 when `OLIVE_BENCH_FULL=1`, with the
//! O(d) ORAM construction amortized out of the timed loop and an
//! `oram_round:` machine-readable record per recursive size; anything
//! gated out says so instead of silently vanishing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_bench::synthetic_updates;
use olive_core::aggregation::oram::OramStreamer;
use olive_core::aggregation::{aggregate, Aggregator, AggregatorKind};
use olive_memsim::NullTracer;
use olive_oram::PosMapKind;

fn bench_aggregation(c: &mut Criterion) {
    let full = std::env::var("OLIVE_BENCH_FULL").as_deref() == Ok("1");
    let mut group = c.benchmark_group("aggregation_vs_model_size");
    group.sample_size(10);
    for d in [1_000usize, 10_000, 100_000] {
        let k = (d / 100).max(1);
        let n = 100;
        let updates = synthetic_updates(n, k, d, 1);
        group.bench_with_input(BenchmarkId::new("non_oblivious", d), &d, |b, &d| {
            b.iter(|| aggregate(AggregatorKind::NonOblivious, &updates, d, &mut NullTracer))
        });
        group.bench_with_input(BenchmarkId::new("baseline_c16", d), &d, |b, &d| {
            b.iter(|| {
                aggregate(
                    AggregatorKind::Baseline { cacheline_weights: 16 },
                    &updates,
                    d,
                    &mut NullTracer,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("advanced", d), &d, |b, &d| {
            b.iter(|| aggregate(AggregatorKind::Advanced, &updates, d, &mut NullTracer))
        });
        if d <= 1_000 {
            group.bench_with_input(BenchmarkId::new("path_oram", d), &d, |b, &d| {
                b.iter(|| {
                    aggregate(
                        AggregatorKind::PathOram { posmap: PosMapKind::LinearScan },
                        &updates,
                        d,
                        &mut NullTracer,
                    )
                })
            });
        } else if d <= 10_000 || full {
            // Paper-faithful ORAM cost per aggregation *round* on the
            // recursive (deployment-realistic) position map: the ORAM is
            // a long-lived structure, so its O(d) construction is
            // amortized out of the timed loop (OramStreamer::drain resets
            // slots as it reads them back, so every iteration computes a
            // fresh aggregate over the same ORAM). d = 10 000 runs by default since the
            // batched kernel landed; d = 100 000 stays behind
            // OLIVE_BENCH_FULL=1 (it is ~1M ORAM accesses per iteration).
            let mut oram = OramStreamer::init(d, PosMapKind::Recursive);
            group.bench_with_input(BenchmarkId::new("path_oram", d), &d, |b, _| {
                b.iter(|| {
                    oram.ingest(&updates, &mut NullTracer);
                    oram.drain(&mut NullTracer)
                })
            });
            // One measured round against a fresh ORAM (deterministic
            // counters — bench iterations above would skew them) emits
            // the machine-readable `oram_round:` record on both
            // channels: the telemetry stream and the legacy stdout line.
            let mut fresh = OramStreamer::init(d, PosMapKind::Recursive);
            let start = std::time::Instant::now();
            fresh.ingest(&updates, &mut NullTracer);
            let out = fresh.drain(&mut NullTracer);
            let ns = start.elapsed().as_nanos() as u64;
            std::hint::black_box(out);
            let stats = fresh.oram_stats();
            let kernel = "batched";
            let resident = fresh.resident_bytes();
            olive_telemetry::Telemetry::from_env().bench(
                "oram_round",
                &[
                    ("d", (d as u64).into()),
                    ("k", (k as u64).into()),
                    ("n", (n as u64).into()),
                    ("posmap", "recursive".into()),
                    ("kernel", kernel.into()),
                    ("accesses", stats.accesses.into()),
                    ("evicted_blocks", stats.evicted_blocks.into()),
                    ("max_stash_occupancy", stats.max_stash_occupancy.into()),
                    ("resident_bytes", resident.into()),
                ],
                &[("ns", ns.into())],
            );
            println!(
                "oram_round: {{\"d\":{d},\"k\":{k},\"n\":{n},\"posmap\":\"recursive\",\
                 \"kernel\":\"{kernel}\",\"accesses\":{},\"evicted_blocks\":{},\
                 \"max_stash_occupancy\":{},\"resident_bytes\":{resident},\"ns\":{ns}}}",
                stats.accesses, stats.evicted_blocks, stats.max_stash_occupancy,
            );
        } else {
            println!(
                "bench: aggregation_vs_model_size/path_oram/{d} ... skipped \
                 (set OLIVE_BENCH_FULL=1 to bench PathORAM at d = 100 000)"
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
