//! Criterion microbench backing Figure 11: the grouped-Advanced U-curve,
//! plus the thread-scaling sweep for the parallel grouped aggregation.
//!
//! The `h` sweep uses the process-default thread count (`OLIVE_THREADS`,
//! else `available_parallelism().min(8)`), so `OLIVE_THREADS=1 cargo
//! bench` reproduces the serial baselines in `CHANGES.md`. The
//! `threads` sweep pins the count explicitly at the Figure 11 sweet-spot
//! group size to measure parallel speedup directly: ≥2× at 4 threads on a
//! 4-core machine is the target (the carry and averaging stay serial, so
//! perfect scaling is not expected).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_bench::synthetic_updates;
use olive_core::aggregation::{aggregate, aggregate_with_threads, AggregatorKind};
use olive_memsim::NullTracer;

fn bench_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_advanced_h_sweep");
    group.sample_size(10);
    let d = 50_890;
    let k = 509; // alpha = 0.01 keeps the bench fast
    let n = 512;
    let updates = synthetic_updates(n, k, d, 2);
    for h in [8usize, 32, 128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, &h| {
            b.iter(|| aggregate(AggregatorKind::Grouped { h }, &updates, d, &mut NullTracer))
        });
    }
    group.finish();
}

fn bench_grouping_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_advanced_threads_d100k");
    group.sample_size(10);
    let d = 100_000;
    let k = 1_000; // alpha = 0.01
    let n = 512;
    let h = 64; // per-group sort vector (hk + d → 256k cells) ≈ L3-sized
    let updates = synthetic_updates(n, k, d, 2);
    let max = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    // Always run t ∈ {1, 2} (2 exercises the fork/join path even on a
    // single core); higher counts only where the hardware can use them.
    let mut counts = vec![1usize, 2, 4, 8];
    counts.retain(|&t| t <= max.max(2));
    for threads in counts {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            let kind = AggregatorKind::Grouped { h };
            b.iter(|| aggregate_with_threads(kind, &updates, d, threads, &mut NullTracer))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_grouping, bench_grouping_threads);
criterion_main!(benches);
