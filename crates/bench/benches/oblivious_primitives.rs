//! Criterion microbench: the cost of obliviousness at the primitive level
//! (o_select vs branch; bitonic network vs std unstable sort), plus the
//! sort-kernel matrix (one worker vs the process's threads) and the
//! compaction that follows the one sort of Algorithm 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_memsim::{NullTracer, RuntimeConfig, TrackedBuf};
use olive_oblivious::sort_kernel::bitonic_sort_u64_with;
use olive_oblivious::{compact_u64, o_scan_read, o_select};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_select(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0);
    let data: Vec<(bool, u64, u64)> =
        (0..1024).map(|_| (rng.gen(), rng.gen(), rng.gen())).collect();
    c.bench_function("o_select_u64_1024", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(f, x, y) in &data {
                acc ^= o_select(f, x, y);
            }
            acc
        })
    });
    c.bench_function("branch_select_1024", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(f, x, y) in &data {
                acc ^= if std::hint::black_box(f) { x } else { y };
            }
            acc
        })
    });
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    for n in [1usize << 12, 1 << 16] {
        let mut rng = SmallRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        // The historical headline number: the sort kernel, single-threaded
        // — comparable against the earliest baselines in CHANGES.md.
        group.bench_with_input(BenchmarkId::new("bitonic_oblivious", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = TrackedBuf::new(0, data.clone());
                bitonic_sort_u64_with(&mut buf, 1, &mut NullTracer);
                buf.into_inner()
            })
        });
        group.bench_with_input(BenchmarkId::new("std_unstable", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                v.sort_unstable();
                v
            })
        });
    }
    group.finish();
}

/// The sort-kernel matrix: one worker (`batched_t1`) vs the
/// process's `OLIVE_THREADS` count (`batched_threads`), at
/// n ∈ {2¹², 2¹⁶, 2²⁰}, at a Grouped group sort's 31 154 cells, and just
/// above a power of two — 2¹⁶ + 1, and the 2 109 210 cells of the
/// whole-round benchmark's `adv_sort` — where a padded network would do
/// twice the work.
fn bench_sort_kernels(c: &mut Criterion) {
    let threads = RuntimeConfig::process().threads;
    let mut group = c.benchmark_group("sort_kernel");
    group.sample_size(10);
    for n in [1usize << 12, 31_154, 1 << 16, (1 << 16) + 1, 1 << 20, 2_109_210] {
        let mut rng = SmallRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("batched_t1", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = TrackedBuf::new(0, data.clone());
                bitonic_sort_u64_with(&mut buf, 1, &mut NullTracer);
                buf.into_inner()
            })
        });
        // A machine-independent id (the count varies per machine and per
        // OLIVE_THREADS) so JSON entries and skip lines correlate.
        if threads > 1 {
            group.bench_with_input(BenchmarkId::new("batched_threads", n), &n, |b, _| {
                b.iter(|| {
                    let mut buf = TrackedBuf::new(0, data.clone());
                    bitonic_sort_u64_with(&mut buf, threads, &mut NullTracer);
                    buf.into_inner()
                })
            });
        } else {
            println!(
                "bench: sort_kernel/batched_threads/{n} ... skipped \
                 (thread count is 1; would equal batched_t1)"
            );
        }
    }
    group.finish();
}

/// Algorithm 4's step 4 beside its step 2 (`sort_kernel/batched_t1/*`), so
/// the split "one sort + one compaction" reads off one run: a Grouped
/// group sort's 31 154 cells and `adv_sort`'s 2 109 210. The marks are the
/// fold's output on a random top-k-shaped input — the last cell of each
/// run of a sorted index vector survives, the rest are dummies.
fn bench_compact(c: &mut Criterion) {
    let mut group = c.benchmark_group("compact");
    group.sample_size(10);
    for n in [1usize << 12, 31_154, 2_109_210] {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut indices: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4210)).collect();
        indices.sort_unstable();
        let data: Vec<u64> = (0..n)
            .map(|i| {
                let survives = i + 1 == n || indices[i] != indices[i + 1];
                (if survives { indices[i] } else { u32::MAX } as u64) << 32 | i as u64
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("u64", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = TrackedBuf::new(0, data.clone());
                compact_u64(&mut buf, &mut NullTracer);
                buf.into_inner()
            })
        });
    }
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let buf = TrackedBuf::new(0, (0..4096u64).collect::<Vec<_>>());
    c.bench_function("o_scan_read_4096", |b| {
        b.iter(|| o_scan_read(&buf, std::hint::black_box(1234), &mut NullTracer))
    });
}

criterion_group!(benches, bench_select, bench_sort, bench_sort_kernels, bench_compact, bench_scan);
criterion_main!(benches);
