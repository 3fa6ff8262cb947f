//! Criterion microbench: the cost of obliviousness at the primitive level
//! (o_select vs branch; bitonic network vs std unstable sort), plus the
//! sort-kernel matrix (scalar reference vs batched vs batched+threads) and
//! the compaction that follows the one sort of Algorithm 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_memsim::{NullTracer, TrackedBuf};
use olive_oblivious::sort::bitonic_sort;
use olive_oblivious::sort_kernel::{bitonic_sort_u64_with, SortKernel};
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
        // The historical headline number: the default (batched) kernel,
        // single-threaded — comparable against the PR 1 baselines in
        // CHANGES.md.
        group.bench_with_input(BenchmarkId::new("bitonic_oblivious", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = TrackedBuf::new(0, data.clone());
                bitonic_sort_u64_with(&mut buf, SortKernel::Batched, 1, &mut NullTracer);
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

/// The sort-kernel matrix: scalar reference vs batched (1 thread) vs
/// batched + threads (`batched_threads`, at the process-default
/// `OLIVE_THREADS` count), at n ∈ {2¹², 2¹⁶, 2²⁰}, at a Grouped group
/// sort's 31 154 cells, and just above a power of two — 2¹⁶ + 1, and the
/// 2 109 210 cells of the whole-round benchmark's `adv_sort` — where a
/// padded network would do twice the work. The scalar reference is skipped past 2¹⁶ + 1 unless
/// `OLIVE_BENCH_FULL=1` (it alone would dominate the bench wall-clock
/// ~20×).
fn bench_sort_kernels(c: &mut Criterion) {
    let full = std::env::var("OLIVE_BENCH_FULL").as_deref() == Ok("1");
    let threads = olive_memsim::default_threads();
    let mut group = c.benchmark_group("sort_kernel");
    group.sample_size(10);
    for n in [1usize << 12, 31_154, 1 << 16, (1 << 16) + 1, 1 << 20, 2_109_210] {
        let mut rng = SmallRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        if n <= (1 << 16) + 1 || full {
            group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
                b.iter(|| {
                    let mut buf = TrackedBuf::new(0, data.clone());
                    bitonic_sort(&mut buf, |x| *x, &mut NullTracer);
                    buf.into_inner()
                })
            });
        } else {
            println!(
                "bench: sort_kernel/scalar/{n} ... skipped (set OLIVE_BENCH_FULL=1 to run the \
                 scalar reference at this size)"
            );
        }
        group.bench_with_input(BenchmarkId::new("batched_t1", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = TrackedBuf::new(0, data.clone());
                bitonic_sort_u64_with(&mut buf, SortKernel::Batched, 1, &mut NullTracer);
                buf.into_inner()
            })
        });
        // A machine-independent id (the count varies per machine and per
        // OLIVE_THREADS) so JSON entries and skip lines correlate.
        if threads > 1 {
            group.bench_with_input(BenchmarkId::new("batched_threads", n), &n, |b, _| {
                b.iter(|| {
                    let mut buf = TrackedBuf::new(0, data.clone());
                    bitonic_sort_u64_with(&mut buf, SortKernel::Batched, threads, &mut NullTracer);
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
