//! Criterion microbench: PathORAM access cost per position-map strategy
//! (the ZeroTrace constant factor of Figure 9).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_memsim::NullTracer;
use olive_oram::{PathOram, PathOramConfig, PosMapKind};

fn bench_oram(c: &mut Criterion) {
    let full = olive_bench::bench_full();
    let mut group = c.benchmark_group("path_oram_access");
    group.sample_size(10);
    // 131 072 (the d = 100k aggregation tree rounded up) joins the sweep
    // under OLIVE_BENCH_FULL=1; the linear-scan posmap is O(N) per
    // access there, which is exactly the point of the comparison.
    let capacities: &[usize] = if full { &[1_024, 16_384, 131_072] } else { &[1_024, 16_384] };
    for &capacity in capacities {
        for (name, posmap) in [
            ("trusted", PosMapKind::Trusted),
            ("linear_scan", PosMapKind::LinearScan),
            ("recursive", PosMapKind::Recursive),
        ] {
            group.bench_with_input(BenchmarkId::new(name, capacity), &capacity, |b, &capacity| {
                let mut oram = PathOram::<u64>::new(
                    PathOramConfig { capacity, stash_limit: 20, posmap, region_base: 0 },
                    7,
                );
                let mut key = 0u32;
                b.iter(|| {
                    key = (key + 101) % capacity as u32;
                    oram.write(key, key as u64, &mut NullTracer);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_oram);
criterion_main!(benches);
