//! Criterion microbench: the secure-channel crypto on the upload path,
//! swept per engine backend (`hw` / `ct`, whichever the CPU offers) so the
//! dispatch decision's cost is visible in GiB/s.
//!
//! Payloads: 4 KiB (small sealed state), 40 KiB ≈ one client's α=0.1
//! MNIST-MLP upload (5089 cells × 8 B), 4 MiB (a large-model shard —
//! gated behind `OLIVE_BENCH_FULL=1` for the software backend).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use olive_crypto::gcm::AesGcm;
use olive_crypto::hmac::HmacSha256;
use olive_crypto::sha256::Sha256;
use olive_crypto::{available_backends, CryptoBackend};

/// The software backend skips multi-MiB payloads unless the full sweep is
/// requested (a 4 MiB seal is ~0.06 s per iteration on `ct`: a handful of
/// iterations would eat the smoke job's window).
fn sizes_for(backend: CryptoBackend) -> Vec<usize> {
    let full = olive_bench::bench_full() || backend == CryptoBackend::Hw;
    let mut sizes = vec![4usize << 10, 40 << 10];
    if full {
        sizes.push(4 << 20);
    } else {
        eprintln!("aes_gcm/{backend}: skipped 4 MiB payload (set OLIVE_BENCH_FULL=1 to run)");
    }
    sizes
}

fn bench_gcm(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes_gcm");
    for backend in available_backends() {
        let key = AesGcm::with_backend(backend, &[7u8; 32]).unwrap();
        for size in sizes_for(backend) {
            let payload = vec![0xabu8; size];
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(
                BenchmarkId::new(&format!("{backend}/seal"), size),
                &size,
                |b, _| b.iter(|| key.seal(&[1u8; 12], &payload, b"aad")),
            );
            let ct = key.seal(&[1u8; 12], &payload, b"aad");
            group.bench_with_input(
                BenchmarkId::new(&format!("{backend}/open"), size),
                &size,
                |b, _| b.iter(|| key.open(&[1u8; 12], &ct, b"aad").unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_sha(c: &mut Criterion) {
    let data = vec![0u8; 64 << 10];
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    for backend in available_backends() {
        group.bench_function(format!("{backend}/64KiB"), |b| {
            b.iter(|| {
                let mut h = Sha256::with_backend(backend);
                h.update(&data);
                h.finalize()
            })
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0u8; 64 << 10];
    let mut group = c.benchmark_group("hmac");
    group.throughput(Throughput::Bytes(data.len() as u64));
    for backend in available_backends() {
        group.bench_function(format!("{backend}/64KiB"), |b| {
            b.iter(|| {
                let mut h = HmacSha256::with_backend(backend, b"sealing-key");
                h.update(&data);
                h.finalize()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gcm, bench_sha, bench_hmac);
criterion_main!(benches);
