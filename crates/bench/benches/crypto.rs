//! Criterion microbench: the secure-channel crypto on the upload path,
//! swept per engine backend (`hw` / `ct`, whichever the CPU offers) so the
//! dispatch decision's cost is visible in GiB/s.
//!
//! Payloads: 4 KiB (small sealed state), 40 KiB ≈ one client's α=0.1
//! MNIST-MLP upload (5089 cells × 8 B), 4 MiB (a large-model shard).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use olive_crypto::available_backends;
use olive_crypto::gcm::AesGcm;
use olive_crypto::hmac::HmacSha256;
use olive_crypto::sha256::Sha256;

/// Every backend seals and opens every payload (a 4 MiB `ct` seal is
/// ≈ 30 ms on the 2-vCPU AVX-512 runner).
const SIZES: [usize; 3] = [4 << 10, 40 << 10, 4 << 20];

fn bench_gcm(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes_gcm");
    for backend in available_backends() {
        let key = AesGcm::with_backend(backend, &[7u8; 32]).unwrap();
        for size in SIZES {
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
