//! Criterion microbench: the client step of Algorithm 1 (`EncClient`,
//! lines 15–23) one level at a time, at the two client shapes the
//! whole-round benchmark runs.
//!
//! * `train_batch/{mlp128_b10, mlp56_b4}` — one `Model::train_batch` +
//!   `sgd_step` (forward, loss, backward, update) on `mlp(64, 128, 10)`
//!   with a 10-sample batch and on `mlp(64, 56, 10)` with a 4-sample one.
//! * `local_update/{train_dp_client, adv_client}` — `olive_fl::local_update`
//!   end to end: 20 samples × batch 10, d = 9610, top-k 96 with clipping
//!   (the `train_dp` client) and 4 samples × batch 4, d = 4210, top-k 421
//!   (the client of the five d = 4210 workloads).
//! * `from_dense/{9610_k96, 4210_k421}` — the top-k selection alone, on
//!   the real deltas of 16 clients in turn: one repeated input would let
//!   the branch predictor learn its branches, which no round allows.
//!
//! The entries are allocator- and cache-sensitive at the 20 ms smoke
//! window, so `bench_gate` does not gate on them.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use olive_data::synthetic::{Generator, SyntheticConfig};
use olive_data::{partition, Dataset, LabelAssignment};
use olive_fl::{local_update, ClientConfig, SparseGradient, Sparsifier};
use olive_nn::zoo::mlp;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEED: u64 = 2024;

/// One benchmark client shape and the names of its three entries.
struct Shape {
    train_batch: &'static str,
    local_update: &'static str,
    from_dense: &'static str,
    hidden: usize,
    samples: usize,
    batch: usize,
    top_k: usize,
    clip: Option<f32>,
}

const SHAPES: [Shape; 2] = [
    Shape {
        train_batch: "train_batch/mlp128_b10",
        local_update: "local_update/train_dp_client",
        from_dense: "from_dense/9610_k96",
        hidden: 128,
        samples: 20,
        batch: 10,
        top_k: 96,
        clip: Some(1.0),
    },
    Shape {
        train_batch: "train_batch/mlp56_b4",
        local_update: "local_update/adv_client",
        from_dense: "from_dense/4210_k421",
        hidden: 56,
        samples: 4,
        batch: 4,
        top_k: 421,
        clip: None,
    },
];

/// Clients whose deltas the `from_dense` entries cycle through.
const DELTAS: usize = 16;

/// The first `n` clients' shards of a federation of `n`.
fn client_data(n: usize, samples: usize) -> Vec<Dataset> {
    let generator = Generator::new(SyntheticConfig::tiny(64, 10), SEED);
    let clients = partition(&generator, n, LabelAssignment::Fixed(2), samples, SEED);
    clients.into_iter().map(|client| client.dataset).collect()
}

fn bench_local_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_training");
    for shape in &SHAPES {
        let data = client_data(1, shape.samples).remove(0);
        let mut model = mlp(64, shape.hidden, 10, 0.0, SEED);
        let global = model.get_params();
        let cfg = ClientConfig {
            epochs: 1,
            batch_size: shape.batch,
            lr: 0.1,
            sparsifier: Sparsifier::TopK(shape.top_k),
            clip: shape.clip,
        };

        let xs = &data.features[..shape.batch * data.feature_dim];
        let ys = &data.labels[..shape.batch];
        group.bench_function(shape.train_batch, |b| {
            b.iter(|| {
                let loss = model.train_batch(black_box(xs), ys);
                model.sgd_step(0.1);
                loss
            })
        });

        group.bench_function(shape.local_update, |b| {
            b.iter(|| local_update(&mut model, black_box(&global), &data, &cfg, SEED))
        });

        // Real deltas: what one local update leaves in the parameters.
        let deltas: Vec<Vec<f32>> = client_data(DELTAS, shape.samples)
            .iter()
            .map(|data| {
                local_update(&mut model, &global, data, &cfg, SEED);
                model.get_params().iter().zip(&global).map(|(l, g)| l - g).collect()
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut next = deltas.iter().cycle();
        group.bench_function(shape.from_dense, |b| {
            b.iter(|| {
                SparseGradient::from_dense(
                    black_box(next.next().unwrap()),
                    cfg.sparsifier,
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_local_training);
criterion_main!(benches);
