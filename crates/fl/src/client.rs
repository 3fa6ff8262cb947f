//! Client-side local training (the paper's `EncClient`, Algorithm 1
//! lines 15–23 / Algorithm 6 lines 15–24).

use olive_data::Dataset;
use olive_nn::Model;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sparse::{SparseGradient, Sparsifier};

/// Local-training hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Local epochs per round.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Client learning rate η_c.
    pub lr: f32,
    /// Sparsification policy applied to the delta.
    pub sparsifier: Sparsifier,
    /// Optional ℓ2 clipping bound C (DP mode, Algorithm 6 line 22).
    pub clip: Option<f32>,
}

impl ClientConfig {
    /// A small default: 2 epochs, batch 10, lr 0.1, top-k by ratio α on d.
    pub fn with_top_ratio(d: usize, alpha: f64) -> Self {
        let k = ((d as f64 * alpha).round() as usize).max(1);
        ClientConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.1,
            sparsifier: Sparsifier::TopK(k),
            clip: None,
        }
    }
}

/// Runs local training from `global_params` on `data` and returns the
/// sparsified weight delta `Δ = TopkSparse(θ_local − θ_global)`.
///
/// `model` is a scratch model of the right architecture; its parameters
/// are overwritten. θ crosses into the model's storage layout once
/// (`set_params`), and `Model::delta_from` writes `θ_local − θ_global`
/// back in θ order without building θ_local. Deterministic in `seed`
/// (batch order + dropout stream are the only randomness).
pub fn local_update(
    model: &mut Model,
    global_params: &[f32],
    data: &Dataset,
    cfg: &ClientConfig,
    seed: u64,
) -> SparseGradient {
    assert!(!data.is_empty(), "client has no local data");
    assert!(cfg.batch_size > 0, "client batch size must be positive");
    model.set_params(global_params);
    model.zero_grads();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC11E_27A1);
    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut xs = Vec::with_capacity(cfg.batch_size.min(n) * data.feature_dim);
    let mut ys = Vec::with_capacity(cfg.batch_size.min(n));
    for _ in 0..cfg.epochs {
        // Fresh shuffle per epoch (Fisher–Yates).
        for t in (1..n).rev() {
            let j = rng.gen_range(0..=t);
            order.swap(t, j);
        }
        for batch in order.chunks(cfg.batch_size) {
            xs.clear();
            ys.clear();
            for &i in batch {
                xs.extend_from_slice(data.row(i));
                ys.push(data.labels[i]);
            }
            model.train_batch(&xs, &ys);
            model.sgd_step(cfg.lr);
        }
    }
    let delta = model.delta_from(global_params);
    let mut sparse = SparseGradient::from_dense(delta, cfg.sparsifier, &mut rng);
    if let Some(c) = cfg.clip {
        sparse.clip_l2(c);
    }
    sparse
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_data::synthetic::{Generator, SyntheticConfig};
    use olive_data::{partition, LabelAssignment};
    use olive_nn::zoo::mlp;

    fn setup() -> (Model, Vec<f32>, Generator) {
        let model = mlp(16, 8, 4, 0.0, 3);
        let params = model.get_params();
        let gen = Generator::new(SyntheticConfig::tiny(16, 4), 5);
        (model, params, gen)
    }

    #[test]
    fn delta_is_sparse_and_sorted() {
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let data = gen.sample_class(1, 20, &mut rng);
        let cfg = ClientConfig {
            epochs: 1,
            batch_size: 5,
            lr: 0.1,
            sparsifier: Sparsifier::TopK(10),
            clip: None,
        };
        let sg = local_update(&mut model, &params, &data, &cfg, 7);
        assert_eq!(sg.k(), 10);
        assert_eq!(sg.dense_dim, params.len());
        for w in sg.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(sg.values.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let data = gen.sample_class(2, 12, &mut rng);
        let cfg = ClientConfig::with_top_ratio(params.len(), 0.05);
        let a = local_update(&mut model, &params, &data, &cfg, 1);
        let b = local_update(&mut model, &params, &data, &cfg, 1);
        assert_eq!(a, b);
        let c = local_update(&mut model, &params, &data, &cfg, 2);
        assert!(a.indices != c.indices || a.values != c.values);
    }

    #[test]
    fn clip_respected() {
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let data = gen.sample_class(0, 20, &mut rng);
        let cfg = ClientConfig {
            epochs: 3,
            batch_size: 4,
            lr: 0.5,
            sparsifier: Sparsifier::TopK(20),
            clip: Some(0.1),
        };
        let sg = local_update(&mut model, &params, &data, &cfg, 3);
        assert!(sg.l2_norm() <= 0.1 + 1e-5);
    }

    #[test]
    fn different_labels_different_indices() {
        // The correlation the attack rides on: clients holding different
        // labels produce different top-k index sets.
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = ClientConfig {
            epochs: 2,
            batch_size: 5,
            lr: 0.2,
            sparsifier: Sparsifier::TopK(8),
            clip: None,
        };
        let d0 = gen.sample_class(0, 20, &mut rng);
        let d1 = gen.sample_class(1, 20, &mut rng);
        let i0 = local_update(&mut model, &params, &d0, &cfg, 1).indices;
        let i1 = local_update(&mut model, &params, &d1, &cfg, 1).indices;
        let overlap = i0.iter().filter(|i| i1.contains(i)).count();
        assert!(overlap < i0.len(), "index sets should differ across labels");
    }

    #[test]
    fn with_top_ratio_computes_k() {
        let cfg = ClientConfig::with_top_ratio(1000, 0.01);
        assert_eq!(cfg.sparsifier, Sparsifier::TopK(10));
        let tiny = ClientConfig::with_top_ratio(10, 0.001);
        assert_eq!(tiny.sparsifier, Sparsifier::TopK(1), "k is floored at 1");
    }

    /// `local_update` on `mlp(64, hidden, 10)` (no dropout) with every Dense
    /// pass written as the scalar loops the `olive-nn` kernels replaced:
    /// strictly left-to-right dot products, gradients summed sample by
    /// sample. θ is `w1 ‖ b1 ‖ w2 ‖ b2`, row-major.
    fn scalar_local_update(
        hidden: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &ClientConfig,
        seed: u64,
    ) -> SparseGradient {
        fn dense(w: &[f32], b: &[f32], x: &[f32]) -> Vec<f32> {
            b.iter()
                .zip(w.chunks_exact(x.len()))
                .map(|(&bias, row)| row.iter().zip(x).fold(bias, |acc, (w, x)| acc + w * x))
                .collect()
        }
        let (inp, classes) = (data.feature_dim, data.num_classes);
        let (b1, w2) = (hidden * inp, hidden * inp + hidden);
        let b2 = w2 + classes * hidden;
        let mut theta = global.to_vec();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC11E_27A1);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..cfg.epochs {
            for t in (1..order.len()).rev() {
                order.swap(t, rng.gen_range(0..=t));
            }
            for batch in order.chunks(cfg.batch_size) {
                let n = batch.len();
                let ys: Vec<usize> = batch.iter().map(|&i| data.labels[i]).collect();
                let (mut pre, mut logits) = (Vec::new(), Vec::new());
                for &i in batch {
                    let h = dense(&theta[..b1], &theta[b1..w2], data.row(i));
                    let act: Vec<f32> = h.iter().map(|v| v.max(0.0)).collect();
                    logits.extend(dense(&theta[w2..b2], &theta[b2..], &act));
                    pre.push((h, act));
                }
                let (_, glogits) = olive_nn::softmax_cross_entropy(&logits, &ys, classes);
                let mut grad = vec![0.0f32; theta.len()];
                for s in 0..n {
                    let (h, act) = &pre[s];
                    let mut gact = vec![0.0f32; hidden];
                    for (o, &g) in glogits[s * classes..(s + 1) * classes].iter().enumerate() {
                        grad[b2 + o] += g;
                        for i in 0..hidden {
                            grad[w2 + o * hidden + i] += g * act[i];
                            gact[i] += g * theta[w2 + o * hidden + i];
                        }
                    }
                    for (o, &g) in gact.iter().enumerate() {
                        let g = if h[o] > 0.0 { g } else { 0.0 };
                        grad[b1 + o] += g;
                        for (i, &x) in data.row(batch[s]).iter().enumerate() {
                            grad[o * inp + i] += g * x;
                        }
                    }
                }
                for (p, g) in theta.iter_mut().zip(&grad) {
                    *p -= cfg.lr * g;
                }
            }
        }
        let delta: Vec<f32> = theta.iter().zip(global).map(|(l, g)| l - g).collect();
        let mut sparse = SparseGradient::from_dense(&delta, cfg.sparsifier, &mut rng);
        if let Some(c) = cfg.clip {
            sparse.clip_l2(c);
        }
        sparse
    }

    /// The two client shapes of the whole-round benchmark, pinned: the
    /// vector kernels, the parameters-only first layer and the reused
    /// buffers must return the scalar reference's upload bit for bit.
    #[test]
    fn matches_the_scalar_reference_at_the_benchmark_shapes() {
        for (hidden, samples, batch_size, top_k, clip) in
            [(128, 20, 10, 96, Some(1.0)), (56, 4, 4, 421, None)]
        {
            let gen = Generator::new(SyntheticConfig::tiny(64, 10), 2024);
            let data =
                partition(&gen, 1, LabelAssignment::Fixed(2), samples, 2024).remove(0).dataset;
            let mut model = mlp(64, hidden, 10, 0.0, 2024);
            let global = model.get_params();
            let sparsifier = Sparsifier::TopK(top_k);
            let cfg = ClientConfig { epochs: 2, batch_size, lr: 0.1, sparsifier, clip };
            let got = local_update(&mut model, &global, &data, &cfg, 9);
            let want = scalar_local_update(hidden, &global, &data, &cfg, 9);
            assert_eq!(got.indices, want.indices, "hidden {hidden}");
            let bits =
                |sg: &SparseGradient| sg.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "hidden {hidden}");
            assert_eq!(got.k(), top_k);
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics_instead_of_spinning() {
        let (mut model, params, gen) = setup();
        let data = gen.sample_class(0, 4, &mut SmallRng::seed_from_u64(0));
        let cfg = ClientConfig { batch_size: 0, ..ClientConfig::with_top_ratio(params.len(), 0.1) };
        local_update(&mut model, &params, &data, &cfg, 0);
    }

    #[test]
    #[should_panic(expected = "no local data")]
    fn empty_dataset_panics() {
        let (mut model, params, _gen) = setup();
        let empty = Dataset { features: vec![], labels: vec![], feature_dim: 16, num_classes: 4 };
        let cfg = ClientConfig::with_top_ratio(params.len(), 0.1);
        local_update(&mut model, &params, &empty, &cfg, 0);
    }
}
