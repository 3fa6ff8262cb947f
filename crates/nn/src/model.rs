//! Sequential model with flat parameter views.
//!
//! FL treats the whole model as one parameter vector θ ∈ R^d — sparsify,
//! clip, encrypt, aggregate all operate on that vector — so [`Model`]
//! exposes `get_params`/`set_params`/`get_grads` over the concatenation of
//! all layer parameters in construction order.

use crate::layers::Layer;
use crate::loss::{softmax, softmax_cross_entropy_into};

/// A feed-forward network as an ordered list of layers.
#[derive(Clone, Debug)]
pub struct Model {
    layers: Vec<Layer>,
    /// Number of classes (output dimension of the last dense layer).
    pub num_classes: usize,
    /// The current activation (after [`Model::run_forward`], the logits) or
    /// gradient, and the buffer the next layer writes; swapped per layer
    /// and reused across batches.
    cur: Vec<f32>,
    next: Vec<f32>,
}

impl Model {
    /// Builds a model from layers; `num_classes` is the logit dimension.
    pub fn new(layers: Vec<Layer>, num_classes: usize) -> Self {
        Model { layers, num_classes, cur: Vec::new(), next: Vec::new() }
    }

    /// Total trainable parameter count `d`.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_len).sum()
    }

    /// Batched forward pass returning logits.
    pub fn forward(&mut self, x: &[f32], n: usize, train: bool) -> Vec<f32> {
        self.run_forward(x, n, train).to_vec()
    }

    /// The forward pass over the model's own buffers; the logits borrow
    /// `self.cur`.
    fn run_forward(&mut self, x: &[f32], n: usize, train: bool) -> &[f32] {
        let Model { layers, cur, next, .. } = self;
        let Some((first, rest)) = layers.split_first_mut() else {
            cur.clear();
            cur.extend_from_slice(x);
            return cur;
        };
        first.forward_into(x, n, train, cur);
        for layer in rest {
            layer.forward_into(cur, n, train, next);
            std::mem::swap(cur, next);
        }
        cur
    }

    /// Forward + loss + backward; accumulates parameter gradients and
    /// returns the batch loss. The first layer runs its parameters-only
    /// backward: nothing reads the gradient with respect to the batch.
    pub fn train_batch(&mut self, x: &[f32], labels: &[usize]) -> f32 {
        let n = labels.len();
        self.run_forward(x, n, true);
        let Model { layers, num_classes, cur, next } = self;
        let loss = softmax_cross_entropy_into(cur, labels, *num_classes, next);
        std::mem::swap(cur, next);
        for (idx, layer) in layers.iter_mut().enumerate().rev() {
            layer.backward_into(cur, n, (idx > 0).then_some(&mut *next));
            std::mem::swap(cur, next);
        }
        loss
    }

    /// Applies one plain SGD step with learning rate `lr` and clears grads.
    pub fn sgd_step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.sgd_step(lr);
        }
        self.zero_grads();
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// The flat parameter vector θ.
    pub fn get_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.read_params(&mut out);
        }
        out
    }

    /// Overwrites θ from a flat vector (length must equal
    /// [`Model::param_count`]).
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.param_count(), "parameter vector length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.write_params(params, &mut offset);
        }
        debug_assert_eq!(offset, params.len());
    }

    /// The flat accumulated-gradient vector ∇θ.
    pub fn get_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.read_grads(&mut out);
        }
        out
    }

    /// Predicted class per sample.
    pub fn predict(&mut self, x: &[f32], n: usize) -> Vec<usize> {
        let num_classes = self.num_classes;
        self.run_forward(x, n, false)
            .chunks_exact(num_classes)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Class-probability rows for a batch (softmax over logits).
    pub fn predict_proba(&mut self, x: &[f32], n: usize) -> Vec<f32> {
        let num_classes = self.num_classes;
        softmax(self.run_forward(x, n, false), num_classes)
    }

    /// Mean loss and accuracy over a labelled set, evaluated in chunks.
    pub fn evaluate(&mut self, x: &[f32], labels: &[usize], batch: usize) -> (f32, f32) {
        let n = labels.len();
        let feat = x.len() / n.max(1);
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut s = 0;
        while s < n {
            let e = (s + batch).min(n);
            self.run_forward(&x[s * feat..e * feat], e - s, false);
            let Model { num_classes, cur: logits, next, .. } = self;
            let loss = softmax_cross_entropy_into(logits, &labels[s..e], *num_classes, next);
            total_loss += loss as f64 * (e - s) as f64;
            for (row, &label) in logits.chunks_exact(*num_classes).zip(&labels[s..e]) {
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if pred == label {
                    correct += 1;
                }
            }
            s = e;
        }
        ((total_loss / n.max(1) as f64) as f32, correct as f32 / n.max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::loss::softmax_cross_entropy;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tiny_mlp(seed: u64) -> Model {
        let mut rng = SmallRng::seed_from_u64(seed);
        Model::new(
            vec![
                Layer::Dense(Dense::new(4, 8, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(8, 3, &mut rng)),
            ],
            3,
        )
    }

    #[test]
    fn param_count_and_roundtrip() {
        let mut m = tiny_mlp(0);
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let p = m.get_params();
        assert_eq!(p.len(), m.param_count());
        let doubled: Vec<f32> = p.iter().map(|v| v * 2.0).collect();
        m.set_params(&doubled);
        assert_eq!(m.get_params(), doubled);
    }

    /// Finite-difference gradient check on the full MLP: the single most
    /// important test in this crate — everything downstream (FL deltas,
    /// top-k indices, the attack itself) depends on correct gradients.
    #[test]
    fn gradient_check_mlp() {
        let mut m = tiny_mlp(1);
        let x = vec![0.5f32, -0.3, 0.8, 0.1, -0.4, 0.9, -0.2, 0.6];
        let labels = vec![0usize, 2];
        m.zero_grads();
        m.train_batch(&x, &labels);
        let analytic = m.get_grads();
        let params = m.get_params();
        let eps = 2e-3f32;
        // Check a spread of parameter coordinates (all would be slow).
        for &i in &[0usize, 3, 10, 32, 33, 40, 50, 58, 66] {
            let mut pp = params.clone();
            pp[i] += eps;
            m.set_params(&pp);
            let logits = m.forward(&x, 2, false);
            let (lp, _) = softmax_cross_entropy(&logits, &labels, 3);
            let mut pm = params.clone();
            pm[i] -= eps;
            m.set_params(&pm);
            let logits = m.forward(&x, 2, false);
            let (lm, _) = softmax_cross_entropy(&logits, &labels, 3);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 2e-2 * analytic[i].abs().max(1.0),
                "param {i}: finite-diff {fd} vs analytic {}",
                analytic[i]
            );
        }
    }

    /// Same check through a conv + pool stack.
    #[test]
    fn gradient_check_cnn() {
        use crate::layers::{Conv2d, MaxPool2d};
        let mut rng = SmallRng::seed_from_u64(2);
        let mut m = Model::new(
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 6, 6, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::MaxPool2d(MaxPool2d::new(2, 4, 4)),
                Layer::Dense(Dense::new(2 * 2 * 2, 2, &mut rng)),
            ],
            2,
        );
        let x: Vec<f32> = (0..36).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect();
        let labels = vec![1usize];
        m.zero_grads();
        m.train_batch(&x, &labels);
        let analytic = m.get_grads();
        let params = m.get_params();
        let eps = 2e-3f32;
        for &i in &[0usize, 5, 10, 17, 20, 25, 30, analytic.len() - 1] {
            let mut pp = params.clone();
            pp[i] += eps;
            m.set_params(&pp);
            let (lp, _) = softmax_cross_entropy(&m.forward(&x, 1, false), &labels, 2);
            let mut pm = params.clone();
            pm[i] -= eps;
            m.set_params(&pm);
            let (lm, _) = softmax_cross_entropy(&m.forward(&x, 1, false), &labels, 2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 3e-2 * analytic[i].abs().max(1.0),
                "param {i}: finite-diff {fd} vs analytic {}",
                analytic[i]
            );
        }
    }

    /// `train_batch` runs the first layer's parameters-only backward; the
    /// gradients it leaves must be bitwise those of the full backward
    /// through every layer, for an MLP and for the attack experiments'
    /// Conv → Dense stack, accumulated over two batches.
    #[test]
    fn parameters_only_first_layer_leaves_the_full_backward_grads() {
        use crate::layers::{Conv2d, MaxPool2d};
        let mut rng = SmallRng::seed_from_u64(11);
        let cnn = Model::new(
            vec![
                Layer::Conv2d(Conv2d::new(3, 4, 5, 16, 16, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::MaxPool2d(MaxPool2d::new(4, 12, 12)),
                Layer::Dense(Dense::new(4 * 6 * 6, 32, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(32, 10, &mut rng)),
            ],
            10,
        );
        for (mut fast, feat) in [(crate::zoo::mlp(64, 128, 10, 0.5, 7), 64), (cnn, 3 * 16 * 16)] {
            let mut full = fast.clone();
            for n in [10usize, 3] {
                let x: Vec<f32> = (0..n * feat).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let labels: Vec<usize> = (0..n).map(|s| s % 10).collect();
                fast.train_batch(&x, &labels);
                let logits = full.forward(&x, n, true);
                let (_, mut grad) = softmax_cross_entropy(&logits, &labels, 10);
                for layer in full.layers.iter_mut().rev() {
                    grad = layer.backward(&grad, n);
                }
            }
            let (fast, full) = (fast.get_grads(), full.get_grads());
            assert!(fast.iter().any(|g| *g != 0.0));
            assert!(fast.iter().zip(&full).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut m = tiny_mlp(3);
        // Two separable clusters.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let c = i % 2;
            let base = if c == 0 { 1.0f32 } else { -1.0 };
            xs.extend_from_slice(&[base, base * 0.5, -base, base]);
            ys.push(c);
        }
        let first = m.train_batch(&xs, &ys);
        m.sgd_step(0.5);
        for _ in 0..50 {
            m.train_batch(&xs, &ys);
            m.sgd_step(0.5);
        }
        let (final_loss, acc) = m.evaluate(&xs, &ys, 8);
        assert!(final_loss < first * 0.5, "loss {first} -> {final_loss}");
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn predict_proba_shape() {
        let mut m = tiny_mlp(4);
        let p = m.predict_proba(&[0.0; 8], 2);
        assert_eq!(p.len(), 6);
        for row in p.chunks_exact(3) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_params_wrong_length_panics() {
        let mut m = tiny_mlp(5);
        m.set_params(&[0.0; 3]);
    }
}
