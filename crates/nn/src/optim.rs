//! SGD with optional momentum, over the layers' own storage: the update
//! is element-wise, so it needs no θ-order view.

use crate::model::Model;

/// Stochastic gradient descent with classical momentum.
///
/// Plain SGD (`momentum = 0`) matches the paper's client optimizer
/// (Algorithm 1 line 19: `θ ← θ − η ∇ℓ`); momentum is available for the
/// attacker's classifier training.
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    param_count: usize,
    /// One velocity per stored parameter, in the layers' storage order
    /// (sized at the first momentum step).
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an optimizer for a model with `param_count` parameters.
    pub fn new(lr: f32, momentum: f32, param_count: usize) -> Self {
        Sgd { lr, momentum, param_count, velocity: Vec::new() }
    }

    /// Applies one update from the model's accumulated gradients, then
    /// clears them.
    pub fn step(&mut self, model: &mut Model) {
        if self.momentum == 0.0 {
            model.sgd_step(self.lr);
            return;
        }
        assert_eq!(model.param_count(), self.param_count, "optimizer/model size mismatch");
        let (lr, momentum) = (self.lr, self.momentum);
        let mut offset = 0;
        for (params, grads) in model.storage_mut() {
            let end = offset + params.len();
            if self.velocity.len() < end {
                self.velocity.resize(end, 0.0);
            }
            let velocity = &mut self.velocity[offset..end];
            for ((v, g), p) in velocity.iter_mut().zip(grads.iter_mut()).zip(params.iter_mut()) {
                *v = momentum * *v + *g;
                *p -= lr * *v;
                *g = 0.0;
            }
            offset = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model() -> Model {
        let mut rng = SmallRng::seed_from_u64(0);
        Model::new(vec![Layer::Dense(Dense::new(2, 2, &mut rng))], 2)
    }

    #[test]
    fn momentum_zero_equals_plain_sgd() {
        let mut m1 = model();
        let mut m2 = m1.clone();
        let x = [1.0f32, -1.0];
        let y = [0usize];
        m1.train_batch(&x, &y);
        m1.sgd_step(0.1);
        let mut opt = Sgd::new(0.1, 0.0, m2.param_count());
        m2.train_batch(&x, &y);
        opt.step(&mut m2);
        assert_eq!(m1.get_params(), m2.get_params());
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let mut m = model();
        let x = [1.0f32, -1.0];
        let y = [0usize];
        let mut opt = Sgd::new(0.01, 0.9, m.param_count());
        let p0 = m.get_params();
        m.train_batch(&x, &y);
        opt.step(&mut m);
        let step1: f32 = m.get_params().iter().zip(p0.iter()).map(|(a, b)| (a - b).abs()).sum();
        let p1 = m.get_params();
        m.train_batch(&x, &y);
        opt.step(&mut m);
        let step2: f32 = m.get_params().iter().zip(p1.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(step2 > step1, "velocity should build up: {step1} vs {step2}");
    }

    /// The update over the layers' storage equals, bit for bit, the same
    /// arithmetic over the θ-order views, through 20 momentum steps.
    #[test]
    fn momentum_over_storage_equals_the_theta_order_reference() {
        use rand::Rng;
        let mut fast = crate::zoo::mlp(12, 20, 5, 0.0, 3);
        let mut reference = fast.clone();
        let (lr, momentum) = (0.05f32, 0.9f32);
        let mut opt = Sgd::new(lr, momentum, fast.param_count());
        let mut velocity = vec![0.0f32; reference.param_count()];
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..20 {
            let x: Vec<f32> = (0..4 * 12).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let y = [0, 1, 2, 4];
            fast.train_batch(&x, &y);
            opt.step(&mut fast);

            reference.train_batch(&x, &y);
            let grads = reference.get_grads();
            let mut params = reference.get_params();
            for ((v, g), p) in velocity.iter_mut().zip(&grads).zip(&mut params) {
                *v = momentum * *v + g;
                *p -= lr * *v;
            }
            reference.set_params(&params);
            reference.zero_grads();
        }
        let bits = |m: &Model| m.get_params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&reference));
        assert!(fast.get_grads().iter().all(|g| *g == 0.0));
    }

    #[test]
    fn training_with_momentum_converges() {
        let mut m = model();
        let mut opt = Sgd::new(0.05, 0.9, m.param_count());
        let xs = [1.0f32, 0.0, 0.0, 1.0, 1.0, 0.1, 0.1, 1.0];
        let ys = [0usize, 1, 0, 1];
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            last = m.train_batch(&xs, &ys);
            opt.step(&mut m);
        }
        assert!(last < 0.1, "loss {last}");
    }
}
