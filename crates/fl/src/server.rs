//! Server-side FedAvg machinery: client sampling and the global update.

use olive_nn::Model;
use rand::Rng;

/// Samples each of `n_total` users independently with probability `q`
/// (Algorithm 6 line 5 — Poisson sampling, which is what the subsampled-RDP
/// analysis assumes). The sample may be *empty* — with probability
/// `(1−q)^N` nobody is picked — and callers must handle that round shape
/// rather than force a pick: substituting a uniform fallback participant
/// would break the sampling distribution the privacy analysis is
/// calibrated to (the fallback user's data would be disclosed with
/// probability 1 conditioned on an empty coin-flip round).
pub fn sample_clients<R: Rng>(n_total: usize, q: f64, rng: &mut R) -> Vec<u32> {
    (0..n_total as u32).filter(|_| rng.gen::<f64>() < q).collect()
}

/// The FedAvg server state: the global model and the server learning rate.
pub struct FedAvgServer {
    /// The global model θ_t.
    pub model: Model,
    /// Server learning rate η_s (Algorithm 1 line 14).
    pub server_lr: f32,
}

impl FedAvgServer {
    /// Wraps an initialized model.
    pub fn new(model: Model, server_lr: f32) -> Self {
        FedAvgServer { model, server_lr }
    }

    /// The current global parameter vector θ_t.
    pub fn params(&self) -> Vec<f32> {
        self.model.get_params()
    }

    /// Model dimension d.
    pub fn dim(&self) -> usize {
        self.model.param_count()
    }

    /// Applies an aggregated delta: `θ ← θ + η_s Δ̃`.
    pub fn apply_aggregate(&mut self, aggregate: &[f32]) {
        let mut params = self.model.get_params();
        assert_eq!(aggregate.len(), params.len(), "aggregate dimension mismatch");
        for (p, a) in params.iter_mut().zip(aggregate.iter()) {
            *p += self.server_lr * a;
        }
        self.model.set_params(&params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_nn::zoo::mlp;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_rate_statistics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let total: usize = (0..200).map(|_| sample_clients(1000, 0.1, &mut rng).len()).sum();
        let mean = total as f64 / 200.0;
        assert!((80.0..120.0).contains(&mean), "mean sample size {mean} vs expected 100");
    }

    #[test]
    fn sampling_is_honest_poisson_and_can_be_empty() {
        // At q = 0.01 over 5 users an empty round happens with probability
        // ~0.95 per draw; a forced fallback pick would make this loop never
        // observe one (and would skew the subsampling distribution the RDP
        // accountant assumes).
        let mut rng = SmallRng::seed_from_u64(1);
        let empties = (0..50).filter(|_| sample_clients(5, 0.01, &mut rng).is_empty()).count();
        assert!(empties > 25, "expected mostly-empty rounds at q=0.01, got {empties}/50 empty");
    }

    #[test]
    fn apply_aggregate_moves_params() {
        let mut server = FedAvgServer::new(mlp(4, 2, 2, 0.0, 0), 0.5);
        let before = server.params();
        let delta = vec![1.0f32; server.dim()];
        server.apply_aggregate(&delta);
        let after = server.params();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((a - b - 0.5).abs() < 1e-6);
        }
    }
}
