//! Rényi-DP accounting (paper Appendix D, Lemmas D.4–D.7, Theorem D.8).

/// ln C(n, k) computed stably as a sum of logs (k ≤ n, both small here).
fn ln_binomial(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((k - i) as f64).ln();
    }
    acc
}

/// log-sum-exp of a slice.
fn log_sum_exp(terms: &[f64]) -> f64 {
    let m = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return m;
    }
    m + terms.iter().map(|t| (t - m).exp()).sum::<f64>().ln()
}

/// RDP of the (non-subsampled) Gaussian mechanism at order α:
/// `ρ(α) = α / (2σ²)` (Lemma D.6).
pub fn rdp_gaussian(alpha: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0 && alpha > 1.0);
    alpha / (2.0 * sigma * sigma)
}

/// Tight RDP of the sampled Gaussian mechanism at integer order α with
/// sampling rate q (Mironov–Talwar–Zhu; this is what DP-SGD accountants
/// such as Opacus/TF-Privacy compute, and what Lemma D.7 upper-bounds):
///
/// A_α = Σ_{j=0..α} C(α,j) (1−q)^{α−j} q^j e^{j(j−1)/(2σ²)},
/// ρ(α) = log(A_α) / (α−1).
pub fn rdp_subsampled_gaussian(alpha: u64, q: f64, sigma: f64) -> f64 {
    assert!(alpha >= 2, "the formula requires integer α ≥ 2");
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    assert!(sigma > 0.0);
    if q == 0.0 {
        return 0.0;
    }
    if q >= 1.0 {
        return rdp_gaussian(alpha as f64, sigma);
    }
    let inv_s2 = 1.0 / (sigma * sigma);
    let ln_q = q.ln();
    let ln_1mq = (1.0 - q).ln();
    let mut terms = Vec::with_capacity(alpha as usize + 1);
    for j in 0..=alpha {
        let jf = j as f64;
        terms.push(
            ln_binomial(alpha, j)
                + jf * ln_q
                + (alpha - j) as f64 * ln_1mq
                + jf * (jf - 1.0) * inv_s2 / 2.0,
        );
    }
    log_sum_exp(&terms) / (alpha as f64 - 1.0)
}

/// The paper's Lemma D.7 transcription (Wang et al. upper bound):
///
/// ρ'(α) ≤ 1/(α−1) · log( 1
///     + 2 q² C(α,2) · min{ 2(e^{1/σ²} − 1), e^{1/σ²} }
///     + Σ_{j=3..α} 2 q^j C(α,j) e^{j(j−1)/(2σ²)} ).
///
/// Kept for fidelity/comparison; it is looser than
/// [`rdp_subsampled_gaussian`] (the residual `2 qʲ C(α,j)` terms do not
/// vanish as σ → ∞), so the accountant itself uses the tight formula.
pub fn rdp_subsampled_gaussian_lemma_d7(alpha: u64, q: f64, sigma: f64) -> f64 {
    assert!(alpha >= 2, "the bound requires integer α ≥ 2");
    assert!((0.0..1.0).contains(&q), "q must be in [0,1)");
    assert!(sigma > 0.0);
    if q == 0.0 {
        return 0.0;
    }
    let inv_s2 = 1.0 / (sigma * sigma);
    let ln_q = q.ln();
    let ln2 = std::f64::consts::LN_2;
    let mut terms = Vec::with_capacity(alpha as usize);
    terms.push(0.0); // the "1 +"
    let j2_factor = (2.0 * inv_s2.exp_m1()).min(inv_s2.exp()).ln();
    terms.push(ln2 + 2.0 * ln_q + ln_binomial(alpha, 2) + j2_factor);
    for j in 3..=alpha {
        let jf = j as f64;
        terms.push(ln2 + jf * ln_q + ln_binomial(alpha, j) + jf * (jf - 1.0) * inv_s2 / 2.0);
    }
    log_sum_exp(&terms) / (alpha as f64 - 1.0)
}

/// Default order grid: dense small orders where the optimum usually lies,
/// sparse large orders for very small ε.
fn default_orders() -> Vec<u64> {
    let mut v: Vec<u64> = (2..=64).collect();
    v.extend([80, 96, 128, 192, 256, 512]);
    v
}

/// Accumulates RDP over rounds and converts to (ε, δ) (Lemmas D.4–D.5).
#[derive(Clone, Debug)]
pub struct RdpAccountant {
    orders: Vec<u64>,
    rdp: Vec<f64>,
    /// The per-order RDP of one step at the last `(q, σ)` composed: a
    /// deployment runs every round at the same pair, and evaluating the
    /// 69 orders costs O(α²) logarithms each.
    step: Option<([u64; 2], Vec<f64>)>,
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl RdpAccountant {
    /// Accountant with the default order grid.
    pub fn new() -> Self {
        let orders = default_orders();
        let rdp = vec![0.0; orders.len()];
        RdpAccountant { orders, rdp, step: None }
    }

    /// Composes `rounds` steps of the subsampled Gaussian mechanism with
    /// sampling rate `q` and noise multiplier `sigma` (Lemma D.4: RDP adds).
    pub fn add_subsampled_gaussian(&mut self, q: f64, sigma: f64, rounds: u64) {
        // Keyed by the bits, so the cached values are exactly what a fresh
        // evaluation returns.
        let key = [q.to_bits(), sigma.to_bits()];
        let step = match &mut self.step {
            Some((k, step)) if *k == key => step,
            slot => {
                let step = self.orders.iter().map(|&a| rdp_subsampled_gaussian(a, q, sigma));
                &mut slot.insert((key, step.collect())).1
            }
        };
        for (acc, &rho) in self.rdp.iter_mut().zip(step.iter()) {
            *acc += rounds as f64 * rho;
        }
    }

    /// Best (smallest) ε at the given δ over all tracked orders
    /// (Lemma D.5: ε = ρ + log(1/δ)/(α−1)).
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!((0.0..1.0).contains(&delta) && delta > 0.0);
        let log_inv_delta = (1.0 / delta).ln();
        self.orders
            .iter()
            .zip(self.rdp.iter())
            .map(|(&alpha, &rho)| rho + log_inv_delta / (alpha as f64 - 1.0))
            .fold(f64::INFINITY, f64::min)
    }
}

/// One-shot: ε after `rounds` subsampled-Gaussian rounds.
pub fn epsilon_for(q: f64, sigma: f64, rounds: u64, delta: f64) -> f64 {
    let mut acc = RdpAccountant::new();
    acc.add_subsampled_gaussian(q, sigma, rounds);
    acc.epsilon(delta)
}

/// Theorem D.8's closed-form sufficient noise multiplier:
/// `σ² ≥ 7 q² T (ε + 2 log(1/δ)) / ε²` for ε < 2 log(1/δ).
pub fn sigma_theorem_d8(epsilon: f64, delta: f64, q: f64, rounds: u64) -> f64 {
    assert!(epsilon > 0.0 && delta > 0.0 && delta < 1.0);
    assert!(epsilon < 2.0 * (1.0 / delta).ln(), "Theorem D.8 requires ε < 2 log(1/δ)");
    let sigma2 =
        7.0 * q * q * rounds as f64 * (epsilon + 2.0 * (1.0 / delta).ln()) / (epsilon * epsilon);
    sigma2.sqrt()
}

/// Calibrates the smallest σ (to 3 decimal places) achieving `(ε, δ)` after
/// `rounds` rounds with sampling rate `q`, by bisection on the accountant.
pub fn calibrate_sigma(epsilon: f64, delta: f64, q: f64, rounds: u64) -> f64 {
    assert!(epsilon > 0.0);
    let mut lo = 1e-2;
    let mut hi = 1.0;
    // Grow hi until it satisfies the target.
    while epsilon_for(q, hi, rounds, delta) > epsilon {
        hi *= 2.0;
        assert!(hi < 1e6, "calibration diverged");
    }
    while hi - lo > 1e-3 {
        let mid = 0.5 * (lo + hi);
        if epsilon_for(q, mid, rounds, delta) > epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert!((ln_binomial(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_binomial(10, 0)).abs() < 1e-12);
        assert!((ln_binomial(10, 10)).abs() < 1e-12);
        assert!((ln_binomial(52, 5) - 2_598_960f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn subsampling_amplifies() {
        // Subsampled RDP must be far below the unsubsampled Gaussian RDP.
        let full = rdp_gaussian(8.0, 1.0);
        let sub = rdp_subsampled_gaussian(8, 0.01, 1.0);
        assert!(sub < full / 10.0, "sub {sub} vs full {full}");
    }

    #[test]
    fn q_one_recovers_gaussian() {
        assert_eq!(rdp_subsampled_gaussian(8, 1.0, 2.0), rdp_gaussian(8.0, 2.0));
    }

    #[test]
    fn q_zero_is_free() {
        assert_eq!(rdp_subsampled_gaussian(8, 0.0, 1.0), 0.0);
    }

    #[test]
    fn lemma_d7_upper_bounds_tight_formula() {
        for &alpha in &[2u64, 4, 8, 16] {
            for &sigma in &[0.9f64, 1.12, 2.0, 4.0] {
                let tight = rdp_subsampled_gaussian(alpha, 0.1, sigma);
                let loose = rdp_subsampled_gaussian_lemma_d7(alpha, 0.1, sigma);
                assert!(
                    loose >= tight - 1e-12,
                    "α={alpha} σ={sigma}: Lemma D.7 {loose} < tight {tight}"
                );
            }
        }
    }

    #[test]
    fn rdp_vanishes_as_sigma_grows() {
        let small = rdp_subsampled_gaussian(16, 0.1, 100.0);
        assert!(small < 1e-3, "ρ should vanish with huge σ, got {small}");
    }

    #[test]
    fn epsilon_monotone_in_rounds_q_and_sigma() {
        let base = epsilon_for(0.1, 1.5, 10, 1e-5);
        assert!(epsilon_for(0.1, 1.5, 100, 1e-5) > base, "more rounds, more ε");
        assert!(epsilon_for(0.2, 1.5, 10, 1e-5) > base, "more sampling, more ε");
        assert!(epsilon_for(0.1, 3.0, 10, 1e-5) < base, "more noise, less ε");
    }

    #[test]
    fn paper_setting_epsilon_is_practical() {
        // The paper's attack-under-DP experiments use σ = 1.12 with
        // (N, q, T) = (1000, 0.1, 3): the accountant should report a
        // reasonable single-digit ε at δ = 1e-5 — i.e. a *realistic*
        // deployment, which is exactly the regime where the attack still
        // succeeds (Figure 12/13).
        let eps = epsilon_for(0.1, 1.12, 3, 1e-5);
        assert!(eps > 0.05 && eps < 10.0, "ε = {eps}");
    }

    #[test]
    fn theorem_d8_is_sufficient() {
        // The closed form must over-provision relative to the tight
        // accountant: ε(σ_D8) ≤ ε_target.
        for (eps_target, q, t) in [(1.0, 0.1, 10u64), (2.0, 0.05, 100), (0.5, 0.01, 50)] {
            let sigma = sigma_theorem_d8(eps_target, 1e-5, q, t);
            let achieved = epsilon_for(q, sigma, t, 1e-5);
            assert!(
                achieved <= eps_target * 1.05,
                "σ_D8 = {sigma}: achieved ε {achieved} > target {eps_target}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires ε < 2 log(1/δ)")]
    fn theorem_d8_validity_range() {
        sigma_theorem_d8(100.0, 1e-2, 0.1, 10);
    }

    #[test]
    fn calibration_achieves_target() {
        let sigma = calibrate_sigma(2.0, 1e-5, 0.1, 30);
        let eps = epsilon_for(0.1, sigma, 30, 1e-5);
        assert!(eps <= 2.0, "ε = {eps} at σ = {sigma}");
        // And not grossly over-noised: slightly smaller σ must violate.
        let eps_under = epsilon_for(0.1, sigma - 0.01, 30, 1e-5);
        assert!(eps_under > 2.0 * 0.95, "calibration should be near-tight, got {eps_under}");
    }

    #[test]
    fn composition_is_additive() {
        let mut acc = RdpAccountant::new();
        acc.add_subsampled_gaussian(0.1, 1.2, 5);
        acc.add_subsampled_gaussian(0.1, 1.2, 5);
        let eps_two_calls = acc.epsilon(1e-5);
        assert!((eps_two_calls - epsilon_for(0.1, 1.2, 10, 1e-5)).abs() < 1e-9);
    }

    /// The per-step cache adds the very values a fresh evaluation
    /// returns: ε after several rounds (and after a change of σ) equals
    /// the uncached sum bit for bit.
    #[test]
    fn cached_step_reports_the_uncached_epsilon() {
        let orders = default_orders();
        let mut uncached = vec![0.0f64; orders.len()];
        let mut acc = RdpAccountant::new();
        for (q, sigma, rounds) in
            [(0.5, 1.0, 1), (0.5, 1.0, 1), (0.5, 1.0, 3), (0.5, 1.3, 1), (0.5, 1.0, 1)]
        {
            for (rho, &alpha) in uncached.iter_mut().zip(&orders) {
                *rho += rounds as f64 * rdp_subsampled_gaussian(alpha, q, sigma);
            }
            acc.add_subsampled_gaussian(q, sigma, rounds);
            let fresh = RdpAccountant { orders: orders.clone(), rdp: uncached.clone(), step: None };
            for delta in [1e-5, 1e-3] {
                assert_eq!(acc.epsilon(delta).to_bits(), fresh.epsilon(delta).to_bits());
            }
        }
    }

    #[test]
    fn epsilon_decreases_with_looser_delta() {
        let tight = epsilon_for(0.1, 1.5, 10, 1e-8);
        let loose = epsilon_for(0.1, 1.5, 10, 1e-3);
        assert!(loose < tight);
    }
}
