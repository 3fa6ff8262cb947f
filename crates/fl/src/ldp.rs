//! LDP-FL baseline: client-side perturbation before sharing.
//!
//! Table 2 of the paper contrasts trust models: LDP-FL needs no trusted
//! server but each client must randomize its own update, paying noise that
//! scales with the model dimension instead of shrinking with the number of
//! participants. This module implements the client-side Gaussian
//! perturbation so the Table 2 utility comparison (and the paper's
//! `eval-ldp-sgd` sanity script) can be reproduced.

use olive_dp::mechanism::gaussian_noise_vec;
use rand::Rng;

use crate::sparse::SparseGradient;

/// LDP over a sparsified update: noise only the k transmitted values (the
/// FedSel-style variant, ref. 45; the index choice itself is assumed
/// privatized by the selection mechanism, which we model as random-k).
pub fn ldp_perturb_sparse<R: Rng>(sg: &mut SparseGradient, clip: f32, sigma: f64, rng: &mut R) {
    sg.clip_l2(clip);
    let noise = gaussian_noise_vec(sg.values.len(), sigma * clip as f64, rng);
    for (v, n) in sg.values.iter_mut().zip(noise.iter()) {
        *v += n;
    }
}

/// Effective noise standard deviation in the *averaged global update* for
/// each scheme, used by the Table 2 comparison:
/// with n participants and per-coordinate client noise std s —
/// CDP (server/TEE noise): `s / n`; LDP: `s / sqrt(n)`.
pub fn effective_update_noise(scheme_is_cdp: bool, client_std: f64, n: usize) -> f64 {
    if scheme_is_cdp {
        client_std / n as f64
    } else {
        client_std / (n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_perturbation_preserves_index_set() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sg = SparseGradient {
            dense_dim: 100,
            indices: vec![3, 50, 99],
            values: vec![0.5, -0.5, 0.25],
        };
        let before = sg.indices.clone();
        ldp_perturb_sparse(&mut sg, 1.0, 0.5, &mut rng);
        assert_eq!(sg.indices, before);
    }

    #[test]
    fn ldp_noise_dominates_cdp_noise() {
        // The Table 2 gap: at n = 100 participants, LDP's effective noise
        // is 10× CDP's for the same client-side std.
        let cdp = effective_update_noise(true, 1.0, 100);
        let ldp = effective_update_noise(false, 1.0, 100);
        assert!((ldp / cdp - 10.0).abs() < 1e-9);
    }
}
