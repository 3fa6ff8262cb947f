//! # olive-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see `DESIGN.md` §4 for the full index), plus Criterion microbenches.
//!
//! Scale policy (`DESIGN.md` §5): attack experiments default to a reduced
//! but shape-preserving scale and accept `--paper-scale`; performance
//! experiments run at exact paper dimensions but accept `--quick`.

#![forbid(unsafe_code)]

pub mod attack_exp;
pub mod ingest;
pub mod perf;
pub mod table;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `OLIVE_BENCH_FULL=1`: the Criterion benches add their expensive gated
/// sizes (PathORAM at d = 100 000, n = 100 000 ingestion), which the
/// default sweep skips with a note saying so.
pub fn bench_full() -> bool {
    std::env::var("OLIVE_BENCH_FULL").as_deref() == Ok("1")
}

/// Simple flag check over `std::env::args` (`--quick`, `--paper-scale`…).
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Synthetic sparse updates at exact paper dimensions for the performance
/// figures: `n` clients, each with `k` distinct indices drawn uniformly
/// from `d` (the attack-irrelevant workload of Section 5.5 — "the proposed
/// method is fully oblivious and its efficiency depends only on the model
/// size").
pub fn synthetic_updates(n: usize, k: usize, d: usize, seed: u64) -> Vec<olive_fl::SparseGradient> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Sample k distinct indices without materializing 0..d: for
            // k ≪ d rejection sampling is near-linear in k.
            let mut set = std::collections::BTreeSet::new();
            while set.len() < k {
                set.insert(rng.gen_range(0..d as u32));
            }
            let indices: Vec<u32> = set.into_iter().collect();
            let values = (0..indices.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            olive_fl::SparseGradient { dense_dim: d, indices, values }
        })
        .collect()
}

/// Times `f` once and returns seconds (the perf figures each measure a
/// single multi-second aggregation, matching the paper's methodology of
/// timing one round).
pub fn time_once<F: FnOnce()>(f: F) -> f64 {
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_updates_shape() {
        let ups = synthetic_updates(3, 10, 1000, 1);
        assert_eq!(ups.len(), 3);
        for u in &ups {
            assert_eq!(u.k(), 10);
            assert!(u.indices.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn timing_is_positive() {
        let t = time_once(|| {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
