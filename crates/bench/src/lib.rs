//! # olive-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (indexed in README's "Benchmarks and paper figures"), plus Criterion
//! microbenches.
//!
//! Scale policy ([`Mode`]): every binary runs a reduced but
//! shape-preserving scale by default, `--quick` for a seconds-scale smoke
//! sweep and `--paper-scale` for the paper's dimensions.

#![forbid(unsafe_code)]

pub mod attack_exp;
pub mod ingest;
pub mod perf;
pub mod table;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::attack_exp::Scale;

/// `OLIVE_BENCH_FULL=1`: the Criterion benches add their expensive gated
/// sizes (PathORAM at d = 100 000, n = 100 000 ingestion), which the
/// default sweep skips with a note saying so.
pub fn bench_full() -> bool {
    std::env::var("OLIVE_BENCH_FULL").as_deref() == Ok("1")
}

/// Simple flag check over `std::env::args` (`--no-sim`, `--all-datasets`).
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// How large an experiment binary runs, read once from the command line:
///
/// * `--quick` — seconds-scale sweep for CI smoke coverage;
/// * default — reduced but shape-preserving scale;
/// * `--paper-scale` — the paper's dimensions (minutes to hours).
///
/// A size table takes the quick entry when both flags are given; the
/// attack experiments' [`Scale`] follows `--paper-scale` alone, so
/// `--quick --paper-scale` runs the quick sweep at paper dimensions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mode {
    /// `--quick` was passed.
    pub quick: bool,
    /// `--paper-scale` was passed.
    pub paper: bool,
}

impl Mode {
    /// Parses `--quick` / `--paper-scale` from `std::env::args`.
    pub fn from_args() -> Self {
        Mode { quick: has_flag("--quick"), paper: has_flag("--paper-scale") }
    }

    /// Selects the size table (or any per-mode slice) for the current
    /// scale: `quick` under `--quick`, `paper` under `--paper-scale`, else
    /// `default`.
    pub fn table<'a, T>(&self, quick: &'a [T], default: &'a [T], paper: &'a [T]) -> &'a [T] {
        if self.quick {
            quick
        } else if self.paper {
            paper
        } else {
            default
        }
    }

    /// Scalar counterpart of [`Mode::table`].
    pub fn pick<T>(&self, quick: T, default: T, paper: T) -> T {
        if self.quick {
            quick
        } else if self.paper {
            paper
        } else {
            default
        }
    }

    /// The attack experiments' scale: [`Scale::paper`] under
    /// `--paper-scale`, else [`Scale::reduced`].
    pub fn scale(&self) -> Scale {
        if self.paper {
            Scale::paper()
        } else {
            Scale::reduced()
        }
    }
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
    fn mode_selects_tables() {
        let quick = Mode { quick: true, paper: false };
        let deflt = Mode::default();
        let paper = Mode { quick: false, paper: true };
        let both = Mode { quick: true, paper: true };
        let (q, d, p) = (&[1][..], &[1, 2][..], &[1, 2, 3][..]);
        assert_eq!(quick.table(q, d, p), q);
        assert_eq!(deflt.table(q, d, p), d);
        assert_eq!(paper.table(q, d, p), p);
        assert_eq!(both.table(q, d, p), q, "--quick wins");
        assert_eq!(deflt.pick(10, 20, 30), 20);
        assert!(!quick.scale().paper && both.scale().paper);
    }

    #[test]
    fn timing_is_positive() {
        let t = time_once(|| {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
