//! Server-side aggregation algorithms over sparsified gradients.
//!
//! Every algorithm here folds the clients' sparse updates (logically the
//! concatenated cell buffer `G`: nk cells of `(index, value)`) over the
//! dense dimension `d` and returns the **averaged** dense update
//! `Δ̃ = (1/n) Σᵢ Δᵢ` (Algorithm 1 line 12). Each exists once, as an
//! [`Aggregator`] streamer; [`aggregate_with_threads`] runs any of them
//! one-shot. All adversary-visible state lives in [`TrackedBuf`]s so the
//! supplied [`Tracer`] observes the exact access sequence the paper's
//! threat model grants the server.
//!
//! [`TrackedBuf`]: olive_memsim::TrackedBuf
//! [`Tracer`]: olive_memsim::Tracer

pub mod advanced;
pub mod baseline;
pub mod dobliv;
pub mod grouped;
pub mod linear;
pub mod oram;
pub mod sharded;
pub mod streaming;

use olive_fl::SparseGradient;
use olive_memsim::{default_threads, ParallelTracer};
use olive_oram::PosMapKind;

pub use sharded::{ShardError, ShardFailure, ShardRuntime, SHARD_CODE_IDENTITY};
pub use streaming::{Aggregator, StreamingAggregator};

/// Which aggregation algorithm the enclave runs (Section 5's lineup).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggregatorKind {
    /// The linear algorithm (Algorithm 5): fast, **not oblivious** for
    /// sparse inputs — the vulnerable default this paper attacks.
    NonOblivious,
    /// Algorithm 3 with `c` weights per cacheline (c = 16 for f32 cells =
    /// the paper's 16× optimization; c = 1 degenerates to element-level
    /// full scans).
    Baseline {
        /// Weights per cacheline.
        cacheline_weights: usize,
    },
    /// Algorithm 4 (sort → fold → compaction).
    Advanced,
    /// Section 5.3: Advanced applied to groups of `h` clients with an
    /// oblivious carry accumulation.
    Grouped {
        /// Clients per group.
        h: usize,
    },
    /// The general-purpose PathORAM comparator (ZeroTrace model).
    PathOram {
        /// Position-map strategy.
        posmap: PosMapKind,
    },
    /// Section 5.4: differentially-oblivious relaxation (dummy padding +
    /// oblivious shuffle + linear pass). `epsilon`/`delta` budget the
    /// access-histogram DP guarantee.
    DiffOblivious {
        /// DP ε for the access-pattern histogram.
        epsilon: f64,
        /// DP δ for the access-pattern histogram.
        delta: f64,
        /// Seed for padding + shuffle randomness.
        seed: u64,
    },
}

/// Aggregates sparse client updates with the chosen algorithm, reporting
/// every adversary-visible access to `tr`. Returns the averaged dense
/// update of length `d`. Parallel algorithms ([`AggregatorKind::Grouped`]
/// across groups; [`AggregatorKind::Advanced`] and
/// [`AggregatorKind::DiffOblivious`] inside their sorting networks;
/// [`AggregatorKind::Baseline`] across its per-cacheline stripe scans) use
/// the process-default thread count ([`default_threads`]).
pub fn aggregate<TR: ParallelTracer>(
    kind: AggregatorKind,
    updates: &[SparseGradient],
    d: usize,
    tr: &mut TR,
) -> Vec<f32> {
    aggregate_with_threads(kind, updates, d, default_threads(), tr)
}

/// [`aggregate`] with an explicit worker-thread count for the parallel
/// algorithms; serial algorithms ignore `threads`. `threads = 1`
/// reproduces the exact serial traces of pre-parallel builds (the
/// sort-kernel trace is thread-count-invariant by construction, so for
/// Advanced/DiffOblivious every thread count does).
///
/// This is the one one-shot entry point: one `ingest` of the whole round
/// followed by `finalize` on the kind's streamer. The streaming contract
/// (chunk boundaries are invisible to output and trace) makes it
/// *definitionally* equal to any chunked schedule.
pub fn aggregate_with_threads<TR: ParallelTracer>(
    kind: AggregatorKind,
    updates: &[SparseGradient],
    d: usize,
    threads: usize,
    tr: &mut TR,
) -> Vec<f32> {
    assert!(!updates.is_empty(), "no updates to aggregate");
    let mut agg = StreamingAggregator::new(kind, d, threads);
    agg.ingest(updates, tr);
    agg.finalize(tr)
}

/// Untraced dense reference sum (ground truth for tests): the exact value
/// every oblivious algorithm must reproduce.
pub fn reference_average(updates: &[SparseGradient], d: usize) -> Vec<f32> {
    let mut sum = vec![0.0f32; d];
    for u in updates {
        for (&i, &v) in u.indices.iter().zip(u.values.iter()) {
            sum[i as usize] += v;
        }
    }
    let inv = 1.0 / updates.len() as f32;
    for s in &mut sum {
        *s *= inv;
    }
    sum
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{AggregatorKind, ShardRuntime};
    use olive_fl::SparseGradient;
    use olive_tee::{AttestationService, Enclave, EnclaveConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One of every aggregator kind (both Baseline granularities, two
    /// group sizes).
    pub(crate) fn all_kinds() -> Vec<AggregatorKind> {
        vec![
            AggregatorKind::NonOblivious,
            AggregatorKind::Baseline { cacheline_weights: 16 },
            AggregatorKind::Baseline { cacheline_weights: 1 },
            AggregatorKind::Advanced,
            AggregatorKind::Grouped { h: 2 },
            AggregatorKind::Grouped { h: 5 },
            AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan },
            AggregatorKind::DiffOblivious { epsilon: 1.0, delta: 1e-3, seed: 5 },
        ]
    }

    /// A provisioned `shards`-way shard plane over dimension `d`, around
    /// a throwaway attested coordinator.
    pub(crate) fn shard_runtime(d: usize, shards: usize, seed: u8) -> ShardRuntime {
        let service = AttestationService::new([seed; 32]);
        let mut coordinator = Enclave::launch(&EnclaveConfig::default(), [seed ^ 1; 32]);
        coordinator.attest(&service, b"sharded-test");
        ShardRuntime::provision(
            &service,
            &mut coordinator,
            b"sharded-test",
            [seed ^ 2; 32],
            96 << 20,
            d,
            shards,
        )
        .expect("provisioning succeeds in the simulation")
    }

    /// Random sparse updates: n clients, k of d coordinates each,
    /// duplicate indices across clients guaranteed possible.
    pub(crate) fn random_updates(n: usize, k: usize, d: usize, seed: u64) -> Vec<SparseGradient> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut idxs: Vec<u32> = (0..d as u32).collect();
                for t in 0..k {
                    let j = rng.gen_range(t..d);
                    idxs.swap(t, j);
                }
                let mut indices: Vec<u32> = idxs[..k].to_vec();
                indices.sort_unstable();
                let values = (0..k).map(|_| rng.gen_range(-2.0..2.0)).collect();
                SparseGradient { dense_dim: d, indices, values }
            })
            .collect()
    }

    pub(crate) fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol, "coordinate {i}: {x} vs {y}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use olive_memsim::NullTracer;

    /// Every aggregator agrees with the dense reference on random input —
    /// the master correctness test.
    #[test]
    fn all_aggregators_match_reference() {
        let d = 64;
        let updates = random_updates(7, 9, d, 99);
        let expected = reference_average(&updates, d);
        let kinds = [
            AggregatorKind::NonOblivious,
            AggregatorKind::Baseline { cacheline_weights: 16 },
            AggregatorKind::Baseline { cacheline_weights: 1 },
            AggregatorKind::Advanced,
            AggregatorKind::Grouped { h: 2 },
            AggregatorKind::Grouped { h: 7 },
            AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan },
            AggregatorKind::DiffOblivious { epsilon: 1.0, delta: 1e-4, seed: 5 },
        ];
        for kind in kinds {
            let got = aggregate(kind, &updates, d, &mut NullTracer);
            assert_close(&got, &expected, 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut updates = random_updates(2, 3, 16, 1);
        updates[1].dense_dim = 8;
        aggregate(AggregatorKind::Advanced, &updates, 16, &mut NullTracer);
    }

    #[test]
    #[should_panic(expected = "no updates")]
    fn empty_updates_panics() {
        aggregate(AggregatorKind::Advanced, &[], 16, &mut NullTracer);
    }
}
