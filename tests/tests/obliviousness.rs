//! Cross-crate executable versions of the paper's obliviousness claims
//! (Definition 2.1, Propositions 3.1/3.2/5.1/5.2), at both observation
//! granularities, over randomized inputs.

use olive_core::aggregation::{aggregate, aggregate_with_threads, AggregatorKind};
use olive_fl::SparseGradient;
use olive_integration_tests::random_updates;
use olive_memsim::{assert_not_oblivious, assert_oblivious, Granularity};

fn inputs(seeds: &[u64]) -> Vec<Vec<SparseGradient>> {
    seeds.iter().map(|&s| random_updates(4, 6, 96, s)).collect()
}

#[test]
fn linear_on_sparse_leaks_at_both_granularities() {
    let ins = inputs(&[1, 2, 3]);
    for granularity in [Granularity::Element, Granularity::Cacheline] {
        assert_not_oblivious(granularity, &ins, |ups, tr| {
            aggregate(AggregatorKind::NonOblivious, ups, 96, tr);
        });
    }
}

#[test]
fn baseline_c16_oblivious_at_cacheline() {
    let ins = inputs(&[4, 5, 6]);
    assert_oblivious(Granularity::Cacheline, &ins, |ups, tr| {
        aggregate(AggregatorKind::Baseline { cacheline_weights: 16 }, ups, 96, tr);
    });
}

#[test]
fn baseline_c1_oblivious_at_element() {
    let ins = inputs(&[7, 8, 9]);
    assert_oblivious(Granularity::Element, &ins, |ups, tr| {
        aggregate(AggregatorKind::Baseline { cacheline_weights: 1 }, ups, 96, tr);
    });
}

#[test]
fn advanced_fully_oblivious() {
    let ins = inputs(&[10, 11, 12, 13]);
    for granularity in [Granularity::Element, Granularity::Cacheline] {
        assert_oblivious(granularity, &ins, |ups, tr| {
            aggregate(AggregatorKind::Advanced, ups, 96, tr);
        });
    }
}

#[test]
fn grouped_fully_oblivious() {
    let ins = inputs(&[14, 15, 16]);
    for h in [1usize, 2, 4] {
        assert_oblivious(Granularity::Element, &ins, |ups, tr| {
            aggregate(AggregatorKind::Grouped { h }, ups, 96, tr);
        });
    }
}

/// Proposition 5.2 extended to the parallel grouped path: for any fixed
/// worker count the merged multi-thread trace is still a pure function of
/// the input shape, at both observation granularities.
#[test]
fn grouped_parallel_oblivious_at_every_thread_count() {
    let ins = inputs(&[17, 18, 19]);
    for threads in [2usize, 4, 8] {
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            assert_oblivious(granularity, &ins, |ups, tr| {
                aggregate_with_threads(AggregatorKind::Grouped { h: 2 }, ups, 96, threads, tr);
            });
        }
    }
}

/// Adversarially structured inputs: extreme index skew (everyone sends
/// the same coordinates) vs perfectly spread indices. If any oblivious
/// algorithm's trace depended on collision structure, this would catch it.
#[test]
fn oblivious_algorithms_hide_index_collisions() {
    let d = 64usize;
    let k = 8usize;
    let skewed: Vec<SparseGradient> = (0..4)
        .map(|_| SparseGradient {
            dense_dim: d,
            indices: (0..k as u32).collect(),
            values: vec![1.0; k],
        })
        .collect();
    let spread: Vec<SparseGradient> = (0..4)
        .map(|u| SparseGradient {
            dense_dim: d,
            indices: (0..k as u32).map(|j| u as u32 * k as u32 + j).collect(),
            values: vec![1.0; k],
        })
        .collect();
    let ins = vec![skewed, spread];
    for kind in [
        AggregatorKind::Baseline { cacheline_weights: 1 },
        AggregatorKind::Advanced,
        AggregatorKind::Grouped { h: 2 },
    ] {
        assert_oblivious(Granularity::Element, &ins, |ups, tr| {
            aggregate(kind, ups, d, tr);
        });
    }
}

/// PathORAM is *statistically* oblivious: traces vary with path
/// randomness, but the access-count shape is input-independent.
#[test]
fn path_oram_trace_shape_input_independent() {
    use olive_memsim::RecordingTracer;
    let shape = |seed: u64| {
        let ups = random_updates(3, 5, 32, seed);
        let mut tr = RecordingTracer::new(Granularity::Element);
        aggregate(
            AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan },
            &ups,
            32,
            &mut tr,
        );
        (tr.stats().reads, tr.stats().writes)
    };
    assert_eq!(shape(100), shape(200));
}
