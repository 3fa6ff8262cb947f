//! Oblivious random shuffle by random-key bitonic sorting.
//!
//! Sorting by fresh uniform keys yields a uniformly random permutation
//! while generating the fixed bitonic comparator trace — the access pattern
//! reveals nothing about the realized permutation. Used by the
//! differentially-oblivious aggregation ablation (Section 5.4), which
//! pads with dummies and then obliviously shuffles before linear access.
//!
//! The tag and payload are packed key-major into one `u128`
//! (`tag << 64 | payload`) so the batched sort kernel compare-exchanges
//! whole words; the scalar network (the test oracle) sorts the same
//! packed words to a bitwise-identical result (both swap on a strict tag
//! inequality only, so tag ties stay put).

use olive_memsim::{Tracer, TrackedBuf};
use rand::Rng;

use crate::sort_kernel::{bitonic_sort_tagged_with, InlinePayload};

/// Uniformly shuffles `data` with an oblivious (bitonic) permutation
/// network, splitting each sort stage across `threads` workers; the
/// memory trace depends only on `data.len()`.
pub fn oblivious_shuffle_with_threads<T, R, TR>(
    region: u32,
    data: Vec<T>,
    rng: &mut R,
    threads: usize,
    tr: &mut TR,
) -> Vec<T>
where
    T: InlinePayload,
    R: Rng,
    TR: Tracer,
{
    if data.len() <= 1 {
        return data;
    }
    let mut buf = TrackedBuf::new(region, tag_randomly(data, rng));
    bitonic_sort_tagged_with(&mut buf, threads, tr);
    buf.into_inner().into_iter().map(|w| T::from_word(w as u64)).collect()
}

/// Packs every element under a fresh random tag. Tag collisions merely
/// make the tie order deterministic, a negligible bias at 63 bits.
fn tag_randomly<T: InlinePayload, R: Rng>(data: Vec<T>, rng: &mut R) -> Vec<u128> {
    data.into_iter()
        .map(|v| (((rng.gen::<u64>() >> 1) as u128) << 64) | v.to_word() as u128)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer, RuntimeConfig};
    use rand::SeedableRng;

    type Rng = rand::rngs::SmallRng;

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(1);
        let data: Vec<u64> = (0..100).collect();
        let threads = RuntimeConfig::process().threads;
        let mut out =
            oblivious_shuffle_with_threads(0, data.clone(), &mut rng, threads, &mut NullTracer);
        assert_ne!(out, data, "astronomically unlikely to be identity");
        out.sort_unstable();
        assert_eq!(out, data);
    }

    #[test]
    fn shuffle_trivial_lengths() {
        let mut rng = Rng::seed_from_u64(2);
        let t = RuntimeConfig::process().threads;
        let empty: Vec<u64> =
            oblivious_shuffle_with_threads(0, vec![], &mut rng, t, &mut NullTracer);
        assert_eq!(empty, vec![]);
        assert_eq!(
            oblivious_shuffle_with_threads(0, vec![5u64], &mut rng, t, &mut NullTracer),
            [5]
        );
    }

    #[test]
    fn shuffle_trace_independent_of_data_and_randomness() {
        // Both the data values AND the sampled permutation must be invisible
        // in the trace; only the length may matter.
        let inputs: Vec<(u64, Vec<u64>)> =
            vec![(1, (0..60).collect()), (2, (0..60).rev().collect()), (3, vec![7; 60])];
        let threads = RuntimeConfig::process().threads;
        assert_oblivious(Granularity::Element, &inputs, |(seed, data), tr| {
            let mut rng = Rng::seed_from_u64(*seed);
            oblivious_shuffle_with_threads(0, data.clone(), &mut rng, threads, tr);
        });
    }

    #[test]
    fn kernels_agree_bitwise_at_every_thread_count() {
        // 5000 elements are past the kernel's parallelism threshold, so
        // threads ∈ {2, 8} exercise the barrier path.
        let data: Vec<u64> = (0..5000).map(|i| i * 31).collect();
        // The same tags, sorted by the scalar network.
        let mut buf = TrackedBuf::new(0, tag_randomly(data.clone(), &mut Rng::seed_from_u64(77)));
        crate::sort::bitonic_sort(&mut buf, |c| (c >> 64) as u64, &mut NullTracer);
        let reference: Vec<u64> = buf.into_inner().into_iter().map(|w| w as u64).collect();
        for threads in [1usize, 2, 8] {
            let mut rng = Rng::seed_from_u64(77);
            let got =
                oblivious_shuffle_with_threads(0, data.clone(), &mut rng, threads, &mut NullTracer);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn shuffle_distribution_roughly_uniform() {
        // Chi-square-ish sanity check: position of element 0 across many
        // shuffles of a length-4 vector should hit each slot.
        let mut counts = [0u32; 4];
        let threads = RuntimeConfig::process().threads;
        for seed in 0..400 {
            let mut rng = Rng::seed_from_u64(seed);
            let data = vec![0u64, 1, 2, 3];
            let out = oblivious_shuffle_with_threads(0, data, &mut rng, threads, &mut NullTracer);
            let pos = out.iter().position(|&v| v == 0).unwrap();
            counts[pos] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((60..=140).contains(&c), "slot {i} count {c} far from uniform 100");
        }
    }
}
