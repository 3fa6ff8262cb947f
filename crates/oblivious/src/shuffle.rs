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
//! whole words; the scalar reference network (`SortKernel::Scalar`, the
//! test oracle) sorts the same packed words to a bitwise-identical result
//! (the kernels share one swap rule, including on tag ties).

use olive_memsim::{default_threads, Tracer, TrackedBuf};
use rand::Rng;

use crate::sort_kernel::{bitonic_sort_tagged_with, sort_kernel, InlinePayload, SortKernel};

/// Uniformly shuffles `data` with an oblivious (bitonic) permutation
/// network using the process-default kernel and thread count; the memory
/// trace depends only on `data.len()`.
pub fn oblivious_shuffle<T, R, TR>(region: u32, data: Vec<T>, rng: &mut R, tr: &mut TR) -> Vec<T>
where
    T: InlinePayload,
    R: Rng,
    TR: Tracer,
{
    oblivious_shuffle_with_threads(region, data, rng, default_threads(), tr)
}

/// [`oblivious_shuffle`] with an explicit worker-thread count for the
/// intra-sort stage parallelism.
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
    oblivious_shuffle_with(region, data, rng, sort_kernel(), threads, tr)
}

/// [`oblivious_shuffle`] with every knob explicit (how the differential
/// tests reach the scalar reference network).
pub fn oblivious_shuffle_with<T, R, TR>(
    region: u32,
    data: Vec<T>,
    rng: &mut R,
    kernel: SortKernel,
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
    // Tag every element with a random key. Key collisions merely make the
    // tie order deterministic, a negligible bias at 63 bits.
    let tagged: Vec<u128> = data
        .into_iter()
        .map(|v| (((rng.gen::<u64>() >> 1) as u128) << 64) | v.to_word() as u128)
        .collect();
    let mut buf = TrackedBuf::new(region, tagged);
    bitonic_sort_tagged_with(&mut buf, kernel, threads, tr);
    buf.into_inner().into_iter().map(|w| T::from_word(w as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer};
    use rand::SeedableRng;

    type Rng = rand::rngs::SmallRng;

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(1);
        let data: Vec<u64> = (0..100).collect();
        let mut out = oblivious_shuffle(0, data.clone(), &mut rng, &mut NullTracer);
        assert_ne!(out, data, "astronomically unlikely to be identity");
        out.sort_unstable();
        assert_eq!(out, data);
    }

    #[test]
    fn shuffle_trivial_lengths() {
        let mut rng = Rng::seed_from_u64(2);
        assert_eq!(oblivious_shuffle::<u64, _, _>(0, vec![], &mut rng, &mut NullTracer), vec![]);
        assert_eq!(oblivious_shuffle(0, vec![5u64], &mut rng, &mut NullTracer), vec![5]);
    }

    #[test]
    fn shuffle_trace_independent_of_data_and_randomness() {
        // Both the data values AND the sampled permutation must be invisible
        // in the trace; only the length may matter.
        let inputs: Vec<(u64, Vec<u64>)> =
            vec![(1, (0..60).collect()), (2, (0..60).rev().collect()), (3, vec![7; 60])];
        assert_oblivious(Granularity::Element, &inputs, |(seed, data), tr| {
            let mut rng = Rng::seed_from_u64(*seed);
            oblivious_shuffle(0, data.clone(), &mut rng, tr);
        });
    }

    #[test]
    fn kernels_agree_bitwise_at_every_thread_count() {
        // 5000 elements are past the kernel's parallelism threshold, so
        // threads ∈ {2, 8} exercise the barrier path.
        let data: Vec<u64> = (0..5000).map(|i| i * 31).collect();
        let run = |kernel, threads| {
            let mut rng = Rng::seed_from_u64(77);
            oblivious_shuffle_with(0, data.clone(), &mut rng, kernel, threads, &mut NullTracer)
        };
        let reference = run(SortKernel::Scalar, 1);
        for threads in [1usize, 2, 8] {
            assert_eq!(run(SortKernel::Batched, threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn shuffle_distribution_roughly_uniform() {
        // Chi-square-ish sanity check: position of element 0 across many
        // shuffles of a length-4 vector should hit each slot.
        let mut counts = [0u32; 4];
        for seed in 0..400 {
            let mut rng = Rng::seed_from_u64(seed);
            let out = oblivious_shuffle(0, vec![0u64, 1, 2, 3], &mut rng, &mut NullTracer);
            let pos = out.iter().position(|&v| v == 0).unwrap();
            counts[pos] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((60..=140).contains(&c), "slot {i} count {c} far from uniform 100");
        }
    }
}
