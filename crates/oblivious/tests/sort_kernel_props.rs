//! Differential properties of the batched sort kernel against the scalar
//! reference network: bitwise-identical outputs and digest-identical
//! traces at every length, thread count and observation granularity, plus
//! the comparator-count identities under block trace events.

use olive_memsim::{
    assert_oblivious, truncated_stage_len, Granularity, NullTracer, RecordingTracer, TraceDigest,
    TrackedBuf,
};
use olive_oblivious::o_select;
use olive_oblivious::sort_kernel::{
    bitonic_sort_tagged_with, bitonic_sort_u64_with, sort_kernel, SortKernel,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const GRANULARITIES: [Granularity; 2] = [Granularity::Element, Granularity::Cacheline];

/// The kernel's private block is 2¹² cells. Lengths on both sides of a
/// register window (8), of one block (4096, the longest one-pass schedule,
/// which runs on the caller) and of the first global round (8192), with
/// the powers of two — the degenerate, untruncated network — between them.
const LENGTHS: [usize; 16] =
    [0, 1, 2, 3, 7, 8, 9, 100, 1024, 4095, 4096, 4097, 5000, 8191, 8192, 8201];

fn random_words(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Duplicate-heavy cells: equal-key comparators must take the same swap
/// decision in both kernels for outputs to match bitwise.
fn clustered_words(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| (rng.gen_range(0..16u64) << 32) | rng.gen::<u32>() as u64).collect()
}

/// Runs `sort` on a copy of `data` in region 9 under a recording tracer.
fn traced<T: Copy>(
    data: &[T],
    granularity: Granularity,
    sort: impl FnOnce(&mut TrackedBuf<T>, &mut RecordingTracer),
) -> (Vec<T>, TraceDigest) {
    let mut tr = RecordingTracer::new(granularity);
    let mut buf = TrackedBuf::new(9, data.to_vec());
    sort(&mut buf, &mut tr);
    (buf.into_inner(), tr.digest())
}

#[test]
fn outputs_bitwise_identical_u64() {
    for n in LENGTHS {
        for (seed, gen) in
            [(1u64, random_words as fn(usize, u64) -> Vec<u64>), (2, clustered_words)]
        {
            let data = gen(n, seed ^ n as u64);
            let mut scalar = TrackedBuf::new(0, data.clone());
            bitonic_sort_u64_with(&mut scalar, SortKernel::Scalar, 1, &mut NullTracer);
            for threads in THREAD_COUNTS {
                let mut batched = TrackedBuf::new(0, data.clone());
                bitonic_sort_u64_with(&mut batched, SortKernel::Batched, threads, &mut NullTracer);
                assert_eq!(
                    scalar.as_slice_untraced(),
                    batched.as_slice_untraced(),
                    "n={n} threads={threads} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn digests_identical_at_both_granularities_and_every_thread_count() {
    for n in LENGTHS {
        let data = random_words(n, 11);
        for granularity in GRANULARITIES {
            let scalar = traced(&data, granularity, |buf, tr| {
                bitonic_sort_u64_with(buf, SortKernel::Scalar, 1, tr)
            });
            for threads in THREAD_COUNTS {
                let batched = traced(&data, granularity, |buf, tr| {
                    bitonic_sort_u64_with(buf, SortKernel::Batched, threads, tr)
                });
                assert_eq!(batched, scalar, "n={n} {granularity:?} threads={threads}");
            }
        }
    }
}

#[test]
fn tagged_kernel_digests_match_scalar_at_both_granularities() {
    // The u128 tagged path (the shuffle's layout) must report 16-byte
    // elements identically to the scalar network over the same packed
    // words — a regression in its trace emission (e.g. the wrong element
    // size) would silently shift every shuffle trace.
    for n in LENGTHS {
        let data: Vec<u128> = (0..n as u128)
            .map(|i| ((i.wrapping_mul(0x9e37_79b9) % 64) << 64) | (i & u64::MAX as u128))
            .collect();
        for granularity in GRANULARITIES {
            let scalar = traced(&data, granularity, |buf, tr| {
                bitonic_sort_tagged_with(buf, SortKernel::Scalar, 1, tr)
            });
            for threads in THREAD_COUNTS {
                let batched = traced(&data, granularity, |buf, tr| {
                    bitonic_sort_tagged_with(buf, SortKernel::Batched, threads, tr)
                });
                assert_eq!(batched, scalar, "n={n} {granularity:?} threads={threads}");
            }
        }
    }
}

#[test]
fn batched_kernel_is_oblivious_at_both_granularities() {
    // Definition 2.1 with δ=0, directly on the batched kernel: identical
    // traces for any same-length input, at element and cacheline
    // granularity, serial and threaded (4096 is one block and runs on the
    // caller; 4099 is three passes, so threads = 4 spawns workers that meet
    // at a barrier after each) — at a power of two and at a length that
    // truncates every round.
    for n in [4096u64, 4099] {
        let inputs: Vec<Vec<u64>> = vec![
            (0..n).collect(),
            (0..n).rev().collect(),
            vec![42; n as usize],
            (0..n).map(|i| i * 7919 % n).collect(),
        ];
        for granularity in GRANULARITIES {
            for threads in [1usize, 4] {
                assert_oblivious(granularity, &inputs, |input, tr| {
                    let mut buf = TrackedBuf::new(1, input.clone());
                    bitonic_sort_u64_with(&mut buf, SortKernel::Batched, threads, tr);
                });
            }
        }
    }
}

#[test]
fn comparator_count_matches_batcher_under_block_events() {
    // At n = 2^m the network has n/2 · m(m+1)/2 comparators (Batcher's
    // count), each 2 reads + 2 writes; at any n, each stage keeps
    // `truncated_stage_len` of them. The batched kernel reports block
    // events; their expansion must land on exactly the same counters.
    for n in [64u64, 1024, 8192, 8197, 2 * 8192 - 1] {
        let rounds = n.next_power_of_two().trailing_zeros() as u64;
        let comparators: u64 = (1..=rounds)
            .map(|r| (1..=r).map(|s| truncated_stage_len(n, 1 << s)).sum::<u64>())
            .sum();
        if n.is_power_of_two() {
            assert_eq!(comparators, n / 2 * rounds * (rounds + 1) / 2);
        }
        for threads in [1usize, 4] {
            let mut tr = RecordingTracer::new(Granularity::Element);
            let mut buf = TrackedBuf::new(0, (0..n).collect::<Vec<u64>>());
            bitonic_sort_u64_with(&mut buf, SortKernel::Batched, threads, &mut tr);
            assert_eq!(tr.stats().reads, comparators * 2, "n={n} threads={threads}");
            assert_eq!(tr.stats().writes, comparators * 2, "n={n} threads={threads}");
        }
    }
    // Just above a power of two the truncated network does about half the
    // work of the next power's — the padding this kernel no longer pays.
    let count = |n: u64| {
        let mut tr = RecordingTracer::new(Granularity::Element);
        let mut buf = TrackedBuf::new(0, vec![0u64; n as usize]);
        bitonic_sort_u64_with(&mut buf, SortKernel::Batched, 1, &mut tr);
        tr.stats().total()
    };
    assert!(count(8197) * 100 < count(16384) * 55);
}

#[test]
fn default_entry_points_sort_correctly() {
    // The default kernel must sort; this is the path production
    // aggregation takes.
    let data = clustered_words(2051, 3);
    let mut expected = data.clone();
    expected.sort_unstable();
    let mut buf = TrackedBuf::new(0, data);
    bitonic_sort_u64_with(&mut buf, sort_kernel(), 2, &mut NullTracer);
    assert_eq!(buf.into_inner(), expected);

    // Sanity: o_select remains the tie-free primitive underneath the
    // scalar reference the differential tests compare against.
    assert_eq!(o_select(true, 1u64, 2), 1);
}
