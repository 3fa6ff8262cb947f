//! The scalar bitonic network: the sort of [`crate::sort_kernel`] (whose
//! module docs define the network and its canonical trace) run one traced
//! compare-exchange at a time — read both cells, swap them in registers
//! via [`o_swap`] when the first key is larger, write both back — so its
//! trace is the canonical one by construction.
//!
//! It is the oracle the batched kernel is held to, output for output and
//! event for event, and test builds alone contain it.

use olive_memsim::{Tracer, TrackedBuf};

use crate::primitives::{o_swap, Oblivious};

/// Sorts `buf` (any length) ascending by `key`, one traced
/// compare-exchange at a time. Equal keys never swap.
pub(crate) fn bitonic_sort<T, K, TR>(buf: &mut TrackedBuf<T>, key: K, tr: &mut TR)
where
    T: Oblivious,
    K: Fn(&T) -> u64,
    TR: Tracer,
{
    let n = buf.len();
    let mut cex = |i: usize, l: usize| {
        let (mut a, mut b) = buf.read_pair(i, l, tr);
        o_swap(key(&a) > key(&b), &mut a, &mut b);
        buf.write_pair(i, a, l, b, tr);
    };
    let mut k = 2;
    while k / 2 < n {
        for i in 0..n {
            let l = i ^ (k - 1);
            if i < l && l < n {
                cex(i, l);
            }
        }
        let mut j = k / 4;
        while j > 0 {
            for i in 0..n {
                if i & j == 0 && i + j < n {
                    cex(i, i + j);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Sorts a vector ascending by `key` in a fresh [`TrackedBuf`] over
/// `region`. The trace depends only on `data.len()`.
pub(crate) fn bitonic_sort_by_key<T, K, TR>(
    region: u32,
    data: Vec<T>,
    key: K,
    tr: &mut TR,
) -> Vec<T>
where
    T: Oblivious,
    K: Fn(&T) -> u64,
    TR: Tracer,
{
    let mut buf = TrackedBuf::new(region, data);
    bitonic_sort(&mut buf, key, tr);
    buf.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer, RecordingTracer};

    fn sort_u64s(v: Vec<u64>) -> Vec<u64> {
        bitonic_sort_by_key(0, v, |x| *x, &mut NullTracer)
    }

    #[test]
    fn sorts_small_cases() {
        assert_eq!(sort_u64s(vec![]), vec![]);
        assert_eq!(sort_u64s(vec![5]), vec![5]);
        assert_eq!(sort_u64s(vec![2, 1]), vec![1, 2]);
        assert_eq!(sort_u64s(vec![3, 1, 2, 0]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sorts_with_duplicates() {
        assert_eq!(sort_u64s(vec![2, 2, 1, 1, 3, 3, 0, 0]), vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn arbitrary_length_without_padding() {
        // No sentinel is needed: values equal to the would-be pad sort too.
        let data = vec![9u64, u64::MAX, 7, 1, 8, u64::MAX, 6];
        let out = bitonic_sort_by_key(0, data, |x| *x, &mut NullTracer);
        assert_eq!(out, vec![1, 6, 7, 8, 9, u64::MAX, u64::MAX]);
    }

    #[test]
    fn sorts_pairs_by_index() {
        let data: Vec<(u32, f32)> = vec![(5, 0.5), (1, 0.1), (3, 0.3), (1, 0.11)];
        let out = bitonic_sort_by_key(0, data, |c| c.0 as u64, &mut NullTracer);
        let idxs: Vec<u32> = out.iter().map(|c| c.0).collect();
        assert_eq!(idxs, vec![1, 1, 3, 5]);
    }

    #[test]
    fn trace_depends_only_on_length() {
        // Definition 2.1 with δ=0: identical traces for any same-length
        // input, at a power of two and either side of one.
        for n in [63u64, 64, 65, 100] {
            let inputs: Vec<Vec<u64>> = vec![
                (0..n).collect(),
                (0..n).rev().collect(),
                vec![42; n as usize],
                (0..n).map(|i| i * 7919 % n).collect(),
            ];
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                assert_oblivious(granularity, &inputs, |input, tr| {
                    let mut buf = TrackedBuf::new(1, input.clone());
                    bitonic_sort(&mut buf, |x| *x, tr);
                });
            }
        }
    }

    /// The network's comparators `(i, l)` over `n` elements, in trace order.
    fn comparators(n: usize) -> Vec<(u64, u64)> {
        let mut tr = RecordingTracer::with_events(Granularity::Element);
        let mut buf = TrackedBuf::new(0, vec![0u32; n]);
        bitonic_sort(&mut buf, |x| *x as u64, &mut tr);
        let events = tr.events().unwrap();
        events
            .chunks(4)
            .map(|c| {
                use olive_memsim::Op::{Read, Write};
                assert_eq!([c[0].op, c[1].op, c[2].op, c[3].op], [Read, Read, Write, Write]);
                assert_eq!((c[0].offset, c[1].offset), (c[2].offset, c[3].offset));
                assert!(c[0].offset < c[1].offset, "the minimum lands at the lower address");
                (c[0].offset / 4, c[1].offset / 4)
            })
            .collect()
    }

    #[test]
    fn comparator_count_matches_batcher() {
        // The degenerate case: at n = 2^m nothing is truncated, and the
        // network is Batcher's — m(m+1)/2 stages (each opens at i = 0) of
        // n/2 comparators, each 2 reads + 2 writes.
        for m in 1..=7u64 {
            let n = 1u64 << m;
            let stages = m * (m + 1) / 2;
            let cmps = comparators(n as usize);
            assert_eq!(cmps.len() as u64, n / 2 * stages, "n={n}");
            assert_eq!(cmps.iter().filter(|c| c.0 == 0).count() as u64, stages, "n={n}");
        }
        let mut tr = RecordingTracer::new(Granularity::Element);
        let mut buf = TrackedBuf::new(0, (0..64u64).collect::<Vec<u64>>());
        bitonic_sort(&mut buf, |x| *x, &mut tr);
        assert_eq!(tr.stats().reads, 32 * 21 * 2);
        assert_eq!(tr.stats().writes, 32 * 21 * 2);
    }

    #[test]
    fn truncated_network_is_the_padded_network_minus_out_of_range_comparators() {
        // The canonical form for arbitrary n: the N-length event list with
        // every comparator touching an address >= n deleted, nothing
        // reordered.
        for n in 0..=130usize {
            let padded = comparators(n.next_power_of_two());
            let kept: Vec<(u64, u64)> = padded.into_iter().filter(|c| c.1 < n as u64).collect();
            assert_eq!(comparators(n), kept, "n={n}");
        }
    }

    #[test]
    fn random_inputs_match_std_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for len in [1usize, 2, 5, 31, 32, 33, 100, 255, 257, 1000] {
            let data: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000)).collect();
            let mut expected = data.clone();
            expected.sort_unstable();
            let out = bitonic_sort_by_key(0, data, |x| *x, &mut NullTracer);
            assert_eq!(out, expected, "len {len}");
        }
    }
}
