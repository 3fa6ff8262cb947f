//! Randomized unit tests for the oblivious primitives: each primitive
//! must (a) compute the same result as its non-oblivious reference and
//! (b) emit a memory trace that is a pure function of the input *shape*
//! (length), never of the input *values* or of any secret index.

use olive_memsim::{trace_of, Granularity, NullTracer, RuntimeConfig, Tracer, TrackedBuf};
use olive_oblivious::{
    bitonic_sort_u64_with, o_scan_read, o_scan_update, o_scan_write, o_select, o_swap,
    oblivious_shuffle_with_threads,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn o_select_matches_branching_select() {
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..1000 {
        let (x, y) = (rng.gen::<u64>(), rng.gen::<u64>());
        let flag = rng.gen::<bool>();
        assert_eq!(o_select(flag, x, y), if flag { x } else { y });
        let (a, b) = (rng.gen::<f32>(), rng.gen::<f32>());
        assert_eq!(o_select(flag, a, b), if flag { a } else { b });
    }
}

#[test]
fn o_swap_matches_branching_swap() {
    let mut rng = SmallRng::seed_from_u64(12);
    for _ in 0..1000 {
        let (x0, y0) = (rng.gen::<u64>(), rng.gen::<u64>());
        let (mut x, mut y) = (x0, y0);
        let flag = rng.gen::<bool>();
        o_swap(flag, &mut x, &mut y);
        if flag {
            assert_eq!((x, y), (y0, x0));
        } else {
            assert_eq!((x, y), (x0, y0));
        }
    }
}

/// The oblivious sort over `data` in region 0 on one worker.
fn bitonic_sort(data: Vec<u64>, tr: &mut impl Tracer) -> Vec<u64> {
    let mut buf = TrackedBuf::new(0, data);
    bitonic_sort_u64_with(&mut buf, 1, tr);
    buf.into_inner()
}

#[test]
fn bitonic_sort_sorts_random_inputs_of_every_small_length() {
    let mut rng = SmallRng::seed_from_u64(13);
    for len in 0..=65 {
        let data: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000)).collect();
        let mut expected = data.clone();
        expected.sort_unstable();
        let got = bitonic_sort(data, &mut NullTracer);
        assert_eq!(got, expected, "length {len}");
    }
}

#[test]
fn bitonic_sort_trace_is_fixed_per_length() {
    let mut rng = SmallRng::seed_from_u64(14);
    for len in [1usize, 2, 7, 16, 33] {
        let mut digests = Vec::new();
        for _ in 0..4 {
            let data: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            digests.push(trace_of(Granularity::Element, |tr| {
                bitonic_sort(data.clone(), tr);
            }));
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "sort trace varied across same-length inputs (len {len})"
        );
    }
    // Different lengths must differ (the trace encodes the schedule).
    let a = trace_of(Granularity::Element, |tr| {
        bitonic_sort(vec![1u64, 2, 3], tr);
    });
    let b = trace_of(Granularity::Element, |tr| {
        bitonic_sort(vec![1u64, 2, 3, 4, 5], tr);
    });
    assert_ne!(a, b);
}

#[test]
fn shuffle_is_a_permutation_and_varies_with_seed() {
    let n = 64usize;
    let data: Vec<u64> = (0..n as u64).collect();
    let t = RuntimeConfig::process().threads;
    let mut rng1 = SmallRng::seed_from_u64(21);
    let out1 = oblivious_shuffle_with_threads(0, data.clone(), &mut rng1, t, &mut NullTracer);
    let mut sorted = out1.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, data, "shuffle must preserve the multiset");

    let mut rng2 = SmallRng::seed_from_u64(22);
    let out2 = oblivious_shuffle_with_threads(0, data.clone(), &mut rng2, t, &mut NullTracer);
    assert_ne!(out1, out2, "different seeds should give different orders");
}

#[test]
fn shuffle_trace_is_fixed_per_length() {
    // Neither the element values nor the randomness may show in the
    // trace: the permutation is applied via a data-independent sorting
    // network over register-held random keys.
    let mut digests = Vec::new();
    let threads = RuntimeConfig::process().threads;
    for seed in 0..4u64 {
        let data: Vec<u64> = (0..48).map(|i| i * seed).collect();
        digests.push(trace_of(Granularity::Element, |tr| {
            let mut rng = SmallRng::seed_from_u64(seed);
            oblivious_shuffle_with_threads(0, data.clone(), &mut rng, threads, tr);
        }));
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "shuffle trace varied with data or randomness"
    );
}

#[test]
fn scan_read_write_update_match_direct_access() {
    let mut rng = SmallRng::seed_from_u64(31);
    for _ in 0..50 {
        let n = rng.gen_range(1..40usize);
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let idx = rng.gen_range(0..n);

        let buf = TrackedBuf::new(0, data.clone());
        assert_eq!(o_scan_read(&buf, idx, &mut NullTracer), data[idx]);

        let mut buf = TrackedBuf::new(0, data.clone());
        let v = rng.gen::<u64>();
        o_scan_write(&mut buf, idx, v, &mut NullTracer);
        let mut expected = data.clone();
        expected[idx] = v;
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(buf.read(i, &mut NullTracer), *want);
        }

        let mut buf = TrackedBuf::new(0, data.clone());
        o_scan_update(&mut buf, |i, x| x.wrapping_add(i as u64), &mut NullTracer);
        for (i, base) in data.iter().enumerate() {
            assert_eq!(buf.read(i, &mut NullTracer), base.wrapping_add(i as u64));
        }
    }
}

#[test]
fn scan_traces_do_not_depend_on_secret_index() {
    let n = 32usize;
    let data: Vec<u64> = (0..n as u64).collect();
    let read_digest = |idx: usize| {
        trace_of(Granularity::Element, |tr| {
            let buf = TrackedBuf::new(0, data.clone());
            o_scan_read(&buf, idx, tr);
        })
    };
    let write_digest = |idx: usize| {
        trace_of(Granularity::Element, |tr| {
            let mut buf = TrackedBuf::new(0, data.clone());
            o_scan_write(&mut buf, idx, 77, tr);
        })
    };
    let r0 = read_digest(0);
    let w0 = write_digest(0);
    for idx in [1, n / 2, n - 1] {
        assert_eq!(read_digest(idx), r0, "o_scan_read trace leaked index {idx}");
        assert_eq!(write_digest(idx), w0, "o_scan_write trace leaked index {idx}");
    }
}
