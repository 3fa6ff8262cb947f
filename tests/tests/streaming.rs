//! The streaming-aggregation contract, cross-crate: for every aggregator
//! kind, driving the [`Aggregator`] trait chunk-by-chunk is **bitwise
//! output- and trace-digest-identical** to the one-shot path, at every
//! tested (chunk, threads) combination — and the trace stays a pure
//! function of the public shape (obliviousness is preserved under
//! chunking, since the chunk schedule is public).

use olive_core::aggregation::{
    aggregate_with_threads, reference_average, Aggregator, AggregatorKind, StreamingAggregator,
};
use olive_fl::SparseGradient;
use olive_integration_tests::{all_kinds, random_updates, sha256_hex};
use olive_memsim::{assert_oblivious, Granularity, NullTracer, RecordingTracer, TraceDigest};

fn stream(
    kind: AggregatorKind,
    updates: &[SparseGradient],
    d: usize,
    chunk: usize,
    threads: usize,
) -> (Vec<u32>, TraceDigest) {
    let mut tr = RecordingTracer::new(Granularity::Element);
    let mut agg = StreamingAggregator::new(kind, d, threads);
    for c in updates.chunks(chunk) {
        agg.ingest(c, &mut tr);
    }
    assert_eq!(agg.clients(), updates.len());
    let out = agg.finalize(&mut tr);
    (out.iter().map(|v| v.to_bits()).collect(), tr.digest())
}

/// The satellite matrix: chunk ∈ {1, 7, n} × threads ∈ {1, 2, 8} for
/// every aggregator kind, against the one-shot path at the same thread
/// count.
#[test]
fn streaming_equals_one_shot_at_every_chunk_and_thread_count() {
    let d = 96;
    let n = 13;
    let updates = random_updates(n, 6, d, 41);
    for kind in all_kinds() {
        for threads in [1usize, 2, 8] {
            let (one_bits, one_digest) = {
                let mut tr = RecordingTracer::new(Granularity::Element);
                let out = aggregate_with_threads(kind, &updates, d, threads, &mut tr);
                (out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(), tr.digest())
            };
            for chunk in [1usize, 7, n] {
                let (bits, digest) = stream(kind, &updates, d, chunk, threads);
                assert_eq!(
                    bits, one_bits,
                    "{kind:?} chunk={chunk} threads={threads}: output bits drifted"
                );
                assert_eq!(
                    digest, one_digest,
                    "{kind:?} chunk={chunk} threads={threads}: trace drifted"
                );
            }
        }
    }
}

/// Chunked ingestion still computes the right answer (guards against the
/// equality test comparing two identically-wrong paths).
#[test]
fn streaming_matches_dense_reference() {
    let d = 64;
    let updates = random_updates(11, 5, d, 7);
    let expected = reference_average(&updates, d);
    for kind in all_kinds() {
        let mut agg = StreamingAggregator::new(kind, d, 2);
        for c in updates.chunks(4) {
            agg.ingest(c, &mut NullTracer);
        }
        let got = agg.finalize(&mut NullTracer);
        for (i, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3, "{kind:?} coordinate {i}: {a} vs {b}");
        }
    }
}

/// Chunk size is public: for a fixed (shape, chunk, threads) schedule the
/// oblivious kinds still produce content-independent traces.
#[test]
fn streaming_is_oblivious_at_fixed_chunk_schedule() {
    let d = 96;
    let inputs: Vec<Vec<SparseGradient>> =
        [1u64, 2, 3].iter().map(|&s| random_updates(9, 6, d, s)).collect();
    for kind in [
        AggregatorKind::Baseline { cacheline_weights: 1 },
        AggregatorKind::Advanced,
        AggregatorKind::Grouped { h: 2 },
    ] {
        for chunk in [1usize, 4] {
            for threads in [1usize, 2] {
                assert_oblivious(Granularity::Element, &inputs, |ups, tr| {
                    let mut agg = StreamingAggregator::new(kind, d, threads);
                    for c in ups.chunks(chunk) {
                        agg.ingest(c, tr);
                    }
                    agg.finalize(tr);
                });
            }
        }
    }
}

/// Restore-point bytes pinned, not just round-tripped: every kind's share
/// of a checkpoint after two chunks of a fixed-seed round — its
/// descriptor — hashes to a pinned SHA-256, and carries no term in d or
/// k. A writer that reorders, drops or re-encodes a field fails here
/// even when its own reader would accept the result.
#[test]
fn save_state_bytes_are_pinned_for_every_kind() {
    let pinned = [
        "5bb7399899ff273657f02957acc79895da1b6a1bfca0dc7cb82552634b8f41f4",
        "5ccf0b8f8b7805e861e5d6579c66109e424fada1b29aed25edf0349ea2ee56b2",
        "cdf77ae6ebc207c052d04db0f3da04c8a7b95632057d85c982a145524758f4bf",
        "bc659b10bb9a52566cf8b6ea1baf97f64a879a4944005d42c48bba4d1c53b194",
        "73577d38d05c72ef307c51e060a41dd7f2338e2d4c8b08fc73a84453444d9676",
        "93839fb17348597276420a9a3ba650090fdbc1927f69da02f48ade2294e6161d",
        "fa2fcd87e629eb378bbd9274544b9a05526dfc9cb88a28f8c48ea7a31b13b2d0",
    ];
    let (d, k, chunk) = (96, 6, 5);
    let updates = random_updates(2 * chunk, k, d, 2024);
    for (kind, digest) in all_kinds().into_iter().zip(pinned) {
        let mut agg = StreamingAggregator::new(kind, d, 1);
        for c in updates.chunks(chunk) {
            agg.ingest(c, &mut NullTracer);
        }
        let state = agg.save_state();
        let small = StreamingAggregator::new(kind, d / 2, 1).save_state();
        assert_eq!(state.len(), small.len(), "{kind:?}: a descriptor has no term in d");
        assert_eq!(sha256_hex(&state), digest, "{kind:?}: the state bytes moved");
    }
}

/// Uneven chunk partitions (not just fixed sizes): splitting the round at
/// any single cut point reproduces the one-shot bits and trace.
#[test]
fn arbitrary_cut_points_are_invisible() {
    let d = 48;
    let n = 9;
    let updates = random_updates(n, 4, d, 99);
    for kind in all_kinds() {
        let (one_bits, one_digest) = stream(kind, &updates, d, n, 2);
        for cut in 1..n {
            let mut tr = RecordingTracer::new(Granularity::Element);
            let mut agg = StreamingAggregator::new(kind, d, 2);
            agg.ingest(&updates[..cut], &mut tr);
            agg.ingest(&updates[cut..], &mut tr);
            let out = agg.finalize(&mut tr);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, one_bits, "{kind:?} cut={cut}: output bits drifted");
            assert_eq!(tr.digest(), one_digest, "{kind:?} cut={cut}: trace drifted");
        }
    }
}
