//! Property-based tests over the core invariants, spanning crates.

use olive_core::aggregation::{
    aggregate, aggregate_with_threads, reference_average, Aggregator, AggregatorKind, ShardError,
    ShardRuntime, StreamingAggregator,
};
use olive_core::olive::RoundError;
use olive_fl::SparseGradient;
use olive_integration_tests::shard_runtime;
use olive_memsim::{trace_of, Granularity, NullTracer, RecordingTracer, TrackedBuf};
use olive_oblivious::sort_kernel::bitonic_sort_u64_with;
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: a set of sparse updates sharing dimension `d`, arbitrary
/// (possibly colliding, unsorted-source) indices and finite values.
fn updates_strategy(max_n: usize, d: usize) -> impl Strategy<Value = Vec<SparseGradient>> {
    vec(
        vec((0..d as u32, -100.0f32..100.0), 1..=16).prop_map(move |cells| {
            let mut idxs: Vec<u32> = cells.iter().map(|(i, _)| *i).collect();
            idxs.sort_unstable();
            idxs.dedup();
            let values =
                idxs.iter().map(|i| cells.iter().find(|(j, _)| j == i).unwrap().1).collect();
            SparseGradient { dense_dim: d, indices: idxs, values }
        }),
        1..=max_n,
    )
}

/// [`olive_integration_tests::engine_round`] for rounds only the shard
/// plane can fail: the delta, or the shard error that exhausted recovery.
fn engine_round(
    kind: AggregatorKind,
    updates: &[SparseGradient],
    d: usize,
    chunk: usize,
    rt: ShardRuntime,
    tr: &mut RecordingTracer,
) -> (Result<Vec<f32>, ShardError>, ShardRuntime) {
    let (out, rt) = olive_integration_tests::engine_round(kind, updates, d, chunk, rt, tr);
    let out = out.map_err(|e| match e {
        RoundError::Shard(e) => e,
        other => panic!("only the shard plane can fail this round, got {other:?}"),
    });
    (out, rt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every aggregation algorithm equals the dense reference sum on
    /// arbitrary inputs (duplicates across clients included).
    #[test]
    fn aggregators_match_reference(updates in updates_strategy(6, 48)) {
        let d = 48;
        let expected = reference_average(&updates, d);
        for kind in [
            AggregatorKind::NonOblivious,
            AggregatorKind::Baseline { cacheline_weights: 16 },
            AggregatorKind::Advanced,
            AggregatorKind::Grouped { h: 2 },
        ] {
            let got = aggregate(kind, &updates, d, &mut NullTracer);
            for (i, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
                prop_assert!((a - b).abs() < 1e-3,
                    "{kind:?} coordinate {i}: {a} vs {b}");
            }
        }
    }

    /// Advanced's trace is a pure function of the input shape: derive a
    /// second input of identical shape (same n, same per-client k) but
    /// different indices/values and require identical traces.
    #[test]
    fn advanced_trace_depends_only_on_shape(
        a in updates_strategy(4, 32),
        shift in 1u32..31,
    ) {
        let d = 32u32;
        let b: Vec<SparseGradient> = a
            .iter()
            .map(|u| {
                // Modular index shift preserves distinctness and count.
                let mut indices: Vec<u32> =
                    u.indices.iter().map(|i| (i + shift) % d).collect();
                indices.sort_unstable();
                let values = u.values.iter().map(|v| v * -0.5 + 1.0).collect();
                SparseGradient { dense_dim: u.dense_dim, indices, values }
            })
            .collect();
        let ta = trace_of(Granularity::Element, |tr| {
            aggregate(AggregatorKind::Advanced, &a, 32, tr);
        });
        let tb = trace_of(Granularity::Element, |tr| {
            aggregate(AggregatorKind::Advanced, &b, 32, tr);
        });
        prop_assert_eq!(ta, tb);
    }

    /// The thread-aware tracer contract, end to end: for any input and
    /// group size, the parallel grouped aggregation (a) returns bitwise
    /// the serial output and (b) records the serial trace as a multiset
    /// (events reorder across groups but none appear or vanish), for
    /// worker counts 1, 2 and 8.
    #[test]
    fn grouped_parallel_matches_serial_trace_multiset_and_output(
        updates in updates_strategy(8, 48),
        h in 1usize..5,
    ) {
        let d = 48;
        let run = |threads: usize| {
            let mut tr = RecordingTracer::with_events(Granularity::Element);
            let kind = AggregatorKind::Grouped { h };
            let out = aggregate_with_threads(kind, &updates, d, threads, &mut tr);
            let mut ev: Vec<(u32, u64, bool)> = tr
                .events()
                .unwrap()
                .iter()
                .map(|a| (a.region, a.offset, a.op == olive_memsim::Op::Write))
                .collect();
            ev.sort_unstable();
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            (bits, ev)
        };
        let (serial_out, serial_ev) = run(1);
        for threads in [2usize, 8] {
            let (out, ev) = run(threads);
            prop_assert_eq!(&out, &serial_out, "output drifted at threads={}", threads);
            prop_assert_eq!(&ev, &serial_ev, "trace multiset drifted at threads={}", threads);
        }
    }

    /// The streaming contract as a property: for arbitrary inputs and an
    /// arbitrary chunk size, driving the Aggregator trait chunk-by-chunk
    /// reproduces the one-shot output bits and trace digest for every
    /// aggregator kind — chunk boundaries never change the result.
    #[test]
    fn chunk_boundaries_never_change_the_result(
        updates in updates_strategy(8, 32),
        chunk in 1usize..9,
        threads in 1usize..3,
    ) {
        let d = 32;
        for kind in [
            AggregatorKind::NonOblivious,
            AggregatorKind::Baseline { cacheline_weights: 16 },
            AggregatorKind::Advanced,
            AggregatorKind::Grouped { h: 2 },
        ] {
            let mut one_tr = RecordingTracer::new(Granularity::Element);
            let one = aggregate_with_threads(kind, &updates, d, threads, &mut one_tr);
            let mut tr = RecordingTracer::new(Granularity::Element);
            let mut agg = StreamingAggregator::new(kind, d, threads);
            for c in updates.chunks(chunk) {
                agg.ingest(c, &mut tr);
            }
            let got = agg.finalize(&mut tr);
            let one_bits: Vec<u32> = one.iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, one_bits,
                "{:?} chunk={} threads={}: output drifted", kind, chunk, threads);
            prop_assert_eq!(tr.digest(), one_tr.digest(),
                "{:?} chunk={} threads={}: trace drifted", kind, chunk, threads);
        }
    }

    /// The sharding contract as a property: for an arbitrary placement of
    /// stripe boundaries (any number of shards, any interior cut points),
    /// the sharded aggregator reproduces the monolithic output bits and
    /// trace digest exactly — shard-boundary placement never changes the
    /// round, and every shard budget balances back to zero.
    #[test]
    fn shard_boundaries_never_change_the_result(
        updates in updates_strategy(6, 32),
        bounds in vec(1usize..32, 0..5),
        chunk in 1usize..7,
    ) {
        use olive_memsim::ShardPlan;
        let d = 32;
        let mut interior = bounds;
        interior.sort_unstable();
        interior.dedup();
        let plan = ShardPlan::from_boundaries(d, &interior);
        for kind in [AggregatorKind::Advanced, AggregatorKind::Grouped { h: 2 }] {
            let mut one_tr = RecordingTracer::new(Granularity::Element);
            let one = aggregate_with_threads(kind, &updates, d, 1, &mut one_tr);
            let rt = shard_runtime(plan.clone());
            let mut tr = RecordingTracer::new(Granularity::Element);
            let (got, rt) = engine_round(kind, &updates, d, chunk, rt, &mut tr);
            let got = got.expect("fault-free round");
            prop_assert!(rt.live().iter().all(|&b| b == 0),
                "{:?} bounds={:?}: shard budgets must balance", kind, interior);
            let one_bits: Vec<u32> = one.iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, one_bits,
                "{:?} bounds={:?} chunk={}: output drifted", kind, interior, chunk);
            prop_assert_eq!(tr.digest(), one_tr.digest(),
                "{:?} bounds={:?} chunk={}: trace drifted", kind, interior, chunk);
        }
    }

    /// The crash contract as a property: for an *arbitrary* script of
    /// coordinator crash points over an arbitrary input at S ∈ {1, 2, 4},
    /// the round — killed at every scripted chunk it reaches and reopened
    /// from its sealed restore point each time — is bitwise the monolithic
    /// output and trace digest, with every budget balanced. Each distinct
    /// crash point inside the round fires exactly once: a resumed round
    /// never folds the chunk it died after again.
    #[test]
    fn faults_never_change_the_result(
        updates in updates_strategy(6, 32),
        crash_points in vec(0usize..7, 0..4),
        shards_sel in 0usize..3,
        chunk in 1usize..7,
    ) {
        use olive_integration_tests::crashing_engine_round;
        use olive_memsim::{FaultPlan, ShardPlan};
        let d = 32;
        let shards = [1usize, 2, 4][shards_sel];
        let mut reached: Vec<usize> = crash_points
            .iter()
            .copied()
            .filter(|&c| c < updates.len().div_ceil(chunk))
            .collect();
        reached.sort_unstable();
        reached.dedup();
        for kind in [AggregatorKind::Advanced, AggregatorKind::Grouped { h: 2 }] {
            let mut one_tr = RecordingTracer::new(Granularity::Element);
            let one = aggregate_with_threads(kind, &updates, d, 1, &mut one_tr);
            let rt = shard_runtime(ShardPlan::even(d, shards));
            let plan = FaultPlan::crash_after(crash_points.iter().copied());
            let mut tr = RecordingTracer::new(Granularity::Element);
            let (got, rt, crashes) =
                crashing_engine_round(kind, &updates, d, chunk, rt, plan, &mut tr);
            prop_assert!(rt.live().iter().all(|&b| b == 0),
                "{:?} crashes={:?}: shard budgets must balance", kind, crash_points);
            prop_assert_eq!(crashes, reached.len(),
                "{:?} crashes={:?} chunk={}", kind, crash_points, chunk);
            let got = got.expect("only crashes are scripted");
            let one_bits: Vec<u32> = one.iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, one_bits,
                "{:?} S={} crashes={:?}: output drifted", kind, shards, crash_points);
            prop_assert_eq!(tr.digest(), one_tr.digest(),
                "{:?} S={} crashes={:?}: trace drifted", kind, shards, crash_points);
        }
    }

    /// Bitonic sort sorts (against std) for arbitrary content and length.
    #[test]
    fn bitonic_sort_matches_std(data in vec(0u64..1_000_000, 0..200)) {
        let mut expected = data.clone();
        expected.sort_unstable();
        let mut buf = TrackedBuf::new(0, data);
        bitonic_sort_u64_with(&mut buf, 1, &mut NullTracer);
        prop_assert_eq!(buf.into_inner(), expected);
    }

    /// Sparse encode/decode round-trips arbitrary well-formed gradients.
    #[test]
    fn sparse_gradient_codec_roundtrip(updates in updates_strategy(1, 64)) {
        let sg = &updates[0];
        let decoded = SparseGradient::decode(&sg.encode()).expect("well-formed");
        prop_assert_eq!(&decoded, sg);
    }

    /// Oblivious scan read equals direct indexing for any index.
    #[test]
    fn o_scan_read_equals_direct(data in vec(0u64..u64::MAX, 1..64), idx in 0usize..64) {
        prop_assume!(idx < data.len());
        let buf = TrackedBuf::new(0, data.clone());
        let got = olive_oblivious::o_scan_read(&buf, idx, &mut NullTracer);
        prop_assert_eq!(got, data[idx]);
    }

    /// PathORAM agrees with a HashMap model under arbitrary op sequences.
    #[test]
    fn path_oram_matches_model(ops in vec((0u32..32, proptest::option::of(0u64..1000)), 1..60)) {
        use olive_oram::{PathOram, PathOramConfig, PosMapKind};
        let mut oram = PathOram::<u64>::new(
            PathOramConfig {
                capacity: 32,
                stash_limit: 20,
                posmap: PosMapKind::LinearScan,
                region_base: 0,
            },
            9,
        );
        let mut model = std::collections::HashMap::new();
        for (key, write) in ops {
            match write {
                Some(v) => {
                    oram.write(key, v, &mut NullTracer);
                    model.insert(key, v);
                }
                None => {
                    let got = oram.read(key, &mut NullTracer);
                    let want = model.get(&key).copied().unwrap_or(0);
                    prop_assert_eq!(got, want, "key {}", key);
                }
            }
        }
    }

    /// AES-GCM round-trips arbitrary payloads and rejects any bit flip.
    #[test]
    fn gcm_roundtrip_and_tamper(payload in vec(any::<u8>(), 0..256), flip in 0usize..256) {
        let key = olive_crypto::AesGcm::new(&[3u8; 32]).unwrap();
        let nonce = [5u8; 12];
        let mut ct = key.seal(&nonce, &payload, b"it");
        prop_assert_eq!(key.open(&nonce, &ct, b"it").unwrap(), payload);
        let pos = flip % ct.len();
        ct[pos] ^= 1;
        prop_assert!(key.open(&nonce, &ct, b"it").is_err());
    }
}
