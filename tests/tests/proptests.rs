//! Property-based tests over the core invariants, spanning crates.

use olive_core::aggregation::{
    aggregate, aggregate_with_threads, reference_average, Aggregator, AggregatorKind, ShardError,
    ShardRuntime, StreamingAggregator,
};
use olive_core::olive::RoundError;
use olive_fl::SparseGradient;
use olive_integration_tests::shard_runtime;
use olive_memsim::{trace_of, Granularity, NullTracer, RecordingTracer, TrackedBuf};
use olive_oblivious::sort::bitonic_sort_by_key;
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

    /// The fault-recovery contract as a property: for an *arbitrary* fault
    /// script (any kinds, any chunk/egress sites, any shard targets) over
    /// an arbitrary input at S ∈ {1, 2, 4}, the sharded round either
    /// recovers — bitwise the monolithic output and trace digest, budgets
    /// balanced — or fails with a *structured* [`ShardError`] carrying the
    /// exhausted attempt budget. Never a panic, never a silently wrong
    /// answer.
    #[test]
    fn faults_never_change_the_result(
        updates in updates_strategy(6, 32),
        raw_events in vec((0usize..5, 0u32..7, 0u32..4), 0..6),
        shards_sel in 0usize..3,
        chunk in 1usize..7,
    ) {
        use olive_core::aggregation::ShardFailure;
        use olive_memsim::{FaultEvent, FaultKind, FaultPlan, RetryPolicy, ShardPlan, EGRESS_CHUNK};
        let d = 32;
        let shards = [1usize, 2, 4][shards_sel];
        const KINDS: [FaultKind; 5] = [
            FaultKind::ShardKill,
            FaultKind::TunnelTamper,
            FaultKind::TunnelDrop,
            FaultKind::ReceiptCorrupt,
            FaultKind::StaleSeal,
        ];
        let events: Vec<FaultEvent> = raw_events
            .iter()
            .map(|&(k, c, s)| FaultEvent {
                kind: KINDS[k],
                chunk: if c == 6 { EGRESS_CHUNK } else { c },
                shard: s % shards as u32,
            })
            .collect();
        for kind in [AggregatorKind::Advanced, AggregatorKind::Grouped { h: 2 }] {
            let mut one_tr = RecordingTracer::new(Granularity::Element);
            let one = aggregate_with_threads(kind, &updates, d, 1, &mut one_tr);
            let mut rt = shard_runtime(ShardPlan::even(d, shards));
            rt.set_fault_plan(FaultPlan::from_events(events.clone()));
            let mut tr = RecordingTracer::new(Granularity::Element);
            let (got, rt) = engine_round(kind, &updates, d, chunk, rt, &mut tr);
            // Recovered or aborted, the ledger leaves every budget empty.
            prop_assert!(rt.live().iter().all(|&b| b == 0),
                "{:?} events={:?}: shard budgets must balance", kind, events);
            match got {
                Ok(got) => {
                    let one_bits: Vec<u32> = one.iter().map(|v| v.to_bits()).collect();
                    let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(got_bits, one_bits,
                        "{:?} S={} events={:?}: output drifted", kind, shards, events);
                    prop_assert_eq!(tr.digest(), one_tr.digest(),
                        "{:?} S={} events={:?}: trace drifted", kind, shards, events);
                }
                Err(e) => {
                    // Recovery only gives up when a site stacks enough
                    // delivery failures to exhaust the whole retry budget
                    // (shards checkpoint every chunk, so kills are absorbed).
                    prop_assert_eq!(e.attempts, RetryPolicy::MAX_ATTEMPTS,
                        "{:?} events={:?}: gave up early: {}", kind, events, e);
                    prop_assert!((e.shard as usize) < shards);
                    prop_assert!(matches!(
                        e.failure,
                        ShardFailure::Tunnel(_)
                            | ShardFailure::Dropped
                            | ShardFailure::ReceiptMismatch
                    ), "{:?} events={:?}: unstructured terminal failure {}", kind, events, e);
                }
            }
        }
    }

    /// Recovery exhaustion as a property: stacking exactly the retry
    /// budget of delivery failures at *any* single site fails cleanly and
    /// structurally — correct shard, exhausted attempts, matching failure
    /// kind — for any input geometry.
    #[test]
    fn stacked_faults_exhaust_into_structured_errors(
        updates in updates_strategy(6, 32),
        site_chunk in 0u32..3,
        site_shard in 0u32..4,
        fail_sel in 0usize..3,
        chunk in 1usize..5,
    ) {
        use olive_core::aggregation::ShardFailure;
        use olive_memsim::{FaultEvent, FaultKind, FaultPlan, RetryPolicy, ShardPlan, EGRESS_CHUNK};
        let d = 32;
        let n_chunks = updates.len().div_ceil(chunk) as u32;
        prop_assume!(site_chunk < n_chunks);
        let (fault, expect_egress) = [
            (FaultKind::TunnelTamper, false),
            (FaultKind::TunnelDrop, false),
            (FaultKind::ReceiptCorrupt, true),
        ][fail_sel];
        let site_chunk = if expect_egress { EGRESS_CHUNK } else { site_chunk };
        let events = vec![
            FaultEvent { kind: fault, chunk: site_chunk, shard: site_shard % 4 };
            RetryPolicy::MAX_ATTEMPTS as usize
        ];
        let mut rt = shard_runtime(ShardPlan::even(d, 4));
        rt.set_fault_plan(FaultPlan::from_events(events));
        let mut tr = RecordingTracer::new(Granularity::Element);
        let (got, rt) = engine_round(AggregatorKind::Advanced, &updates, d, chunk, rt, &mut tr);
        let e = got.expect_err("the stacked script must exhaust");
        prop_assert!(rt.live().iter().all(|&b| b == 0), "an aborted round must balance");
        prop_assert_eq!(e.shard, site_shard % 4);
        prop_assert_eq!(e.attempts, RetryPolicy::MAX_ATTEMPTS);
        match fault {
            FaultKind::TunnelDrop => prop_assert_eq!(e.failure, ShardFailure::Dropped),
            FaultKind::ReceiptCorrupt =>
                prop_assert_eq!(e.failure, ShardFailure::ReceiptMismatch),
            _ => prop_assert!(matches!(e.failure, ShardFailure::Tunnel(_))),
        }
    }

    /// Bitonic sort sorts (against std) for arbitrary content and length.
    #[test]
    fn bitonic_sort_matches_std(data in vec(0u64..1_000_000, 0..200)) {
        let mut expected = data.clone();
        expected.sort_unstable();
        let got = bitonic_sort_by_key(0, data, |x| *x, &mut NullTracer);
        prop_assert_eq!(got, expected);
    }

    /// The batched kernel sorts every length up to two private blocks
    /// (2 · 2¹² cells) and a register window more — raw cells and tagged
    /// words — bitwise as the scalar network does, with its trace, on any
    /// number of workers.
    #[test]
    fn sort_kernel_matches_scalar_at_any_length(
        n in 0usize..=2 * 4096 + 9,
        near in (0usize..3).prop_map(|i| [8usize, 4096, 8192][i]),
        offset in 0usize..3,
        threads in (0usize..4).prop_map(|i| [1usize, 2, 3, 8][i]),
        seed in any::<u64>(),
    ) {
        use olive_oblivious::sort_kernel::{
            bitonic_sort_tagged_with, bitonic_sort_u64_with, SortKernel,
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        // A uniform length and one within ±1 of a window or block boundary.
        for n in [n, near + offset - 1] {
            let cells: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * n as u64 + 1)).collect();
            let tagged: Vec<u128> = cells.iter().map(|&c| ((c as u128 / 8) << 64) | c as u128).collect();
            let run = |kernel, threads| {
                let mut tr = RecordingTracer::new(Granularity::Cacheline);
                let mut c = TrackedBuf::new(1, cells.clone());
                bitonic_sort_u64_with(&mut c, kernel, threads, &mut tr);
                let mut t = TrackedBuf::new(3, tagged.clone());
                bitonic_sort_tagged_with(&mut t, kernel, threads, &mut tr);
                (c.into_inner(), t.into_inner(), tr.digest())
            };
            let batched = run(SortKernel::Batched, threads);
            prop_assert!(batched.0.windows(2).all(|w| w[0] <= w[1]), "n={} unsorted", n);
            prop_assert_eq!(batched, run(SortKernel::Scalar, 1), "n={}", n);
        }
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

    /// The PathORAM fast-path invariant, fuzzed: the batched kernel is
    /// bitwise output-, trace-digest-, and serialized-state-identical to
    /// the scalar reference for arbitrary op sequences (reads, writes,
    /// updates, read-and-clear takes) across posmap kind × capacity —
    /// including capacity 1 and non-powers-of-two.
    #[test]
    fn path_oram_kernels_bitwise_identical(
        ops in vec((0u32..97, 0u8..4, 0u64..1000), 1..40),
        cap_sel in 0usize..4,
        posmap_sel in 0usize..3,
    ) {
        use olive_oram::{OramKernel, PathOram, PathOramConfig, PosMapKind};
        let capacity = [1usize, 7, 64, 97][cap_sel];
        let posmap =
            [PosMapKind::Trusted, PosMapKind::LinearScan, PosMapKind::Recursive][posmap_sel];
        let cfg = PathOramConfig { capacity, stash_limit: 40, posmap, region_base: 0 };
        let mut scalar = PathOram::<u64>::new(cfg, 23);
        scalar.set_kernel(OramKernel::Scalar);
        let mut batched = PathOram::<u64>::new(cfg, 23);
        batched.set_kernel(OramKernel::Batched);
        let mut tr_s = RecordingTracer::new(Granularity::Element);
        let mut tr_b = RecordingTracer::new(Granularity::Element);
        for (key, op, v) in ops {
            let key = key % capacity as u32;
            let (a, b) = match op {
                0 => { scalar.write(key, v, &mut tr_s); batched.write(key, v, &mut tr_b); continue; }
                1 => (scalar.read(key, &mut tr_s), batched.read(key, &mut tr_b)),
                2 => (scalar.update(key, move |x| x.wrapping_add(v), &mut tr_s),
                      batched.update(key, move |x| x.wrapping_add(v), &mut tr_b)),
                _ => (scalar.take(key, &mut tr_s), batched.take(key, &mut tr_b)),
            };
            prop_assert_eq!(a, b, "output divergence at key {}", key);
        }
        prop_assert_eq!(tr_s.digest(), tr_b.digest(), "trace digest divergence");
        prop_assert_eq!(scalar.save_state(), batched.save_state(), "state divergence");
        prop_assert_eq!(
            scalar.stats().max_stash_occupancy,
            batched.stats().max_stash_occupancy
        );
        prop_assert_eq!(scalar.stats().evicted_blocks, batched.stats().evicted_blocks);
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
