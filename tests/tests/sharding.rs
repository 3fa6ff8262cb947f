//! The sharding contract, cross-crate: splitting the `G` dimension across
//! `S` mutually attested shard enclaves is **bitwise invisible** — model
//! bits, enclave signature and adversary-visible trace digest all match
//! the monolithic round for every aggregator kind at every tested
//! (S, chunk) combination — while each shard's own EPC budget carries
//! only the transport it decrypts, and balances to zero.

use olive_core::aggregation::{Aggregator, AggregatorKind, StreamingAggregator};
use olive_core::olive::RoundError;
use olive_fl::SparseGradient;
use olive_integration_tests::{
    all_kinds, engine_round, random_updates, shard_runtime, small_system,
};
use olive_memsim::{FaultPlan, Granularity, RecordingTracer, ShardPlan, TraceDigest};

fn stream_sharded(
    kind: AggregatorKind,
    updates: &[SparseGradient],
    d: usize,
    chunk: usize,
    shards: usize,
) -> (Vec<u32>, TraceDigest, Vec<u64>) {
    let mut tr = RecordingTracer::new(Granularity::Element);
    let rt = shard_runtime(ShardPlan::even(d, shards));
    let (out, rt) = engine_round(kind, updates, d, chunk, rt, &mut tr);
    let out = out.expect("fault-free round");
    assert!(
        rt.live().iter().all(|&b| b == 0),
        "{kind:?} S={shards} chunk={chunk}: shard budgets must balance to zero"
    );
    (out.iter().map(|v| v.to_bits()).collect(), tr.digest(), rt.peaks())
}

/// The acceptance matrix: every aggregator kind × S ∈ {1, 2, 4, 8} ×
/// chunk ∈ {1, 64}, bitwise against the monolithic streaming path.
#[test]
fn sharded_matches_monolithic_for_every_kind() {
    let d = 96;
    let n = 13;
    let updates = random_updates(n, 6, d, 77);
    for kind in all_kinds() {
        let (ref_bits, ref_digest) = {
            let mut tr = RecordingTracer::new(Granularity::Element);
            let mut agg = StreamingAggregator::new(kind, d, 1);
            for c in updates.chunks(5) {
                agg.ingest(c, &mut tr);
            }
            let out = agg.finalize(&mut tr);
            (out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(), tr.digest())
        };
        for shards in [1usize, 2, 4, 8] {
            for chunk in [1usize, 64] {
                let (bits, digest, peaks) = stream_sharded(kind, &updates, d, chunk, shards);
                assert_eq!(
                    bits, ref_bits,
                    "{kind:?} S={shards} chunk={chunk}: output bits drifted"
                );
                assert_eq!(
                    digest, ref_digest,
                    "{kind:?} S={shards} chunk={chunk}: trace digest drifted"
                );
                assert_eq!(peaks.len(), shards);
            }
        }
    }
}

/// Full-system sharding: a complete round — attestation, uploads, DP-free
/// aggregation, signature — is bitwise identical at S ∈ {1, 4}, and the
/// sharded report carries per-shard peaks while the canonical working-set
/// number stays shard-independent.
#[test]
fn system_round_is_shard_invariant() {
    for kind in [AggregatorKind::Advanced, AggregatorKind::Grouped { h: 3 }] {
        let run = |shards: usize| {
            let (mut sys, _) = small_system(kind, None, 23);
            sys.set_threads(1);
            sys.set_chunk(3);
            sys.set_shards(shards);
            let mut tr = RecordingTracer::new(Granularity::Element);
            let report = sys.run_round(&mut tr).expect("round");
            (sys.global_params(), tr.digest(), report)
        };
        let (ref_params, ref_digest, ref_report) = run(1);
        let (params, digest, report) = run(4);
        for (i, (a, b)) in ref_params.iter().zip(&params).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}: param {i} drifted under S=4");
        }
        assert_eq!(digest, ref_digest, "{kind:?}: trace digest drifted under S=4");
        assert_eq!(report.model_signature, ref_report.model_signature, "{kind:?}: signature");
        assert_eq!(report.working_set_bytes, ref_report.working_set_bytes);
        assert_eq!(report.shard_peaks.len(), 4);
        assert!(ref_report.shard_peaks.is_empty());
    }
}

/// Crash-safety composes with sharding: a round killed mid-ingestion and
/// restored from its sealed checkpoint under S = 4 matches both the
/// uninterrupted sharded round and the monolithic one, bitwise — and the
/// checkpoint blob itself is shard-agnostic, so a round killed at S = 4
/// restores at S = 1 (the shard plane is runtime topology, not state).
#[test]
fn kill_and_restore_composes_with_sharding() {
    let kind = AggregatorKind::Grouped { h: 3 };
    let (ref_params, ref_digest) = {
        let (mut sys, _) = small_system(kind, None, 31);
        sys.set_threads(2);
        sys.set_chunk(2);
        let mut tr = RecordingTracer::new(Granularity::Element);
        sys.run_round(&mut tr).expect("round");
        (sys.global_params(), tr.digest())
    };
    for restore_shards in [4usize, 1] {
        let (mut sys, _) = small_system(kind, None, 31);
        sys.set_threads(2);
        sys.set_chunk(2);
        sys.set_shards(4);
        let mut tr = RecordingTracer::new(Granularity::Element);
        sys.set_fault_plan(FaultPlan::crash_after([1]));
        let err = sys.run_round(&mut tr).expect_err("the scripted crash must fire");
        assert_eq!(err, RoundError::CoordinatorKilled { after_chunk: 1 });
        assert!(sys.interrupted(), "kill point must fire");
        sys.set_shards(restore_shards);
        let report = sys.restore_round(&mut tr).expect("genuine checkpoint restores");
        let ctx = format!("restore at S={restore_shards}");
        for (i, (a, b)) in ref_params.iter().zip(&sys.global_params()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: param {i} drifted");
        }
        assert_eq!(tr.digest(), ref_digest, "{ctx}: trace digest drifted");
        let expected_peaks = if restore_shards == 1 { 0 } else { restore_shards };
        assert_eq!(report.shard_peaks.len(), expected_peaks, "{ctx}: peaks follow S");
    }
}
