//! The coordinator crash at the full-system level: the one fault a round
//! must survive, and the only one a script can inject.
//!
//! The hard bar these tests pin: a round killed after a chunk and
//! finished through `restore_round` is **bitwise identical** (global
//! model, enclave signature, adversary-visible trace digest, ε) to the
//! uninterrupted round, for every aggregator kind at every shard count;
//! every aborted invocation leaves every EPC budget empty and flushes its
//! own telemetry; and a crash point a round never reaches dies with that
//! round. Crashes are armed through `OliveSystem::set_fault_plan` alone.

use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{DpConfig, OliveSystem, RoundError, RoundReport};
use olive_integration_tests::small_system;
use olive_memsim::{FaultPlan, Granularity, RecordingTracer, TraceDigest};
use olive_telemetry::Telemetry;

/// The canonical system at one thread, chunk 3 and `shards` shards.
fn system(kind: AggregatorKind, dp: Option<DpConfig>, shards: usize) -> OliveSystem {
    let (mut sys, _) = small_system(kind, dp, 97);
    sys.set_threads(1);
    sys.set_chunk(3);
    sys.set_shards(shards);
    sys
}

/// One traced round at the given shard count — with `crash`, killed
/// after chunk 1 and finished through `restore_round`, one tracer over
/// both invocations.
fn run_round(
    kind: AggregatorKind,
    dp: Option<DpConfig>,
    shards: usize,
    crash: bool,
) -> (Vec<u32>, TraceDigest, RoundReport) {
    let mut sys = system(kind, dp, shards);
    let mut tr = RecordingTracer::new(Granularity::Element);
    let report = if crash {
        sys.set_fault_plan(FaultPlan::crash_after([1]));
        let killed = RoundError::CoordinatorKilled { after_chunk: 1 };
        assert_eq!(sys.run_round(&mut tr).expect_err("the scripted crash fires"), killed);
        assert!(sys.interrupted(), "the killed round stays pending");
        sys.restore_round(&mut tr).expect("the killed round restores")
    } else {
        sys.run_round(&mut tr).expect("a clean round")
    };
    let bits = sys.global_params().iter().map(|v| v.to_bits()).collect();
    (bits, tr.digest(), report)
}

/// The acceptance matrix: every aggregator kind × S ∈ {1, 2, 4, 8},
/// killed after chunk 1 and restored over a re-provisioned shard plane,
/// against the uninterrupted monolithic round — output, signature and
/// trace digest all bitwise.
#[test]
fn recovered_rounds_are_bitwise_identical_for_every_kind_and_shard_count() {
    for kind in [
        AggregatorKind::NonOblivious,
        AggregatorKind::Baseline { cacheline_weights: 16 },
        AggregatorKind::Advanced,
        AggregatorKind::Grouped { h: 3 },
        AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan },
        AggregatorKind::DiffOblivious { epsilon: 1.0, delta: 1e-3, seed: 11 },
    ] {
        let (ref_bits, ref_digest, ref_report) = run_round(kind, None, 1, false);
        for shards in [1usize, 2, 4, 8] {
            let ctx = format!("{kind:?} S={shards}");
            let (bits, digest, report) = run_round(kind, None, shards, true);
            assert_eq!(bits, ref_bits, "{ctx}: the restore changed the global model");
            assert_eq!(digest, ref_digest, "{ctx}: the restore changed the trace digest");
            assert_eq!(
                report.model_signature, ref_report.model_signature,
                "{ctx}: the restore changed the signed output"
            );
        }
    }
}

/// DP rounds restore bitwise too, sharded: the generator is part of the
/// sealed restore point, so the post-restore noise draw is the exact draw
/// of the uninterrupted round and ε composition is unchanged.
#[test]
fn dp_round_recovers_bitwise_with_identical_epsilon() {
    let dp = Some(DpConfig { sigma: 1.1, clip: 0.5, delta: 1e-5 });
    let kind = AggregatorKind::Advanced;
    let (ref_bits, ref_digest, ref_report) = run_round(kind, dp, 1, false);
    let (bits, digest, report) = run_round(kind, dp, 4, true);
    assert_eq!(bits, ref_bits, "the restore changed the DP model");
    assert_eq!(digest, ref_digest);
    assert_eq!(report.model_signature, ref_report.model_signature);
    assert_eq!(report.epsilon_spent, ref_report.epsilon_spent, "ε composition must match");
}

/// A crash point the interrupted round never reaches is dropped when
/// that round completes: it must not fire in the next round, even one
/// whose smaller chunks do reach it.
#[test]
fn an_unreached_crash_point_does_not_outlive_its_round() {
    let mut sys = system(AggregatorKind::Grouped { h: 3 }, None, 4);
    let mut tr = RecordingTracer::new(Granularity::Element);
    let unreached = 6; // chunk 3 fits every client of the fixture in ≤ 6 chunks
    sys.set_fault_plan(FaultPlan::crash_after([0, unreached]));
    let killed = RoundError::CoordinatorKilled { after_chunk: 0 };
    assert_eq!(sys.run_round(&mut tr).expect_err("the crash after chunk 0 fires"), killed);
    let report = sys.restore_round(&mut tr).expect("the interrupted round completes");
    assert!(report.processed_users.len().div_ceil(3) <= unreached, "the round never reached it");
    // One client per chunk: the next round does reach the stale point.
    sys.set_chunk(1);
    let report = sys.run_round(&mut tr).expect("nothing is armed any more");
    assert!(report.processed_users.len() > unreached, "the next round passes the stale point");
    assert!(!sys.interrupted());
}

/// Per-budget `(charged, freed)` EPC byte totals of every flushed stats
/// block in a telemetry stream (a block = one invocation's consecutive
/// counter records).
fn epc_blocks(stream: &str) -> Vec<std::collections::BTreeMap<String, (u64, u64)>> {
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        Some(rest.trim_start_matches('"').split(['"', '}', ',']).next()?.to_string())
    };
    let mut blocks = Vec::new();
    let mut current = std::collections::BTreeMap::<String, (u64, u64)>::new();
    for line in stream.lines() {
        if !line.contains("\"record\":\"counter\"") {
            if !current.is_empty() {
                blocks.push(std::mem::take(&mut current));
            }
            continue;
        }
        let (name, key) = (field(line, "name").unwrap(), field(line, "key").unwrap());
        let total: u64 = field(line, "total").unwrap().parse().unwrap();
        match name.as_str() {
            "epc_charge_bytes" => current.entry(key).or_insert((0, 0)).0 = total,
            "epc_free_bytes" => current.entry(key).or_insert((0, 0)).1 = total,
            _ => {}
        }
    }
    blocks.extend((!current.is_empty()).then_some(current));
    blocks
}

/// Regression pin for the unbalanced-abort bug: an aborted round used to
/// free the enclave budgets but neither the telemetry working set nor the
/// stats flush, so the aborted invocation's `epc_charge_bytes` ≠
/// `epc_free_bytes` and its counters bled into the restoring round's
/// flush. With the engine's ledger releasing on abort, every invocation —
/// aborted or restored — flushes its own block with charge == free on
/// every budget, and every budget is empty after each `Err`. Pinned here
/// on the scripted crash at S ∈ {1, 4}, after the first chunk and after
/// a later one; the refused-upload abort is pinned beside the enclave it
/// needs (`olive::tests::a_refused_upload_leaves_the_round_pending_and_restorable`).
#[test]
fn aborted_rounds_balance_every_epc_budget_and_flush_their_own_stats() {
    let kind = AggregatorKind::Grouped { h: 3 };
    let (ref_bits, _, ref_report) = run_round(kind, None, 1, false);
    for (shards, after_chunk) in [(1usize, 0usize), (1, 2), (4, 0), (4, 2)] {
        let ctx = format!("S={shards} crash@{after_chunk}");
        let mut sys = system(kind, None, shards);
        let telemetry = Telemetry::to_buffer();
        sys.set_telemetry(telemetry.clone());
        sys.set_fault_plan(FaultPlan::crash_after([after_chunk]));
        let mut tr = RecordingTracer::new(Granularity::Element);
        let err = sys.run_round(&mut tr).expect_err("the scripted crash fires");
        assert_eq!(err, RoundError::CoordinatorKilled { after_chunk }, "{ctx}");
        assert!(sys.interrupted(), "{ctx}: the aborted round must stay pending");
        let budgets = 1 + if shards > 1 { shards } else { 0 };
        assert_eq!(sys.epc_live(), vec![0; budgets], "{ctx}: every budget is empty");
        let aborted = epc_blocks(&telemetry.buffer_contents().expect("buffer sink"));
        assert_eq!(aborted.len(), 1, "{ctx}: the aborted invocation flushes its own stats");

        let report = sys.restore_round(&mut tr).expect("the aborted round restores");
        assert_eq!(sys.epc_live(), vec![0; budgets], "{ctx}: every budget is empty");
        let bits: Vec<u32> = sys.global_params().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, ref_bits, "{ctx}: restored round changed the global model");
        assert_eq!(report.model_signature, ref_report.model_signature, "{ctx}");
        let blocks = epc_blocks(&telemetry.buffer_contents().expect("buffer sink"));
        assert_eq!(blocks.len(), 2, "{ctx}: one stats block per invocation");
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(block.len(), budgets, "{ctx} block {i}: the coordinator and every shard");
            assert!(block.contains_key("coordinator"), "{ctx} block {i}");
            for (key, (charged, freed)) in block {
                assert!(*charged > 0, "{ctx} block {i}: {key} saw no charges");
                assert_eq!(charged, freed, "{ctx} block {i}: {key} charge != free");
            }
        }
    }
}
