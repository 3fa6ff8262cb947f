//! Deterministic fault injection and mid-round shard failover, at the
//! full-system level.
//!
//! The hard bar these tests pin: any scripted fault sequence the runtime
//! can recover from — shard kills mid-stream, tampered and dropped tunnel
//! frames, corrupted egress receipts, rolled-back shard checkpoints on
//! restore — must leave the round **bitwise identical** (global model,
//! enclave signature, adversary-visible trace digest) to the fault-free
//! round, for every aggregator kind at every shard count. And a fault
//! sequence recovery *cannot* absorb must fail with a structured
//! [`RoundError`] — never a panic — leaving the round restorable.

use olive_core::aggregation::{AggregatorKind, ShardFailure};
use olive_core::olive::{DpConfig, RoundError, RoundReport};
use olive_core::ShardError;
use olive_integration_tests::small_system;
use olive_memsim::{FaultPlan, Granularity, RecordingTracer, RetryPolicy, TraceDigest};
use olive_tee::TunnelError;
use olive_telemetry::Telemetry;

/// A fault script touching every fault kind, with shard targets folded
/// into the `shards` actually provisioned. The stale-seal event rides on
/// the chunk-2 kill (two checkpoints exist by then, so the rollback
/// corpus is non-empty).
fn full_script(shards: usize) -> FaultPlan {
    let s = |i: usize| (i % shards).to_string();
    let spec = format!(
        "kill@2.{k},stale@e.{k},tamper@1.{t},drop@2.{d},tamper@e.{et},receipt@e.{r},kill@e.{ek}",
        k = s(1),
        t = s(0),
        d = s(2),
        et = s(3),
        r = s(0),
        ek = s(2),
    );
    FaultPlan::parse(&spec).expect("well-formed fault script")
}

/// One traced round at the given shard count, optionally faulted.
fn run_round(
    kind: AggregatorKind,
    dp: Option<DpConfig>,
    shards: usize,
    plan: Option<FaultPlan>,
) -> (Vec<u32>, TraceDigest, RoundReport, u64) {
    let (mut sys, _) = small_system(kind, dp, 97);
    sys.set_threads(1);
    sys.set_chunk(3);
    sys.set_shards(shards);
    if let Some(plan) = plan {
        sys.set_fault_plan(plan);
    }
    let mut tr = RecordingTracer::new(Granularity::Element);
    let report = sys.run_round(&mut tr).expect("the scripted faults must all recover");
    let recovery = report.telemetry.recovery;
    let bits = sys.global_params().iter().map(|v| v.to_bits()).collect();
    (bits, tr.digest(), report, recovery.retries + recovery.relaunches)
}

/// The acceptance matrix: every aggregator kind × S ∈ {1, 2, 4, 8}, a
/// scripted kill + stale-restore + tamper + drop + receipt-corrupt
/// sequence against the fault-free round — output, signature and trace
/// digest all bitwise.
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
        let (ref_bits, ref_digest, ref_report, _) = run_round(kind, None, 1, None);
        for shards in [1usize, 2, 4, 8] {
            let ctx = format!("{kind:?} S={shards}");
            let (bits, digest, report, recoveries) =
                run_round(kind, None, shards, Some(full_script(shards.max(1))));
            assert_eq!(bits, ref_bits, "{ctx}: faults changed the global model");
            assert_eq!(digest, ref_digest, "{ctx}: faults changed the trace digest");
            assert_eq!(
                report.model_signature, ref_report.model_signature,
                "{ctx}: faults changed the signed output"
            );
            if shards > 1 {
                assert!(recoveries > 0, "{ctx}: the script must actually exercise recovery");
            }
        }
    }
}

/// DP rounds recover bitwise too: the shard plane never touches the
/// enclave RNG, so the post-recovery noise draw is the exact draw of the
/// fault-free round and ε composition is unchanged.
#[test]
fn dp_round_recovers_bitwise_with_identical_epsilon() {
    let dp = Some(DpConfig { sigma: 1.1, clip: 0.5, delta: 1e-5 });
    let kind = AggregatorKind::Advanced;
    let (ref_bits, ref_digest, ref_report, _) = run_round(kind, dp, 1, None);
    let (bits, digest, report, recoveries) = run_round(kind, dp, 4, Some(full_script(4)));
    assert_eq!(bits, ref_bits, "faults changed the DP model");
    assert_eq!(digest, ref_digest);
    assert_eq!(report.model_signature, ref_report.model_signature);
    assert_eq!(report.epsilon_spent, ref_report.epsilon_spent, "ε composition must match");
    assert!(recoveries > 0);
}

/// Satellite pin: a poisoned tunnel frame that exhausts the retry budget
/// aborts the round *cleanly* — a structured [`RoundError::Shard`] naming
/// the shard, the attempts and the terminal failure — and the round stays
/// restorable, finishing bitwise identical to the fault-free run (one
/// tracer spans the abort and the restore, so the digest proves no
/// adversary-visible access was added or lost).
#[test]
fn poisoned_frame_exhaustion_aborts_cleanly_and_restores_bitwise() {
    let kind = AggregatorKind::Grouped { h: 3 };
    let (ref_bits, ref_digest, ref_report, _) = run_round(kind, None, 1, None);

    let (mut sys, _) = small_system(kind, None, 97);
    sys.set_threads(1);
    sys.set_chunk(3);
    sys.set_shards(4);
    // One more tamper than the retry budget at a single delivery site.
    let spec = vec!["tamper@1.2"; RetryPolicy::MAX_ATTEMPTS as usize].join(",");
    sys.set_fault_plan(FaultPlan::parse(&spec).expect("well-formed script"));
    let mut tr = RecordingTracer::new(Granularity::Element);
    let err = sys.run_round(&mut tr).expect_err("the stacked tampers must exhaust recovery");
    assert_eq!(
        err,
        RoundError::Shard(ShardError {
            shard: 2,
            attempts: RetryPolicy::MAX_ATTEMPTS,
            failure: ShardFailure::Tunnel(TunnelError::AuthFailure),
        })
    );
    assert!(sys.interrupted(), "the aborted round must stay pending");

    let report = sys.restore_round(&mut tr).expect("the poisoned round restores");
    assert!(!sys.interrupted());
    let bits: Vec<u32> = sys.global_params().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, ref_bits, "restored round changed the global model");
    assert_eq!(tr.digest(), ref_digest, "restored round changed the trace digest");
    assert_eq!(report.model_signature, ref_report.model_signature);
}

/// A fault at chunk 0 aborts *before the first checkpoint exists*: the
/// restore path must restart the round whole from the untrusted material
/// (there is no blob), still bitwise identical.
#[test]
fn chunk_zero_exhaustion_restores_without_a_checkpoint_blob() {
    let kind = AggregatorKind::Advanced;
    let (ref_bits, ref_digest, ref_report, _) = run_round(kind, None, 1, None);

    let (mut sys, _) = small_system(kind, None, 97);
    sys.set_threads(1);
    sys.set_chunk(3);
    sys.set_shards(2);
    let spec = vec!["drop@0.1"; RetryPolicy::MAX_ATTEMPTS as usize].join(",");
    sys.set_fault_plan(FaultPlan::parse(&spec).expect("well-formed script"));
    let mut tr = RecordingTracer::new(Granularity::Element);
    let err = sys.run_round(&mut tr).expect_err("stacked drops exhaust recovery");
    match err {
        RoundError::Shard(e) => {
            assert_eq!(e.shard, 1);
            assert_eq!(e.failure, ShardFailure::Dropped);
        }
        other => panic!("expected a shard error, got {other:?}"),
    }
    assert!(sys.interrupted());
    assert!(sys.checkpoint_blob().is_none(), "chunk 0 died before any checkpoint was sealed");

    let report = sys.restore_round(&mut tr).expect("no-blob restart");
    let bits: Vec<u32> = sys.global_params().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, ref_bits, "no-blob restart changed the global model");
    assert_eq!(tr.digest(), ref_digest, "no-blob restart changed the trace digest");
    assert_eq!(report.model_signature, ref_report.model_signature);
}

/// Egress-phase exhaustion (receipts corrupted past the budget) also
/// aborts structurally and restores — the final checkpoint holds the
/// fully folded aggregator, so the restore replays only the finalize +
/// egress step. (Finalize re-emits its trace, so this case checks model
/// and signature; the mid-stream cases above pin digest continuity.)
#[test]
fn egress_exhaustion_aborts_cleanly_and_restores() {
    let kind = AggregatorKind::NonOblivious;
    let (ref_bits, _, ref_report, _) = run_round(kind, None, 1, None);

    let (mut sys, _) = small_system(kind, None, 97);
    sys.set_threads(1);
    sys.set_chunk(3);
    sys.set_shards(4);
    let spec = vec!["receipt@e.3"; RetryPolicy::MAX_ATTEMPTS as usize].join(",");
    sys.set_fault_plan(FaultPlan::parse(&spec).expect("well-formed script"));
    let err = sys
        .run_round(&mut RecordingTracer::new(Granularity::Element))
        .expect_err("stacked receipt corruption exhausts recovery");
    match err {
        RoundError::Shard(e) => {
            assert_eq!(e.shard, 3);
            assert_eq!(e.attempts, RetryPolicy::MAX_ATTEMPTS);
            assert_eq!(e.failure, ShardFailure::ReceiptMismatch);
        }
        other => panic!("expected a shard error, got {other:?}"),
    }
    assert!(sys.interrupted());
    let report = sys
        .restore_round(&mut RecordingTracer::new(Granularity::Element))
        .expect("egress abort restores from the final checkpoint");
    let bits: Vec<u32> = sys.global_params().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, ref_bits, "egress restore changed the global model");
    assert_eq!(report.model_signature, ref_report.model_signature);
}

/// The CI chaos pass, pinned end-to-end: the exact `OLIVE_FAULTS` spec
/// the tier-1 workflow exports (`seed:1337x5@6.4` — the scripted
/// generator whose per-site caps guarantee recoverability) must recover
/// bitwise under `OLIVE_SHARDS=4`'s topology.
#[test]
fn ci_chaos_spec_recovers_bitwise() {
    let kind = AggregatorKind::Grouped { h: 3 };
    let plan = FaultPlan::parse("seed:1337x5@6.4").expect("the CI spec must stay parseable");
    assert_eq!(plan.remaining(), 5, "the CI spec arms five events");
    let (ref_bits, ref_digest, ref_report, _) = run_round(kind, None, 1, None);
    let (bits, digest, report, _) = run_round(kind, None, 4, Some(plan));
    assert_eq!(bits, ref_bits, "CI chaos spec changed the global model");
    assert_eq!(digest, ref_digest, "CI chaos spec changed the trace digest");
    assert_eq!(report.model_signature, ref_report.model_signature);
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

/// Regression pin for the unbalanced-abort bug: exhausted ingress or
/// egress recovery used to free the enclave budgets but neither the
/// telemetry working set nor the stats flush, so the aborted
/// invocation's `epc_charge_bytes` ≠ `epc_free_bytes` and its counters
/// bled into the restoring round's flush. With the engine's ledger
/// releasing on abort, every invocation — aborted or restored — flushes
/// its own block with charge == free on every budget, and every budget
/// is empty after each `Err`.
#[test]
fn aborted_rounds_balance_every_epc_budget_and_flush_their_own_stats() {
    let kind = AggregatorKind::Grouped { h: 3 };
    let (ref_bits, _, ref_report, _) = run_round(kind, None, 1, None);
    let budget = RetryPolicy::MAX_ATTEMPTS as usize;
    for site in ["drop@0.1", "tamper@2.3", "receipt@e.2"] {
        let (mut sys, _) = small_system(kind, None, 97);
        sys.set_threads(1);
        sys.set_chunk(3);
        sys.set_shards(4);
        let telemetry = Telemetry::to_buffer();
        sys.set_telemetry(telemetry.clone());
        sys.set_fault_plan(FaultPlan::parse(&vec![site; budget].join(",")).expect("script"));
        let mut tr = RecordingTracer::new(Granularity::Element);
        let err = sys.run_round(&mut tr).expect_err("the stacked faults must exhaust recovery");
        assert!(matches!(err, RoundError::Shard(_)), "{site}: {err:?}");
        assert!(sys.interrupted(), "{site}: the aborted round must stay pending");
        assert_eq!(sys.epc_live(), vec![0; 5], "{site}: every budget is empty after the abort");
        let aborted = epc_blocks(&telemetry.buffer_contents().expect("buffer sink"));
        assert_eq!(aborted.len(), 1, "{site}: the aborted invocation flushes its own stats");

        let report = sys.restore_round(&mut tr).expect("the aborted round restores");
        assert_eq!(sys.epc_live(), vec![0; 5], "{site}: every budget is empty after the restore");
        let bits: Vec<u32> = sys.global_params().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, ref_bits, "{site}: restored round changed the global model");
        assert_eq!(report.model_signature, ref_report.model_signature, "{site}");
        let blocks = epc_blocks(&telemetry.buffer_contents().expect("buffer sink"));
        assert_eq!(blocks.len(), 2, "{site}: one stats block per invocation");
        // The restoring invocation reaches all four shards; the aborted one
        // charged only the shards a frame reached before recovery ran out.
        assert_eq!(blocks[1].len(), 5, "{site}: coordinator + four shards");
        for (i, block) in blocks.iter().enumerate() {
            assert!(block.contains_key("coordinator"), "{site} block {i}");
            for (key, (charged, freed)) in block {
                assert!(*charged > 0, "{site} block {i}: {key} saw no charges");
                assert_eq!(charged, freed, "{site} block {i}: {key} charge != free");
            }
        }
    }
}
