//! The telemetry plane's hard bar: it is **side-band**. Arming metrics
//! must never perturb the computation — round output, enclave signature
//! and the adversary-visible trace digest stay bitwise identical to the
//! disarmed run, for every aggregator kind, monolithic and sharded, clean
//! and killed-then-restored. And the stream itself must be reproducible:
//! two identical runs project to byte-identical deterministic records
//! once the wall-clock suffixes are stripped.

use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{RoundError, RoundReport};
use olive_integration_tests::small_system;
use olive_memsim::{FaultPlan, Granularity, RecordingTracer, RecoveryStats, TraceDigest};
use olive_telemetry::{deterministic_projection, Telemetry};

fn all_kinds() -> [AggregatorKind; 6] {
    [
        AggregatorKind::NonOblivious,
        AggregatorKind::Baseline { cacheline_weights: 16 },
        AggregatorKind::Advanced,
        AggregatorKind::Grouped { h: 3 },
        AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan },
        AggregatorKind::DiffOblivious { epsilon: 1.0, delta: 1e-3, seed: 11 },
    ]
}

/// One traced round with an explicit telemetry handle — with `crash`,
/// killed after chunk 1 and finished through `restore_round`. Returns
/// the global model bits, the trace digest (one tracer spans both
/// invocations), the completing report, and — when armed into a buffer
/// — the emitted JSONL stream.
fn run_round(
    kind: AggregatorKind,
    shards: usize,
    crash: bool,
    telemetry: Telemetry,
) -> (Vec<u32>, TraceDigest, RoundReport, Option<String>) {
    let (mut sys, _) = small_system(kind, None, 97);
    sys.set_threads(1);
    sys.set_chunk(3);
    sys.set_shards(shards);
    sys.set_telemetry(telemetry.clone());
    let mut tr = RecordingTracer::new(Granularity::Element);
    let report = if crash {
        sys.set_fault_plan(FaultPlan::crash_after([1]));
        let killed = RoundError::CoordinatorKilled { after_chunk: 1 };
        assert_eq!(sys.run_round(&mut tr).expect_err("the scripted crash fires"), killed);
        sys.restore_round(&mut tr).expect("the crashed round restores")
    } else {
        sys.run_round(&mut tr).expect("a clean round")
    };
    let bits = sys.global_params().iter().map(|v| v.to_bits()).collect();
    (bits, tr.digest(), report, telemetry.buffer_contents())
}

/// The acceptance matrix: armed vs disarmed telemetry for every
/// aggregator kind at S ∈ {1, 4}, clean and (sharded) killed after chunk
/// 1 and restored — model, signature and trace digest all bitwise, and
/// the deterministic round summary identical too.
#[test]
fn armed_telemetry_never_perturbs_output_signature_or_trace() {
    for kind in all_kinds() {
        for (shards, crash) in [(1usize, false), (4, false), (4, true)] {
            let ctx = format!("{kind:?} S={shards} crash={crash}");
            let (ref_bits, ref_digest, ref_report, none) =
                run_round(kind, shards, crash, Telemetry::off());
            assert!(none.is_none(), "{ctx}: a disarmed handle must emit nothing");
            let (bits, digest, report, stream) =
                run_round(kind, shards, crash, Telemetry::to_buffer());
            assert_eq!(bits, ref_bits, "{ctx}: arming telemetry changed the global model");
            assert_eq!(digest, ref_digest, "{ctx}: arming telemetry changed the trace digest");
            assert_eq!(
                report.model_signature, ref_report.model_signature,
                "{ctx}: arming telemetry changed the signed output"
            );
            assert_eq!(
                report.telemetry, ref_report.telemetry,
                "{ctx}: the round summary must not depend on the exporter"
            );
            let stream = stream.unwrap_or_else(|| panic!("{ctx}: armed buffer sink"));
            assert!(
                stream.lines().any(|l| l.contains("\"name\":\"round\"")),
                "{ctx}: the armed stream must carry the round span"
            );
        }
    }
}

/// Two identical armed runs emit byte-identical deterministic
/// projections — span ids, nesting, crash sites, the restore and the
/// shard plane's re-provisioning, and all counter totals are pure
/// functions of the computation. Only the `"wall"` suffix may differ
/// between runs.
#[test]
fn deterministic_projection_is_byte_stable_across_runs() {
    let kind = AggregatorKind::Grouped { h: 3 };
    let run = || {
        let (_, _, _, stream) = run_round(kind, 4, true, Telemetry::to_buffer());
        deterministic_projection(&stream.expect("armed buffer sink"))
    };
    let (a, b) = (run(), run());
    assert!(!a.is_empty() && !a.contains("\"wall\""), "projection must strip wall-clock data");
    assert_eq!(a, b, "the deterministic projection must be byte-stable");
    assert!(a.lines().any(|l| l.contains("\"site\":\"crash@1\"")));
    assert!(a.lines().any(|l| l.contains("\"name\":\"round_restore\"")));
}

/// ORAM comparator rounds surface the stash high-water mark and the
/// eviction volume on the stream's existing counter/histogram schema —
/// and only ORAM rounds do (the names are a stable contract; the pinned
/// Grouped metrics-snapshot golden is untouched by construction).
#[test]
fn oram_rounds_emit_stash_and_eviction_counters() {
    let oram_kind = AggregatorKind::PathOram { posmap: olive_oram::PosMapKind::LinearScan };
    let (_, _, _, stream) = run_round(oram_kind, 1, false, Telemetry::to_buffer());
    let stream = stream.expect("armed buffer sink");
    assert!(
        stream.lines().any(|l| l.contains("\"name\":\"oram_evicted_blocks\"")),
        "ORAM round must count evicted blocks"
    );
    assert!(
        stream.lines().any(|l| l.contains("\"name\":\"oram_stash_occupancy\"")),
        "ORAM round must observe stash occupancy"
    );
    let (_, _, _, stream) =
        run_round(AggregatorKind::Grouped { h: 3 }, 1, false, Telemetry::to_buffer());
    let stream = stream.expect("armed buffer sink");
    assert!(
        !stream.contains("oram_"),
        "non-ORAM rounds must not grow ORAM counters (the pinned golden depends on it)"
    );
}

/// The `RoundReport` summary is always populated: the chunk/checkpoint
/// counts reflect the round that ran, and the recovery record is an
/// explicit zero at every S — also for a round that crashed and was
/// restored, since the shard plane never recovers in-band.
#[test]
fn round_report_telemetry_summary_is_always_populated() {
    let kind = AggregatorKind::Advanced;
    let (_, _, mono, _) = run_round(kind, 1, false, Telemetry::off());
    assert_eq!(mono.telemetry.recovery, RecoveryStats::default(), "S=1 recovery must be zeroed");
    assert!(mono.telemetry.chunks > 0, "the summary must count folded chunks");
    assert_eq!(
        mono.telemetry.ckpt_seals, mono.telemetry.chunks,
        "default checkpointing seals once per folded chunk"
    );
    assert!(mono.telemetry.ckpt_bytes > 0);

    let (_, _, restored, _) = run_round(kind, 4, true, Telemetry::off());
    assert_eq!(restored.telemetry.recovery, RecoveryStats::default(), "S=4 recovery is zero");
    assert!(restored.telemetry.chunks > 0 && restored.telemetry.chunks < mono.telemetry.chunks);
}
