//! Crash-safe rounds: kill-and-restore fidelity, replay-floor rewinding,
//! and checkpoint tamper/rollback rejection.
//!
//! The hard bar these tests pin: a round killed after *any* chunk and
//! restored from its sealed checkpoint must be **bitwise identical** — in
//! the global model, the enclave signature, and the adversary-visible
//! trace digest — to the same round run uninterrupted. One
//! `RecordingTracer` spans the kill and the restore, so any extra or
//! missing adversary-visible access would break the digest.
//!
//! Kills are scripted crash points ([`FaultPlan::crash_after`]): each
//! tears the coordinator enclave down right after its chunk is folded and
//! checkpointed, surfacing as [`RoundError::CoordinatorKilled`].

use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{DpConfig, OliveSystem, RoundError, RoundReport};
use olive_integration_tests::{sha256_hex, small_system};
use olive_memsim::{FaultPlan, Granularity, RecordingTracer, TraceDigest};
use olive_oram::PosMapKind;
use olive_tee::TeeError;

/// Arms a coordinator crash right after chunk `chunk` (0-based) is
/// folded and checkpointed.
fn crash_after(sys: &mut OliveSystem, chunk: usize) {
    sys.set_fault_plan(FaultPlan::crash_after([chunk]));
}

/// The structured error a crash scripted after chunk `chunk` surfaces as.
fn killed(chunk: usize) -> RoundError {
    RoundError::CoordinatorKilled { after_chunk: chunk }
}

/// The DO relaxation at a padding volume that keeps the matrix quick.
const DIFF_OBLIVIOUS: AggregatorKind =
    AggregatorKind::DiffOblivious { epsilon: 8.0, delta: 0.01, seed: 9 };

/// Runs one uninterrupted round and returns (params, digest, report).
fn uninterrupted(
    kind: AggregatorKind,
    dp: Option<DpConfig>,
    seed: u64,
    chunk: usize,
    threads: usize,
) -> (Vec<f32>, TraceDigest, RoundReport) {
    let mut sys = fresh(kind, dp, seed, chunk, threads);
    let mut tr = RecordingTracer::new(Granularity::Element);
    let report = sys.run_round(&mut tr).expect("round");
    (sys.global_params(), tr.digest(), report)
}

fn fresh(
    kind: AggregatorKind,
    dp: Option<DpConfig>,
    seed: u64,
    chunk: usize,
    threads: usize,
) -> OliveSystem {
    let (mut sys, _) = small_system(kind, dp, seed);
    sys.set_threads(threads);
    sys.set_chunk(chunk);
    sys
}

fn assert_bitwise_eq(a: &[f32], b: &[f32], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: params diverge at {i}: {x} vs {y}");
    }
}

/// Kill after chunk i ∈ {0, 1, mid, last} × every aggregator kind — each
/// restoring the one way, by replaying its folded prefix — × chunk sizes
/// {1, 7, 64} × S ∈ {1, 4}. Restored rounds must match the uninterrupted
/// (monolithic) round bitwise in output, signature, and trace digest,
/// and leave every EPC budget — the coordinator's and each shard's —
/// balanced.
///
/// This matrix also exercises replay-floor rewinding implicitly: with the
/// double-buffered opener, the chunk after the kill point was already
/// *opened* (replay floors advanced) but never folded when the enclave
/// died. If the restore did not rewind the floors to round start before
/// it replays the folded prefix, re-opening those same ciphertexts would
/// be misclassified as a replay and the restore would abort.
#[test]
fn kill_and_restore_is_bitwise_identical() {
    let seed = 41;
    let threads = 2; // double-buffered opening: the historical crash bug
    for kind in [
        AggregatorKind::NonOblivious,
        AggregatorKind::Baseline { cacheline_weights: 16 },
        AggregatorKind::Grouped { h: 3 },
        AggregatorKind::Advanced,
        AggregatorKind::PathOram { posmap: PosMapKind::LinearScan },
        DIFF_OBLIVIOUS,
    ] {
        for chunk in [1usize, 7, 64] {
            let (ref_params, ref_digest, ref_report) =
                uninterrupted(kind, None, seed, chunk, threads);
            let n_chunks = ref_report.processed_users.len().div_ceil(chunk);
            assert!(n_chunks >= 1, "fixture rounds are non-empty");
            let mut kill_points = vec![0, 1, n_chunks / 2, n_chunks - 1];
            kill_points.retain(|&kp| kp < n_chunks);
            kill_points.dedup();
            for (kp, shards) in kill_points.into_iter().flat_map(|kp| [(kp, 1), (kp, 4)]) {
                let ctx = format!("kind={kind:?} chunk={chunk} S={shards} crash_after={kp}");
                let mut sys = fresh(kind, None, seed, chunk, threads);
                sys.set_shards(shards);
                let mut tr = RecordingTracer::new(Granularity::Element);
                crash_after(&mut sys, kp);
                let err = sys.run_round(&mut tr).expect_err("the crash must interrupt the round");
                assert_eq!(err, killed(kp), "{ctx}: kill point must interrupt the round");
                assert!(sys.interrupted(), "{ctx}: round must be pending");
                let report = sys.restore_round(&mut tr).expect("restore must succeed");
                assert!(!sys.interrupted(), "{ctx}: restore clears the pending round");
                assert_bitwise_eq(&sys.global_params(), &ref_params, &ctx);
                assert_eq!(tr.digest(), ref_digest, "{ctx}: trace digest diverged");
                assert_eq!(report.round, ref_report.round, "{ctx}");
                assert_eq!(report.processed_users, ref_report.processed_users, "{ctx}");
                assert_eq!(report.k_per_user, ref_report.k_per_user, "{ctx}");
                assert_eq!(report.model_signature, ref_report.model_signature, "{ctx}");
                assert!(sys.epc_live().iter().all(|&b| b == 0), "{ctx}: EPC charges balance");
            }
        }
    }
}

/// Grouped with a partial wave pending at the kill: h = 3 and chunk 4,
/// which divides no unit of h·threads clients at threads ∈ {1, 2, 3}, so
/// most boundaries leave clients staged that are not yet in the running
/// total. The restore replays the folded prefix, which re-runs the full
/// waves and stages the pending one again. Killed after every
/// chunk, each restore must match the uninterrupted round bitwise in
/// output, signature and trace digest, one tracer spanning both legs.
#[test]
fn grouped_pending_wave_restores_at_every_chunk_boundary() {
    let (seed, h, chunk) = (41, 3, 4);
    let kind = AggregatorKind::Grouped { h };
    for threads in [1usize, 2, 3] {
        let (ref_params, ref_digest, ref_report) = uninterrupted(kind, None, seed, chunk, threads);
        let n = ref_report.processed_users.len();
        let n_chunks = n.div_ceil(chunk);
        let pending = |kp: usize| (kp + 1) * chunk % (h * threads);
        assert!(
            (0..n_chunks - 1).filter(|&kp| pending(kp) > 0).count() >= 2,
            "threads={threads}: the fixture must leave waves pending mid-round"
        );
        for kp in 0..n_chunks {
            let ctx = format!("threads={threads} crash_after={kp} pending={}", pending(kp));
            let mut sys = fresh(kind, None, seed, chunk, threads);
            sys.set_shards(1);
            let mut tr = RecordingTracer::new(Granularity::Element);
            crash_after(&mut sys, kp);
            assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed(kp), "{ctx}");
            let report = sys.restore_round(&mut tr).expect("restore must succeed");
            assert_bitwise_eq(&sys.global_params(), &ref_params, &ctx);
            assert_eq!(tr.digest(), ref_digest, "{ctx}: trace digest diverged");
            assert_eq!(report.model_signature, ref_report.model_signature, "{ctx}");
            assert!(sys.epc_live().iter().all(|&b| b == 0), "{ctx}: EPC charges balance");
        }
    }
}

/// Two crashes in one round: killed after chunk 1, killed again after
/// chunk 3, restored a second time — with the second crash armed on the
/// restore, or both in one script armed once, whose unfired remainder
/// must survive the first restore's re-provisioning at every S. The
/// second restore rewinds to the *round-start* floors once more and
/// replays a prefix twice as long; one tracer spans all three legs.
#[test]
fn double_kill_and_restore_is_bitwise_identical() {
    let (seed, chunk) = (41, 2);
    for kind in [AggregatorKind::Advanced, DIFF_OBLIVIOUS] {
        let (ref_params, ref_digest, ref_report) = uninterrupted(kind, None, seed, chunk, 1);
        assert!(ref_report.processed_users.len().div_ceil(chunk) > 4, "chunk 3 is not the last");
        for (shards, one_script) in [(1usize, false), (4, false), (1, true), (4, true)] {
            let ctx = format!("kind={kind:?} S={shards} one_script={one_script}");
            let mut sys = fresh(kind, None, seed, chunk, 1);
            sys.set_shards(shards);
            let mut tr = RecordingTracer::new(Granularity::Element);
            if one_script {
                sys.set_fault_plan(FaultPlan::crash_after([1, 3]));
            } else {
                crash_after(&mut sys, 1);
            }
            assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed(1), "{ctx}");
            if !one_script {
                crash_after(&mut sys, 3);
            }
            assert_eq!(sys.restore_round(&mut tr).unwrap_err(), killed(3), "{ctx}");
            assert!(sys.interrupted(), "{ctx}: still pending after the second crash");
            assert!(sys.epc_live().iter().all(|&b| b == 0), "{ctx}: a crash releases the restage");
            let report = sys.restore_round(&mut tr).expect("second restore must succeed");
            assert_bitwise_eq(&sys.global_params(), &ref_params, &ctx);
            assert_eq!(tr.digest(), ref_digest, "{ctx}: trace digest diverged");
            assert_eq!(report.model_signature, ref_report.model_signature, "{ctx}");
            assert!(sys.epc_live().iter().all(|&b| b == 0), "{ctx}: EPC charges balance");
        }
    }
}

/// A staged kind's checkpoints stay small however much is staged: every
/// blob is a header with the prefix digest, the aggregator's 25-byte
/// descriptor and the seal's counter and tag, so a round's sealed bytes
/// are exactly its chunk count times one blob — at one client per chunk
/// too, where O(nk) blobs of staged cells would sum to O(n²k).
#[test]
fn advanced_checkpoint_bytes_are_linear_in_chunks() {
    for chunk in [1usize, 4] {
        let (_, _, report) = uninterrupted(AggregatorKind::Advanced, None, 23, chunk, 1);
        let (n, k) = (report.processed_users.len() as u64, report.k_per_user as u64);
        let chunks = n.div_ceil(chunk as u64);
        assert_eq!((report.telemetry.chunks, report.telemetry.ckpt_seals), (chunks, chunks));
        let header = 1 + 8 + 5 * 8 + 32 + 32 + 8; // version … generator, digest, length prefix
        let per_blob = header + 25 + (8 + 16);
        assert_eq!(report.telemetry.ckpt_bytes, chunks * per_blob, "chunk={chunk}");
        assert!(per_blob < n * k * 8, "a blob is smaller than one of the staged cells");
    }
}

/// The sealed restore point pinned byte for byte: the blob a round leaves
/// in untrusted storage when it is killed after chunk 1 — counter prefix,
/// ciphertext, tag — hashes to a pinned SHA-256. Grouped on two threads
/// (parallel clients, a partial wave pending) and Advanced; one shard,
/// whatever `OLIVE_SHARDS` says.
#[test]
fn sealed_round_blob_is_pinned() {
    let pinned = [
        (
            AggregatorKind::Grouped { h: 3 },
            2,
            "aa629934348eee71015ebd0deba3cefab82b3df9be4a151736312f6ce7bfe104",
        ),
        (
            AggregatorKind::Advanced,
            1,
            "66893f1810e586336849803bec4dcc7bcd1b5c6b2863518e609f60528ec74938",
        ),
    ];
    for (kind, threads, digest) in pinned {
        let mut sys = fresh(kind, None, 41, 2, threads);
        sys.set_shards(1);
        crash_after(&mut sys, 1);
        let mut tr = RecordingTracer::new(Granularity::Element);
        assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed(1), "{kind:?}");
        let blob = sys.checkpoint_blob().expect("sealed before the crash");
        assert_eq!(sha256_hex(blob), digest, "{kind:?}: the sealed blob moved");
    }
}

/// The checkpoint carries the enclave's RNG state, so the post-restore
/// Gaussian noise draw is the exact draw the uninterrupted round makes —
/// DP rounds restore bitwise too.
#[test]
fn kill_and_restore_preserves_dp_noise_bits() {
    let dp = Some(DpConfig { sigma: 1.1, clip: 0.5, delta: 1e-5 });
    let kind = AggregatorKind::Advanced;
    let (ref_params, ref_digest, ref_report) = uninterrupted(kind, dp, 13, 2, 1);
    let mut sys = fresh(kind, dp, 13, 2, 1);
    let mut tr = RecordingTracer::new(Granularity::Element);
    crash_after(&mut sys, 0);
    assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed(0));
    let report = sys.restore_round(&mut tr).expect("restore must succeed");
    assert_bitwise_eq(&sys.global_params(), &ref_params, "dp restore");
    assert_eq!(tr.digest(), ref_digest);
    assert_eq!(report.epsilon_spent, ref_report.epsilon_spent, "ε composition must match");
}

/// A bit flipped anywhere in the sealed blob must fail authentication;
/// putting the genuine blob back lets the round finish identically.
#[test]
fn tampered_checkpoint_is_rejected_and_recoverable() {
    let kind = AggregatorKind::Grouped { h: 3 };
    let (ref_params, ref_digest, _) = uninterrupted(kind, None, 5, 3, 1);
    let mut sys = fresh(kind, None, 5, 3, 1);
    let mut tr = RecordingTracer::new(Granularity::Element);
    crash_after(&mut sys, 1);
    assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed(1));
    let good = sys.checkpoint_blob().expect("a killed round leaves a blob").to_vec();

    let mut evil = good.clone();
    let mid = evil.len() / 2;
    evil[mid] ^= 0x40;
    sys.set_checkpoint_blob(evil);
    assert_eq!(
        sys.restore_round(&mut tr).unwrap_err(),
        RoundError::Checkpoint(TeeError::AuthFailure)
    );
    assert!(sys.interrupted(), "a failed restore leaves the round pending");

    sys.set_checkpoint_blob(good);
    let _ = sys.restore_round(&mut tr).expect("genuine blob restores");
    assert_bitwise_eq(&sys.global_params(), &ref_params, "post-tamper recovery");
    assert_eq!(tr.digest(), ref_digest);
}

/// A *genuine but older* checkpoint — the rollback attack — must be
/// rejected against the pinned counter floor, and seal counters must be
/// strictly monotone across kill/restore cycles and rounds (the
/// nonce-non-reuse invariant: every sealed blob draws a fresh counter,
/// even from a relaunched enclave that lost its in-memory counters).
#[test]
fn rolled_back_checkpoint_is_rejected() {
    let counter_of = |blob: &[u8]| u64::from_be_bytes(blob[..8].try_into().unwrap());
    let kind = AggregatorKind::NonOblivious;
    let mut sys = fresh(kind, None, 29, 1, 1);
    let mut tr = RecordingTracer::new(Granularity::Element);

    // Kill after chunk 0 → blob A; restore and kill again after chunk 1
    // → blob B with a strictly larger counter.
    crash_after(&mut sys, 0);
    assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed(0));
    let blob_a = sys.checkpoint_blob().unwrap().to_vec();
    crash_after(&mut sys, 1);
    assert_eq!(sys.restore_round(&mut tr).unwrap_err(), killed(1));
    let blob_b = sys.checkpoint_blob().unwrap().to_vec();
    assert!(
        counter_of(&blob_b) > counter_of(&blob_a),
        "the relaunched enclave must not reuse a seal counter: {} vs {}",
        counter_of(&blob_b),
        counter_of(&blob_a)
    );

    // Rollback: untrusted storage presents the older (authentic!) blob.
    sys.set_checkpoint_blob(blob_a);
    assert_eq!(
        sys.restore_round(&mut tr).unwrap_err(),
        RoundError::Checkpoint(TeeError::StaleSeal)
    );
    assert!(sys.interrupted(), "the rolled-back round stays pending");

    // The newest blob still restores, and the next round's checkpoints
    // keep climbing (floor monotone across rounds).
    sys.set_checkpoint_blob(blob_b.clone());
    let report = sys.restore_round(&mut tr).expect("newest blob restores");
    assert_eq!(report.round, 0);
    crash_after(&mut sys, 0);
    assert_eq!(sys.run_round(&mut tr).unwrap_err(), killed(0));
    let blob_c = sys.checkpoint_blob().unwrap().to_vec();
    assert!(counter_of(&blob_c) > counter_of(&blob_b), "counters climb across rounds");
    let report = sys.restore_round(&mut tr).expect("round 1 restores too");
    assert_eq!(report.round, 1);
}
