//! The two runs of one workload: the end-to-end run (back-to-back
//! `run_round` calls, telemetry off) and the traced run (plain round,
//! armed round and walked round side by side, plus the probes).

use std::collections::BTreeMap;
use std::time::Instant;

use olive_core::aggregation::reference_average;
use olive_core::olive::{OliveSystem, RoundReport};
use olive_crypto::sha256;
use olive_memsim::NullTracer;
use olive_telemetry::Telemetry;

use crate::stats::{fold_spans, median, undisturbed};
use crate::walk::{aggregate_probe, same_bits, Walk, STAGES};
use crate::workload::Workload;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] =
    [("round_p10_s", "s"), ("clients_per_s", "1/s"), ("epc_peak_bytes", "bytes"), ("setup_s", "s")];

/// `(name, unit)` of every per-layer metric after the walk's [`STAGES`]
/// (which are all in seconds), as in `BENCHMARK.json`.
pub const PER_LAYER_REST: [(&str, &str); 29] = [
    ("round_p50_s", "s"),
    ("walk.total_s", "s"),
    ("walk.coverage", "ratio"),
    ("core.cells_ingested", "count"),
    ("core.chunks", "count"),
    ("tee.opened_bytes", "bytes"),
    ("tee.ckpt_seals", "count"),
    ("tee.ckpt_sealed_bytes", "bytes"),
    ("core.shard_segment_bytes", "bytes"),
    ("core.recovery_attempts", "count"),
    ("crypto.open_mib_per_s", "MiB/s"),
    ("crypto.seal_ckpt_mib_per_s", "MiB/s"),
    ("core.finalize_ns_per_cell", "ns"),
    ("core.ingest_ns_per_cell", "ns"),
    ("fl.local_update_us_per_client", "us"),
    ("nn.train_batch_s", "s"),
    ("fl.from_dense_s", "s"),
    ("core.ingest_t2_s", "s"),
    ("core.finalize_t2_s", "s"),
    ("core.t2_speedup", "ratio"),
    ("core.restore_s", "s"),
    ("span.sample_s", "s"),
    ("span.ingest_chunk_s", "s"),
    ("span.checkpoint_seal_s", "s"),
    ("span.finalize_s", "s"),
    ("span.shard_ingress_s", "s"),
    ("span.shard_egress_s", "s"),
    ("telemetry.armed_overhead", "ratio"),
    ("proc.rss_peak_bytes", "bytes"),
];

/// Every per-layer metric, in the order the traced run prints them.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    STAGES.iter().map(|&name| (name, "s")).chain(PER_LAYER_REST)
}

/// Rounds every system runs before anything is timed. Part of `setup_s`:
/// the first round also provisions the shard plane.
pub const WARMUP_ROUNDS: usize = 1;
/// Fewest set-ups per end-to-end run; `setup_s` is [`undisturbed`] of all.
const MIN_SETUPS: usize = 3;
/// Share of the window that further set-ups may fill: a cheap set-up is
/// repeated more often, so that some repetition escapes every burst.
const SETUP_WINDOW_SHARE: f64 = 0.25;
/// Fewest timed rounds, however short the window.
const MIN_TIMED_ROUNDS: usize = 3;
/// The same for the traced run, whose every iteration is three rounds
/// and the probes.
const MIN_TRACED_ROUNDS: usize = 3;
/// `result_digest` hashes the parameters after three rounds, i.e. after
/// this round (0-based) — the earliest every run is sure to reach.
const DIGEST_ROUND: u64 = 2;
/// A threads = 1 walk must account for the round to within this.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;
/// How many further windows a threads = 1 traced run keeps iterating while
/// `walk.coverage` is still outside [`COVERAGE`]. Another tenant's burst
/// can slow every walk (or every round) of a three-iteration window; a
/// walk that really misses a stage stays outside however long it runs.
const COVERAGE_GRACE_WINDOWS: f64 = 5.0;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run hands back to `main` for printing.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Rounds attempted, warm-ups included.
    pub attempted: u64,
    pub failed: u64,
    /// Timed samples of one `run_round`, seconds.
    pub round_s: Vec<f64>,
    /// Every set-up of the end-to-end run, seconds.
    pub setup_s: Vec<f64>,
    /// This process's `VmHWM` once [`MIN_TIMED_ROUNDS`] are done. Read at
    /// a fixed round count because the allocator's high-water mark creeps
    /// up with every further round, and how many fit the window is timing.
    pub rss_peak_bytes: f64,
    /// SHA-256 of the global parameters after round [`DIGEST_ROUND`].
    pub result_digest: String,
    /// Cross-checks that did not hold; empty on a correct run.
    pub mismatches: Vec<String>,
}

fn params_digest(params: &[f32]) -> String {
    let mut bytes = Vec::with_capacity(params.len() * 4);
    for p in params {
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs one round and checks everything a client could check about it.
/// `Err` carries why the round counts as failed.
fn checked_round(wl: &Workload, system: &mut OliveSystem) -> (f64, Result<RoundReport, String>) {
    let t0 = Instant::now();
    let result = system.run_round(&mut NullTracer);
    let secs = t0.elapsed().as_secs_f64();
    let checked = result.map_err(|e| e.to_string()).and_then(|report| {
        let params = system.global_params();
        if !system.verify_model_signature(report.round, &params, &report.model_signature) {
            return Err(format!("round {}: model signature does not verify", report.round));
        }
        if !params.iter().all(|p| p.is_finite()) {
            return Err(format!("round {}: non-finite parameters", report.round));
        }
        if report.would_page {
            return Err(format!("round {}: working set exceeds the EPC budget", report.round));
        }
        let n = report.processed_users.len();
        if n == 0 || (wl.sample_rate == 1.0 && n != wl.n_clients) {
            return Err(format!("round {}: {n} participants", report.round));
        }
        Ok(report)
    });
    (secs, checked)
}

/// Peak resident set of this process so far (`VmHWM`), bytes; 0 where
/// `/proc` does not say.
fn rss_peak_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

/// The end-to-end run: closed loop, one caller, telemetry off.
pub fn run_e2e(wl: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let note_round = |out: &mut Outcome, system: &OliveSystem, r: &Result<RoundReport, String>| {
        out.attempted += 1;
        match r {
            Ok(report) if report.round == DIGEST_ROUND => {
                out.result_digest = params_digest(&system.global_params());
            }
            Ok(_) => {}
            Err(why) => {
                out.failed += 1;
                out.mismatches.push(why.clone());
            }
        }
    };

    // Set-up, several times over: federation, N attestations, pinned
    // knobs, warm-up rounds (the first provisions the shard plane). The
    // same seed must leave the same bits every time. Half of the set-ups
    // run before the timed window and half after it, so that one slow
    // spell of the host cannot cover them all.
    let mut warm_digests = Vec::new();
    let mut set_up = |out: &mut Outcome| {
        let t0 = Instant::now();
        let mut system = wl.system(seed);
        for _ in 0..WARMUP_ROUNDS {
            let (_, r) = checked_round(wl, &mut system);
            note_round(out, &system, &r);
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        warm_digests.push(params_digest(&system.global_params()));
        system
    };
    let batch_s = seconds * SETUP_WINDOW_SHARE / 2.0;
    let batch = Instant::now();
    let mut system = set_up(&mut out);
    while out.setup_s.len() < MIN_SETUPS.div_ceil(2) || batch.elapsed().as_secs_f64() < batch_s {
        drop(system);
        system = set_up(&mut out);
    }

    let (mut s_per_client, mut epc_peak) = (Vec::new(), 0u64);
    let window = Instant::now();
    while out.round_s.len() < MIN_TIMED_ROUNDS || window.elapsed().as_secs_f64() < seconds {
        let (secs, r) = checked_round(wl, &mut system);
        note_round(&mut out, &system, &r);
        if let Ok(report) = r {
            out.round_s.push(secs);
            s_per_client.push(secs / report.processed_users.len() as f64);
            epc_peak = epc_peak.max(report.working_set_bytes);
            if out.round_s.len() == MIN_TIMED_ROUNDS {
                out.rss_peak_bytes = rss_peak_bytes();
            }
        }
        if out.failed > 0 {
            break;
        }
    }
    drop(system);
    let batch = Instant::now();
    while out.failed == 0
        && (out.setup_s.len() < MIN_SETUPS || batch.elapsed().as_secs_f64() < batch_s)
    {
        set_up(&mut out);
    }
    if warm_digests.iter().any(|d| d != &warm_digests[0]) {
        out.mismatches.push(format!("set-ups of seed {seed} disagree: {warm_digests:?}"));
    }
    if out.failed == 0 {
        let values = [
            undisturbed(&out.round_s),
            1.0 / undisturbed(&s_per_client),
            epc_peak as f64,
            undisturbed(&out.setup_s),
        ];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect();
    }
    out
}

/// The traced run. Three deployments of one seed advance in lockstep —
/// the program with telemetry off, the program with telemetry armed, and
/// the walk — and must agree bit for bit after every round. The first
/// [`WARMUP_ROUNDS`] iterations are checked but not timed.
pub fn run_traced(wl: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut plain = wl.system(seed);
    let mut armed = wl.system(seed);
    let telemetry = Telemetry::to_buffer();
    armed.set_telemetry(telemetry.clone());
    let mut walk = Walk::new(*wl, seed);
    let d = walk.dim();

    let mut out = Outcome::default();
    let mut armed_s = Vec::new();
    // Per timed round: one sample of every per-layer quantity.
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);

    // Fastest timed walk and fastest timed plain round so far.
    let (mut walk_best, mut round_best) = (f64::INFINITY, f64::INFINITY);
    let window = Instant::now();
    let mut iteration = 0;
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        let unsettled = wl.threads == 1 && !COVERAGE.contains(&(walk_best / round_best));
        if iteration >= WARMUP_ROUNDS + MIN_TRACED_ROUNDS
            && elapsed >= seconds
            && !(unsettled && elapsed < seconds * (1.0 + COVERAGE_GRACE_WINDOWS))
        {
            break;
        }
        let timed_round = iteration >= WARMUP_ROUNDS;
        iteration += 1;
        let (plain_secs, rp) = checked_round(wl, &mut plain);
        let (armed_secs, ra) = checked_round(wl, &mut armed);
        out.attempted += 2;
        let (report, armed_report) = match (rp, ra) {
            (Ok(p), Ok(a)) => (p, a),
            (p, a) => {
                out.failed += 1;
                out.mismatches.extend(p.err());
                out.mismatches.extend(a.err());
                break;
            }
        };
        let w = walk.round();
        let t = report.round;
        let mut expect = |ok: bool, what: &str| {
            if !ok {
                out.mismatches.push(format!("round {t}: {what}"));
            }
        };

        let params = plain.global_params();
        expect(same_bits(&params, &armed.global_params()), "armed and plain parameters differ");
        expect(report.model_signature == armed_report.model_signature, "armed signature differs");
        expect(same_bits(&params, &walk.params()), "walk and run_round parameters differ");
        expect(w.signature == report.model_signature, "walk and run_round signatures differ");
        expect(w.sampled == report.processed_users, "walk and run_round samples differ");
        let reference = reference_average(&w.updates, d);
        let worst =
            w.pre_noise.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        expect(worst <= 1e-5, "walk aggregate is off the reference average by more than 1e-5");
        if t == DIGEST_ROUND {
            out.result_digest = params_digest(&params);
        }

        // Probes run on every round (they are checks too) but count
        // only on timed ones.
        let (ingest_t2, finalize_t2, delta_t2) = aggregate_probe(wl, d, 2, &w.updates);
        expect(same_bits(&delta_t2, &w.pre_noise), "threads = 2 aggregate differs from the walk's");
        let restore = walk.restore_probe(&w.last_ckpt);
        expect(
            restore.as_ref().is_ok_and(|&(_, clients)| clients == w.sampled.len()),
            "the last checkpoint does not restore the folded clients",
        );
        let training = walk.training_probe(&w);
        expect(training.is_some(), "training probe does not reproduce the round's uploads");
        if !timed_round {
            continue;
        }

        out.round_s.push(plain_secs);
        armed_s.push(armed_secs);
        (walk_best, round_best) = (walk_best.min(w.total_s()), round_best.min(plain_secs));
        if out.round_s.len() == 1 {
            out.rss_peak_bytes = rss_peak_bytes();
        }
        for (name, secs) in STAGES.iter().zip(w.stage_s) {
            push(name, secs);
        }
        push("walk.total_s", w.total_s());
        push("core.cells_ingested", w.cells() as f64);
        push("core.chunks", report.telemetry.chunks as f64);
        push("tee.opened_bytes", w.opened_bytes as f64);
        push("tee.ckpt_seals", report.telemetry.ckpt_seals as f64);
        push("tee.ckpt_sealed_bytes", report.telemetry.ckpt_bytes as f64);
        push("core.shard_segment_bytes", w.shard_segment_bytes as f64);
        let recovery = report.telemetry.recovery;
        push("core.recovery_attempts", (recovery.retries + recovery.relaunches) as f64);
        push("participants", w.sampled.len() as f64);
        push("core.ingest_t2_s", ingest_t2);
        push("core.finalize_t2_s", finalize_t2);
        push("core.restore_s", restore.map_or(f64::NAN, |(secs, _)| secs));
        let (train_s, from_dense_s) = training.unwrap_or((f64::NAN, f64::NAN));
        push("nn.train_batch_s", train_s);
        push("fl.from_dense_s", from_dense_s);
    }
    if out.failed > 0 || out.round_s.is_empty() {
        return out;
    }

    // The armed pass: fold the spans the program emitted itself.
    let spans = fold_spans(&telemetry.buffer_contents().expect("buffer sink"));
    if spans.len() != iteration {
        out.mismatches.push(format!("{} round spans for {iteration} armed rounds", spans.len()));
    }
    for round in spans.iter().skip(WARMUP_ROUNDS) {
        for (name, span) in [
            ("span.sample_s", "sample"),
            ("span.ingest_chunk_s", "ingest_chunk"),
            ("span.checkpoint_seal_s", "checkpoint_seal"),
            ("span.finalize_s", "finalize"),
            ("span.shard_ingress_s", "shard_ingress"),
            ("span.shard_egress_s", "shard_egress"),
        ] {
            push(name, round.get(span).copied().unwrap_or(0.0));
        }
    }

    let mut m: BTreeMap<&str, f64> = samples.iter().map(|(&k, v)| (k, median(v))).collect();
    let round_p50 = median(&out.round_s);
    const MIB: f64 = 1024.0 * 1024.0;
    m.insert("round_p50_s", round_p50);
    m.insert("proc.rss_peak_bytes", out.rss_peak_bytes);
    // Fastest over fastest: this machine's noise only ever slows a round,
    // so the minima are what the walk and the program both can do, and a
    // gap between them is time the walk really misses or counts twice.
    m.insert("walk.coverage", walk_best / round_best);
    m.insert("telemetry.armed_overhead", median(&armed_s) / round_p50 - 1.0);
    m.insert("crypto.open_mib_per_s", m["tee.opened_bytes"] / MIB / m["tee.open_batch_s"]);
    m.insert("crypto.seal_ckpt_mib_per_s", m["tee.ckpt_sealed_bytes"] / MIB / m["tee.seal_ckpt_s"]);
    m.insert("core.finalize_ns_per_cell", m["core.finalize_s"] * 1e9 / m["core.cells_ingested"]);
    m.insert("core.ingest_ns_per_cell", m["core.ingest_s"] * 1e9 / m["core.cells_ingested"]);
    m.insert("fl.local_update_us_per_client", m["fl.local_update_s"] * 1e6 / m["participants"]);
    m.insert(
        "core.t2_speedup",
        (m["core.ingest_s"] + m["core.finalize_s"])
            / (m["core.ingest_t2_s"] + m["core.finalize_t2_s"]),
    );

    // Unattributed or double-counted time is a bug in the walk, not
    // noise — but only where the round itself is serial.
    let coverage = m["walk.coverage"];
    if wl.threads == 1 && !COVERAGE.contains(&coverage) {
        out.mismatches.push(format!(
            "walk.coverage {coverage:.3} outside [{}, {}]: fastest walk {walk_best:.4} s vs \
             fastest round {round_best:.4} s",
            COVERAGE.start(),
            COVERAGE.end(),
        ));
    }

    out.metrics = per_layer().map(|(name, unit)| Metric { name, unit, value: m[name] }).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn e2e_run_reports_every_end_to_end_metric() {
        let mini = WORKLOADS[0].with_clients(60);
        let out = run_e2e(&mini, 9, 0.0);
        assert_eq!(out.mismatches, Vec::<String>::new());
        assert_eq!(names(&out.metrics), END_TO_END.map(|(n, _)| n));
        assert!(out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
        assert_eq!(out.round_s.len(), MIN_TIMED_ROUNDS);
        assert_eq!(out.attempted as usize, MIN_SETUPS * WARMUP_ROUNDS + MIN_TIMED_ROUNDS);
        assert_eq!((out.failed, out.result_digest.len()), (0, 64));
        // Same seed, same digest; another seed, another.
        assert_eq!(run_e2e(&mini, 9, 0.0).result_digest, out.result_digest);
        assert_ne!(run_e2e(&mini, 10, 0.0).result_digest, out.result_digest);
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_the_e2e_digest() {
        for w in [WORKLOADS[0], WORKLOADS[4]] {
            let mini = w.with_clients(60);
            let out = run_traced(&mini, 9, 0.0);
            // Coverage at miniature N is all fixed overhead; not the point here.
            let real: Vec<_> = out.mismatches.iter().filter(|m| !m.contains("coverage")).collect();
            assert_eq!(real, Vec::<&String>::new(), "{}", w.name);
            assert_eq!(names(&out.metrics), per_layer().map(|(n, _)| n).collect::<Vec<_>>());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{}", w.name);
            assert_eq!(out.result_digest, run_e2e(&mini, 9, 0.0).result_digest);
        }
    }

    #[test]
    fn a_round_that_loses_participants_counts_as_failed() {
        // q = 1.0 promises all N; a federation built with fewer breaks it.
        let mut wl = WORKLOADS[1].with_clients(12);
        let mut system = wl.system(1);
        wl.n_clients = 13;
        let (_, r) = checked_round(&wl, &mut system);
        assert!(r.is_err_and(|why| why.contains("12 participants")));
    }
}
