//! Crash-safe checkpoint overhead: what the per-chunk seal costs on the
//! streaming ingestion path, and what a restore costs, at n = 1000
//! clients (k = 128, d = 16384).
//!
//! Both legs are the sealed-round driver (`RoundEngine::open` → `ingest`
//! → `finish`): `ckpt_off/{chunk}` hands it no checkpoint store,
//! `ckpt_on/{chunk}` the store `OliveSystem::run_round` always hands it,
//! so the restore point is sealed under `"round-ckpt"` after every
//! folded chunk. The gap between the two is the crash-safety tax.
//!
//! Three aggregators bracket that tax:
//!
//! * `grouped` — the production oblivious pipeline (group size = chunk).
//!   Each chunk pays an oblivious group sort, so the one extra seal per
//!   chunk amortizes. **The acceptance bar — < 10% overhead at the
//!   default `OLIVE_CHUNK=64` — is pinned on this line**, because it is
//!   what the default round actually runs: ≈ 7 % (6.8–7.1 % over three
//!   runs on a 2-vCPU AVX-512 Xeon). A second record at chunk 48 leaves
//!   a partial group pending at most restore points, which carry its
//!   cell count, not its cells.
//! * `linear` — the `NonOblivious` fold, the cheapest ingestion the rig
//!   can do. Sealing a d-sized accumulator every 64 clients moves about
//!   as many bytes through AES-GCM as opening the uploads themselves, so
//!   this worst case sits far above the bar by construction; it is
//!   reported to keep the absolute seal cost visible: 29–33 % at chunk
//!   64, 216–264 % at 7, 770–1 120 % at 1 on the same host.
//! * `advanced` — Algorithm 4, the *staged* kind whose checkpoints used
//!   to carry every staged cell (16 growing blobs, ≈ 8.7 MB sealed per
//!   round at this shape) and now carry a descriptor: the tax is the
//!   header and the replay floors, ≈ 2.3 %.
//!
//! Before timing, each configuration emits one `checkpoint_overhead`
//! bench record on the telemetry stream (`OLIVE_METRICS`):
//!
//! ```text
//! {"record":"bench","name":"checkpoint_overhead","deterministic":{"agg":"grouped","n":1000,
//!  ...,"chunk":64},"wall":{"ingest_ns":...,"ckpt_ns":...,"overhead_pct":...}}
//! ```
//!
//! `restore/64` is the recovery path of an accumulating kind —
//! `RoundEngine::open` over a full round's store: unseal against the
//! pinned floor, decode, rebuild the aggregator, set the replay floors.
//! `restore_advanced/64` is the staged kind's: the same, plus re-opening
//! and re-staging all n folded uploads — what a restore pays once per
//! crash for what every round no longer seals.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use olive_bench::ingest::{IngestionRig, PassConfig};
use olive_core::aggregation::AggregatorKind;
use olive_memsim::RuntimeConfig;
use olive_telemetry::Telemetry;
use std::cell::RefCell;

const N: usize = 1_000;
const K: usize = 128;
const D: usize = 16_384;

fn kind_name(kind: AggregatorKind) -> &'static str {
    match kind {
        AggregatorKind::NonOblivious => "linear",
        AggregatorKind::Grouped { .. } => "grouped",
        AggregatorKind::Advanced => "advanced",
        _ => "other",
    }
}

/// Median-of-5 overhead of the per-chunk checkpoint, emitted as one bench
/// record so the metrics stream carries the ratio directly. Both phases
/// come from *the same pass* (`ckpt_ns` = the driver's own
/// `checkpoint_seal` spans: state snapshot + encode + seal; `ingest_ns` =
/// the rest of the pass: open + fold + finalize): comparing two separate
/// passes wall-clock to wall-clock lets ±10% run-to-run jitter drown a
/// few-percent effect, while the in-pass ratio is stable.
fn overhead_report(rig: &mut IngestionRig, kind: AggregatorKind, chunk: usize) {
    let mut runs = Vec::new();
    for _ in 0..5 {
        let msgs = rig.seal_round();
        let cfg = PassConfig { checkpoint: true, ..PassConfig::streaming(kind, chunk) };
        let pass = rig.pass(&msgs, cfg, None);
        runs.push((pass.ckpt_ns as f64 / pass.ingest_ns as f64, pass.ingest_ns, pass.ckpt_ns));
    }
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ratio, ingest_ns, ckpt_ns) = runs[2];
    let overhead = ratio * 100.0;
    let agg = kind_name(kind);
    RuntimeConfig::process().metrics.bench(
        "checkpoint_overhead",
        &[
            ("agg", agg.into()),
            ("n", (N as u64).into()),
            ("k", (K as u64).into()),
            ("d", (D as u64).into()),
            ("chunk", (chunk as u64).into()),
        ],
        &[
            ("ingest_ns", ingest_ns.into()),
            ("ckpt_ns", ckpt_ns.into()),
            ("overhead_pct", overhead.into()),
        ],
    );
}

/// Times the same pass with checkpointing off (`labels.0`) and on
/// (`labels.1`).
fn bench_on_off(
    group: &mut BenchmarkGroup<'_>,
    rig: &RefCell<IngestionRig>,
    labels: (&str, &str),
    kind: AggregatorKind,
    chunk: usize,
) {
    for (label, checkpoint) in [(labels.0, false), (labels.1, true)] {
        let cfg = PassConfig { checkpoint, ..PassConfig::streaming(kind, chunk) };
        group.bench_with_input(BenchmarkId::new(label, chunk), &cfg, |b, &cfg| {
            b.iter(|| {
                let mut rig = rig.borrow_mut();
                let msgs = rig.seal_round();
                rig.pass(&msgs, cfg, None).delta
            })
        });
    }
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_checkpoint");
    group.sample_size(10);
    let rig = RefCell::new(IngestionRig::new(N, K, D, 42));

    // The acceptance line: the production oblivious round at the default
    // chunk, checkpointing on vs off.
    let prod = AggregatorKind::Grouped { h: 64 };
    overhead_report(&mut rig.borrow_mut(), prod, 64);
    bench_on_off(&mut group, &rig, ("grouped_off", "grouped_on"), prod, 64);
    // A chunk that does not divide the group: a partial group is pending
    // at most restore points (a record only, no timed id).
    overhead_report(&mut rig.borrow_mut(), prod, 48);

    // The staged kind: a descriptor-sized checkpoint under a monolithic
    // sort at finalize.
    let advanced = AggregatorKind::Advanced;
    overhead_report(&mut rig.borrow_mut(), advanced, 64);
    bench_on_off(&mut group, &rig, ("advanced_off", "advanced_on"), advanced, 64);

    // Worst-case stress: the linear fold across chunk sizes.
    let linear = AggregatorKind::NonOblivious;
    for &chunk in &[1usize, 7, 64] {
        overhead_report(&mut rig.borrow_mut(), linear, chunk);
        bench_on_off(&mut group, &rig, ("ckpt_off", "ckpt_on"), linear, chunk);
    }

    // The recovery path, on the store a full round at the default chunk
    // leaves: whole after `load_state` (linear), or with all n uploads to
    // re-open and re-stage (advanced).
    for (label, kind) in [("restore", linear), ("restore_advanced", advanced)] {
        let cfg = PassConfig { checkpoint: true, ..PassConfig::streaming(kind, 64) };
        let (msgs, store) = {
            let mut rig = rig.borrow_mut();
            let msgs = rig.seal_round();
            let store = rig.pass(&msgs, cfg, None).checkpoints;
            (msgs, store)
        };
        group.bench_with_input(BenchmarkId::new(label, 64usize), &store, |b, store| {
            b.iter(|| {
                rig.borrow_mut().open(&msgs, cfg, store, None, Telemetry::off()).chunks_done()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
