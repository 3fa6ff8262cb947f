//! Figure 9: aggregation time vs model size d (synthetic workload).
//!
//! Paper setting: α = 0.01, n = 100 clients/round, d from 10⁴ to 10⁶.
//! Methods: Non-Oblivious (linear), Baseline (Alg. 3, c = 16), Advanced
//! (Alg. 4), PathORAM (ZeroTrace model, recursive position map).
//!
//! Expected shape (paper): Advanced ≈ one order of magnitude faster than
//! Baseline and >10× faster than PathORAM; Baseline wins only at very
//! small d; Advanced stays at seconds even at d = 10⁶.
//!
//! Flags: `--quick` caps d at 10⁵; `--paper-scale` runs the slow methods at
//! every size (hours); default caps Baseline at 3·10⁵ and PathORAM at 10⁵
//! (raised from 3·10⁴ once the batched eviction kernel and the fused
//! recursive position map landed — a d = 10⁵ round is now minutes, not
//! tens of minutes).

use olive_bench::perf::time_aggregation_prebuilt;
use olive_bench::table::{print_table, secs};
use olive_bench::{synthetic_updates, Mode};
use olive_core::aggregation::AggregatorKind;
use olive_oram::PosMapKind;

fn main() {
    let mode = Mode::from_args();
    let alpha = 0.01;
    let n = 100;
    let all = &[10_000, 30_000, 100_000, 300_000, 1_000_000];
    let sizes = mode.table(&[10_000, 30_000, 100_000], all, all);
    let mut rows = Vec::new();
    for &d in sizes {
        let k = ((d as f64) * alpha) as usize;
        let updates = synthetic_updates(n, k, d, 42);
        let (t_lin, _) = time_aggregation_prebuilt(AggregatorKind::NonOblivious, &updates, d);
        let t_base = if mode.paper || d <= 300_000 {
            Some(
                time_aggregation_prebuilt(
                    AggregatorKind::Baseline { cacheline_weights: 16 },
                    &updates,
                    d,
                )
                .0,
            )
        } else {
            None
        };
        let (t_adv, _) = time_aggregation_prebuilt(AggregatorKind::Advanced, &updates, d);
        let t_oram = if mode.paper || d <= 100_000 {
            Some(
                time_aggregation_prebuilt(
                    AggregatorKind::PathOram { posmap: PosMapKind::Recursive },
                    &updates,
                    d,
                )
                .0,
            )
        } else {
            None
        };
        let opt = |t: Option<f64>| t.map(secs).unwrap_or_else(|| "(skipped)".into());
        rows.push(vec![
            d.to_string(),
            k.to_string(),
            secs(t_lin),
            opt(t_base),
            secs(t_adv),
            opt(t_oram),
        ]);
        eprintln!("d = {d} done");
    }
    print_table(
        "Figure 9: aggregation time vs model size (alpha=0.01, n=100)",
        &["d", "k", "Non-Oblivious", "Baseline(c=16)", "Advanced", "PathORAM"],
        &rows,
    );
    println!(
        "\nShape claims to check: Advanced ≲ seconds at d = 1e6; Baseline ≥ ~10x Advanced at\n\
         large d; PathORAM ≥ ~10x Advanced everywhere; Non-Oblivious fastest but leaky."
    );
}
