//! Figure 10: aggregation time vs number of clients per round at low
//! sparsity (α = 0.1, MNIST MLP d = 50,890).
//!
//! Expected shape (paper): Advanced degrades with many clients because the
//! sort vector outgrows the cache hierarchy (and, on SGX, the EPC —
//! 5089·8·3000 + 50890·8 ≈ 122 MB > 96 MB), to the point where Baseline
//! competes; the Figure 11 grouping fixes it.
//!
//! Scales: `--quick` n ∈ {10, 100} with Baseline only at n = 10; default
//! n ∈ {10, 100, 1000} with Baseline capped at n ≤ 100 (O(nkd));
//! `--paper-scale` adds n = 3000, matching the paper's N = 10⁴ round, and
//! uncaps Baseline.

use olive_bench::perf::time_aggregation_prebuilt;
use olive_bench::table::{print_table, secs};
use olive_bench::{synthetic_updates, Mode};
use olive_core::aggregation::AggregatorKind;
use olive_core::olive::working_set_bytes;

fn main() {
    let mode = Mode::from_args();
    let d = 50_890;
    let k = 5_089; // α = 0.1
    let ns = mode.table(&[10, 100], &[10, 100, 1000], &[10, 100, 1000, 3000]);
    let baseline_cap = mode.pick(10, 100, usize::MAX);
    let mut rows = Vec::new();
    for &n in ns {
        let updates = synthetic_updates(n, k, d, 7);
        let (t_lin, _) = time_aggregation_prebuilt(AggregatorKind::NonOblivious, &updates, d);
        let t_base = if n <= baseline_cap {
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
        let (t_adv, ws) = time_aggregation_prebuilt(AggregatorKind::Advanced, &updates, d);
        rows.push(vec![
            n.to_string(),
            secs(t_lin),
            t_base.map(secs).unwrap_or_else(|| "(skipped)".into()),
            secs(t_adv),
            format!("{:.0} MB", ws as f64 / (1 << 20) as f64),
            if ws > 96 << 20 { "yes".into() } else { "no".into() },
        ]);
        eprintln!("n = {n} done");
    }
    print_table(
        "Figure 10: time vs clients per round (alpha=0.1, d=50890 MNIST-MLP)",
        &["n", "Non-Oblivious", "Baseline(c=16)", "Advanced", "sort working set", "exceeds EPC"],
        &rows,
    );
    println!(
        "\nPaper's 122 MB check at n=3000: working_set = {:.0} MB",
        working_set_bytes(AggregatorKind::Advanced, 3000, k, d, 1) as f64 / (1 << 20) as f64
    );
    println!(
        "Shape claims: Advanced time grows super-linearly once the sort vector exceeds L3/EPC;\n\
         Baseline closes the gap at large n·k with small d. Fix: Figure 11 grouping."
    );
}
