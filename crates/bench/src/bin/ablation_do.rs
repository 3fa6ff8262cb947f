//! Section 5.4 ablation: differentially-oblivious aggregation vs full
//! obliviousness.
//!
//! Measures the DO aggregator's padding volume and wall time against
//! Advanced for growing d, verifying the paper's argument that the
//! per-index shifted-Laplace padding (∝ k·d·ln(1/δ)/ε) makes DO *slower*
//! than fully oblivious aggregation in the FL regime.

use olive_bench::perf::time_aggregation_prebuilt;
use olive_bench::table::{print_table, secs};
use olive_bench::{synthetic_updates, Mode};
use olive_core::aggregation::dobliv::expected_padding;
use olive_core::aggregation::AggregatorKind;

fn main() {
    let mode = Mode::from_args();
    let all = &[1_000, 10_000, 50_000];
    let sizes = mode.table(&[1_000, 10_000], all, all);
    let n = 50;
    let (eps, delta) = (1.0, 1e-5);
    let mut rows = Vec::new();
    for &d in sizes {
        let k = (d / 100).max(1);
        let updates = synthetic_updates(n, k, d, 3);
        let (t_adv, _) = time_aggregation_prebuilt(AggregatorKind::Advanced, &updates, d);
        let (t_do, _) = time_aggregation_prebuilt(
            AggregatorKind::DiffOblivious { epsilon: eps, delta, seed: 9 },
            &updates,
            d,
        );
        let pad = expected_padding(d, k, eps, delta);
        rows.push(vec![
            d.to_string(),
            (n * k).to_string(),
            format!("{:.0}", pad),
            format!("{:.1}x", pad / (n * k) as f64),
            secs(t_adv),
            secs(t_do),
        ]);
        eprintln!("d = {d} done");
    }
    print_table(
        &format!("Section 5.4 ablation: DO(eps={eps}, delta={delta}) vs Advanced (n={n})"),
        &["d", "real cells nk", "expected dummy cells", "padding blowup", "Advanced", "DO"],
        &rows,
    );
    println!("\nShape claim: DO's padding dwarfs the real workload as d grows, so the\nrelaxation loses to full obliviousness in FL (Section 5.4's conclusion).");
}
