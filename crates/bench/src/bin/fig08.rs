//! Figure 8: how much labelled test data does the attacker need?
//!
//! Shrinks the attacker's per-label pool (MNIST fixed-2-labels;
//! Purchase100 random-labels) and re-runs the attack.
//!
//! Expected shape: success barely degrades down to a handful of samples
//! per label (the paper: 10 samples/label ≈ full-pool performance on
//! MNIST), weakening the attacker-knowledge assumption.

use olive_attack::AttackMethod;
use olive_bench::attack_exp::{run_experiment_with_pool_override, AttackExperiment, Workload};
use olive_bench::table::{pct, print_table};
use olive_bench::Mode;
use olive_data::LabelAssignment;
use olive_memsim::Granularity;

fn main() {
    let mode = Mode::from_args();
    let scale = mode.scale();
    let pools: &[usize] = if mode.quick { &[4, 24] } else { &[2, 4, 8, 16, 24] };
    let cases: &[(&str, Workload, LabelAssignment)] = if mode.quick {
        &[("MNIST fixed-2", Workload::MnistMlp, LabelAssignment::Fixed(2))]
    } else {
        &[
            ("MNIST fixed-2", Workload::MnistMlp, LabelAssignment::Fixed(2)),
            ("Purchase100 random-2", Workload::Purchase100Mlp, LabelAssignment::Random(2)),
        ]
    };
    for &(name, workload, labels) in cases {
        let mut rows = Vec::new();
        for &per_label in pools {
            let exp = AttackExperiment {
                workload,
                labels,
                alpha: 0.1,
                method: AttackMethod::Jaccard,
                granularity: Granularity::Element,
                dp_sigma: None,
                seed: 8000,
            };
            let (all, top1) = run_experiment_with_pool_override(&exp, &scale, Some(per_label));
            rows.push(vec![per_label.to_string(), pct(all), pct(top1)]);
            eprintln!("{name} / {per_label} samples/label done");
        }
        print_table(
            &format!("Figure 8 ({name}): attacker pool size vs success (Jac)"),
            &["samples/label", "all", "top-1"],
            &rows,
        );
    }
    println!("\nShape claim: performance is preserved down to very small attacker datasets.");
}
