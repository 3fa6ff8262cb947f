//! Figure 4: attack success vs number of labels per client (fixed,
//! attacker knows the count). Datasets × methods {Jac, NN, NN-single},
//! metrics {all, top-1}; (N, q, T, α) = (1000, 0.1, 3, 0.1) at paper
//! scale.
//!
//! Expected shape: near-perfect success at 1–2 labels, `all` decaying
//! with more labels while `top-1` stays high; 100-label datasets are
//! harder; all three methods comparable (index information is simple).
//!
//! Flags: `--quick` (one dataset/method), `--all-datasets`,
//! `--paper-scale`.

use olive_attack::AttackMethod;
use olive_bench::attack_exp::{run_experiment, AttackExperiment, Workload};
use olive_bench::table::{pct, print_table};
use olive_bench::{has_flag, Mode};
use olive_data::LabelAssignment;
use olive_memsim::Granularity;

fn main() {
    let mode = Mode::from_args();
    let scale = mode.scale();
    let workloads: Vec<Workload> = if mode.quick {
        vec![Workload::MnistMlp]
    } else if has_flag("--all-datasets") {
        Workload::all().to_vec()
    } else {
        vec![Workload::MnistMlp, Workload::Cifar10Cnn, Workload::Purchase100Mlp]
    };
    let methods: &[(&str, AttackMethod)] = if mode.quick {
        &[("Jac", AttackMethod::Jaccard)]
    } else {
        &[
            ("Jac", AttackMethod::Jaccard),
            ("NN", AttackMethod::Nn(olive_attack::NnParams::default())),
            ("NN-single", AttackMethod::NnSingle(olive_attack::NnParams::default())),
        ]
    };
    let label_counts: &[usize] = if mode.quick { &[1, 2] } else { &[1, 2, 3] };

    for workload in &workloads {
        let mut rows = Vec::new();
        for &(mname, method) in methods {
            for &labels in label_counts {
                let exp = AttackExperiment {
                    workload: *workload,
                    labels: LabelAssignment::Fixed(labels),
                    alpha: 0.1,
                    method,
                    granularity: Granularity::Element,
                    dp_sigma: None,
                    seed: 42 + labels as u64,
                };
                let (all, top1) = run_experiment(&exp, &scale);
                rows.push(vec![mname.to_string(), labels.to_string(), pct(all), pct(top1)]);
                eprintln!("{} / {mname} / {labels} labels done", workload.name());
            }
        }
        print_table(
            &format!("Figure 4 ({}): fixed label count, alpha=0.1", workload.name()),
            &["method", "#labels", "all", "top-1"],
            &rows,
        );
    }
    println!("\nShape claims: high success at few labels; `all` decays with label count;\n`top-1` stays high; methods comparable.");
}
