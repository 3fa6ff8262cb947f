//! Figure 5: attack success with a *random* number of labels per client
//! (the attacker does not know the set size and uses 2-means clustering —
//! the harder setting).
//!
//! Expected shape: lower `all` than Figure 4, but still far above chance
//! for small maxima; `top-1` barely affected.

use olive_attack::AttackMethod;
use olive_bench::attack_exp::{run_experiment, AttackExperiment, Workload};
use olive_bench::table::{pct, print_table};
use olive_bench::Mode;
use olive_data::LabelAssignment;
use olive_memsim::Granularity;

fn main() {
    let mode = Mode::from_args();
    let scale = mode.scale();
    let workloads: Vec<Workload> = if mode.quick {
        vec![Workload::MnistMlp]
    } else {
        vec![Workload::MnistMlp, Workload::Cifar10Cnn, Workload::Purchase100Mlp]
    };
    let methods: &[(&str, AttackMethod)] = if mode.quick {
        &[("Jac", AttackMethod::Jaccard)]
    } else {
        &[
            ("Jac", AttackMethod::Jaccard),
            ("NN", AttackMethod::Nn(olive_attack::NnParams::default())),
        ]
    };
    let maxima: &[usize] = if mode.quick { &[2] } else { &[2, 3, 4] };
    for workload in &workloads {
        let mut rows = Vec::new();
        for &(mname, method) in methods {
            for &max in maxima {
                let exp = AttackExperiment {
                    workload: *workload,
                    labels: LabelAssignment::Random(max),
                    alpha: 0.1,
                    method,
                    granularity: Granularity::Element,
                    dp_sigma: None,
                    seed: 4242 + max as u64,
                };
                let (all, top1) = run_experiment(&exp, &scale);
                rows.push(vec![mname.to_string(), max.to_string(), pct(all), pct(top1)]);
                eprintln!("{} / {mname} / max {max} done", workload.name());
            }
        }
        print_table(
            &format!("Figure 5 ({}): random label count (unknown to attacker)", workload.name()),
            &["method", "max #labels", "all", "top-1"],
            &rows,
        );
    }
    println!("\nShape claims: harder than Figure 4 (no size hint), yet small label counts\nremain attackable; top-1 stays high.");
}
