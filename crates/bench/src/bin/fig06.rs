//! Figure 6: attack success vs sparse ratio α (2 labels per client).
//!
//! Expected shape: the *smaller* α (sparser gradients), the more
//! label-distinctive the surviving indices and the more successful the
//! attack — the paper's headline CIFAR100 result (≈ 1.0 success at
//! α = 0.3%).

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
        vec![Workload::MnistMlp, Workload::Cifar100Cnn]
    };
    let alphas: &[f64] = if mode.quick { &[0.01, 0.1] } else { &[0.003, 0.01, 0.03, 0.1, 0.3] };
    for workload in &workloads {
        let mut rows = Vec::new();
        for &alpha in alphas {
            let exp = AttackExperiment {
                workload: *workload,
                labels: LabelAssignment::Fixed(2),
                alpha,
                method: AttackMethod::Jaccard,
                granularity: Granularity::Element,
                dp_sigma: None,
                seed: 6000 + (alpha * 1000.0) as u64,
            };
            let (all, top1) = run_experiment(&exp, &scale);
            rows.push(vec![format!("{:.1}%", alpha * 100.0), pct(all), pct(top1)]);
            eprintln!("{} / alpha {alpha} done", workload.name());
        }
        print_table(
            &format!("Figure 6 ({}): success vs sparse ratio, 2 labels, Jac", workload.name()),
            &["alpha", "all", "top-1"],
            &rows,
        );
    }
    println!("\nShape claim: success rate is inversely related to alpha (sparser = leakier).");
}
