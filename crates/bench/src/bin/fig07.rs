//! Figure 7: cacheline-granularity observation (64 B = 16 f32 weights),
//! CIFAR10 CNN — the practically observable SGX channel.
//!
//! Expected shape: accuracies close to the element-granularity attack;
//! NN slightly better, Jac slightly worse. The well-known SGX cacheline
//! channel is sufficient.

use olive_attack::AttackMethod;
use olive_bench::attack_exp::{run_experiment, AttackExperiment, Workload};
use olive_bench::table::{pct, print_table};
use olive_bench::Mode;
use olive_data::LabelAssignment;
use olive_memsim::Granularity;

fn main() {
    let mode = Mode::from_args();
    let scale = mode.scale();
    let methods: &[(&str, AttackMethod)] = if mode.quick {
        &[("Jac", AttackMethod::Jaccard)]
    } else {
        &[
            ("Jac", AttackMethod::Jaccard),
            ("NN", AttackMethod::Nn(olive_attack::NnParams::default())),
        ]
    };
    let mut rows = Vec::new();
    for &(mname, method) in methods {
        for labels in [1usize, 2] {
            for (gname, gran) in
                [("element", Granularity::Element), ("cacheline 64B", Granularity::Cacheline)]
            {
                let exp = AttackExperiment {
                    workload: Workload::Cifar10Cnn,
                    labels: LabelAssignment::Fixed(labels),
                    alpha: 0.1,
                    method,
                    granularity: gran,
                    dp_sigma: None,
                    seed: 7000 + labels as u64,
                };
                let (all, top1) = run_experiment(&exp, &scale);
                rows.push(vec![
                    mname.to_string(),
                    labels.to_string(),
                    gname.to_string(),
                    pct(all),
                    pct(top1),
                ]);
                eprintln!("{mname} / {labels} labels / {gname} done");
            }
        }
    }
    print_table(
        "Figure 7 (CIFAR10 CNN): element vs cacheline observation granularity",
        &["method", "#labels", "granularity", "all", "top-1"],
        &rows,
    );
    println!("\nShape claim: cacheline-level observation loses little accuracy — the attack\nsurvives the realistic SGX channel.");
}
