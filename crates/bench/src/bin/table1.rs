//! Table 1: datasets and global models.
//!
//! Prints the paper's Table 1 with this reproduction's actual parameter
//! counts (synthetic dataset record counts are the paper's, since the
//! generators are unbounded samplers).
//!
//! The table is static and already sub-second; `--quick` is accepted for
//! CI-sweep uniformity and runs the identical table.

use olive_bench::attack_exp::Workload;
use olive_bench::table::print_table;

fn main() {
    let rows: Vec<Vec<String>> = Workload::all()
        .iter()
        .map(|w| {
            let (records, test) = w.paper_records();
            vec![
                w.dataset_name().to_string(),
                format!("{} {}", w.dataset_name(), w.arch()),
                w.build_model(true, 0).param_count().to_string(),
                w.num_classes().to_string(),
                format!("{records} ({test})"),
            ]
        })
        .collect();
    print_table(
        "Table 1: datasets and global models",
        &["Dataset", "Model", "#Params", "#Label", "#Record (Test)"],
        &rows,
    );
    println!(
        "\nPaper reference params: MNIST MLP 50890, CIFAR10 MLP 197320, CIFAR10 CNN 62006,\n\
         Purchase100 MLP 44964, CIFAR100 CNN 201588 (ResNet-18; ours is a small-CNN stand-in)."
    );
}
