//! Figure 14: attack success vs noise multiplier σ (MNIST MLP, 3 fixed
//! labels), with the oblivious-defense floor (random guessing,
//! 1/C(10,3) < 0.01) for reference.
//!
//! Expected shape: flat near the no-noise level across realistic σ;
//! defense only at absurd σ (> 4), which Figure 15 shows destroys
//! utility. The oblivious algorithms reach the floor at zero utility
//! cost.

use olive_attack::metrics::random_guess_all;
use olive_attack::AttackMethod;
use olive_bench::attack_exp::{run_experiment, AttackExperiment, Workload};
use olive_bench::table::{pct, print_table};
use olive_bench::Mode;
use olive_data::LabelAssignment;
use olive_memsim::Granularity;

fn main() {
    let mode = Mode::from_args();
    let scale = mode.scale();
    let sigmas: &[f64] = if mode.quick { &[0.0, 1.12] } else { &[0.0, 0.5, 1.12, 2.0, 4.0, 8.0] };
    let mut rows = Vec::new();
    for &sigma in sigmas {
        let exp = AttackExperiment {
            workload: Workload::MnistMlp,
            labels: LabelAssignment::Fixed(3),
            alpha: 0.1,
            method: AttackMethod::Jaccard,
            granularity: Granularity::Element,
            dp_sigma: if sigma > 0.0 { Some(sigma) } else { None },
            seed: 1400,
        };
        let (all, top1) = run_experiment(&exp, &scale);
        rows.push(vec![format!("{sigma:.2}"), pct(all), pct(top1)]);
        eprintln!("sigma {sigma} done");
    }
    print_table(
        "Figure 14 (MNIST MLP, 3 labels): attack success vs noise multiplier",
        &["sigma", "all", "top-1"],
        &rows,
    );
    println!(
        "\nOblivious-defense floor (random guess of 3 of 10 labels): all = {}",
        olive_bench::table::pct(random_guess_all(10, 3))
    );
    println!("Shape claim: realistic noise does not protect the index side channel.");
}
