//! Table 2: DP-FL schemes — trust model and utility.
//!
//! Static rows reproduce the paper's comparison; the measured column runs
//! the same workload under central noise (CDP ≡ Olive: noise added once,
//! inside the enclave) vs local noise (LDP: every client perturbs its own
//! update), with the same per-mechanism σ. The LDP accuracy collapse is
//! the utility gap Olive closes without trusting the server.
//!
//! Flags: `--quick` (fewer training rounds), `--paper-scale`.

use olive_bench::attack_exp::{Scale, Workload};
use olive_bench::table::{pct, print_table};
use olive_bench::Mode;
use olive_core::aggregation::AggregatorKind;
use olive_data::synthetic::Generator;
use olive_data::{partition, LabelAssignment};
use olive_fl::ldp::ldp_perturb_sparse;
use olive_fl::{local_update, sample_clients, ClientConfig, FedAvgServer, Sparsifier};
use olive_memsim::NullTracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs reduced-scale FL with either central (enclave) or local (client)
/// Gaussian noise; returns final test accuracy.
fn run_fl(central: bool, sigma: f64, scale: &Scale, rounds: usize, seed: u64) -> f64 {
    let workload = Workload::MnistMlp;
    let gen = Generator::new(workload.synthetic_config(false), seed);
    let clients =
        partition(&gen, scale.n_clients, LabelAssignment::Fixed(2), scale.samples_per_client, seed);
    let model = workload.build_model(false, seed);
    let d = model.param_count();
    let k = d / 10;
    let clip = 1.0f32;
    let cfg = ClientConfig {
        epochs: scale.epochs,
        batch_size: scale.batch,
        lr: scale.lr,
        sparsifier: Sparsifier::TopK(k),
        clip: Some(clip),
    };
    let mut server = FedAvgServer::new(model, scale.server_lr);
    let mut scratch = server.model.clone();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7AB2E);
    for round in 0..rounds as u64 {
        let sampled = sample_clients(scale.n_clients, scale.sample_rate, &mut rng);
        let params = server.params();
        let mut updates: Vec<_> = sampled
            .iter()
            .map(|&u| {
                let mut sg = local_update(
                    &mut scratch,
                    &params,
                    &clients[u as usize].dataset,
                    &cfg,
                    seed ^ (round << 16) ^ u as u64,
                );
                if !central && sigma > 0.0 {
                    // LDP: each client noises its own k values.
                    ldp_perturb_sparse(&mut sg, clip, sigma, &mut rng);
                }
                sg
            })
            .collect();
        let mut agg = olive_core::aggregation::aggregate(
            AggregatorKind::Advanced,
            &updates,
            d,
            &mut NullTracer,
        );
        if central && sigma > 0.0 {
            // CDP/Olive: one Gaussian draw on the aggregate, inside the
            // enclave, scaled by 1/n like the sum it protects.
            let mech = olive_dp::GaussianMechanism::new(sigma / updates.len() as f64, clip);
            mech.perturb(&mut agg, &mut rng);
        }
        server.apply_aggregate(&agg);
        updates.clear();
    }
    let mut test_rng = SmallRng::seed_from_u64(seed ^ 0x7E57);
    let test = gen.sample_balanced(scale.pool_per_label, &mut test_rng);
    let (_, acc) = server.model.evaluate(&test.features, &test.labels, 64);
    acc as f64
}

fn main() {
    let mode = Mode::from_args();
    let scale = mode.scale();
    // --quick keeps all three trust-model runs but trains fewer rounds
    // (the CDP-vs-LDP gap is visible after a handful).
    let rounds = mode.pick(4, 12, 12);
    let sigma = 1.12;
    eprintln!("running no-noise baseline…");
    let acc_clean = run_fl(true, 0.0, &scale, rounds, 21);
    eprintln!("running CDP/Olive…");
    let acc_cdp = run_fl(true, sigma, &scale, rounds, 21);
    eprintln!("running LDP…");
    let acc_ldp = run_fl(false, sigma, &scale, rounds, 21);

    let rows = vec![
        vec!["CDP-FL".into(), "Trusted server".into(), "Good".into(), pct(acc_cdp)],
        vec!["LDP-FL".into(), "Untrusted server".into(), "Limited".into(), pct(acc_ldp)],
        vec![
            "Shuffle DP-FL".into(),
            "Untrusted server + shuffler".into(),
            "<= CDP-FL".into(),
            "(between)".into(),
        ],
        vec![
            "Olive (ours)".into(),
            "Untrusted server with TEE".into(),
            "= CDP-FL".into(),
            pct(acc_cdp),
        ],
    ];
    print_table(
        &format!(
            "Table 2: DP-FL schemes (measured at sigma={sigma}, no-noise acc={})",
            pct(acc_clean)
        ),
        &["Scheme", "Trust model", "Utility (paper)", "Utility (measured)"],
        &rows,
    );
    println!("\nShape claim: Olive = CDP utility without a trusted server; LDP pays the\nsqrt(n)-vs-n noise gap ({} vs {}).", pct(acc_ldp), pct(acc_cdp));
}
