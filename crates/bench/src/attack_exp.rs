//! Shared driver for the attack experiments (Figures 4–8, 12–16).
//!
//! The paper's scale is (N, q, T) = (1000, 0.1, 3) with 45k–200k-parameter
//! models on the real datasets. The default scale here is reduced (fewer
//! clients, narrower hidden layers, synthetic data — README, "Substitutions"
//! and "Benchmarks and paper figures") but preserves every *shape*: non-IID
//! label skew, top-k sparsification, the (α, #labels, dataset-size,
//! granularity, σ) sweeps, and the three scoring methods. `--paper-scale`
//! restores N = 1000, q = 0.1 ([`crate::Mode`]).

use olive_attack::{run_attack, AttackMethod, AttackPipelineConfig, NnParams};
use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{DpConfig, OliveConfig, OliveSystem};
use olive_data::synthetic::{Dataset, Generator, SyntheticConfig};
use olive_data::{partition, LabelAssignment};
use olive_fl::{ClientConfig, Sparsifier};
use olive_memsim::Granularity;
use olive_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu};
use olive_nn::zoo::mlp;
use olive_nn::Model;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The five evaluation workloads (dataset × model): the rows of Table 1,
/// and the one catalog of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MNIST-like + MLP.
    MnistMlp,
    /// CIFAR10-like + MLP.
    Cifar10Mlp,
    /// CIFAR10-like + CNN.
    Cifar10Cnn,
    /// Purchase100-like + MLP.
    Purchase100Mlp,
    /// CIFAR100-like + CNN.
    Cifar100Cnn,
}

impl Workload {
    /// Table 1's dataset name.
    pub fn dataset_name(&self) -> &'static str {
        match self {
            Workload::MnistMlp => "MNIST",
            Workload::Cifar10Mlp | Workload::Cifar10Cnn => "CIFAR10",
            Workload::Purchase100Mlp => "Purchase100",
            Workload::Cifar100Cnn => "CIFAR100",
        }
    }

    /// The global model's architecture: `MLP` or `CNN`.
    pub fn arch(&self) -> &'static str {
        match self {
            Workload::MnistMlp | Workload::Cifar10Mlp | Workload::Purchase100Mlp => "MLP",
            Workload::Cifar10Cnn | Workload::Cifar100Cnn => "CNN",
        }
    }

    /// Display name matching the paper's figure legends, e.g. `MNIST (MLP)`.
    pub fn name(&self) -> String {
        format!("{} ({})", self.dataset_name(), self.arch())
    }

    /// The paper's record count and test-set size for the dataset (Table
    /// 1); the synthetic generators are unbounded samplers.
    pub fn paper_records(&self) -> (usize, usize) {
        match self {
            Workload::MnistMlp => (70_000, 10_000),
            Workload::Cifar10Mlp | Workload::Cifar10Cnn | Workload::Cifar100Cnn => (60_000, 10_000),
            Workload::Purchase100Mlp => (144_000, 24_000),
        }
    }

    /// Number of labels |L|.
    pub fn num_classes(&self) -> usize {
        match self {
            Workload::MnistMlp | Workload::Cifar10Mlp | Workload::Cifar10Cnn => 10,
            Workload::Purchase100Mlp | Workload::Cifar100Cnn => 100,
        }
    }

    /// All five workloads in Figure 4 order.
    pub fn all() -> [Workload; 5] {
        [
            Workload::MnistMlp,
            Workload::Cifar10Mlp,
            Workload::Cifar10Cnn,
            Workload::Purchase100Mlp,
            Workload::Cifar100Cnn,
        ]
    }

    /// The synthetic generator standing in for the dataset: at paper scale
    /// the real feature dimension, else a reduced one.
    pub fn synthetic_config(&self, paper_scale: bool) -> SyntheticConfig {
        if paper_scale {
            match self {
                Workload::MnistMlp => SyntheticConfig::mnist_like(),
                Workload::Cifar10Mlp | Workload::Cifar10Cnn => SyntheticConfig::cifar10_like(),
                Workload::Purchase100Mlp => SyntheticConfig::purchase100_like(),
                Workload::Cifar100Cnn => SyntheticConfig::cifar100_like(),
            }
        } else {
            // Reduced feature spaces; CNN workloads use 16×16×3 images.
            match self {
                Workload::MnistMlp => SyntheticConfig {
                    feature_dim: 28 * 28,
                    num_classes: 10,
                    active_fraction: 0.15,
                    noise_std: 0.25,
                    binary: false,
                },
                Workload::Cifar10Mlp | Workload::Cifar10Cnn => SyntheticConfig {
                    feature_dim: 3 * 16 * 16,
                    num_classes: 10,
                    active_fraction: 0.10,
                    noise_std: 0.40,
                    binary: false,
                },
                Workload::Purchase100Mlp => SyntheticConfig {
                    feature_dim: 600,
                    num_classes: 100,
                    active_fraction: 0.2,
                    noise_std: 0.0,
                    binary: true,
                },
                Workload::Cifar100Cnn => SyntheticConfig {
                    feature_dim: 3 * 16 * 16,
                    num_classes: 100,
                    active_fraction: 0.08,
                    noise_std: 0.40,
                    binary: false,
                },
            }
        }
    }

    /// Builds the (possibly reduced) global model.
    pub fn build_model(&self, paper_scale: bool, seed: u64) -> Model {
        if paper_scale {
            match self {
                Workload::MnistMlp => olive_nn::zoo::mnist_mlp(seed),
                Workload::Cifar10Mlp => olive_nn::zoo::cifar10_mlp(seed),
                Workload::Cifar10Cnn => olive_nn::zoo::cifar10_cnn(seed),
                Workload::Purchase100Mlp => olive_nn::zoo::purchase100_mlp(seed),
                Workload::Cifar100Cnn => olive_nn::zoo::cifar100_cnn(seed),
            }
        } else {
            match self {
                Workload::MnistMlp => mlp(28 * 28, 32, 10, 0.0, seed),
                Workload::Cifar10Mlp => mlp(3 * 16 * 16, 24, 10, 0.0, seed),
                Workload::Cifar10Cnn => reduced_cnn(10, seed),
                Workload::Purchase100Mlp => mlp(600, 16, 100, 0.0, seed),
                Workload::Cifar100Cnn => reduced_cnn(100, seed),
            }
        }
    }
}

/// LeNet-in-miniature for 16×16×3 synthetic images.
fn reduced_cnn(classes: usize, seed: u64) -> Model {
    let mut rng = SmallRng::seed_from_u64(seed);
    Model::new(
        vec![
            Layer::Conv2d(Conv2d::new(3, 4, 5, 16, 16, &mut rng)),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(4, 12, 12)),
            Layer::Dense(Dense::new(4 * 6 * 6, 32, &mut rng)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(32, classes, &mut rng)),
        ],
        classes,
    )
}

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Total clients N.
    pub n_clients: usize,
    /// Sampling rate q.
    pub sample_rate: f64,
    /// Observed rounds T.
    pub rounds: usize,
    /// Training samples per client.
    pub samples_per_client: usize,
    /// Attacker pool size per label.
    pub pool_per_label: usize,
    /// Local epochs.
    pub epochs: usize,
    /// Local batch size.
    pub batch: usize,
    /// Client learning rate.
    pub lr: f32,
    /// Server learning rate.
    pub server_lr: f32,
    /// Attacker NN hyperparameters.
    pub nn: NnParams,
    /// Use paper-dimension models/datasets.
    pub paper: bool,
}

impl Scale {
    /// The default reduced scale (seconds per run).
    pub fn reduced() -> Self {
        Scale {
            n_clients: 40,
            sample_rate: 0.5,
            rounds: 3,
            samples_per_client: 48,
            pool_per_label: 24,
            epochs: 2,
            batch: 12,
            lr: 0.2,
            server_lr: 1.0,
            nn: NnParams { hidden: 64, epochs: 80, lr: 0.3 },
            paper: false,
        }
    }

    /// The paper's (N, q, T) = (1000, 0.1, 3).
    pub fn paper() -> Self {
        Scale {
            n_clients: 1000,
            sample_rate: 0.1,
            rounds: 3,
            samples_per_client: 60,
            pool_per_label: 100,
            epochs: 2,
            batch: 10,
            lr: 0.1,
            server_lr: 1.0,
            nn: NnParams { hidden: 1000, epochs: 100, lr: 0.1 },
            paper: true,
        }
    }
}

/// One attack experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct AttackExperiment {
    /// Dataset × model.
    pub workload: Workload,
    /// Fixed(k) or Random(max) label subsets.
    pub labels: LabelAssignment,
    /// Top-k sparsity ratio α (k = α·d).
    pub alpha: f64,
    /// Scoring method.
    pub method: AttackMethod,
    /// Side-channel granularity.
    pub granularity: Granularity,
    /// DP mode (Figures 12–14): Algorithm 6 with this σ.
    pub dp_sigma: Option<f64>,
    /// Seed.
    pub seed: u64,
}

/// Builds the Olive system + attacker pool for an experiment.
pub fn build_system(exp: &AttackExperiment, scale: &Scale) -> (OliveSystem, Dataset) {
    let gen = Generator::new(exp.workload.synthetic_config(scale.paper), exp.seed ^ 0xDA7A);
    let clients =
        partition(&gen, scale.n_clients, exp.labels, scale.samples_per_client, exp.seed ^ 0x9A27);
    let model = exp.workload.build_model(scale.paper, exp.seed ^ 0x40DE1);
    let d = model.param_count();
    let k = ((d as f64 * exp.alpha).round() as usize).clamp(1, d);
    let cfg = OliveConfig {
        n_clients: scale.n_clients,
        sample_rate: scale.sample_rate,
        client: ClientConfig {
            epochs: scale.epochs,
            batch_size: scale.batch,
            lr: scale.lr,
            sparsifier: Sparsifier::TopK(k),
            clip: None,
        },
        aggregator: AggregatorKind::NonOblivious,
        server_lr: scale.server_lr,
        dp: exp.dp_sigma.map(|sigma| DpConfig { sigma, clip: 1.0, delta: 1e-5 }),
        seed: exp.seed,
    };
    let sys = OliveSystem::new(model, clients, cfg);
    let mut rng = SmallRng::seed_from_u64(exp.seed ^ 0x9001);
    let pool = gen.sample_balanced(scale.pool_per_label, &mut rng);
    (sys, pool)
}

/// Runs one attack experiment end-to-end and returns `(all, top1)`.
pub fn run_experiment(exp: &AttackExperiment, scale: &Scale) -> (f64, f64) {
    run_experiment_with_pool_override(exp, scale, None)
}

/// Like [`run_experiment`], but optionally shrinking the attacker pool to
/// `per_label` samples (the Figure 8 ablation).
pub fn run_experiment_with_pool_override(
    exp: &AttackExperiment,
    scale: &Scale,
    pool_per_label: Option<usize>,
) -> (f64, f64) {
    let (mut sys, mut pool) = build_system(exp, scale);
    if let Some(per_label) = pool_per_label {
        let mut rng = SmallRng::seed_from_u64(exp.seed ^ 0xF18);
        pool = pool.subsample_per_label(per_label, &mut rng);
    }
    let known = match exp.labels {
        LabelAssignment::Fixed(k) => Some(k),
        LabelAssignment::Random(_) => None,
    };
    let mut method = exp.method;
    if let AttackMethod::Nn(ref mut p) | AttackMethod::NnSingle(ref mut p) = method {
        *p = scale.nn;
    }
    let cfg = AttackPipelineConfig {
        method,
        granularity: exp.granularity,
        known_label_count: known,
        rounds: scale.rounds,
        seed: exp.seed ^ 0xA77AC4,
        event_cap: 64 << 20,
    };
    let outcome = run_attack(&mut sys, &pool, &cfg);
    (outcome.metrics.all, outcome.metrics.top1)
}

/// Runs `rounds` of DP-FL (Algorithm 6) and returns per-round
/// `(test_loss, test_accuracy, epsilon)` — the Figure 15/16 utility runs.
pub fn utility_run(
    workload: Workload,
    sigma: f64,
    alpha: f64,
    rounds: usize,
    scale: &Scale,
    seed: u64,
) -> Vec<(f32, f32, f64)> {
    let exp = AttackExperiment {
        workload,
        labels: LabelAssignment::Fixed(2),
        alpha,
        method: AttackMethod::Jaccard,
        granularity: Granularity::Element,
        dp_sigma: if sigma > 0.0 { Some(sigma) } else { None },
        seed,
    };
    let (mut sys, _pool) = build_system(&exp, scale);
    let gen = Generator::new(workload.synthetic_config(scale.paper), seed ^ 0xDA7A);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E57);
    let test = gen.sample_balanced(scale.pool_per_label, &mut rng);
    let mut series = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let report =
            sys.run_round(&mut olive_memsim::NullTracer).expect("fault-free bench rounds complete");
        let (loss, acc) = sys.server.model.evaluate(&test.features, &test.labels, 64);
        series.push((loss, acc, report.epsilon_spent.unwrap_or(0.0)));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_metadata() {
        assert_eq!(Workload::MnistMlp.num_classes(), 10);
        assert_eq!(Workload::Cifar100Cnn.num_classes(), 100);
        for w in Workload::all() {
            let m = w.build_model(false, 1);
            assert!(m.param_count() > 0, "{}", w.name());
        }
    }

    #[test]
    fn paper_scale_matches_table1() {
        let rows: Vec<_> = Workload::all()
            .iter()
            .map(|w| {
                let cfg = w.synthetic_config(true);
                (w.dataset_name(), cfg.feature_dim, cfg.num_classes, w.paper_records())
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("MNIST", 784, 10, (70_000, 10_000)),
                ("CIFAR10", 3072, 10, (60_000, 10_000)),
                ("CIFAR10", 3072, 10, (60_000, 10_000)),
                ("Purchase100", 600, 100, (144_000, 24_000)),
                ("CIFAR100", 3072, 100, (60_000, 10_000)),
            ]
        );
    }

    #[test]
    fn paper_scale_configs_match_workloads() {
        // Every workload's paper-scale dataset carries the workload's label
        // count, and the workloads sharing a dataset share its config.
        for w in Workload::all() {
            let cfg = w.synthetic_config(true);
            assert_eq!(cfg.num_classes, w.num_classes(), "{}", w.name());
            for v in Workload::all() {
                if v.dataset_name() == w.dataset_name() {
                    let other = v.synthetic_config(true);
                    assert_eq!(
                        (other.feature_dim, other.num_classes),
                        (cfg.feature_dim, cfg.num_classes),
                        "{} vs {}",
                        w.name(),
                        v.name()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_scale_models_fit_their_datasets() {
        // One forward pass per model: the dataset's feature dimension is
        // the model's input (the layers assert it) and its label count the
        // model's output.
        for w in Workload::all() {
            let cfg = w.synthetic_config(true);
            let mut m = w.build_model(true, 1);
            assert_eq!(m.num_classes, w.num_classes(), "{}", w.name());
            let logits = m.forward(&vec![0.1f32; 2 * cfg.feature_dim], 2, false);
            assert_eq!(logits.len(), 2 * w.num_classes(), "{}", w.name());
        }
    }

    #[test]
    fn paper_scale_generators_produce_the_schema() {
        for w in Workload::all() {
            let cfg = w.synthetic_config(true);
            let gen = Generator::new(cfg, 1);
            let ds = gen.sample_balanced(1, &mut SmallRng::seed_from_u64(0));
            assert_eq!(ds.feature_dim, cfg.feature_dim, "{}", w.name());
            assert_eq!((ds.num_classes, ds.len()), (w.num_classes(), w.num_classes()));
        }
    }

    #[test]
    fn tiny_experiment_runs() {
        // Smallest viable smoke test of the whole attack path.
        let mut scale = Scale::reduced();
        scale.n_clients = 8;
        scale.samples_per_client = 12;
        scale.pool_per_label = 6;
        scale.rounds = 1;
        let exp = AttackExperiment {
            workload: Workload::Purchase100Mlp,
            labels: LabelAssignment::Fixed(2),
            alpha: 0.05,
            method: AttackMethod::Jaccard,
            granularity: Granularity::Element,
            dp_sigma: None,
            seed: 3,
        };
        let (all, top1) = run_experiment(&exp, &scale);
        assert!((0.0..=1.0).contains(&all));
        assert!((0.0..=1.0).contains(&top1));
    }
}
