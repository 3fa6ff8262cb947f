//! The six whole-round workloads and how each one is built from a seed.
//!
//! Every workload is a full federation — synthetic `tiny(64, 10)` data,
//! two labels per client, one local epoch, checkpointing on — that differs
//! from its neighbour in as few numbers as possible, so a change that
//! moves one workload and not its neighbour names the layer it touched.

use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{DpConfig, OliveConfig, OliveSystem};
use olive_crypto::CryptoBackend;
use olive_data::synthetic::{Generator, SyntheticConfig};
use olive_data::{partition, ClientData, LabelAssignment};
use olive_fl::{ClientConfig, Sparsifier};
use olive_nn::zoo::mlp;
use olive_nn::Model;

const FEATURES: usize = 64;
const CLASSES: usize = 10;

/// One benchmark workload: a federation plus the public round knobs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub n_clients: usize,
    pub sample_rate: f64,
    /// Hidden width of `mlp(64, hidden, 10)`; fixes the dimension d.
    pub hidden: usize,
    pub top_k: usize,
    pub samples_per_client: usize,
    pub batch_size: usize,
    pub aggregator: AggregatorKind,
    pub dp: Option<DpConfig>,
    pub chunk: usize,
    pub shards: usize,
    pub threads: usize,
    pub crypto: CryptoBackend,
}

/// The shared base of the five d = 4210 workloads: 10 % top-k, four
/// samples per client (training is cheap, the enclave side dominates).
const SMALL_MODEL: Workload = Workload {
    name: "",
    why: "",
    n_clients: 5000,
    sample_rate: 1.0,
    hidden: 56,
    top_k: 421,
    samples_per_client: 4,
    batch_size: 4,
    aggregator: AggregatorKind::Advanced,
    dp: None,
    chunk: 64,
    shards: 1,
    threads: 1,
    crypto: CryptoBackend::Hw,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "train_dp",
        why: "Cross-silo DP round (N=2000, q=0.5 Poisson, d=9610): local training dominates and the sample size varies; enclave-side optimisations must show no change here.",
        n_clients: 2000,
        sample_rate: 0.5,
        hidden: 128,
        top_k: 96,
        samples_per_client: 20,
        batch_size: 10,
        dp: Some(DpConfig { sigma: 1.0, clip: 1.0, delta: 1e-5 }),
        ..SMALL_MODEL
    },
    Workload {
        name: "adv_sort",
        why: "Advanced, N=5000, chunk 1024: one monolithic oblivious sort of nk+d = 2.1M cells at finalize and only 5 checkpoints; where sort-kernel work shows.",
        chunk: 1024,
        ..SMALL_MODEL
    },
    Workload {
        name: "adv_ckpt64",
        why: "adv_sort at the default chunk 64: 79 growing checkpoints, so save_state + checkpoint sealing dominate; a checkpoint gain moves only this one, a sort gain moves both.",
        ..SMALL_MODEL
    },
    Workload {
        name: "grouped_t2",
        why: "Grouped h=64 on two threads: 79 small sorts inside ingest, flat checkpoints, parallel training and open/ingest overlap; a big-array sort trick that hurts small sorts shows here.",
        aggregator: AggregatorKind::Grouped { h: 64 },
        threads: 2,
        ..SMALL_MODEL
    },
    Workload {
        name: "grouped_s4_t2",
        why: "grouped_t2 with S=4 shards: adds broadcast AEAD x4, receipts and stripe checkpoints; the workload shard-plane work must win on while the others stay put.",
        aggregator: AggregatorKind::Grouped { h: 64 },
        threads: 2,
        shards: 4,
        ..SMALL_MODEL
    },
    Workload {
        name: "linear_ct",
        why: "NonOblivious fold, N=500, under the portable constant-time crypto backend: upload seal/open and checkpoint sealing are nearly the whole round; crypto-engine work shows only here.",
        n_clients: 500,
        aggregator: AggregatorKind::NonOblivious,
        crypto: CryptoBackend::Ct,
        ..SMALL_MODEL
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload over `n` clients (unit tests run miniatures).
    #[cfg(test)]
    pub fn with_clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// Builds the federation from `seed`: global model, client shards and
    /// the system configuration. The program sees only these inputs.
    pub fn build(&self, seed: u64) -> (Model, Vec<ClientData>, OliveConfig) {
        let generator = Generator::new(SyntheticConfig::tiny(FEATURES, CLASSES), seed);
        let clients = partition(
            &generator,
            self.n_clients,
            LabelAssignment::Fixed(2),
            self.samples_per_client,
            seed,
        );
        let model = mlp(FEATURES, self.hidden, CLASSES, 0.0, seed);
        let cfg = OliveConfig {
            n_clients: self.n_clients,
            sample_rate: self.sample_rate,
            client: ClientConfig {
                epochs: 1,
                batch_size: self.batch_size,
                lr: 0.1,
                sparsifier: Sparsifier::TopK(self.top_k),
                clip: None,
            },
            aggregator: self.aggregator,
            server_lr: 1.0,
            dp: self.dp,
            seed,
        };
        (model, clients, cfg)
    }

    /// Provisions the program under test with every round knob pinned.
    pub fn system(&self, seed: u64) -> OliveSystem {
        let (model, clients, cfg) = self.build(seed);
        let mut system = OliveSystem::new(model, clients, cfg);
        system.set_threads(self.threads);
        system.set_chunk(self.chunk);
        system.set_shards(self.shards);
        system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::NullTracer;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200, "{}: why is {} chars", w.name, w.why.len());
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_workload_runs_a_signed_round_at_miniature_n() {
        for w in WORKLOADS {
            let mini = w.with_clients(48);
            let (model, _, _) = mini.build(3);
            assert!(mini.top_k <= model.param_count());
            let mut system = mini.system(3);
            let report = system.run_round(&mut NullTracer).expect("fault-free round");
            let params = system.global_params();
            assert!(params.iter().all(|p| p.is_finite()), "{}", w.name);
            assert!(system.verify_model_signature(report.round, &params, &report.model_signature));
            if w.sample_rate == 1.0 {
                assert_eq!(report.processed_users.len(), 48, "{}", w.name);
            }
            assert_eq!(report.shard_peaks.len(), if w.shards > 1 { w.shards } else { 0 });
        }
    }
}
