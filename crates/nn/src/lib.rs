//! # olive-nn
//!
//! A minimal, dependency-free neural-network library: exactly the pieces the
//! Olive reproduction needs and nothing more.
//!
//! Three consumers:
//! 1. **FL clients** train the global models of the paper's Table 1 / Table 3
//!    (MLPs and a LeNet-style CNN) locally with SGD (Algorithm 1's
//!    `EncClient`);
//! 2. **the attacker** (Algorithm 2) trains multilayer perceptrons on
//!    multi-hot index vectors (Table 4's `NN` / `NN-single` models);
//! 3. **evaluation** computes test accuracy/loss for the utility figures
//!    (Figures 15–16).
//!
//! Design choices: plain `Vec<f32>` storage, explicit batched
//! forward/backward per layer, enum dispatch (no trait objects), flat
//! parameter/gradient views for FL (get/set the whole model as one vector —
//! the unit the paper sparsifies). A training step reuses buffers the
//! [`Model`] and its layers own, so it allocates nothing once they have
//! grown to the batch shape, and the first layer skips the input gradient
//! nobody reads. A Dense layer stores `Wᵀ` so its passes put the outputs
//! in the vector lanes at any batch size; θ keeps its row-major order at
//! the flat views, which convert. The Dense passes run at the CPU's
//! vector width (portable, AVX2 or AVX-512, detected once; no knob) under
//! one rule: every accumulation chain keeps the order of the scalar loops
//! — multiply then add, never fused, lanes only ever independent chains —
//! so every width returns the scalar result bit for bit. [`topk`] is the
//! exact top-k of a flat vector that FL clients upload, with a portable
//! and an AVX-512 body (detected once, no knob) that return the same
//! bits. Unsafe code is denied crate-wide and allowed only on the
//! functions that call into `#[target_feature]` code, on the register
//! tiles' row loads and stores, and in the AVX-512 top-k body's vector
//! loads and stores. Correctness is pinned by finite-difference gradient
//! checks and by differential suites against the scalar loops and the
//! canonical top-k rule, which survive as `#[cfg(test)]` oracles.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
mod kernels;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod topk;
pub mod zoo;

pub use layers::{Conv2d, Dense, Dropout, Layer, MaxPool2d, Relu};
pub use loss::softmax_cross_entropy;
pub use model::Model;
pub use optim::Sgd;
pub use zoo::{attacker_nn, cifar100_cnn, cifar10_cnn, cifar10_mlp, mnist_mlp, purchase100_mlp};
