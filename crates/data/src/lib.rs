//! # olive-data
//!
//! Synthetic datasets and federated (non-IID) partitioning.
//!
//! The paper evaluates on MNIST, CIFAR-10/100 and Purchase100 (Table 1).
//! The reproduction has no access to those datasets, so (README,
//! "Substitutions") we generate *label-structured synthetic
//! equivalents*: each class has a random prototype in feature
//! space and samples are prototype + noise. What the attack of Section 4
//! exploits is exactly the property this construction preserves — gradients
//! of a model trained on a client's label subset concentrate their top-k
//! magnitudes on label-correlated coordinates.
//!
//! [`federated::partition`] reproduces the paper's client data model
//! (Section 4.2): each of N clients holds samples from a small label
//! subset, either a fixed-size subset (the attacker knows the size) or a
//! random-size one (harder setting), and the attacker holds a label-indexed
//! test pool covering the global distribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federated;
pub mod synthetic;

pub use federated::{partition, ClientData, LabelAssignment};
pub use synthetic::{Dataset, SyntheticConfig};
