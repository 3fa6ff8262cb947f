//! # olive-tee
//!
//! A software-simulated Intel-SGX-style Trusted Execution Environment.
//!
//! The paper places a TEE on the FL server (Section 3.2): clients verify
//! the enclave via remote attestation, establish per-user AES-GCM session
//! keys, and upload encrypted sparsified gradients that only the enclave
//! can decrypt. This crate reproduces that machinery in software, with the
//! explicit substitutions documented in `DESIGN.md` §1:
//!
//! * enclave **measurement** — SHA-256 over the enclave's code identity,
//!   standing in for MRENCLAVE;
//! * **remote attestation** — a [`attestation::AttestationService`] holding
//!   a platform key signs enclave reports (Schnorr-style simulation-grade
//!   signature), standing in for Intel EPID + IAS;
//! * **secure channel** — real Diffie–Hellman → HKDF → AES-GCM key
//!   schedule, so the gradient payload path uses genuine authenticated
//!   encryption end-to-end;
//! * **EPC accounting** — an [`epc::EpcBudget`] records the enclave's
//!   working-set high-water mark against the 96 MB usable EPC, which is
//!   the quantity Section 5.3's grouping optimization manages.
//!
//! What this simulation deliberately does *not* provide is hardware
//! isolation: the host process can of course inspect the enclave struct.
//! The point is to reproduce the *protocol and algorithmic* behaviour —
//! most importantly, the memory-access side channel that `olive-memsim`
//! exposes to the simulated adversary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod channel;
pub mod enclave;
pub mod epc;
pub mod shard;

pub use attestation::{AttestationError, AttestationService, Quote, Report};
pub use channel::{ClientSession, SealedMessage};
pub use enclave::{Enclave, EnclaveConfig, SealedStore, TeeError};
pub use epc::EpcBudget;
pub use shard::{ShardId, ShardTunnel, TunnelAnchor, TunnelError, TunnelMessage, TunnelRole};

/// User identifier type used across the FL protocol.
pub type UserId = u32;
