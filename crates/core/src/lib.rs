//! # olive-core
//!
//! The paper's primary contribution: **Olive**, oblivious federated
//! learning on a (simulated) server-side TEE.
//!
//! Three parts:
//!
//! * [`aggregation`] — the server-side aggregation algorithms over
//!   sparsified gradients, each instrumented for memory-access tracing:
//!   - [`aggregation::linear`]: the general FL aggregation (Algorithm 5).
//!     Fully oblivious for dense gradients (Proposition 3.1), **leaky**
//!     for sparsified gradients (Proposition 3.2) — the vulnerability the
//!     whole paper is about;
//!   - [`aggregation::baseline`]: Algorithm 3, dummy-access-everything,
//!     cacheline-level fully oblivious (Proposition 5.1), O(nkd/c);
//!   - [`aggregation::advanced`]: Algorithm 4, zero-seeding + oblivious
//!     sort + oblivious fold + oblivious compaction, fully oblivious
//!     (Proposition 5.2), O((nk+d)·log²(nk+d));
//!   - [`aggregation::grouped`]: the Section 5.3 optimization — process
//!     clients in groups of `h` so the sort working set fits cache/EPC;
//!     groups run in parallel across [`RuntimeConfig::threads`] workers
//!     since the group schedule is public;
//!   - [`aggregation::oram`]: the PathORAM/ZeroTrace comparator;
//!   - [`aggregation::dobliv`]: the Section 5.4 differentially-oblivious
//!     relaxation (dummy padding + oblivious shuffle + linear pass);
//! * [`round`] — the enclave-side round as one engine that owns its
//!   restore point: the one driver over sealed uploads (open from the
//!   checkpoint store → ingest → finish) with a single EPC ledger, behind
//!   `run_round`, `restore_round` and the bench rig, and its fold loop on
//!   its own for the pre-decoded shard equivalence suites;
//! * [`olive`] — the full system of Algorithm 1 / Algorithm 6: remote
//!   attestation, encrypted gradient upload, in-enclave verification and
//!   decryption, oblivious aggregation, optional central-DP noising, and
//!   the signed global-model update.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregation;
pub mod cell;
pub mod olive;
pub mod regions;
pub mod round;

pub use aggregation::{
    aggregate, aggregate_with_threads, Aggregator, AggregatorKind, ShardError, ShardFailure,
    StreamingAggregator,
};
pub use cell::{cell_index, cell_value, make_cell, DUMMY_INDEX};
pub use olive::{OliveConfig, OliveSystem, RoundError, RoundReport};
pub use olive_memsim::RuntimeConfig;
pub use round::{Ledger, RoundEngine};
