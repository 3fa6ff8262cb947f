//! # olive-memsim
//!
//! Memory-access-pattern instrumentation for the Olive reproduction.
//!
//! The paper's entire threat model (Sections 2.3 and 3.3) is about what an
//! untrusted OS/hypervisor learns from the *sequence of memory accesses* a
//! TEE performs: `Accesses = [(addr, op, val), …]`, observed at element or
//! cacheline granularity. Since this reproduction simulates the enclave in
//! software, this crate plays the role of the adversary's probe:
//!
//! * [`Tracer`] — a zero-cost-when-disabled hook that algorithms call on
//!   every load/store of adversary-visible memory. [`NullTracer`]
//!   monomorphizes away; [`RecordingTracer`] records. [`ParallelTracer`]
//!   extends both with fork/join so data-parallel oblivious regions can
//!   record one trace per thread and merge them deterministically.
//! * [`TrackedBuf`] — a buffer wrapper that guarantees every access is
//!   reported to the tracer (used for the gradient buffers `G` and `G*`).
//! * [`TraceDigest`] — a 128-bit streaming digest of a trace so that
//!   obliviousness (Definition 2.1 with δ = 0: identical access sequences
//!   for any same-length inputs) can be checked without storing gigabytes.
//! * [`CacheSim`] / [`EpcSim`] — a set-associative LRU cache model and an
//!   SGX EPC paging model with the paper's constants (8 MB L3, 96 MB EPC,
//!   64 B lines, 4 KiB pages), driving the Figure 10/11 cost analysis.
//! * [`check`] — test harnesses (`assert_oblivious`, `assert_not_oblivious`)
//!   that turn Propositions 3.1, 3.2, 5.1 and 5.2 into executable tests.
//! * [`RuntimeConfig`] — the process's round knobs (`OLIVE_THREADS`,
//!   `OLIVE_CHUNK`, `OLIVE_SHARDS`, `OLIVE_METRICS`), parsed from the
//!   environment once, in one place, by [`RuntimeConfig::process`];
//! * [`FaultPlan`] — the scripted coordinator crashes ([`faults`]) a
//!   round's crash hook fires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod cache;
pub mod check;
pub mod codec;
pub mod digest;
pub mod epc;
pub mod faults;
pub mod runtime;
pub mod shard;
pub mod tracer;

pub use buf::TrackedBuf;
pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use check::{assert_not_oblivious, assert_oblivious, trace_of};
pub use codec::{StateError, StateReader, StateWriter};
pub use digest::TraceDigest;
pub use epc::{CostModel, EpcSim, EpcStats, SgxCostEstimate};
pub use faults::{FaultPlan, RecoveryStats};
pub use runtime::RuntimeConfig;
pub use shard::ShardPlan;
pub use tracer::{
    truncated_stage_len, Access, Granularity, NullTracer, Op, ParallelTracer, RecordingTracer,
    RegionId, Tracer, TracerStats,
};

/// Cacheline size assumed throughout the paper and this reproduction (bytes).
pub const CACHELINE_BYTES: u64 = 64;

/// SGX page size (bytes), the granularity of EPC paging.
pub const PAGE_BYTES: u64 = 4096;
