//! # olive-oram
//!
//! PathORAM in the ZeroTrace/SGX security model — the general-purpose
//! oblivious-memory comparator of the paper's Figure 9.
//!
//! Plain PathORAM assumes a private "client storage" for the stash and
//! position map; inside an SGX enclave no such private memory exists (the
//! adversary sees every access, Section 2.3), so ZeroTrace makes stash and
//! position-map accesses oblivious themselves via `CMOV`-based linear
//! scans. That constant-factor overhead — a full stash scan per path slot,
//! plus recursive position-map lookups — is precisely why the paper's
//! task-specific Advanced algorithm beats ORAM by >10× (Section 5.5).
//!
//! This crate provides:
//! * [`PathOram`] — bucketed tree ORAM (Z = 4), oblivious stash, three
//!   position-map strategies ([`PosMapKind`]): `Trusted` (plain array —
//!   the client-storage assumption, *invalid* under SGX, kept as an
//!   ablation), `LinearScan` (ZeroTrace-faithful O(N) oblivious scan),
//!   and `Recursive` (position map stored in a smaller ORAM, as real
//!   ZeroTrace deploys). Its access emits the canonical trace as block events and runs every
//!   stash decision as an `olive-oblivious::meta_scan` branchless sweep
//!   over the packed meta words; the unit tests hold it, bit for bit in
//!   state, outputs and trace, to the textbook per-slot access, which only
//!   test builds contain ([`path_oram`]'s docs);
//! * stash-occupancy and eviction instrumentation to validate the
//!   stash-size ≤ 20 configuration the paper uses and feed the telemetry
//!   counters.
//!
//! This crate stays `forbid(unsafe_code)`: the ISA-dispatched scan
//! monomorphizations live in `olive-oblivious` next to the sort kernel's.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod path_oram;
pub mod posmap;

pub use path_oram::{
    predicted_resident_bytes, BlockCodec, OramError, OramStats, PathOram, PathOramConfig,
    BUCKET_SIZE, INVALID_KEY,
};
pub use posmap::{PosBlock, PosMapKind, POS_BLOCK_FANOUT};
