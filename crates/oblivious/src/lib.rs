//! # olive-oblivious
//!
//! Register-level oblivious primitives and oblivious algorithms, the
//! building blocks of the paper's defense (Section 2.3, Appendix A).
//!
//! The threat model allows the adversary to observe *memory* access
//! patterns and code addresses, but not CPU registers. Conditional logic
//! must therefore avoid both data-dependent memory addressing and
//! data-dependent branches. The paper (following Ohrimenko et al. and
//! ZeroTrace) builds everything from the x86 `CMOV` instruction; this crate
//! provides:
//!
//! * [`primitives`] — `o_select` / `o_swap` (the paper's `o_mov`, Listing 1,
//!   and `o_swap`, Listing 2), implemented with inline `cmov` assembly on
//!   x86-64 and branch-free mask arithmetic elsewhere, over all the cell
//!   types the aggregation algorithms use;
//! * [`mod@sort_kernel`] — the bitonic sorting network, truncated at the real
//!   length (the paper's oblivious sort, used once by Algorithm 4), over
//!   [`TrackedBuf`]s: it emits the comparator schedule as per-stage trace
//!   events and moves the data in branchless min/max sweeps over
//!   cache-sized private blocks, with per-pass thread parallelism; its
//!   module docs state the canonical trace, and its unit tests hold it to
//!   a one-comparator-at-a-time network that only test builds contain;
//! * [`compact`] — order-preserving oblivious compaction in O(n log n)
//!   conditional swaps (Algorithm 4's last step); its module docs state
//!   the canonical trace and the no-secret-loop-bound rule;
//! * [`scan`] — oblivious linear-scan read/write of a secret index
//!   (ZeroTrace's trusted-storage emulation, used by the ORAM stash and
//!   position map);
//! * [`meta_scan`] — branchless accumulator scans over packed PathORAM
//!   `(key << 32) | leaf` meta words (the ORAM batched kernel's
//!   equivalent of the sort kernel's sweeps, with the same runtime
//!   AVX2/AVX-512 dispatch);
//! * [`shuffle`] — oblivious random shuffle via random-key sorting (used by
//!   the differentially-oblivious ablation, Section 5.4);
//! * [`pool`] — the process's one worker pool, on which every parallel
//!   region of the round runs with the calling thread as worker 0.
//!
//! [`TrackedBuf`]: olive_memsim::TrackedBuf

#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod compact;
mod isa;
pub mod meta_scan;
pub mod pool;
pub mod primitives;
pub mod scan;
pub mod shuffle;
#[cfg(test)]
mod sort;
pub mod sort_kernel;

pub use compact::{compact_swap_count, compact_u64};
pub use primitives::{o_select, o_select_u64, o_swap, Oblivious};
pub use scan::{o_scan_read, o_scan_update, o_scan_write};
pub use shuffle::oblivious_shuffle_with_threads;
pub use sort_kernel::{bitonic_sort_u64_with, sort_kernel, InlinePayload, SortKernel};
