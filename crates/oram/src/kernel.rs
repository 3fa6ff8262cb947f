//! PathORAM access-kernel selection.
//!
//! The scalar access path in [`crate::path_oram`] drives every stash
//! operation through per-slot traced reads and per-slot `o_select` tuple
//! copies — correct and readable, but the bookkeeping defeats
//! vectorization and costs `~4·(L+1)·S` tuple-sized select chains per
//! access. The batched kernel rebuilds the hot path around the same
//! observations as the sort kernel (`olive-oblivious::sort_kernel`):
//!
//! 1. **The trace is a closed-form function of the path.** A PathORAM
//!    access touches tree buckets along one (public, uniformly random)
//!    path and sweeps the whole stash a fixed number of times whatever
//!    the data, so the batched kernel emits the canonical schedule
//!    (per-bucket reads/writes plus `touch_rw_stripe` block events, one
//!    per stash sweep) and performs the data movement separately on
//!    untraced slices. Recording tracers expand each stripe into the
//!    exact per-slot sequence of the scalar path, so digests agree at
//!    every granularity — and, because emission is independent of the
//!    physical execution, at every thread count too.
//! 2. **Decisions live in the packed meta words.** Every stash decision
//!    reads only the packed `(key << 32) | leaf` u64, never the value
//!    payload, so the kernel mirrors the metas into one contiguous
//!    scratch array and scans *that* with the branchless mask-select
//!    accumulators of `olive-oblivious::meta_scan` (runtime-dispatched
//!    AVX2/AVX-512 monomorphizations). Values move at most a handful of
//!    times per access, by index.
//! 3. **Eviction depth is computed once per access.** A block with leaf
//!    `l` can evict into the path-to-`x` bucket at level `d` iff
//!    `d <= levels − bitlen(l ⊕ x)`; one `lzcnt` sweep yields every
//!    block's deepest eligible level, replacing the scalar path's
//!    per-bucket-slot full-stash `path_node` re-derivations.
//!
//! Every ORAM is built on the batched kernel. The scalar path stays as
//! the oracle the differential suites compare it against, reached per
//! instance through [`crate::PathOram::set_kernel`].

/// Which implementation of the PathORAM access runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OramKernel {
    /// The readable per-slot reference path (traced `o_select` sweeps).
    Scalar,
    /// The batched meta-scan kernel ([`crate::PathOram::new`] builds
    /// this one). Bitwise-identical state, outputs, and trace digests to
    /// [`OramKernel::Scalar`].
    Batched,
}
