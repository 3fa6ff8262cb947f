//! Process-wide thread-count policy for parallel regions: how many
//! workers a region uses. Where they run is `olive_oblivious::pool`, the
//! one worker pool of the process, with the calling thread as worker 0.
//!
//! Lives in `olive-memsim` (rather than `olive-core`) because every layer
//! that runs a data-parallel oblivious region — the grouped aggregation in
//! `olive-core`, the intra-sort stage parallelism in `olive-oblivious` —
//! already depends on this crate for its tracer. One knob controls them
//! all:
//!
//! * `OLIVE_THREADS=<n>` in the environment pins the default;
//! * otherwise the default is `available_parallelism()`, capped at 8
//!   (matching SGX enclave TCS budgets, and past which the memory-bound
//!   sort shows no gain);
//! * every parallel entry point also takes an explicit thread-count
//!   parameter (`*_with_threads`) that overrides the default;
//! * `1` runs the exact historical serial code path.

use std::sync::OnceLock;

/// Hard cap on the default worker count (explicit parameters may exceed it).
const MAX_DEFAULT_THREADS: usize = 8;

/// The `OLIVE_*` knob convention for positive-integer variables: `name`
/// parsed as an integer ≥ 1, or `None` when unset — and when set to
/// anything else, after one warning on stderr naming the `fallback`
/// about to be used instead. Callers cache the result (the environment
/// is read once per process).
pub fn positive_env(name: &str, fallback: &str) -> Option<usize> {
    let v = std::env::var(name).ok()?;
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("{name}={v:?} is not a positive integer; using {fallback}");
            None
        }
    }
}

/// The process-wide default worker count for parallel oblivious regions:
/// `OLIVE_THREADS` if set to a positive integer, else
/// `available_parallelism().min(8)`. Read once and cached — changing the
/// environment mid-process has no effect; use the `*_with_threads` APIs
/// for per-call control.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        positive_env("OLIVE_THREADS", "auto default").unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
            cores.min(MAX_DEFAULT_THREADS)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive_and_stable() {
        let t = default_threads();
        assert!(t >= 1);
        assert_eq!(t, default_threads(), "OnceLock caches the decision");
    }
}
