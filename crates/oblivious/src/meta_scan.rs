//! Branchless, SIMD-friendly scans over packed PathORAM meta words.
//!
//! The ORAM stash stores one `(key << 32) | leaf` u64 beside every value
//! slot, and every stash decision — is this the key? is this slot free?
//! how deep can this block evict along the current path? — reads only
//! that word. These kernels scan a contiguous mirror of the meta words
//! with the same mask-select accumulator idiom as
//! [`sort_kernel`](mod@crate::sort_kernel):
//! no data-dependent control flow inside the loops, so LLVM
//! autovectorizes them, and the AVX2/AVX-512 bodies let it use
//! 256-/512-bit compares on the same source. Every body is entered
//! through a `PerIsa` table, as every kernel of the crate is: `get` in
//! the entry points, `runnable` in the tests. That is the only `unsafe`
//! here; each block carries a `SAFETY:` comment.
//!
//! The scans are *host-side* helpers for the batched ORAM kernel: the
//! modeled enclave trace is emitted canonically by the caller
//! (block-granular stash sweeps whose expansion equals the scalar
//! reference's per-slot sequence), so these functions take plain slices,
//! not [`TrackedBuf`]s.
//!
//! [`TrackedBuf`]: olive_memsim::TrackedBuf

use crate::isa::PerIsa;

// ---------------------------------------------------------------------------
// Scan bodies (branchless mask-select sweeps)
// ---------------------------------------------------------------------------

/// Finds the (unique, if present) slot whose meta key — the high 32 bits
/// — equals `key`. Accumulator form (`Σ hit·i`, `Σ hit`), so the loop has
/// no data-dependent control flow and vectorizes cleanly. The caller
/// guarantees at most one match (the PathORAM one-block-per-key
/// invariant).
#[inline(always)]
fn key_scan_body(meta: &[u64], key: u32) -> (bool, usize) {
    let mut acc = 0u64;
    let mut cnt = 0u64;
    for (i, &m) in meta.iter().enumerate() {
        let hit = (((m >> 32) as u32) == key) as u64;
        acc += hit * i as u64;
        cnt += hit;
    }
    (cnt != 0, acc as usize)
}

/// Collects the indices of every slot whose key equals `invalid_key`
/// (i.e. every free slot), ascending, into `out` (at least `meta.len()`
/// long). Returns the count. Branchless stream compaction: write
/// unconditionally, advance by the predicate.
#[inline(always)]
fn collect_free_body(meta: &[u64], invalid_key: u32, out: &mut [u32]) -> usize {
    debug_assert!(out.len() >= meta.len());
    let mut cnt = 0usize;
    for (i, &m) in meta.iter().enumerate() {
        out[cnt] = i as u32;
        cnt += (((m >> 32) as u32) == invalid_key) as usize;
    }
    cnt
}

/// Deepest eviction level of every block for the path to `leaf` in a
/// tree of `levels + 1` levels: `levels − bitlen(block_leaf ⊕ leaf)` for
/// valid blocks, −1 for free slots. A block may evict into the level-`d`
/// bucket on the path iff `d <= depth` (heap-path sharing is exactly a
/// shared leaf-label prefix).
#[inline(always)]
fn eviction_depths_body(meta: &[u64], invalid_key: u32, leaf: u32, levels: u32, depth: &mut [i32]) {
    debug_assert_eq!(meta.len(), depth.len());
    let lvls = levels as i32;
    for (d, &m) in depth.iter_mut().zip(meta.iter()) {
        let x = (m as u32) ^ leaf;
        let bitlen = 32 - x.leading_zeros() as i32;
        let valid = (((m >> 32) as u32) != invalid_key) as i32;
        // valid → levels − bitlen, free → −1, without a branch.
        *d = (lvls - bitlen) * valid + (valid - 1);
    }
}

/// Picks the first (ascending slot order) up-to-`out.len() − 1` slots
/// whose depth admits `level`, matching the scalar eviction's "each
/// bucket slot takes the first eligible block" order. The last `out`
/// entry is a sentinel so the write stays unconditional after the bucket
/// fills. Returns how many were picked.
#[inline(always)]
fn pick_eligible_body(depth: &[i32], level: i32, out: &mut [u32]) -> usize {
    let cap = out.len() - 1;
    let mut cnt = 0usize;
    for (i, &d) in depth.iter().enumerate() {
        out[cnt.min(cap)] = i as u32;
        let room = (cnt < cap) as usize;
        let elig = (d >= level) as usize;
        cnt += room & elig;
    }
    cnt.min(cap)
}

// ---------------------------------------------------------------------------
// The bodies per instruction set, and the entry points
// ---------------------------------------------------------------------------

/// The scans compiled for AVX2: 256-bit compares and mask selects.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) fn key_scan(meta: &[u64], key: u32) -> (bool, usize) {
        key_scan_body(meta, key)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn collect_free(meta: &[u64], invalid_key: u32, out: &mut [u32]) -> usize {
        collect_free_body(meta, invalid_key, out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn eviction_depths(m: &[u64], invalid: u32, leaf: u32, levels: u32, d: &mut [i32]) {
        eviction_depths_body(m, invalid, leaf, levels, d)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn pick_eligible(depth: &[i32], level: i32, out: &mut [u32]) -> usize {
        pick_eligible_body(depth, level, out)
    }
}

/// The scans compiled for AVX-512F: `vplzcntd`, wide mask compares.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;

    #[target_feature(enable = "avx512f")]
    pub(super) fn key_scan(meta: &[u64], key: u32) -> (bool, usize) {
        key_scan_body(meta, key)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn collect_free(meta: &[u64], invalid_key: u32, out: &mut [u32]) -> usize {
        collect_free_body(meta, invalid_key, out)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn eviction_depths(m: &[u64], invalid: u32, leaf: u32, levels: u32, d: &mut [i32]) {
        eviction_depths_body(m, invalid, leaf, levels, d)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn pick_eligible(depth: &[i32], level: i32, out: &mut [u32]) -> usize {
        pick_eligible_body(depth, level, out)
    }
}

/// One level's scans, each a body of the entry point it is named after:
/// calling one needs a CPU that supports the level's instruction set.
/// The entry points are not `#[inline]`, so that this table and its
/// bodies are compiled once, in this crate.
#[derive(Clone, Copy)]
struct Scans {
    key_scan: unsafe fn(&[u64], u32) -> (bool, usize),
    collect_free: unsafe fn(&[u64], u32, &mut [u32]) -> usize,
    eviction_depths: unsafe fn(&[u64], u32, u32, u32, &mut [i32]),
    pick_eligible: unsafe fn(&[i32], i32, &mut [u32]) -> usize,
}

/// The scans, one set per instruction set.
const SCANS: PerIsa<Scans> = PerIsa {
    portable: Scans {
        key_scan: key_scan_body,
        collect_free: collect_free_body,
        eviction_depths: eviction_depths_body,
        pick_eligible: pick_eligible_body,
    },
    #[cfg(target_arch = "x86_64")]
    avx2: Scans {
        key_scan: avx2::key_scan,
        collect_free: avx2::collect_free,
        eviction_depths: avx2::eviction_depths,
        pick_eligible: avx2::pick_eligible,
    },
    #[cfg(target_arch = "x86_64")]
    avx512: Scans {
        key_scan: avx512::key_scan,
        collect_free: avx512::collect_free,
        eviction_depths: avx512::eviction_depths,
        pick_eligible: avx512::pick_eligible,
    },
};

/// `(found, slot)` of the slot whose meta key equals `key`, at the
/// detected ISA width.
pub fn key_scan(meta: &[u64], key: u32) -> (bool, usize) {
    // SAFETY: `get` picks the body of the level this CPU runs.
    unsafe { (SCANS.get().key_scan)(meta, key) }
}

/// Writes the free slots (key `invalid_key`), ascending, into `out` and
/// returns their count, at the detected ISA width.
pub fn collect_free(meta: &[u64], invalid_key: u32, out: &mut [u32]) -> usize {
    // SAFETY: as in `key_scan`.
    unsafe { (SCANS.get().collect_free)(meta, invalid_key, out) }
}

/// Each slot's deepest eviction level on the path to `leaf` (−1 for a
/// free slot) into `depth`, at the detected ISA width.
pub fn eviction_depths(meta: &[u64], invalid_key: u32, leaf: u32, levels: u32, depth: &mut [i32]) {
    // SAFETY: as in `key_scan`.
    unsafe { (SCANS.get().eviction_depths)(meta, invalid_key, leaf, levels, depth) }
}

/// Writes the first up-to-`out.len() − 1` slots whose depth admits
/// `level` into `out` (the last entry is a sentinel) and returns how many,
/// at the detected ISA width.
pub fn pick_eligible(depth: &[i32], level: i32, out: &mut [u32]) -> usize {
    // SAFETY: as in `key_scan`.
    unsafe { (SCANS.get().pick_eligible)(depth, level, out) }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INVALID: u32 = u32::MAX;

    fn pack(key: u32, leaf: u32) -> u64 {
        ((key as u64) << 32) | leaf as u64
    }

    #[test]
    fn key_scan_finds_unique_slot() {
        let meta = vec![pack(INVALID, 0), pack(3, 5), pack(INVALID, 0), pack(9, 1), pack(7, 2)];
        assert_eq!(key_scan(&meta, 9), (true, 3));
        assert_eq!(key_scan(&meta, 3), (true, 1));
        assert_eq!(key_scan(&meta, 11), (false, 0));
        assert_eq!(key_scan(&[], 0), (false, 0));
    }

    #[test]
    fn collect_free_is_ascending_and_complete() {
        let meta = vec![pack(1, 0), pack(INVALID, 0), pack(2, 0), pack(INVALID, 0)];
        let mut out = vec![0u32; meta.len()];
        let cnt = collect_free(&meta, INVALID, &mut out);
        assert_eq!((cnt, &out[..cnt]), (2, &[1u32, 3][..]));
        let full = vec![pack(0, 0); 3];
        assert_eq!(collect_free(&full, INVALID, &mut out), 0);
        let empty = vec![pack(INVALID, 0); 4];
        let cnt = collect_free(&empty, INVALID, &mut out);
        assert_eq!(&out[..cnt], &[0u32, 1, 2, 3][..]);
    }

    #[test]
    fn depths_match_path_node_sharing() {
        // leaves = 8, levels = 3: the computed depth must equal the
        // deepest level where the heap paths to `l` and `x` coincide.
        let (leaves, levels) = (8u32, 3u32);
        let path_node = |leaf: u32, level: u32| (leaves + leaf) >> (levels - level);
        for leaf in 0..leaves {
            for bl in 0..leaves {
                let meta = vec![pack(1, bl), pack(INVALID, bl)];
                let mut depth = vec![0i32; 2];
                eviction_depths(&meta, INVALID, leaf, levels, &mut depth);
                let deepest =
                    (0..=levels).rev().find(|&lv| path_node(bl, lv) == path_node(leaf, lv));
                assert_eq!(depth[0], deepest.unwrap() as i32, "leaf {leaf} block {bl}");
                assert_eq!(depth[1], -1, "free slots never evict");
            }
        }
    }

    #[test]
    fn pick_eligible_takes_first_in_slot_order() {
        let depth = vec![2, -1, 3, 0, 3, 3, 1, 3, 3];
        let mut out = [0u32; 5]; // bucket of 4 + sentinel
        let cnt = pick_eligible(&depth, 3, &mut out);
        assert_eq!((cnt, &out[..cnt]), (4, &[2u32, 4, 5, 7][..]), "first four with depth >= 3");
        let cnt = pick_eligible(&depth, 1, &mut out);
        assert_eq!((cnt, &out[..cnt]), (4, &[0u32, 2, 4, 5][..]));
        let cnt = pick_eligible(&depth, 4, &mut out);
        assert_eq!(cnt, 0);
    }

    /// Each body this CPU runs, called directly (the entry points reach
    /// only the widest), against the portable body and a plain reference,
    /// on random meta words at lengths that leave a partial vector at
    /// every width.
    #[test]
    fn every_isa_body_matches_the_portable_scans() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let bodies = SCANS.runnable();
        let names: Vec<&str> = bodies.iter().map(|b| b.0).collect();
        eprintln!("meta_scan bodies exercised on this CPU: {names:?}");
        let mut rng = SmallRng::seed_from_u64(23);
        let levels = 9u32;
        for n in [1usize, 3, 7, 9, 13, 15, 17, 23, 31, 33, 47, 63, 65, 100, 127, 129, 250, 1001] {
            // Distinct keys (the one-block-per-key invariant), a third of
            // the slots free, leaves anywhere in the tree.
            let meta: Vec<u64> = (0..n as u32)
                .map(|i| {
                    let key = if rng.gen_range(0..3u32) == 0 { INVALID } else { 5 * i + 1 };
                    pack(key, rng.gen_range(0..1u32 << levels))
                })
                .collect();
            let keys: Vec<u32> = meta.iter().map(|&m| (m >> 32) as u32).collect();
            let free: Vec<u32> = (0..n as u32).filter(|&i| keys[i as usize] == INVALID).collect();
            let leaf = rng.gen_range(0..1u32 << levels);
            let want_depth: Vec<i32> = meta
                .iter()
                .map(|&m| match (m >> 32) as u32 {
                    INVALID => -1,
                    _ => levels as i32 - (32 - ((m as u32) ^ leaf).leading_zeros()) as i32,
                })
                .collect();
            // Every key present, and two that are not.
            let probes = keys.iter().copied().filter(|&k| k != INVALID);
            let probes: Vec<u32> = probes.chain([5 * n as u32 + 1, INVALID - 1]).collect();
            for &(name, scans) in &bodies {
                for &key in &probes {
                    let at = keys.iter().position(|&k| k == key);
                    // SAFETY: `runnable` lists the bodies this CPU runs.
                    let got = unsafe { (scans.key_scan)(&meta, key) };
                    assert_eq!(got, (at.is_some(), at.unwrap_or(0)), "{name} n={n} key={key}");
                    assert_eq!(got, key_scan_body(&meta, key), "{name} n={n} key={key}");
                }

                let mut out = vec![u32::MAX; n];
                // SAFETY: as above.
                let cnt = unsafe { (scans.collect_free)(&meta, INVALID, &mut out) };
                assert_eq!(&out[..cnt], &free[..], "{name} n={n}");
                let mut portable = vec![u32::MAX; n];
                assert_eq!(collect_free_body(&meta, INVALID, &mut portable), cnt, "{name} n={n}");
                assert_eq!(out, portable, "{name} n={n}: the scratch past the count too");

                let mut depth = vec![i32::MIN; n];
                // SAFETY: as above.
                unsafe { (scans.eviction_depths)(&meta, INVALID, leaf, levels, &mut depth) };
                assert_eq!(depth, want_depth, "{name} n={n}");

                for (level, bucket) in [(0, 4), (levels as i32 / 2, 4), (levels as i32, 2), (0, n)]
                {
                    let want: Vec<u32> = (0..n as u32)
                        .filter(|&i| want_depth[i as usize] >= level)
                        .take(bucket)
                        .collect();
                    let mut out = vec![u32::MAX; bucket + 1];
                    // SAFETY: as above.
                    let cnt = unsafe { (scans.pick_eligible)(&want_depth, level, &mut out) };
                    assert_eq!(&out[..cnt], &want[..], "{name} n={n} level={level}");
                    let mut portable = vec![u32::MAX; bucket + 1];
                    let portable_cnt = pick_eligible_body(&want_depth, level, &mut portable);
                    assert_eq!((cnt, out), (portable_cnt, portable), "{name} n={n} level={level}");
                }
            }
        }
    }
}
