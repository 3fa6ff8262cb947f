//! Branchless, SIMD-friendly scans over packed PathORAM meta words.
//!
//! The ORAM stash stores one `(key << 32) | leaf` u64 beside every value
//! slot, and every stash decision — is this the key? is this slot free?
//! how deep can this block evict along the current path? — reads only
//! that word. These kernels scan a contiguous mirror of the meta words
//! with the same mask-select accumulator idiom as
//! [`sort_kernel`](mod@crate::sort_kernel):
//! no data-dependent control flow inside the loops, so LLVM
//! autovectorizes them, and the AVX2/AVX-512 monomorphizations (selected
//! once at runtime, like the sort kernel's) let it use 256-/512-bit
//! compares on the same source.
//!
//! The scans are *host-side* helpers for the batched ORAM kernel: the
//! modeled enclave trace is emitted canonically by the caller
//! (block-granular stash sweeps whose expansion equals the scalar
//! reference's per-slot sequence), so these functions take plain slices,
//! not [`TrackedBuf`]s.
//!
//! [`TrackedBuf`]: olive_memsim::TrackedBuf

use crate::isa::{isa, Isa};

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
// ISA monomorphizations + dispatch
// ---------------------------------------------------------------------------

macro_rules! kernel_monos {
    ($body:ident, $portable:ident, $avx2:ident, $avx512:ident,
     fn($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        /// Portable monomorphization of the scan body.
        fn $portable($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }

        /// AVX2 monomorphization (256-bit compares + mask selects).
        ///
        /// # Safety
        ///
        /// Caller must have verified AVX2 support.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }

        /// AVX-512 monomorphization (`vplzcntd`, wide mask compares).
        ///
        /// # Safety
        ///
        /// Caller must have verified AVX-512F support.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $avx512($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }
    };
}

kernel_monos!(
    key_scan_body,
    key_scan_portable,
    key_scan_avx2,
    key_scan_avx512,
    fn(meta: &[u64], key: u32) -> (bool, usize)
);
kernel_monos!(
    collect_free_body,
    collect_free_portable,
    collect_free_avx2,
    collect_free_avx512,
    fn(meta: &[u64], invalid_key: u32, out: &mut [u32]) -> usize
);
kernel_monos!(
    eviction_depths_body,
    eviction_depths_portable,
    eviction_depths_avx2,
    eviction_depths_avx512,
    fn(meta: &[u64], invalid_key: u32, leaf: u32, levels: u32, depth: &mut [i32]) -> ()
);
kernel_monos!(
    pick_eligible_body,
    pick_eligible_portable,
    pick_eligible_avx2,
    pick_eligible_avx512,
    fn(depth: &[i32], level: i32, out: &mut [u32]) -> usize
);

macro_rules! isa_dispatch {
    ($portable:ident, $avx2:ident, $avx512:ident, ($($arg:expr),*)) => {
        match isa() {
            Isa::Portable => $portable($($arg),*),
            // SAFETY: the wider monomorphizations run only after feature
            // detection; the bodies themselves are safe code.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { $avx2($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { $avx512($($arg),*) },
        }
    };
}

/// `(found, slot)` of the slot whose meta key equals `key`, at the
/// detected ISA width.
#[inline]
pub fn key_scan(meta: &[u64], key: u32) -> (bool, usize) {
    isa_dispatch!(key_scan_portable, key_scan_avx2, key_scan_avx512, (meta, key))
}

/// Writes the free slots (key `invalid_key`), ascending, into `out` and
/// returns their count, at the detected ISA width.
#[inline]
pub fn collect_free(meta: &[u64], invalid_key: u32, out: &mut [u32]) -> usize {
    isa_dispatch!(
        collect_free_portable,
        collect_free_avx2,
        collect_free_avx512,
        (meta, invalid_key, out)
    )
}

/// Each slot's deepest eviction level on the path to `leaf` (−1 for a
/// free slot) into `depth`, at the detected ISA width.
#[inline]
pub fn eviction_depths(meta: &[u64], invalid_key: u32, leaf: u32, levels: u32, depth: &mut [i32]) {
    isa_dispatch!(
        eviction_depths_portable,
        eviction_depths_avx2,
        eviction_depths_avx512,
        (meta, invalid_key, leaf, levels, depth)
    )
}

/// Writes the first up-to-`out.len() − 1` slots whose depth admits
/// `level` into `out` (the last entry is a sentinel) and returns how many,
/// at the detected ISA width.
#[inline]
pub fn pick_eligible(depth: &[i32], level: i32, out: &mut [u32]) -> usize {
    isa_dispatch!(
        pick_eligible_portable,
        pick_eligible_avx2,
        pick_eligible_avx512,
        (depth, level, out)
    )
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
}
