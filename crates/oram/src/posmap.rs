//! Position-map strategies for PathORAM under SGX.

use olive_memsim::{StateError, StateReader, StateWriter, Tracer, TrackedBuf};
use olive_oblivious::primitives::Oblivious;
use olive_oblivious::scan::o_scan_update;

use crate::path_oram::BlockCodec;

/// Number of leaf positions packed into one recursive position-map block.
/// 16 × u32 = 64 bytes = one cacheline, matching ZeroTrace's layout.
pub const POS_BLOCK_FANOUT: usize = 16;

/// A position-map block: [`POS_BLOCK_FANOUT`] leaf labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PosBlock(pub [u32; POS_BLOCK_FANOUT]);

impl Default for PosBlock {
    fn default() -> Self {
        PosBlock([0; POS_BLOCK_FANOUT])
    }
}

impl BlockCodec for PosBlock {
    const ENCODED_LEN: usize = 4 * POS_BLOCK_FANOUT;
    fn encode_into(&self, w: &mut StateWriter) {
        for &x in &self.0 {
            w.put_u32(x);
        }
    }
    fn decode_from(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let mut out = [0u32; POS_BLOCK_FANOUT];
        for x in &mut out {
            *x = r.get_u32()?;
        }
        Ok(PosBlock(out))
    }
}

impl Oblivious for PosBlock {
    #[inline(always)]
    fn o_select(flag: bool, x: Self, y: Self) -> Self {
        let mut out = [0u32; POS_BLOCK_FANOUT];
        for (o, (&xi, &yi)) in out.iter_mut().zip(x.0.iter().zip(y.0.iter())) {
            *o = u32::o_select(flag, xi, yi);
        }
        PosBlock(out)
    }
}

/// Which position-map construction to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PosMapKind {
    /// A plain array with direct indexing. This is classic PathORAM's
    /// "client storage" assumption — **not oblivious inside an enclave**
    /// (the index of the touched entry leaks the logical key). Kept for
    /// the ablation benchmark quantifying what the SGX model costs.
    Trusted,
    /// One flat tracked array scanned in full per access with `o_select`
    /// (ZeroTrace's base case). Θ(N) per access.
    LinearScan,
    /// Position map blocks stored in a recursively smaller PathORAM,
    /// bottoming out in a linear-scan map once ≤ 256 entries
    /// (ZeroTrace's deployed configuration).
    Recursive,
}

/// The position map: maps logical key → current leaf label, and assigns a
/// fresh leaf on every access (the PathORAM invariant).
pub(crate) enum PosMap {
    Trusted(Vec<u32>),
    Linear(TrackedBuf<u32>),
    Recursive(Box<crate::path_oram::PathOram<PosBlock>>),
}

impl PosMap {
    /// Builds a position map for `n` keys with initial leaves supplied by
    /// `init_leaf(key)`; `region` namespaces its memory accesses.
    pub(crate) fn build(
        kind: PosMapKind,
        n: usize,
        region: u32,
        seed: u64,
        mut init_leaf: impl FnMut(usize) -> u32,
    ) -> Self {
        match kind {
            PosMapKind::Trusted => PosMap::Trusted((0..n).map(&mut init_leaf).collect()),
            PosMapKind::LinearScan => {
                PosMap::Linear(TrackedBuf::new(region, (0..n).map(&mut init_leaf).collect()))
            }
            PosMapKind::Recursive => {
                let blocks = n.div_ceil(POS_BLOCK_FANOUT);
                if blocks <= 16 {
                    // Small enough: no point recursing below one block row.
                    return PosMap::Linear(TrackedBuf::new(
                        region,
                        (0..n).map(&mut init_leaf).collect(),
                    ));
                }
                let cfg = crate::path_oram::PathOramConfig {
                    capacity: blocks,
                    stash_limit: 40,
                    posmap: if blocks <= 256 {
                        PosMapKind::LinearScan
                    } else {
                        PosMapKind::Recursive
                    },
                    region_base: region,
                };
                let mut oram = crate::path_oram::PathOram::<PosBlock>::new(cfg, seed ^ 0x9060_3AD0);
                // Populate blocks; interior ORAM writes are data-independent
                // here (sequential keys), so NullTracer is fine during init.
                let mut tr = olive_memsim::NullTracer;
                for b in 0..blocks {
                    let mut pb = PosBlock::default();
                    for j in 0..POS_BLOCK_FANOUT {
                        let key = b * POS_BLOCK_FANOUT + j;
                        if key < n {
                            pb.0[j] = init_leaf(key);
                        }
                    }
                    oram.write(b as u32, pb, &mut tr);
                }
                PosMap::Recursive(Box::new(oram))
            }
        }
    }

    /// Serializes the map for a sealed checkpoint (tag + payload;
    /// recursive maps recurse into the inner ORAM's serializer).
    pub(crate) fn save_into(&self, w: &mut StateWriter) {
        match self {
            PosMap::Trusted(v) => {
                w.put_u8(0);
                w.put_u32s(v);
            }
            PosMap::Linear(buf) => {
                w.put_u8(1);
                w.put_u32s(buf.as_slice_untraced());
            }
            PosMap::Recursive(oram) => {
                w.put_u8(2);
                oram.save_into(w);
            }
        }
    }

    /// Bytes [`PosMap::save_into`] writes.
    pub(crate) fn saved_len(&self) -> usize {
        match self {
            PosMap::Trusted(v) => 1 + 8 + 4 * v.len(),
            PosMap::Linear(buf) => 1 + 8 + 4 * buf.len(),
            PosMap::Recursive(oram) => 1 + oram.state_len(),
        }
    }

    /// Restores state captured by [`PosMap::save_into`]. The map must
    /// already be of the same variant and size (same build config).
    pub(crate) fn load_from(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let tag = r.get_u8()?;
        match (tag, self) {
            (0, PosMap::Trusted(v)) => {
                let leaves = r.get_u32s()?;
                if leaves.len() != v.len() {
                    return Err(StateError::Mismatch);
                }
                *v = leaves;
                Ok(())
            }
            (1, PosMap::Linear(buf)) => {
                let leaves = r.get_u32s()?;
                if leaves.len() != buf.len() {
                    return Err(StateError::Mismatch);
                }
                buf.as_mut_slice_untraced().copy_from_slice(&leaves);
                Ok(())
            }
            (2, PosMap::Recursive(oram)) => oram.load_from(r),
            (0..=2, _) => Err(StateError::Mismatch),
            _ => Err(StateError::Corrupt),
        }
    }

    /// Returns the current leaf of `key` and re-assigns it to `new_leaf`.
    pub(crate) fn get_and_set<TR: Tracer>(&mut self, key: u32, new_leaf: u32, tr: &mut TR) -> u32 {
        match self {
            PosMap::Trusted(v) => {
                let old = v[key as usize];
                v[key as usize] = new_leaf;
                old
            }
            PosMap::Linear(buf) => {
                // One oblivious read-modify-write sweep: every entry is
                // read and rewritten; the matching one swaps in new_leaf.
                let mut old = 0u32;
                let target = key as usize;
                o_scan_update(
                    buf,
                    |i, v| {
                        let hit = i == target;
                        old = u32::o_select(hit, v, old);
                        u32::o_select(hit, new_leaf, v)
                    },
                    tr,
                );
                old
            }
            PosMap::Recursive(oram) => {
                let block_key = key / POS_BLOCK_FANOUT as u32;
                let slot = (key % POS_BLOCK_FANOUT as u32) as usize;
                // One fused read-modify-write walk instead of the seed's
                // read access + write access pair: the block lives in
                // registers/enclave-local stack for the duration of the
                // access (a one-entry deterministic leaf cache), halving
                // the inner ORAM cost at every recursion level. The trace
                // is the inner ORAM's canonical single-access trace; the
                // in-block select below is branch-free and untraced, the
                // same as the seed's post-read select.
                let prev = oram.update(
                    block_key,
                    move |mut b: PosBlock| {
                        for j in 0..POS_BLOCK_FANOUT {
                            b.0[j] = u32::o_select(j == slot, new_leaf, b.0[j]);
                        }
                        b
                    },
                    tr,
                );
                let mut old = 0u32;
                for j in 0..POS_BLOCK_FANOUT {
                    old = u32::o_select(j == slot, prev.0[j], old);
                }
                old
            }
        }
    }

    /// Resident storage bytes of the map itself — flat leaf arrays, or
    /// the inner ORAM's tree + stash + its own map, recursively.
    pub(crate) fn storage_bytes(&self) -> u64 {
        match self {
            PosMap::Trusted(v) => (v.len() * 4) as u64,
            PosMap::Linear(buf) => (buf.len() * 4) as u64,
            PosMap::Recursive(oram) => oram.memory_bytes() + oram.posmap.storage_bytes(),
        }
    }

    /// Per-access scratch bytes held by recursive inner ORAMs (flat maps
    /// scan in place and hold none).
    pub(crate) fn scratch_bytes(&self) -> u64 {
        match self {
            PosMap::Trusted(_) | PosMap::Linear(_) => 0,
            PosMap::Recursive(oram) => oram.scratch_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer};

    #[test]
    fn linear_map_get_and_set() {
        let mut pm = PosMap::build(PosMapKind::LinearScan, 8, 0, 1, |i| i as u32 * 10);
        assert_eq!(pm.get_and_set(3, 99, &mut NullTracer), 30);
        assert_eq!(pm.get_and_set(3, 7, &mut NullTracer), 99);
        assert_eq!(pm.get_and_set(0, 1, &mut NullTracer), 0);
    }

    #[test]
    fn trusted_map_get_and_set() {
        let mut pm = PosMap::build(PosMapKind::Trusted, 4, 0, 1, |i| i as u32);
        assert_eq!(pm.get_and_set(2, 50, &mut NullTracer), 2);
        assert_eq!(pm.get_and_set(2, 60, &mut NullTracer), 50);
    }

    #[test]
    fn recursive_map_get_and_set() {
        let n = 520; // 33 blocks → recursive with linear base
        let mut pm = PosMap::build(PosMapKind::Recursive, n, 0, 2, |i| i as u32 ^ 0x5A5A);
        for key in [0u32, 15, 16, 519, 500] {
            let old = pm.get_and_set(key, key + 7, &mut NullTracer);
            assert_eq!(old, key ^ 0x5A5A, "initial leaf of {key}");
            let again = pm.get_and_set(key, 0, &mut NullTracer);
            assert_eq!(again, key + 7, "updated leaf of {key}");
        }
    }

    #[test]
    fn linear_scan_is_oblivious_in_key() {
        let keys = vec![0u32, 3, 7, 11];
        assert_oblivious(Granularity::Element, &keys, |&key, tr| {
            let mut pm = PosMap::build(PosMapKind::LinearScan, 12, 1, 3, |i| i as u32);
            pm.get_and_set(key, 42, tr);
        });
    }

    #[test]
    fn pos_block_select() {
        let a = PosBlock([1; POS_BLOCK_FANOUT]);
        let b = PosBlock([2; POS_BLOCK_FANOUT]);
        assert_eq!(PosBlock::o_select(true, a, b), a);
        assert_eq!(PosBlock::o_select(false, a, b), b);
    }
}
