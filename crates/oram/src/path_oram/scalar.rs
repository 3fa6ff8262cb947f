//! The textbook ZeroTrace access — every stash operation a traced,
//! per-slot `o_select` sweep — kept as the oracle the access of the
//! parent module is held to, in state, outputs and trace. Test builds
//! alone contain it.

use olive_memsim::Tracer;
use olive_oblivious::primitives::Oblivious;
use rand::Rng;

use super::{meta_key, pack_meta, path_node_at, PathOram, BUCKET_SIZE, INVALID_KEY};
use crate::posmap::{PosBlock, PosMap, POS_BLOCK_FANOUT};

impl<V: Oblivious + Default> PathOram<V> {
    /// Heap index (1-based) of the bucket at `level` on the path to `leaf`.
    fn path_node(&self, leaf: u32, level: u32) -> u32 {
        path_node_at(self.leaves, self.levels, leaf, level)
    }

    /// The textbook access: every decision runs as a traced, branch-free
    /// `o_select` sweep over the whole stash. `key` must be in range.
    pub(crate) fn access_scalar<TR: Tracer, F: Fn(V) -> V + Copy>(
        &mut self,
        key: u32,
        f: F,
        tr: &mut TR,
    ) -> V {
        let new_leaf = self.rng.gen_range(0..self.leaves);
        let leaf = get_and_set(&mut self.posmap, key, new_leaf, tr);
        debug_assert!(leaf < self.leaves, "corrupt position map");
        let empty = (pack_meta(INVALID_KEY, 0), V::default());

        // Phase 1: move the whole path into the stash.
        for level in 0..=self.levels {
            let node = self.path_node(leaf, level);
            for z in 0..BUCKET_SIZE {
                let idx = (node as usize - 1) * BUCKET_SIZE + z;
                let slot = self.tree.read(idx, tr);
                self.tree.write(idx, empty, tr);
                self.stash_insert(slot, tr);
            }
        }

        // Phase 2: one oblivious sweep: find the block, apply `f`, remap
        // its leaf; remember whether it existed.
        let mut old = V::default();
        let mut found = false;
        for i in 0..self.stash.len() {
            let (meta, value) = self.stash.read(i, tr);
            let hit = meta_key(meta) == key;
            old = V::o_select(hit, value, old);
            let new_value = V::o_select(hit, f(value), value);
            let new_meta = u64::o_select(hit, pack_meta(key, new_leaf), meta);
            self.stash.write(i, (new_meta, new_value), tr);
            found |= hit;
        }
        // First-ever access: materialize the block (the insert scan runs
        // unconditionally; an already-found block inserts an empty slot).
        let fresh = (
            u64::o_select(found, pack_meta(INVALID_KEY, 0), pack_meta(key, new_leaf)),
            V::o_select(found, V::default(), f(V::default())),
        );
        self.stash_insert(fresh, tr);

        // Phase 3: greedy eviction, deepest bucket first.
        for level in (0..=self.levels).rev() {
            let node = self.path_node(leaf, level);
            for z in 0..BUCKET_SIZE {
                let idx = (node as usize - 1) * BUCKET_SIZE + z;
                let mut chosen = empty;
                let mut chosen_found = false;
                for i in 0..self.stash.len() {
                    let (meta, value) = self.stash.read(i, tr);
                    let valid = meta_key(meta) != INVALID_KEY;
                    // Eligible iff this bucket lies on the block's own path
                    // (the low half of a meta word is the block's leaf).
                    let on_path = valid && self.path_node(meta as u32, level) == node;
                    let take = on_path && !chosen_found;
                    chosen = <(u64, V)>::o_select(take, (meta, value), chosen);
                    self.stash.write(i, <(u64, V)>::o_select(take, empty, (meta, value)), tr);
                    chosen_found |= take;
                }
                self.tree.write(idx, chosen, tr);
                self.stats.evicted_blocks += chosen_found as u64;
            }
        }

        self.stats.accesses += 1;
        let occupancy = self.stash_occupancy();
        self.stats.max_stash_occupancy = self.stats.max_stash_occupancy.max(occupancy);
        assert!(
            occupancy <= self.config.stash_limit,
            "stash overflow: {occupancy} > limit {} after {} accesses",
            self.config.stash_limit,
            self.stats.accesses
        );
        old
    }

    /// Inserts a slot into the first free stash position with a fixed
    /// full-scan trace. Inserting an empty slot is a no-op with the same
    /// trace. Panics if the slot is valid and the stash is full.
    fn stash_insert<TR: Tracer>(&mut self, slot: (u64, V), tr: &mut TR) {
        let valid = meta_key(slot.0) != INVALID_KEY;
        let mut placed = false;
        for i in 0..self.stash.len() {
            let cur = self.stash.read(i, tr);
            let free = meta_key(cur.0) == INVALID_KEY;
            let put = valid && free && !placed;
            self.stash.write(i, <(u64, V)>::o_select(put, slot, cur), tr);
            placed |= put;
        }
        assert!(placed || !valid, "stash insert failed: no free slot");
    }
}

/// [`PosMap::get_and_set`], with a recursive map's inner ORAM on the
/// textbook access too: one fused read-modify-write of the block holding
/// `key`, the slot selected branch-free.
fn get_and_set<TR: Tracer>(posmap: &mut PosMap, key: u32, new_leaf: u32, tr: &mut TR) -> u32 {
    let PosMap::Recursive(oram) = posmap else {
        return posmap.get_and_set(key, new_leaf, tr);
    };
    let slot = key as usize % POS_BLOCK_FANOUT;
    let set = move |mut b: PosBlock| {
        for (j, leaf) in b.0.iter_mut().enumerate() {
            *leaf = u32::o_select(j == slot, new_leaf, *leaf);
        }
        b
    };
    let prev = oram.access_scalar(key / POS_BLOCK_FANOUT as u32, set, tr);
    prev.0.iter().enumerate().fold(0, |old, (j, &leaf)| u32::o_select(j == slot, leaf, old))
}
