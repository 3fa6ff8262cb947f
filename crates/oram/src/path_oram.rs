//! PathORAM with oblivious stash operations (ZeroTrace construction).
//!
//! Two access kernels implement the identical abstract machine (see
//! [`crate::kernel`]): the **scalar** reference path drives every stash
//! operation through traced per-slot `o_select` sweeps, the **batched**
//! default emits the canonical trace as block events and runs the
//! decisions as SIMD-friendly scans over a contiguous mirror of the
//! packed `(key << 32) | leaf` meta words. State, outputs, and trace
//! digests are bitwise identical between kernels at every granularity —
//! the differential suites pin this.

use olive_memsim::{Op, StateError, StateReader, StateWriter, Tracer, TrackedBuf};
use olive_oblivious::meta_scan;
use olive_oblivious::primitives::Oblivious;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kernel::OramKernel;
use crate::posmap::{PosMap, PosMapKind, POS_BLOCK_FANOUT};

/// Fixed-width serialization for ORAM block values, so a whole ORAM
/// (tree, stash, position map, path RNG) can be snapshotted into a
/// sealed checkpoint and restored bit-exactly.
pub trait BlockCodec: Sized {
    /// Bytes of one encoded value (the width is fixed per type).
    const ENCODED_LEN: usize;
    /// Append this value's encoding: exactly [`BlockCodec::ENCODED_LEN`]
    /// bytes.
    fn encode_into(&self, w: &mut StateWriter);
    /// Decode one value back.
    fn decode_from(r: &mut StateReader<'_>) -> Result<Self, StateError>;
}

impl BlockCodec for u64 {
    const ENCODED_LEN: usize = 8;
    fn encode_into(&self, w: &mut StateWriter) {
        w.put_u64(*self);
    }
    fn decode_from(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.get_u64()
    }
}

/// Blocks per bucket (the standard Z = 4).
pub const BUCKET_SIZE: usize = 4;

/// Sentinel key marking an empty slot.
pub const INVALID_KEY: u32 = u32::MAX;

#[inline(always)]
fn pack_meta(key: u32, leaf: u32) -> u64 {
    ((key as u64) << 32) | leaf as u64
}

#[inline(always)]
fn meta_key(meta: u64) -> u32 {
    (meta >> 32) as u32
}

#[inline(always)]
fn meta_leaf(meta: u64) -> u32 {
    meta as u32
}

/// Heap index (1-based) of the bucket at `level` on the path to `leaf`
/// in a tree with `leaves` leaves and `levels + 1` levels.
#[inline(always)]
fn path_node_at(leaves: u32, levels: u32, leaf: u32, level: u32) -> u32 {
    (leaves + leaf) >> (levels - level)
}

/// Structured access errors. Inside an enclave an aborting panic is the
/// worst failure mode (it tears down the whole attested round), so the
/// `try_*` entry points surface caller bugs as values; the infallible
/// entry points keep the documented panic contract for code that has
/// already range-checked its keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OramError {
    /// The logical key is outside `0..capacity`.
    KeyOutOfRange {
        /// The offending key.
        key: u32,
        /// The ORAM's capacity.
        capacity: usize,
    },
}

impl core::fmt::Display for OramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OramError::KeyOutOfRange { key, capacity } => {
                write!(f, "key out of range: {key} >= capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for OramError {}

/// ORAM configuration.
#[derive(Clone, Copy, Debug)]
pub struct PathOramConfig {
    /// Number of addressable blocks (logical keys `0..capacity`).
    pub capacity: usize,
    /// Persistent stash limit; the paper fixes 20 (Section 5.5 setup).
    /// Exceeding it during operation is a hard error (probability is
    /// negligible for Z = 4 by the PathORAM analysis).
    pub stash_limit: usize,
    /// Position-map strategy.
    pub posmap: PosMapKind,
    /// Base region id for memory tracing (tree, stash, posmap get
    /// `base`, `base+1`, `base+2`; recursive maps continue upward).
    pub region_base: u32,
}

/// Occupancy / usage counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct OramStats {
    /// Completed accesses.
    pub accesses: u64,
    /// High-water mark of persistent stash occupancy (post-eviction).
    pub max_stash_occupancy: usize,
    /// Valid blocks written back into tree buckets by evictions.
    /// Counted identically by both kernels; **not** serialized (the
    /// checkpoint blob layout predates it), so restored instances
    /// restart it at zero.
    pub evicted_blocks: u64,
}

/// Reusable per-access scratch — the batched kernel's de-amortization:
/// nothing is allocated inside `access`. Host-side bookkeeping only:
/// never serialized, never traced (the canonical trace emission stands
/// in for the scans that read it).
struct AccessScratch {
    /// Contiguous mirror of the stash meta words (kept in sync through
    /// every stash mutation during an access).
    meta: Vec<u64>,
    /// Deepest eligible eviction level per stash slot (−1 = free).
    depth: Vec<i32>,
    /// Ascending free-slot list, consumed front to back.
    free: Vec<u32>,
    /// Per-bucket eviction picks, plus one sentinel slot.
    picks: [u32; BUCKET_SIZE + 1],
}

impl AccessScratch {
    fn with_slots(slots: usize) -> Self {
        AccessScratch {
            meta: vec![0; slots],
            depth: vec![-1; slots],
            free: vec![0; slots],
            picks: [0; BUCKET_SIZE + 1],
        }
    }
}

/// A PathORAM holding `capacity` blocks of type `V`.
///
/// All stash and bucket manipulation is branch-free (`o_select`) and
/// touches a data-independent sequence of addresses; the only variability
/// in the trace is the *uniformly random* path identity, which is exactly
/// PathORAM's statistical-obliviousness guarantee.
pub struct PathOram<V: Oblivious + Default> {
    /// `(2·leaves − 1) · Z` slots of `(meta, value)`, heap-ordered buckets.
    tree: TrackedBuf<(u64, V)>,
    /// Oblivious stash: `stash_limit + Z·(L+1)` slots.
    stash: TrackedBuf<(u64, V)>,
    pub(crate) posmap: PosMap,
    leaves: u32,
    levels: u32,
    config: PathOramConfig,
    rng: SmallRng,
    stats: OramStats,
    kernel: OramKernel,
    scratch: AccessScratch,
}

impl<V: Oblivious + Default> PathOram<V> {
    /// Builds an empty ORAM (every key initially reads `V::default()`).
    pub fn new(config: PathOramConfig, seed: u64) -> Self {
        assert!(config.capacity >= 1);
        assert!((config.capacity as u64) < INVALID_KEY as u64, "capacity too large");
        let leaves = config.capacity.next_power_of_two().max(2) as u32;
        let levels = leaves.trailing_zeros(); // path has levels+1 buckets
        let buckets = 2 * leaves as usize - 1;
        let empty = (pack_meta(INVALID_KEY, 0), V::default());
        let tree = TrackedBuf::new(config.region_base, vec![empty; buckets * BUCKET_SIZE]);
        let path_len = BUCKET_SIZE * (levels as usize + 1);
        let stash =
            TrackedBuf::new(config.region_base + 1, vec![empty; config.stash_limit + path_len]);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x04A7_04A7);
        let posmap = {
            let mut leaf_rng = SmallRng::seed_from_u64(rng.gen());
            PosMap::build(config.posmap, config.capacity, config.region_base + 2, seed, |_| {
                leaf_rng.gen_range(0..leaves)
            })
        };
        let scratch = AccessScratch::with_slots(stash.len());
        PathOram {
            tree,
            stash,
            posmap,
            leaves,
            levels,
            config,
            rng,
            stats: OramStats::default(),
            kernel: OramKernel::Batched,
            scratch,
        }
    }

    /// Number of addressable blocks.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Usage counters.
    pub fn stats(&self) -> OramStats {
        self.stats
    }

    /// Overrides the access kernel for this instance and, recursively,
    /// its position-map ORAMs: how the differential tests reach the
    /// scalar oracle ([`PathOram::new`] always builds the batched kernel).
    pub fn set_kernel(&mut self, kernel: OramKernel) {
        self.kernel = kernel;
        self.posmap.set_kernel(kernel);
    }

    /// Approximate resident bytes of the tree + stash (for EPC accounting).
    pub fn memory_bytes(&self) -> u64 {
        ((self.tree.len() + self.stash.len()) * core::mem::size_of::<(u64, V)>()) as u64
    }

    /// Bytes of the reusable per-access scratch (meta mirror, depth map,
    /// free list, eviction picks), including the recursive position
    /// map's. Allocated once at construction; `access` allocates nothing.
    pub fn scratch_bytes(&self) -> u64 {
        let own = (self.scratch.meta.len() * 8
            + self.scratch.depth.len() * 4
            + self.scratch.free.len() * 4
            + core::mem::size_of_val(&self.scratch.picks)) as u64;
        own + self.posmap.scratch_bytes()
    }

    /// Total resident bytes — tree, stash, position map (recursively,
    /// including inner trees, stashes, and scratch), and this ORAM's
    /// access scratch — the number the EPC working-set model charges.
    pub fn resident_bytes(&self) -> u64 {
        self.memory_bytes() + self.posmap.storage_bytes() + self.scratch_bytes()
    }

    /// Heap index (1-based) of the bucket at `level` on the path to `leaf`.
    #[inline]
    fn path_node(&self, leaf: u32, level: u32) -> u32 {
        path_node_at(self.leaves, self.levels, leaf, level)
    }

    /// Oblivious read: returns the block's value (default if never written).
    pub fn read<TR: Tracer>(&mut self, key: u32, tr: &mut TR) -> V {
        self.access(key, |v| v, tr)
    }

    /// Oblivious write.
    pub fn write<TR: Tracer>(&mut self, key: u32, value: V, tr: &mut TR) {
        self.access(key, move |_| value, tr);
    }

    /// Oblivious read-modify-write: applies `f` to the current value and
    /// stores the result; returns the *old* value. `f` must be branch-free
    /// with respect to secret data and pure (the scalar kernel evaluates
    /// it once per stash slot, the batched kernel once per access).
    pub fn update<TR: Tracer, F: Fn(V) -> V + Copy>(&mut self, key: u32, f: F, tr: &mut TR) -> V {
        self.access(key, f, tr)
    }

    /// Fused read-and-clear — aggregation's drain pattern: one path walk
    /// returns the value and stores `V::default()` back, instead of the
    /// read-walk + write-walk a naive drain would pay. The block stays
    /// resident (zeroed), so the position map and trace shape are
    /// unchanged — `take` is trace- and state-identical to
    /// `update(key, |_| V::default())`.
    pub fn take<TR: Tracer>(&mut self, key: u32, tr: &mut TR) -> V {
        self.access(key, |_| V::default(), tr)
    }

    /// [`PathOram::read`] returning a structured error on caller bugs.
    pub fn try_read<TR: Tracer>(&mut self, key: u32, tr: &mut TR) -> Result<V, OramError> {
        self.try_access(key, |v| v, tr)
    }

    /// [`PathOram::write`] returning a structured error on caller bugs.
    pub fn try_write<TR: Tracer>(
        &mut self,
        key: u32,
        value: V,
        tr: &mut TR,
    ) -> Result<(), OramError> {
        self.try_access(key, move |_| value, tr).map(|_| ())
    }

    /// [`PathOram::update`] returning a structured error on caller bugs.
    pub fn try_update<TR: Tracer, F: Fn(V) -> V + Copy>(
        &mut self,
        key: u32,
        f: F,
        tr: &mut TR,
    ) -> Result<V, OramError> {
        self.try_access(key, f, tr)
    }

    /// [`PathOram::take`] returning a structured error on caller bugs.
    pub fn try_take<TR: Tracer>(&mut self, key: u32, tr: &mut TR) -> Result<V, OramError> {
        self.try_access(key, |_| V::default(), tr)
    }

    /// Kernel dispatch with the documented panic contract ("key out of
    /// range") for the infallible entry points.
    fn access<TR: Tracer, F: Fn(V) -> V + Copy>(&mut self, key: u32, f: F, tr: &mut TR) -> V {
        match self.try_access(key, f, tr) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Range-checks `key`, then runs the full PathORAM access — remap,
    /// read path into stash, scan-update, greedy evict — on the active
    /// kernel. Both kernels leave bitwise-identical state and emit
    /// digest-identical traces.
    fn try_access<TR: Tracer, F: Fn(V) -> V + Copy>(
        &mut self,
        key: u32,
        f: F,
        tr: &mut TR,
    ) -> Result<V, OramError> {
        if key as usize >= self.config.capacity {
            return Err(OramError::KeyOutOfRange { key, capacity: self.config.capacity });
        }
        Ok(match self.kernel {
            OramKernel::Scalar => self.access_scalar(key, f, tr),
            OramKernel::Batched => self.access_batched(key, f, tr),
        })
    }

    /// The scalar reference access: every decision runs as a traced,
    /// branch-free `o_select` sweep over the whole stash.
    fn access_scalar<TR: Tracer, F: Fn(V) -> V + Copy>(
        &mut self,
        key: u32,
        f: F,
        tr: &mut TR,
    ) -> V {
        let new_leaf = self.rng.gen_range(0..self.leaves);
        let leaf = self.posmap.get_and_set(key, new_leaf, tr);
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
                    // Eligible iff this bucket lies on the block's own path.
                    let on_path = valid && self.path_node(meta_leaf(meta), level) == node;
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

    /// The batched access: canonical trace emission (bucket touches +
    /// whole-stash [`Tracer::touch_rw_stripe`] block events, expanding to
    /// the scalar kernel's exact per-slot sequence) with the data
    /// movement on untraced slices, driven by the `meta_scan` kernels
    /// over the contiguous meta mirror.
    ///
    /// State equivalence to the scalar kernel, phase by phase:
    /// * phase 1 only fills stash slots, so the scalar "first free slot"
    ///   insert scan consumes exactly the ascending initial free list;
    /// * phase 2's single `f` application equals the scalar per-slot
    ///   `o_select` sweep because `f` is pure and keys are unique;
    /// * phase 3's "first eligible blocks in stash order" per bucket is
    ///   precisely what the scalar per-slot take-first sweep chooses,
    ///   with eligibility precomputed as a leaf-prefix depth.
    fn access_batched<TR: Tracer, F: Fn(V) -> V + Copy>(
        &mut self,
        key: u32,
        f: F,
        tr: &mut TR,
    ) -> V {
        let new_leaf = self.rng.gen_range(0..self.leaves);
        let leaf = self.posmap.get_and_set(key, new_leaf, tr);
        debug_assert!(leaf < self.leaves, "corrupt position map");
        let empty = (pack_meta(INVALID_KEY, 0), V::default());
        let eb = core::mem::size_of::<(u64, V)>() as u32;
        let (leaves, levels) = (self.leaves, self.levels);
        let (tree_region, stash_region) = (self.tree.region(), self.stash.region());
        let slots = self.stash.len();

        // Split borrows: traced state stays untouched; the kernels see
        // plain slices (tree/stash data) plus the scratch mirrors.
        let tree_data = self.tree.as_mut_slice_untraced();
        let stash_data = self.stash.as_mut_slice_untraced();
        let scratch = &mut self.scratch;
        debug_assert_eq!(scratch.meta.len(), slots);
        for (m, slot) in scratch.meta.iter_mut().zip(stash_data.iter()) {
            *m = slot.0;
        }
        let free_cnt = meta_scan::collect_free(&scratch.meta, INVALID_KEY, &mut scratch.free);
        let mut next_free = 0usize;

        // Phase 1: move the whole path into the stash, each valid block
        // into the next ascending free slot.
        for level in 0..=levels {
            let node = path_node_at(leaves, levels, leaf, level) as usize;
            for z in 0..BUCKET_SIZE {
                let idx = (node - 1) * BUCKET_SIZE + z;
                tr.touch(tree_region, (idx * eb as usize) as u64, eb, Op::Read);
                tr.touch(tree_region, (idx * eb as usize) as u64, eb, Op::Write);
                tr.touch_rw_stripe(stash_region, eb, 0, 1, slots as u64);
                let slot = tree_data[idx];
                tree_data[idx] = empty;
                let valid = meta_key(slot.0) != INVALID_KEY;
                assert!(!valid || next_free < free_cnt, "stash insert failed: no free slot");
                let dst = scratch.free[next_free.min(slots - 1)] as usize;
                stash_data[dst] = <(u64, V)>::o_select(valid, slot, stash_data[dst]);
                scratch.meta[dst] = stash_data[dst].0;
                next_free += valid as usize;
            }
        }

        // Phase 2: one key scan finds the block (free slots hold exactly
        // `empty`, so a miss reads `V::default()` from the insert slot);
        // apply `f`, remap the leaf, and on a first-ever access
        // materialize the block in the next free slot.
        tr.touch_rw_stripe(stash_region, eb, 0, 1, slots as u64);
        tr.touch_rw_stripe(stash_region, eb, 0, 1, slots as u64);
        let (found, hit) = meta_scan::key_scan(&scratch.meta, key);
        assert!(found || next_free < free_cnt, "stash insert failed: no free slot");
        let mask = (found as usize).wrapping_neg();
        let dst = (hit & mask) | (scratch.free[next_free.min(slots - 1)] as usize & !mask);
        let old = V::o_select(found, stash_data[dst].1, V::default());
        stash_data[dst] = (pack_meta(key, new_leaf), f(old));
        scratch.meta[dst] = pack_meta(key, new_leaf);
        next_free += !found as usize;

        // Phase 3: greedy eviction, deepest bucket first.
        meta_scan::eviction_depths(&scratch.meta, INVALID_KEY, leaf, levels, &mut scratch.depth);
        let mut evicted = 0usize;
        for level in (0..=levels).rev() {
            let node = path_node_at(leaves, levels, leaf, level) as usize;
            let base = (node - 1) * BUCKET_SIZE;
            let cnt = meta_scan::pick_eligible(&scratch.depth, level as i32, &mut scratch.picks);
            for z in 0..BUCKET_SIZE {
                tr.touch_rw_stripe(stash_region, eb, 0, 1, slots as u64);
                tr.touch(tree_region, ((base + z) * eb as usize) as u64, eb, Op::Write);
                if z < cnt {
                    let i = scratch.picks[z] as usize;
                    tree_data[base + z] = stash_data[i];
                    stash_data[i] = empty;
                    scratch.meta[i] = empty.0;
                    scratch.depth[i] = -1;
                } else {
                    tree_data[base + z] = empty;
                }
            }
            evicted += cnt;
        }

        self.stats.accesses += 1;
        self.stats.evicted_blocks += evicted as u64;
        let occupancy = (slots - free_cnt) + next_free - evicted;
        debug_assert_eq!(occupancy, self.stash_occupancy(), "occupancy bookkeeping drifted");
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

    /// Current number of occupied stash slots (untraced: diagnostic only).
    pub fn stash_occupancy(&self) -> usize {
        self.stash
            .as_slice_untraced()
            .iter()
            .filter(|(meta, _)| meta_key(*meta) != INVALID_KEY)
            .count()
    }
}

/// Predicted [`PathOram::resident_bytes`] for a not-yet-built ORAM with
/// `capacity` blocks of `elem_bytes`-sized `(meta, value)` slots — the
/// EPC working-set planner sizes ORAM aggregation without constructing
/// one. Mirrors the construction arithmetic exactly (a unit test pins
/// the two together).
pub fn predicted_resident_bytes(
    capacity: usize,
    stash_limit: usize,
    elem_bytes: usize,
    posmap: PosMapKind,
) -> u64 {
    let leaves = capacity.next_power_of_two().max(2);
    let levels = leaves.trailing_zeros() as usize;
    let tree_slots = (2 * leaves - 1) * BUCKET_SIZE;
    let stash_slots = stash_limit + BUCKET_SIZE * (levels + 1);
    let tree_stash = ((tree_slots + stash_slots) * elem_bytes) as u64;
    // Scratch: meta (8 B) + depth (4 B) + free (4 B) per slot + picks.
    let scratch = (stash_slots * 16 + (BUCKET_SIZE + 1) * 4) as u64;
    let posmap_bytes = match posmap {
        PosMapKind::Trusted | PosMapKind::LinearScan => 4 * capacity as u64,
        PosMapKind::Recursive => {
            let blocks = capacity.div_ceil(POS_BLOCK_FANOUT);
            if blocks <= 16 {
                4 * capacity as u64 // built as a linear map below the cutoff
            } else {
                let inner =
                    if blocks <= 256 { PosMapKind::LinearScan } else { PosMapKind::Recursive };
                predicted_resident_bytes(blocks, 40, 8 + 4 * POS_BLOCK_FANOUT, inner)
            }
        }
    };
    tree_stash + scratch + posmap_bytes
}

impl<V: Oblivious + Default + BlockCodec> PathOram<V> {
    /// Serializes the complete ORAM state — tree, stash, position map,
    /// path RNG, and counters — for a sealed checkpoint. Loading the
    /// blob into a freshly built ORAM of the *same configuration*
    /// reproduces the snapshotted instance exactly: every subsequent
    /// access returns the same value and emits the same trace.
    ///
    /// The blob layout is **version-stable across the fast-path
    /// rewrite**: both kernels produce bitwise-identical state, the
    /// batched kernel's scratch is never serialized, and
    /// [`OramStats::evicted_blocks`] is deliberately excluded — so a
    /// round checkpointed by the pre-fast-path seed restores bitwise
    /// (`checkpoint_blob_layout_is_stable_across_versions` pins this
    /// against committed v0 fixture blobs).
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = StateWriter::with_capacity(self.state_len());
        self.save_into(&mut w);
        w.into_bytes()
    }

    /// Bytes [`PathOram::save_state`] writes: the geometry, every tree and
    /// stash slot, the position map, the path RNG and two counters.
    pub fn state_len(&self) -> usize {
        let slots = (self.tree.len() + self.stash.len()) * (8 + V::ENCODED_LEN);
        8 + 4 + 4 + 2 * 8 + slots + self.posmap.saved_len() + 4 * 8 + 8 + 8
    }

    /// Restores state captured by [`PathOram::save_state`] into this
    /// instance. `self` must have been built with the same
    /// configuration (capacity, stash limit, position-map strategy);
    /// a blob from a differently shaped ORAM fails with
    /// [`StateError::Mismatch`]. Restoration is untraced: unsealing a
    /// checkpoint is bulk I/O outside the adversary-observed window.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        self.load_from(&mut r)?;
        r.expect_end()
    }

    pub(crate) fn save_into(&self, w: &mut StateWriter) {
        w.put_usize(self.config.capacity);
        w.put_u32(self.leaves);
        w.put_u32(self.levels);
        for buf in [&self.tree, &self.stash] {
            w.put_usize(buf.len());
            for (meta, value) in buf.as_slice_untraced() {
                w.put_u64(*meta);
                value.encode_into(w);
            }
        }
        self.posmap.save_into(w);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_u64(self.stats.accesses);
        w.put_usize(self.stats.max_stash_occupancy);
    }

    pub(crate) fn load_from(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        if r.get_usize()? != self.config.capacity
            || r.get_u32()? != self.leaves
            || r.get_u32()? != self.levels
        {
            return Err(StateError::Mismatch);
        }
        for buf in [&mut self.tree, &mut self.stash] {
            if r.get_usize()? != buf.len() {
                return Err(StateError::Mismatch);
            }
            for slot in buf.as_mut_slice_untraced() {
                *slot = (r.get_u64()?, V::decode_from(r)?);
            }
        }
        self.posmap.load_from(r)?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64()?;
        }
        self.rng = SmallRng::from_state(rng_state);
        self.stats.accesses = r.get_u64()?;
        self.stats.max_stash_occupancy = r.get_usize()?;
        self.stats.evicted_blocks = 0; // not serialized; restart deterministic
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};
    use std::collections::HashMap;

    fn oram(capacity: usize, posmap: PosMapKind, seed: u64) -> PathOram<u64> {
        PathOram::new(PathOramConfig { capacity, stash_limit: 20, posmap, region_base: 10 }, seed)
    }

    /// Basic read/write/update semantics, sharing one constructed ORAM
    /// (construction dominates tiny tests; one instance covers all three
    /// behaviors without loss of coverage).
    #[test]
    fn basic_ops_share_one_oram() {
        let mut o = oram(16, PosMapKind::LinearScan, 1);
        for k in 0..16 {
            assert_eq!(o.read(k, &mut NullTracer), 0, "unwritten keys read default");
        }
        o.write(5, 555, &mut NullTracer);
        o.write(7, 777, &mut NullTracer);
        assert_eq!(o.read(5, &mut NullTracer), 555);
        assert_eq!(o.read(7, &mut NullTracer), 777);
        assert_eq!(o.read(6, &mut NullTracer), 0);
        let old = o.update(5, |v| v + 5, &mut NullTracer);
        assert_eq!(old, 555, "update returns the pre-image");
        assert_eq!(o.read(5, &mut NullTracer), 560, "update applies f");
        let taken = o.take(5, &mut NullTracer);
        assert_eq!(taken, 560, "take returns the pre-image");
        assert_eq!(o.read(5, &mut NullTracer), 0, "take clears the block");
    }

    /// The canonical model test: random ops vs a HashMap, across all
    /// position-map strategies.
    #[test]
    fn matches_reference_model() {
        for posmap in [PosMapKind::Trusted, PosMapKind::LinearScan, PosMapKind::Recursive] {
            let capacity = 64;
            let mut o = oram(capacity, posmap, 42);
            let mut model: HashMap<u32, u64> = HashMap::new();
            let mut rng = SmallRng::seed_from_u64(7);
            for step in 0..200 {
                let key = rng.gen_range(0..capacity as u32);
                if rng.gen_bool(0.5) {
                    let v = rng.gen::<u64>() >> 1;
                    o.write(key, v, &mut NullTracer);
                    model.insert(key, v);
                } else {
                    let got = o.read(key, &mut NullTracer);
                    let want = model.get(&key).copied().unwrap_or(0);
                    assert_eq!(got, want, "{posmap:?} step {step} key {key}");
                }
            }
        }
    }

    /// The tentpole invariant at unit scope: both kernels, driven with
    /// identical operations, produce bitwise-identical values, traces
    /// (every granularity), stats, and serialized state — across posmap
    /// kinds and capacities including 1 and non-powers-of-two. (The
    /// integration proptest fuzzes the same property.)
    #[test]
    fn kernels_agree_bitwise_in_state_trace_and_output() {
        for posmap in [PosMapKind::Trusted, PosMapKind::LinearScan, PosMapKind::Recursive] {
            for capacity in [1usize, 5, 64, 300] {
                let cfg = PathOramConfig { capacity, stash_limit: 40, posmap, region_base: 10 };
                let mut a = PathOram::<u64>::new(cfg, 99);
                a.set_kernel(OramKernel::Scalar);
                let mut b = PathOram::<u64>::new(cfg, 99);
                b.set_kernel(OramKernel::Batched);
                for granularity in [Granularity::Element, Granularity::Cacheline] {
                    let mut tra = RecordingTracer::new(granularity);
                    let mut trb = RecordingTracer::new(granularity);
                    let mut rng = SmallRng::seed_from_u64(13);
                    for step in 0..60 {
                        let key = rng.gen_range(0..capacity as u32);
                        let (va, vb) = match step % 3 {
                            0 => {
                                let v = rng.gen::<u64>();
                                a.write(key, v, &mut tra);
                                b.write(key, v, &mut trb);
                                continue;
                            }
                            1 => (
                                a.update(key, |v| v ^ 0x5A, &mut tra),
                                b.update(key, |v| v ^ 0x5A, &mut trb),
                            ),
                            _ => (a.take(key, &mut tra), b.take(key, &mut trb)),
                        };
                        assert_eq!(va, vb, "{posmap:?} cap {capacity} step {step}");
                    }
                    assert_eq!(
                        tra.digest(),
                        trb.digest(),
                        "{posmap:?} cap {capacity} {granularity:?} trace divergence"
                    );
                }
                assert_eq!(a.stats().accesses, b.stats().accesses);
                assert_eq!(a.stats().max_stash_occupancy, b.stats().max_stash_occupancy);
                assert_eq!(a.stats().evicted_blocks, b.stats().evicted_blocks);
                assert!(a.stats().evicted_blocks > 0, "evictions must be counted");
                assert_eq!(
                    a.save_state(),
                    b.save_state(),
                    "{posmap:?} cap {capacity} serialized state divergence"
                );
            }
        }
    }

    #[test]
    fn stash_stays_bounded_under_load() {
        let mut o = oram(128, PosMapKind::Trusted, 9);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..800 {
            let key = rng.gen_range(0..128u32);
            o.write(key, key as u64, &mut NullTracer);
        }
        // The access() assertion already enforces ≤ 20; record the margin.
        assert!(o.stats().max_stash_occupancy <= 20);
        assert_eq!(o.stats().accesses, 800);
    }

    /// The aggregation workload (accumulate every cell, then drain every
    /// cell with `take`) must respect the paper's stash bound — the
    /// read-and-clear regression the fast path is specialized for.
    #[test]
    fn stash_stays_bounded_under_read_and_clear() {
        let mut o = oram(256, PosMapKind::Recursive, 5);
        for round in 0..3 {
            for k in 0..256u32 {
                o.update(k, move |v| v + 1 + round, &mut NullTracer);
            }
            for k in 0..256u32 {
                assert_eq!(o.take(k, &mut NullTracer), 1 + round, "round {round} cell {k}");
            }
        }
        assert!(o.stats().max_stash_occupancy <= 20);
        assert!(o.stats().evicted_blocks > 0);
    }

    #[test]
    fn trace_length_is_key_independent() {
        // Statistical obliviousness: with the path randomness fixed by the
        // seed, the *shape* (length and op counts) of the trace must not
        // depend on which key is touched. (Full trace equality does not
        // hold — the random path identity legitimately differs — so we
        // compare op counts, which would differ for any key-dependent
        // stash/bucket logic.)
        let counts = |key: u32| {
            let mut o = oram(64, PosMapKind::LinearScan, 5);
            let mut tr = RecordingTracer::new(Granularity::Element);
            o.write(key, 1, &mut tr);
            o.read(key, &mut tr);
            (tr.stats().reads, tr.stats().writes)
        };
        let base = counts(0);
        for key in [1u32, 17, 63] {
            assert_eq!(counts(key), base, "key {key}");
        }
    }

    #[test]
    fn paths_are_uniformly_distributed() {
        // The remapped leaf after each access is uniform — bucket the
        // accessed paths of a fixed key and check rough uniformity.
        let mut o = oram(64, PosMapKind::Trusted, 13);
        let mut hist = [0u32; 4];
        for _ in 0..400 {
            o.write(5, 1, &mut NullTracer);
            // Peek the posmap through a read of its trusted variant: the
            // next access path = current leaf; bucket by quartile.
            let leaf = match &o.posmap {
                PosMap::Trusted(v) => v[5],
                _ => unreachable!(),
            };
            hist[(leaf / 16) as usize] += 1;
        }
        for (i, &c) in hist.iter().enumerate() {
            assert!((50..=150).contains(&c), "quartile {i}: {c}/400");
        }
    }

    #[test]
    fn capacity_one_works() {
        let mut o = oram(1, PosMapKind::LinearScan, 21);
        o.write(0, 99, &mut NullTracer);
        assert_eq!(o.read(0, &mut NullTracer), 99);
    }

    #[test]
    #[should_panic(expected = "key out of range")]
    fn out_of_range_key_panics() {
        let mut o = oram(8, PosMapKind::LinearScan, 1);
        o.read(8, &mut NullTracer);
    }

    /// The structured-error contract of the `try_*` entry points: caller
    /// bugs come back as values (an enclave must not abort its attested
    /// round on one), valid keys behave exactly like the panicking API.
    #[test]
    fn try_access_surfaces_structured_error() {
        let mut o = oram(8, PosMapKind::LinearScan, 1);
        assert_eq!(
            o.try_read(8, &mut NullTracer),
            Err(OramError::KeyOutOfRange { key: 8, capacity: 8 })
        );
        assert_eq!(
            o.try_write(1000, 5, &mut NullTracer),
            Err(OramError::KeyOutOfRange { key: 1000, capacity: 8 })
        );
        let e = o.try_update(8, |v| v, &mut NullTracer).unwrap_err();
        assert_eq!(e.to_string(), "key out of range: 8 >= capacity 8");
        assert_eq!(o.try_write(3, 33, &mut NullTracer), Ok(()));
        assert_eq!(o.try_read(3, &mut NullTracer), Ok(33));
        assert_eq!(o.try_take(3, &mut NullTracer), Ok(33));
        assert_eq!(o.try_read(3, &mut NullTracer), Ok(0));
        assert_eq!(o.stats().accesses, 4, "failed accesses must not touch the ORAM");
    }

    #[test]
    fn recursive_posmap_large() {
        // Large enough to force a genuinely recursive position map
        // (512 keys → 32 posmap blocks > the 16-block linear cutoff), but
        // no larger: recursive accesses are the most expensive operation
        // in this suite and this test once dominated its wall-clock.
        let mut o = oram(512, PosMapKind::Recursive, 31);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut model: HashMap<u32, u64> = HashMap::new();
        for _ in 0..96 {
            let key = rng.gen_range(0..512u32);
            let v = rng.gen::<u64>() >> 1;
            o.write(key, v, &mut NullTracer);
            model.insert(key, v);
        }
        // Read back a bounded sample (reads cost the same as writes;
        // verifying every model entry re-pays the whole write pass).
        for (k, v) in model.into_iter().take(32) {
            assert_eq!(o.read(k, &mut NullTracer), v, "key {k}");
        }
    }

    #[test]
    fn state_roundtrip_resumes_exactly() {
        // Snapshot mid-stream, restore into a *fresh* same-config ORAM,
        // then drive both with identical operations: values AND traces
        // must match (the restored RNG continues the same path stream).
        for posmap in [PosMapKind::Trusted, PosMapKind::LinearScan, PosMapKind::Recursive] {
            let capacity = 300; // recursive: 19 blocks > 16 → a real inner ORAM
            let cfg = PathOramConfig { capacity, stash_limit: 40, posmap, region_base: 10 };
            let mut a = PathOram::<u64>::new(cfg, 77);
            let mut rng = SmallRng::seed_from_u64(3);
            for _ in 0..40 {
                let key = rng.gen_range(0..capacity as u32);
                a.write(key, key as u64 + 1000, &mut NullTracer);
            }
            let blob = a.save_state();
            let mut b = PathOram::<u64>::new(cfg, 12345); // seed irrelevant post-load
            b.load_state(&blob).unwrap();
            assert_eq!(b.stats().accesses, a.stats().accesses);
            let mut tra = RecordingTracer::new(Granularity::Element);
            let mut trb = RecordingTracer::new(Granularity::Element);
            for _ in 0..30 {
                let key = rng.gen_range(0..capacity as u32);
                assert_eq!(
                    a.update(key, |v| v ^ 7, &mut tra),
                    b.update(key, |v| v ^ 7, &mut trb),
                    "{posmap:?} value divergence after restore"
                );
            }
            assert_eq!(tra.digest(), trb.digest(), "{posmap:?} trace divergence after restore");
        }
    }

    /// Cross-version checkpoint compatibility: the committed fixture
    /// blobs were generated by the pre-fast-path scalar implementation
    /// (40 deterministic writes, key = 7j mod 300, value = 1000 + 13j).
    /// They must restore into today's ORAM — under either kernel — and
    /// read back every written cell, proving the blob layout stayed
    /// stable across the kernel rewrite.
    #[test]
    fn checkpoint_blob_layout_is_stable_across_versions() {
        let fixtures: [(&[u8], PosMapKind, &str); 3] = [
            (include_bytes!("../fixtures/state_v0_trusted.bin"), PosMapKind::Trusted, "trusted"),
            (include_bytes!("../fixtures/state_v0_linear.bin"), PosMapKind::LinearScan, "linear"),
            (
                include_bytes!("../fixtures/state_v0_recursive.bin"),
                PosMapKind::Recursive,
                "recursive",
            ),
        ];
        for (blob, posmap, name) in fixtures {
            let cfg = PathOramConfig { capacity: 300, stash_limit: 40, posmap, region_base: 10 };
            for kernel in [OramKernel::Scalar, OramKernel::Batched] {
                let mut o = PathOram::<u64>::new(cfg, 1);
                o.set_kernel(kernel);
                o.load_state(blob).unwrap_or_else(|e| {
                    panic!("v0 {name} fixture must restore ({kernel:?}): {e:?}")
                });
                assert_eq!(o.stats().accesses, 40, "{name}");
                for j in 0..40u32 {
                    let got = o.read((j * 7) % 300, &mut NullTracer);
                    assert_eq!(got, 1000 + j as u64 * 13, "{name} {kernel:?} write {j}");
                }
            }
        }
    }

    #[test]
    fn state_blob_shape_mismatch_rejected() {
        let a = oram(64, PosMapKind::LinearScan, 1);
        let blob = a.save_state();
        // Different capacity.
        let mut b = oram(32, PosMapKind::LinearScan, 1);
        assert_eq!(b.load_state(&blob), Err(olive_memsim::StateError::Mismatch));
        // Different posmap strategy.
        let mut c = oram(64, PosMapKind::Trusted, 1);
        assert_eq!(c.load_state(&blob), Err(olive_memsim::StateError::Mismatch));
        // Truncation.
        let mut d = oram(64, PosMapKind::LinearScan, 2);
        assert_eq!(d.load_state(&blob[..blob.len() - 1]), Err(olive_memsim::StateError::Truncated));
    }

    /// The EPC planner's closed-form prediction must equal what a real
    /// instance reports, across posmap strategies and the recursion
    /// cutoffs.
    #[test]
    fn predicted_resident_bytes_matches_instances() {
        for (capacity, posmap) in [
            (1, PosMapKind::LinearScan),
            (64, PosMapKind::Trusted),
            (200, PosMapKind::Recursive), // ≤ 16 blocks → linear fallback
            (300, PosMapKind::Recursive), // linear-scan inner map
            (5000, PosMapKind::Recursive), // recursive inner map
        ] {
            let o = oram(capacity, posmap, 3);
            assert_eq!(
                o.resident_bytes(),
                predicted_resident_bytes(capacity, 20, 16, posmap),
                "capacity {capacity} {posmap:?}"
            );
        }
    }

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
}
