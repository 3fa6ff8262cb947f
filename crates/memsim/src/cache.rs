//! Set-associative LRU cache simulator.
//!
//! Section 5.3 of the paper attributes the Advanced algorithm's behaviour at
//! scale to L3-cache hit rates (8 MB on the authors' Xeon E-2174G): Batcher
//! sorting a vector larger than L3 thrashes, which is why the grouped
//! optimization (group size `h`) has a U-shaped cost curve (Figure 11).
//! This simulator replays a trace against a configurable cache to expose
//! exactly that effect independent of the host machine.

use crate::CACHELINE_BYTES;

/// Cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's L3: 8 MB, 16-way, 64 B lines.
    pub fn paper_l3() -> Self {
        CacheConfig { size_bytes: 8 << 20, ways: 16, line_bytes: CACHELINE_BYTES }
    }

    fn num_sets(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize / self.ways
    }
}

/// Hit/miss counters.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses replayed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1]; 0 for an empty trace.
    pub fn miss_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.misses as f64 / self.total() as f64
        }
    }
}

/// A set-associative LRU cache fed with (region, byte offset) accesses.
///
/// Regions are mapped to disjoint address spaces so two buffers never alias.
pub struct CacheSim {
    config: CacheConfig,
    /// `sets[s]` holds up to `ways` tags in LRU order (front = MRU).
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = vec![Vec::with_capacity(config.ways); config.num_sets()];
        CacheSim { config, sets, stats: CacheStats::default() }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Replays one access; returns `true` on hit.
    pub fn access(&mut self, region: u32, byte_off: u64) -> bool {
        // Give each region a disjoint 2^40-byte address window.
        let addr = ((region as u64) << 40) | (byte_off & ((1 << 40) - 1));
        let line = addr / self.config.line_bytes;
        let num_sets = self.sets.len() as u64;
        let set_idx = (line % num_sets) as usize;
        let tag = line / num_sets;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to front (MRU).
            set[..=pos].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.ways {
                set.pop();
            }
            set.insert(0, tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        CacheSim::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::paper_l3().num_sets(), 8192);
        assert_eq!(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 }.num_sets(), 4);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0, 0));
        assert!(c.access(0, 0));
        assert!(c.access(0, 63)); // same line
        assert!(!c.access(0, 64)); // next line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = num_sets * line = 256).
        c.access(0, 0);
        c.access(0, 256);
        c.access(0, 512); // evicts line 0 (LRU)
        assert!(!c.access(0, 0), "line 0 must have been evicted");
        assert!(c.access(0, 512));
    }

    #[test]
    fn lru_order_updated_on_hit() {
        let mut c = tiny();
        c.access(0, 0);
        c.access(0, 256);
        c.access(0, 0); // refresh line 0 → 256 becomes LRU
        c.access(0, 512); // evicts 256
        assert!(c.access(0, 0));
        assert!(!c.access(0, 256));
    }

    #[test]
    fn regions_do_not_alias() {
        let mut c = tiny();
        c.access(0, 0);
        assert!(!c.access(1, 0), "same offset in another region is a distinct line");
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = CacheSim::new(CacheConfig { size_bytes: 4096, ways: 4, line_bytes: 64 });
        for off in (0..4096u64).step_by(64) {
            c.access(0, off);
        }
        c.reset_stats_for_test();
        for off in (0..4096u64).step_by(64) {
            assert!(c.access(0, off));
        }
    }

    impl CacheSim {
        fn reset_stats_for_test(&mut self) {
            self.stats = CacheStats::default();
        }
    }

    #[test]
    fn streaming_larger_than_cache_always_misses() {
        let mut c = tiny();
        let mut all_missed = true;
        for round in 0..3 {
            for off in (0..4096u64).step_by(64) {
                let hit = c.access(0, off);
                if round > 0 {
                    all_missed &= !hit;
                }
            }
        }
        assert!(all_missed, "8x-capacity streaming working set can never hit in LRU");
    }
}
