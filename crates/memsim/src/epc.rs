//! EPC paging model and the SGX cost estimator.
//!
//! SGX's Enclave Page Cache is ~96 MB user-usable on the paper's hardware;
//! touching a page beyond that triggers an encrypted-paging fault costing
//! tens of microseconds (Section 2.2, citing the VAULT measurements). This
//! drives the Figure 10 cliff — at `N = 10^4` clients the Advanced sort
//! vector is ~122 MB > EPC and Batcher's long-stride exchanges page-thrash —
//! and the Figure 11 recovery via grouping.

use std::collections::HashMap;

use crate::{CacheConfig, CacheSim, PAGE_BYTES};

/// EPC paging counters.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpcStats {
    /// Page accesses resident in EPC.
    pub resident: u64,
    /// Page faults (page had to be swapped in with decrypt+integrity check).
    pub faults: u64,
}

/// LRU model of the EPC at page granularity.
pub struct EpcSim {
    capacity_pages: usize,
    /// page id -> LRU stamp.
    resident: HashMap<u64, u64>,
    clock: u64,
    stats: EpcStats,
}

impl EpcSim {
    /// EPC with a byte capacity (the paper's machine: 96 MB usable).
    pub fn new(capacity_bytes: u64) -> Self {
        EpcSim {
            capacity_pages: (capacity_bytes / PAGE_BYTES) as usize,
            resident: HashMap::new(),
            clock: 0,
            stats: EpcStats::default(),
        }
    }

    /// The paper's 96 MB user-usable EPC.
    pub fn paper_epc() -> Self {
        Self::new(96 << 20)
    }

    /// Replays one access; returns `true` if it faulted.
    pub fn access(&mut self, region: u32, byte_off: u64) -> bool {
        let addr = ((region as u64) << 40) | (byte_off & ((1 << 40) - 1));
        let page = addr / PAGE_BYTES;
        self.clock += 1;
        if self.resident.contains_key(&page) {
            self.resident.insert(page, self.clock);
            self.stats.resident += 1;
            false
        } else {
            if self.resident.len() >= self.capacity_pages {
                // Evict the least recently used page. Linear scan is fine:
                // eviction only happens once per fault and the map is bounded
                // by the EPC page count.
                if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &stamp)| stamp) {
                    self.resident.remove(&victim);
                }
            }
            self.resident.insert(page, self.clock);
            self.stats.faults += 1;
            true
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EpcStats {
        self.stats
    }
}

/// Latency constants (nanoseconds) for converting hit/miss/fault counts into
/// an estimated execution-time contribution.
///
/// Values follow the literature the paper cites: an L3 hit ~12 ns, a DRAM
/// access through SGX's memory encryption engine ~100 ns, an EPC page fault
/// (EWB + eviction + integrity verification) ~40 µs.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Cost of an access served by cache (ns).
    pub cache_hit_ns: f64,
    /// Cost of an access that misses cache but stays in EPC (ns).
    pub dram_mee_ns: f64,
    /// Cost of an EPC page fault (ns).
    pub epc_fault_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { cache_hit_ns: 12.0, dram_mee_ns: 100.0, epc_fault_ns: 40_000.0 }
    }
}

/// Combined L3 + EPC replay producing a time estimate.
pub struct SgxCostEstimate {
    cache: CacheSim,
    epc: EpcSim,
    model: CostModel,
}

impl SgxCostEstimate {
    /// Estimator with the paper's machine constants.
    pub fn paper_machine() -> Self {
        SgxCostEstimate {
            cache: CacheSim::new(CacheConfig::paper_l3()),
            epc: EpcSim::paper_epc(),
            model: CostModel::default(),
        }
    }

    /// Estimator with custom geometry/model.
    pub fn new(cache: CacheConfig, epc_bytes: u64, model: CostModel) -> Self {
        SgxCostEstimate { cache: CacheSim::new(cache), epc: EpcSim::new(epc_bytes), model }
    }

    /// Replays one access through cache then (on miss) EPC.
    pub fn access(&mut self, region: u32, byte_off: u64) {
        let hit = self.cache.access(region, byte_off);
        if !hit {
            self.epc.access(region, byte_off);
        }
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.cache.stats()
    }

    /// EPC counters.
    pub fn epc_stats(&self) -> EpcStats {
        self.epc.stats()
    }

    /// Estimated memory-system time in nanoseconds.
    pub fn estimated_ns(&self) -> f64 {
        let c = self.cache.stats();
        let e = self.epc.stats();
        c.hits as f64 * self.model.cache_hit_ns
            + e.resident as f64 * self.model.dram_mee_ns
            + e.faults as f64 * self.model.epc_fault_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_working_set_never_faults_after_load() {
        let mut epc = EpcSim::new(16 * PAGE_BYTES);
        for _ in 0..4 {
            for p in 0..8u64 {
                epc.access(0, p * PAGE_BYTES);
            }
        }
        let s = epc.stats();
        assert_eq!(s.faults, 8, "one cold fault per page");
        assert_eq!(s.resident, 24);
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut epc = EpcSim::new(4 * PAGE_BYTES);
        // Cycle through 8 pages, LRU: every access faults.
        for _ in 0..3 {
            for p in 0..8u64 {
                epc.access(0, p * PAGE_BYTES);
            }
        }
        assert_eq!(epc.stats().faults, 24);
        assert_eq!(epc.stats().resident, 0);
    }

    #[test]
    fn lru_keeps_hot_page() {
        let mut epc = EpcSim::new(2 * PAGE_BYTES);
        epc.access(0, 0); // page 0
        epc.access(0, PAGE_BYTES); // page 1
        epc.access(0, 0); // refresh page 0
        epc.access(0, 2 * PAGE_BYTES); // evicts page 1
        assert!(!epc.access(0, 0), "page 0 must be resident");
        assert!(epc.access(0, PAGE_BYTES), "page 1 must have been evicted");
    }

    #[test]
    fn cost_estimate_orders_workloads_correctly() {
        // A streaming workload over 2x EPC must cost more than the same
        // number of accesses within EPC.
        let run = |pages: u64| {
            let mut est = SgxCostEstimate::new(
                CacheConfig { size_bytes: 4096, ways: 4, line_bytes: 64 },
                8 * PAGE_BYTES,
                CostModel::default(),
            );
            for i in 0..4096u64 {
                est.access(0, (i % pages) * PAGE_BYTES);
            }
            est.estimated_ns()
        };
        assert!(run(16) > run(4) * 2.0);
    }

    #[test]
    fn paper_machine_constants() {
        let est = SgxCostEstimate::paper_machine();
        assert_eq!(est.cache.config().size_bytes, 8 << 20);
    }
}
