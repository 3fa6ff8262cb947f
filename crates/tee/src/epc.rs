//! EPC accounting: the one live/peak byte counter of the simulation.
//!
//! Every enclave — the coordinator and each shard — owns one
//! [`EpcBudget`]. The round engine's ledger (`olive_core::round`) charges
//! every transient (a staged upload chunk, an aggregator's scratch) and
//! resident (the dense accumulator, buffered cells) allocation to the
//! coordinator's, and the shard transport charges what a shard decrypts
//! to that shard's, so the *peak* — the number the EPC limit is compared
//! against — reflects what is simultaneously live in that enclave, not
//! what a whole round touches in total.

use olive_telemetry::Telemetry;

/// Tracks an enclave's working set against its EPC limit.
///
/// Section 5.3's grouping optimization exists precisely to keep `peak`
/// under `limit`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpcBudget {
    /// Configured usable EPC bytes.
    pub limit: u64,
    /// Currently live bytes.
    pub live: u64,
    /// High-water mark over the accounting epoch.
    pub peak: u64,
}

impl EpcBudget {
    /// Records an allocation. Never fails — exceeding EPC is *legal* (the
    /// OS pages), just slow; callers compare `peak` to `limit` to predict
    /// paging, and [`EpcBudget::would_page`] answers it directly.
    pub fn alloc(&mut self, bytes: u64) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }

    /// Records a release. Saturates, so an unmatched release can never
    /// wrap the live count.
    pub fn free(&mut self, bytes: u64) {
        self.live = self.live.saturating_sub(bytes);
    }

    /// Adjusts the live set for a buffer that grew or shrank in place (an
    /// accumulator that buffers cells across chunks): frees `old` and
    /// allocates `new` as one event, so the peak never counts both
    /// generations of the same buffer.
    pub fn resize(&mut self, old: u64, new: u64) {
        self.free(old);
        self.alloc(new);
    }

    /// [`EpcBudget::alloc`] that also feeds the side-band telemetry
    /// plane: adds `bytes` to the `epc_charge_bytes` counter under
    /// `budget` (e.g. `"coordinator"`, `"shard2"`). The accounting itself
    /// is unchanged — telemetry reads, never perturbs.
    pub fn alloc_counted(&mut self, bytes: u64, telemetry: &Telemetry, budget: &str) {
        telemetry.count("epc_charge_bytes", budget, bytes);
        self.alloc(bytes);
    }

    /// [`EpcBudget::free`] mirrored onto the `epc_free_bytes` counter.
    pub fn free_counted(&mut self, bytes: u64, telemetry: &Telemetry, budget: &str) {
        telemetry.count("epc_free_bytes", budget, bytes);
        self.free(bytes);
    }

    /// [`EpcBudget::resize`] with both sides mirrored onto the counters:
    /// `epc_free_bytes` gains `old`, `epc_charge_bytes` gains `new` — the
    /// same two events a `free_counted` + `alloc_counted` pair emits.
    pub fn resize_counted(&mut self, old: u64, new: u64, telemetry: &Telemetry, budget: &str) {
        telemetry.count("epc_free_bytes", budget, old);
        telemetry.count("epc_charge_bytes", budget, new);
        self.resize(old, new);
    }

    /// True if the recorded peak exceeds the EPC limit, i.e. the kernel
    /// would have had to page encrypted memory (the Figure 10 cliff).
    pub fn would_page(&self) -> bool {
        self.peak > self.limit
    }

    /// Starts a new accounting epoch: rewinds the peak to the live set,
    /// so `peak`/[`EpcBudget::would_page`] answer "since this point"
    /// (per round, via `Enclave::begin_round`) instead of lifetime.
    pub fn begin_epoch(&mut self) {
        self.peak = self.live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_tracks_peak_not_total() {
        let mut ws = EpcBudget::default();
        ws.alloc(100);
        ws.free(100);
        ws.alloc(60);
        assert_eq!(ws.peak, 100, "peak is simultaneous-live, not cumulative");
        assert_eq!(ws.live, 60);
        ws.resize(60, 90);
        assert_eq!(ws.live, 90);
        assert_eq!(ws.peak, 100, "resize must not double-count the old buffer");
        ws.resize(90, 150);
        assert_eq!(ws.peak, 150);
    }

    #[test]
    fn resize_counted_emits_free_then_charge_without_double_peak() {
        let t = Telemetry::to_buffer();
        let mut ws = EpcBudget::default();
        ws.alloc_counted(100, &t, "coordinator");
        ws.resize_counted(100, 140, &t, "coordinator");
        assert_eq!(ws.live, 140);
        assert_eq!(ws.peak, 140, "resize must not count both generations");
        t.flush_stats();
        let out = t.buffer_contents().unwrap();
        assert!(out.contains("\"epc_charge_bytes\""), "charge counter missing: {out}");
        assert!(out.contains("\"epc_free_bytes\""), "free counter missing: {out}");
    }

    #[test]
    fn working_set_epoch_rewinds_peak_to_live() {
        let mut ws = EpcBudget::default();
        ws.alloc(100);
        ws.free(80);
        ws.begin_epoch();
        assert_eq!(ws.peak, 20, "epoch peak starts at the surviving live set");
        ws.alloc(30);
        ws.free(30);
        assert_eq!(ws.peak, 50, "peak now answers per-epoch, not lifetime");
        assert_eq!(ws.live, 20);
    }
}
