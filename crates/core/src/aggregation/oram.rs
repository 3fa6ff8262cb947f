//! ORAM-based aggregation: the general-purpose comparator (Section 5
//! intro; the PathORAM bars of Figure 9).
//!
//! Initialize an ORAM holding the `d` aggregate slots, apply each incoming
//! cell as an oblivious read-modify-write at its index, then read all `d`
//! slots back. Asymptotically O(nk·log d) ORAM accesses — but each access
//! costs a full path read/write plus oblivious stash scans and (under the
//! SGX model) position-map work, the constant factor that Figure 9 shows
//! dwarfing the task-specific Advanced algorithm.

use olive_fl::SparseGradient;
use olive_memsim::{ParallelTracer, TrackedBuf};
use olive_oram::{PathOram, PathOramConfig, PosMapKind};

use crate::regions::{REGION_G_STAR, REGION_ORAM_BASE};

use super::linear::{average_in_place, read_next_g_cell};
use super::streaming::Aggregator;

/// The ORAM comparator as a streamer: the `d`-slot ORAM (the paper's
/// Section 5.5 configuration: Z = 4, stash limit 20) persists across
/// chunks and each incoming cell is applied as one oblivious
/// read-modify-write, with the `G` offsets continuing from the previous
/// chunk. The unit of work is a single cell and the ORAM's path
/// randomness is a function of the access *sequence* (fixed construction
/// seed), so chunk boundaries change neither the output bits nor the
/// trace.
pub struct OramStreamer {
    /// Boxed: `PathOram` carries its access scratch inline, which would
    /// otherwise dominate the `StreamingAggregator` enum's size.
    oram: Box<PathOram<u64>>,
    /// Global position in the round's logical `G` buffer (cells).
    next_cell: usize,
    n: usize,
    pub(super) d: usize,
}

impl OramStreamer {
    /// Fresh streamer over dimension `d` (builds the ORAM: O(d) setup).
    pub fn init(d: usize, posmap: PosMapKind) -> Self {
        let config = PathOramConfig {
            capacity: d,
            stash_limit: 20, // the paper's Section 5.5 configuration
            posmap,
            region_base: REGION_ORAM_BASE,
        };
        let oram = Box::new(PathOram::<u64>::new(config, 0xA11CE));
        OramStreamer { oram, next_cell: 0, n: 0, d }
    }

    /// Reads back (and clears) the `d` slots, averages, returns the dense
    /// update — and rewinds the streamer to its fresh state *keeping the
    /// ORAM*: slots are zeroed as they are read, so the next round folds
    /// into the same long-lived structure. This is [`Aggregator::finalize`]
    /// for a deployment that pays the O(d) construction once rather than
    /// per round.
    pub fn drain<TR: ParallelTracer>(&mut self, tr: &mut TR) -> Vec<f32> {
        assert!(self.n > 0, "no updates to aggregate");
        let mut gstar = TrackedBuf::<f32>::zeroed(REGION_G_STAR, self.d);
        for j in 0..self.d {
            // Fused read-and-clear: one path walk per slot instead of a
            // read access followed by a zeroing write access.
            let bits = self.oram.take(j as u32, tr);
            gstar.write(j, f32::from_bits(bits as u32), tr);
        }
        average_in_place(&mut gstar, self.n, tr);
        self.next_cell = 0;
        self.n = 0;
        gstar.into_inner()
    }

    /// The underlying ORAM's usage counters (accesses, stash high-water
    /// mark, evicted blocks) — the telemetry plane samples these per
    /// chunk.
    pub fn oram_stats(&self) -> olive_oram::OramStats {
        self.oram.stats()
    }
}

impl Aggregator for OramStreamer {
    /// Contract: every cell index must lie in `0..d` (validated upstream
    /// when updates are decoded). A violation would panic in the ORAM's
    /// access ("key out of range"); the trait has no fallible ingest path.
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], tr: &mut TR) {
        for u in chunk {
            assert_eq!(u.dense_dim, self.d, "update dimension mismatch");
            self.n += 1;
            for (&i, &v) in u.indices.iter().zip(u.values.iter()) {
                read_next_g_cell(&mut self.next_cell, tr);
                // Oblivious fetch-add: values are stored as f32 bits in
                // the u64.
                self.oram.update(
                    i,
                    move |old| (f32::from_bits(old as u32) + v).to_bits() as u64,
                    tr,
                );
            }
        }
    }

    fn finalize<TR: ParallelTracer>(mut self, tr: &mut TR) -> Vec<f32> {
        self.drain(tr)
    }

    fn clients(&self) -> usize {
        self.n
    }

    /// The full ORAM working set — tree, stash, position map
    /// (recursively), and access scratch — per the Section 5.5 memory
    /// model. Independent of the number of clients folded in.
    fn resident_bytes(&self) -> u64 {
        self.oram.resident_bytes()
    }

    /// The dense read-back buffer.
    fn finalize_scratch_bytes(&self) -> u64 {
        self.d as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::*;
    use crate::aggregation::{aggregate, reference_average, AggregatorKind};
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};

    #[test]
    fn matches_reference_all_posmaps() {
        let updates = random_updates(4, 5, 32, 30);
        let expected = reference_average(&updates, 32);
        for posmap in [PosMapKind::LinearScan, PosMapKind::Recursive] {
            let kind = AggregatorKind::PathOram { posmap };
            let got = aggregate(kind, &updates, 32, &mut NullTracer);
            assert_close(&got, &expected, 1e-4);
        }
    }

    #[test]
    fn trace_shape_is_data_independent() {
        // PathORAM is statistically oblivious: exact traces vary with the
        // (public) path randomness, but op counts are fixed by shape.
        let count = |seed: u64| {
            let updates = random_updates(3, 4, 16, seed);
            let mut tr = RecordingTracer::new(Granularity::Element);
            let kind = AggregatorKind::PathOram { posmap: PosMapKind::LinearScan };
            aggregate(kind, &updates, 16, &mut tr);
            (tr.stats().reads, tr.stats().writes)
        };
        assert_eq!(count(1), count(2));
    }

    #[test]
    fn reused_oram_computes_fresh_aggregates() {
        // The read-and-clear read-back must leave the ORAM ready for the
        // next round.
        let updates_a = random_updates(3, 4, 16, 60);
        let updates_b = random_updates(3, 4, 16, 61);
        let mut streamer = OramStreamer::init(16, PosMapKind::LinearScan);
        streamer.ingest(&updates_a, &mut NullTracer);
        let got_a = streamer.drain(&mut NullTracer);
        assert_eq!(streamer.clients(), 0, "drain rewinds the streamer");
        streamer.ingest(&updates_b, &mut NullTracer);
        let got_b = streamer.drain(&mut NullTracer);
        assert_close(&got_a, &reference_average(&updates_a, 16), 1e-4);
        assert_close(&got_b, &reference_average(&updates_b, 16), 1e-4);
    }

    #[test]
    fn repeated_index_accumulates() {
        let updates: Vec<SparseGradient> = (0..3)
            .map(|_| SparseGradient { dense_dim: 8, indices: vec![1], values: vec![2.0] })
            .collect();
        let kind = AggregatorKind::PathOram { posmap: PosMapKind::LinearScan };
        let got = aggregate(kind, &updates, 8, &mut NullTracer);
        assert!((got[1] - 2.0).abs() < 1e-6);
    }
}
