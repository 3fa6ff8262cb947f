//! The linear algorithm (Algorithm 5): plain FL aggregation.
//!
//! For **dense** gradients the access pattern is a fixed interleave of a
//! linear scan over `G` and in-order updates of `G*` — fully oblivious
//! (Proposition 3.1). For **sparsified** gradients each cell update
//! touches `G*[index]`, a one-to-one function of the secret index sequence
//! — statistical distance 1, not oblivious (Proposition 3.2). Both are
//! implemented here; the sparse variant is the attack surface.

use olive_fl::SparseGradient;
use olive_memsim::{Op, ParallelTracer, Tracer, TrackedBuf};

use crate::regions::{REGION_G, REGION_G_STAR};

use super::streaming::Aggregator;

/// Averages (and optionally later perturbs) `G*` by a linear pass —
/// Algorithm 5 lines 7–9, fully oblivious.
pub(crate) fn average_in_place<TR: Tracer>(gstar: &mut TrackedBuf<f32>, n: usize, tr: &mut TR) {
    let inv = 1.0 / n as f32;
    for i in 0..gstar.len() {
        let v = gstar.read(i, tr);
        gstar.write(i, v * inv, tr);
    }
}

/// The traced read of the next cell of the round's logical `G` buffer —
/// `next_cell` is the global running position, continuing across chunks —
/// shared by the per-cell streamers (Linear, Baseline, PathORAM).
pub(crate) fn read_next_g_cell<TR: Tracer>(next_cell: &mut usize, tr: &mut TR) {
    /// Bytes of one packed `(index, value)` cell in `G`.
    const CELL_BYTES: usize = core::mem::size_of::<u64>();
    tr.touch(REGION_G, (*next_cell * CELL_BYTES) as u64, CELL_BYTES as u32, Op::Read);
    *next_cell += 1;
}

/// Dense-gradient aggregation: each client sends all `d` values in index
/// order. `dense` is row-major `(n, d)`.
pub fn aggregate_dense_linear<TR: Tracer>(
    dense: &[f32],
    d: usize,
    n: usize,
    tr: &mut TR,
) -> Vec<f32> {
    assert_eq!(dense.len(), n * d);
    let g = TrackedBuf::new(REGION_G, dense.to_vec());
    let mut gstar = TrackedBuf::<f32>::zeroed(REGION_G_STAR, d);
    for i in 0..n {
        for j in 0..d {
            let v = g.read(i * d + j, tr);
            let cur = gstar.read(j, tr);
            gstar.write(j, cur + v, tr);
        }
    }
    average_in_place(&mut gstar, n, tr);
    gstar.into_inner()
}

/// Sparse-gradient aggregation — **the leaky path**: the `G*` accesses
/// reveal every transmitted index to the trace.
///
/// The dense accumulator `G*` persists across chunks and each incoming
/// cell is applied with the `G` offsets continuing from the previous
/// chunk. Because the unit of work is a single cell, chunk boundaries
/// change neither the output bits nor the trace — the one-shot
/// [`aggregate`](super::aggregate) *is* the single-chunk special case.
pub struct LinearStreamer {
    gstar: TrackedBuf<f32>,
    /// Global position in the round's logical `G` buffer (cells).
    next_cell: usize,
    n: usize,
    pub(super) d: usize,
}

impl LinearStreamer {
    /// Fresh streamer over dimension `d`.
    pub fn init(d: usize) -> Self {
        LinearStreamer { gstar: TrackedBuf::zeroed(REGION_G_STAR, d), next_cell: 0, n: 0, d }
    }
}

impl Aggregator for LinearStreamer {
    /// One cell at a time: a traced `G` read at the global running
    /// offset, then the secret-indexed `G*` read-modify-write (the
    /// Proposition 3.2 leak).
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], tr: &mut TR) {
        for u in chunk {
            assert_eq!(u.dense_dim, self.d, "update dimension mismatch");
            self.n += 1;
            for (&i, &v) in u.indices.iter().zip(u.values.iter()) {
                read_next_g_cell(&mut self.next_cell, tr);
                let cur = self.gstar.read(i as usize, tr);
                self.gstar.write(i as usize, cur + v, tr);
            }
        }
    }

    fn finalize<TR: ParallelTracer>(mut self, tr: &mut TR) -> Vec<f32> {
        assert!(self.n > 0, "no updates to aggregate");
        average_in_place(&mut self.gstar, self.n, tr);
        self.gstar.into_inner()
    }

    fn clients(&self) -> usize {
        self.n
    }

    /// The dense accumulator.
    fn resident_bytes(&self) -> u64 {
        self.d as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::*;
    use crate::aggregation::{aggregate, reference_average, AggregatorKind};
    use olive_memsim::{assert_not_oblivious, assert_oblivious, Granularity, NullTracer};

    const LINEAR: AggregatorKind = AggregatorKind::NonOblivious;

    #[test]
    fn dense_linear_correct() {
        // Two clients, d = 3.
        let dense = vec![1.0f32, 2.0, 3.0, 3.0, 2.0, 1.0];
        let out = aggregate_dense_linear(&dense, 3, 2, &mut NullTracer);
        assert_eq!(out, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn sparse_linear_correct() {
        let updates = random_updates(5, 4, 32, 3);
        let got = aggregate(LINEAR, &updates, 32, &mut NullTracer);
        assert_close(&got, &reference_average(&updates, 32), 1e-5);
    }

    /// Proposition 3.1 as a test: the linear algorithm is fully oblivious
    /// for dense gradients.
    #[test]
    fn prop_3_1_dense_is_oblivious() {
        let inputs: Vec<Vec<f32>> = vec![
            (0..24).map(|i| i as f32).collect(),
            (0..24).map(|i| -(i as f32)).collect(),
            vec![42.0; 24],
        ];
        assert_oblivious(Granularity::Element, &inputs, |input, tr| {
            aggregate_dense_linear(input, 8, 3, tr);
        });
        assert_oblivious(Granularity::Cacheline, &inputs, |input, tr| {
            aggregate_dense_linear(input, 8, 3, tr);
        });
    }

    /// Proposition 3.2 as a test: the linear algorithm is NOT oblivious
    /// for sparsified gradients — different index sets, different traces —
    /// and the leak survives at cacheline granularity.
    #[test]
    fn prop_3_2_sparse_is_not_oblivious() {
        let a = random_updates(3, 5, 256, 1);
        let b = random_updates(3, 5, 256, 2);
        let inputs = vec![a, b];
        assert_not_oblivious(Granularity::Element, &inputs, |updates, tr| {
            aggregate(LINEAR, updates, 256, tr);
        });
        assert_not_oblivious(Granularity::Cacheline, &inputs, |updates, tr| {
            aggregate(LINEAR, updates, 256, tr);
        });
    }

    /// The exact leak: the set of touched G* offsets equals the union of
    /// transmitted indices.
    #[test]
    fn sparse_linear_leaks_exact_indices() {
        use olive_memsim::RecordingTracer;
        let updates = random_updates(2, 6, 64, 7);
        let mut tr = RecordingTracer::with_events(Granularity::Element);
        aggregate(LINEAR, &updates, 64, &mut tr);
        let touched = tr.touched_offsets(crate::regions::REGION_G_STAR);
        let touched_idx: std::collections::BTreeSet<u32> =
            touched.iter().map(|&b| (b / 4) as u32).collect();
        let mut sent: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for u in &updates {
            sent.extend(u.indices.iter().copied());
        }
        // The averaging pass touches ALL offsets at the end; restrict the
        // check to "every sent index was touched during accumulation" by
        // verifying sent ⊆ touched (the attack parser segments by phase).
        assert!(sent.is_subset(&touched_idx));
    }
}
