//! The Baseline oblivious aggregation (Algorithm 3).
//!
//! For every incoming cell, sweep the *entire* dense buffer `G*` writing at
//! each position either the unchanged value or the updated sum, selected in
//! registers with `o_mov` — the timing of the real write is invisible. The
//! cacheline optimization (Section 5.1): when the adversary observes at
//! 64-byte granularity, it suffices to touch one slot per cacheline — the
//! slot congruent to the target index mod `c` (c = 16 for 4-byte weights)
//! — for a 16× speedup while remaining cacheline-level fully oblivious
//! (Proposition 5.1). Complexity O(nk·d/c), space O(nk + d).
//!
//! The per-cacheline scans are data-parallel (each cell's stripe slots are
//! disjoint), so the scan splits `G*` into contiguous ranges across
//! `OLIVE_THREADS` workers, each applying every cell to its own range in
//! cell order. Like the sort kernel, the trace is emitted canonically by
//! the caller ([`olive_memsim::Tracer::touch_rw_stripe`] block events that expand to the
//! serial read/write sequence), decoupled from the physical data movement,
//! so output **and trace** are invariant across thread counts.

use olive_fl::SparseGradient;
use olive_memsim::{ParallelTracer, StateError, StateReader, StateWriter, TrackedBuf};
use olive_oblivious::o_select;

use crate::cell::{cell_index, cell_value, concat_cells};
use crate::regions::REGION_G_STAR;

use super::linear::{average_in_place, read_next_g_cell};
use super::streaming::Aggregator;

/// Bytes of one dense weight in `G*`.
const WEIGHT_BYTES: usize = core::mem::size_of::<f32>();

/// Applies every cell's stripe update to the `G*` range
/// `[base, base + chunk.len())`: for each cell, visit the range's slots
/// congruent to `index mod c` in address order, adding the value at the
/// matching slot via a branchless select.
fn scan_cells(cells: &[u64], d: usize, c: usize, chunk: &mut [f32], base: usize) {
    for &cell in cells {
        let idx = cell_index(cell) as usize;
        let val = cell_value(cell);
        debug_assert!(idx < d, "cell index out of range");
        let offset = idx % c;
        // First slot >= base congruent to offset mod c.
        let mut j = base + (offset + c - base % c) % c;
        while j < base + chunk.len() {
            let cur = chunk[j - base];
            chunk[j - base] = o_select(j == idx, cur + val, cur);
            j += c;
        }
    }
}

/// Algorithm 3 as a streaming fold. `cacheline_weights` is `c`: 1 =
/// element-level oblivious full scan, 16 = the paper's cacheline
/// optimization for f32 weights.
///
/// The padded `G*` buffer persists across chunks; each chunk's cells are
/// traced (the canonical per-cell `G` read + stripe sweep, with global
/// `G` offsets continuing across chunks) and then physically applied with
/// a fixed worker split. The unit of work is one cell, so chunk
/// boundaries change neither the output bits nor the trace; and every
/// thread count produces the bitwise-identical output (each `G*` slot is
/// owned by exactly one worker, which applies cells in order) and the
/// byte-identical trace (emitted canonically before the data movement).
pub struct BaselineStreamer {
    gstar: TrackedBuf<f32>,
    pub(super) d: usize,
    c: usize,
    padded: usize,
    threads: usize,
    /// Global position in the round's logical `G` buffer (cells).
    next_cell: usize,
    n: usize,
}

impl BaselineStreamer {
    /// Fresh streamer over dimension `d` with `cacheline_weights = c`.
    pub fn init(d: usize, cacheline_weights: usize, threads: usize) -> Self {
        assert!(cacheline_weights >= 1, "c must be at least 1");
        let c = cacheline_weights;
        // Pad G* to a multiple of c so every stripe has the same length —
        // otherwise the stripe length would leak `index mod c`.
        let padded = d.div_ceil(c) * c;
        BaselineStreamer {
            gstar: TrackedBuf::zeroed(REGION_G_STAR, padded),
            d,
            c,
            padded,
            threads,
            next_cell: 0,
            n: 0,
        }
    }
}

impl Aggregator for BaselineStreamer {
    /// Emits the canonical trace (one `G` read at the *global* running
    /// offset + one full stripe sweep per cell — exactly the serial
    /// access sequence, independent of how the data movement is
    /// scheduled), then applies the cells with the fixed worker split.
    fn ingest<TR: ParallelTracer>(&mut self, chunk: &[SparseGradient], tr: &mut TR) {
        for u in chunk {
            assert_eq!(u.dense_dim, self.d, "update dimension mismatch");
        }
        let staged = concat_cells(chunk);
        let cells = staged.as_slice();
        self.n += chunk.len();
        let slots = (self.padded / self.c) as u64;
        for &cell in cells {
            read_next_g_cell(&mut self.next_cell, tr);
            let idx = cell_index(cell) as usize;
            debug_assert!(idx < self.d, "cell index out of range");
            tr.touch_rw_stripe(
                REGION_G_STAR,
                WEIGHT_BYTES as u32,
                (idx % self.c) as u64,
                self.c as u64,
                slots,
            );
        }
        let workers = if self.threads <= 1 { 1 } else { self.threads.min(self.padded) };
        let (d, c, padded) = (self.d, self.c, self.padded);
        // Contiguous disjoint G* ranges; each worker (the caller first,
        // then pool threads; a lone worker is the caller alone) applies
        // every cell to its own range, preserving the serial per-slot
        // accumulation order.
        let mut rest = self.gstar.as_mut_slice_untraced();
        let mut lo = 0usize;
        olive_oblivious::pool::join((0..workers).map(|w| {
            let hi = padded * (w + 1) / workers;
            let (range, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
            rest = tail;
            let start = std::mem::replace(&mut lo, hi);
            move || scan_cells(cells, d, c, range, start)
        }));
    }

    /// Averages and returns the dense update (truncated back to `d`).
    fn finalize<TR: ParallelTracer>(mut self, tr: &mut TR) -> Vec<f32> {
        assert!(self.n > 0, "no updates to aggregate");
        average_in_place(&mut self.gstar, self.n, tr);
        let mut out = self.gstar.into_inner();
        out.truncate(self.d);
        out
    }

    fn clients(&self) -> usize {
        self.n
    }

    /// The padded dense accumulator.
    fn resident_bytes(&self) -> u64 {
        self.padded as u64 * WEIGHT_BYTES as u64
    }

    /// The chunk's staged cell copy built for the stripe scans.
    fn ingest_scratch_bytes(&self, chunk_clients: usize, k: usize) -> u64 {
        (chunk_clients * k) as u64 * 8
    }

    fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.d);
        w.put_usize(self.c);
        w.put_usize(self.threads);
        w.put_usize(self.next_cell);
        w.put_usize(self.n);
        w.put_f32s(self.gstar.as_slice_untraced());
    }

    /// Five words, then the length-prefixed padded accumulator.
    fn state_len(&self) -> usize {
        5 * 8 + 8 + WEIGHT_BYTES * self.padded
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        if r.get_usize()? != self.d || r.get_usize()? != self.c || r.get_usize()? != self.threads {
            return Err(StateError::Mismatch);
        }
        self.next_cell = r.get_usize()?;
        self.n = r.get_usize()?;
        let gstar = r.get_f32s()?;
        if gstar.len() != self.padded {
            return Err(StateError::Mismatch);
        }
        self.gstar.as_mut_slice_untraced().copy_from_slice(&gstar);
        r.expect_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::*;
    use crate::aggregation::{aggregate_with_threads, reference_average, AggregatorKind};
    use crate::regions::REGION_G;
    use olive_memsim::{
        assert_not_oblivious, assert_oblivious, Granularity, NullTracer, RecordingTracer,
    };

    /// One-shot Baseline with `c` weights per cacheline.
    fn baseline<TR: ParallelTracer>(
        updates: &[SparseGradient],
        d: usize,
        c: usize,
        threads: usize,
        tr: &mut TR,
    ) -> Vec<f32> {
        let kind = AggregatorKind::Baseline { cacheline_weights: c };
        aggregate_with_threads(kind, updates, d, threads, tr)
    }

    #[test]
    fn correct_for_all_c() {
        let updates = random_updates(4, 6, 50, 11);
        let expected = reference_average(&updates, 50);
        for c in [1usize, 4, 16, 64] {
            let got = baseline(&updates, 50, c, 1, &mut NullTracer);
            assert_close(&got, &expected, 1e-5);
        }
    }

    #[test]
    fn handles_duplicate_indices_across_clients() {
        let u = |v: f32| SparseGradient { dense_dim: 8, indices: vec![2, 5], values: vec![v, -v] };
        let updates = vec![u(1.0), u(3.0)];
        let got = baseline(&updates, 8, 16, 1, &mut NullTracer);
        assert_eq!(got[2], 2.0);
        assert_eq!(got[5], -2.0);
    }

    /// Proposition 5.1: Baseline with c = 16 is cacheline-level fully
    /// oblivious; with c = 1 it is element-level fully oblivious.
    #[test]
    fn prop_5_1_obliviousness() {
        let inputs = vec![
            random_updates(3, 5, 128, 1),
            random_updates(3, 5, 128, 2),
            random_updates(3, 5, 128, 3),
        ];
        assert_oblivious(Granularity::Cacheline, &inputs, |updates, tr| {
            baseline(updates, 128, 16, 1, tr);
        });
        assert_oblivious(Granularity::Element, &inputs, |updates, tr| {
            baseline(updates, 128, 1, 1, tr);
        });
    }

    /// The boundary of the guarantee: c = 16 is NOT element-level
    /// oblivious (the stripe offset reveals index mod 16) — exactly why
    /// the paper states Proposition 5.1 at cacheline granularity.
    #[test]
    fn c16_leaks_at_element_granularity() {
        let mk = |idx: u32| {
            vec![SparseGradient { dense_dim: 64, indices: vec![idx], values: vec![1.0] }]
        };
        let inputs = vec![mk(0), mk(1)];
        assert_not_oblivious(Granularity::Element, &inputs, |updates, tr| {
            baseline(updates, 64, 16, 1, tr);
        });
    }

    #[test]
    fn access_count_matches_complexity() {
        // nk cells × ceil(d/c) stripe slots × (read+write) + nk G-reads +
        // averaging 2·padded.
        let updates = random_updates(2, 3, 64, 5);
        let mut tr = RecordingTracer::new(Granularity::Element);
        baseline(&updates, 64, 16, 1, &mut tr);
        let nk = 6u64;
        let stripes = 4u64; // 64/16
        let expected = nk + nk * stripes * 2 + 2 * 64;
        assert_eq!(tr.stats().total(), expected);
    }

    #[test]
    fn non_multiple_d_padding_keeps_stripes_equal() {
        // d = 50, c = 16 → padded 64; all stripes have 4 slots.
        let inputs = vec![random_updates(2, 4, 50, 6), random_updates(2, 4, 50, 7)];
        assert_oblivious(Granularity::Cacheline, &inputs, |updates, tr| {
            baseline(updates, 50, 16, 1, tr);
        });
    }

    /// Output and trace are invariant across thread counts — the same
    /// guarantee the grouped aggregation and the sort kernel make.
    #[test]
    fn thread_count_invariant_output_and_trace() {
        let updates = random_updates(3, 7, 100, 21);
        for c in [1usize, 16] {
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                let mut ref_tr = RecordingTracer::new(granularity);
                let reference = baseline(&updates, 100, c, 1, &mut ref_tr);
                for threads in [2usize, 8] {
                    let mut tr = RecordingTracer::new(granularity);
                    let got = baseline(&updates, 100, c, threads, &mut tr);
                    assert_eq!(tr.digest(), ref_tr.digest(), "c={c} threads={threads}");
                    assert_eq!(reference.len(), got.len());
                    for (i, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "c={c} threads={threads} slot {i}");
                    }
                }
            }
        }
    }

    /// The canonical block-event trace expands to the exact per-access
    /// sequence of the historical serial implementation (TrackedBuf reads
    /// and writes), byte for byte.
    #[test]
    fn trace_matches_historical_serial_scan() {
        let updates = random_updates(2, 5, 70, 13);
        let cells = concat_cells(&updates);
        let (d, n, c) = (70usize, 2usize, 16usize);
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            // Pre-parallel reference: every access through TrackedBuf.
            let mut href = RecordingTracer::new(granularity);
            {
                let g = TrackedBuf::new(REGION_G, cells.clone());
                let padded = d.div_ceil(c) * c;
                let mut gstar = TrackedBuf::<f32>::zeroed(REGION_G_STAR, padded);
                for i in 0..g.len() {
                    let cell = g.read(i, &mut href);
                    let idx = cell_index(cell) as usize;
                    let val = cell_value(cell);
                    let mut j = idx % c;
                    while j < padded {
                        let cur = gstar.read(j, &mut href);
                        gstar.write(j, o_select(j == idx, cur + val, cur), &mut href);
                        j += c;
                    }
                }
                average_in_place(&mut gstar, n, &mut href);
            }
            for threads in [1usize, 4] {
                let mut tr = RecordingTracer::new(granularity);
                baseline(&updates, d, c, threads, &mut tr);
                assert_eq!(tr.digest(), href.digest(), "{granularity:?} threads={threads}");
                assert_eq!(tr.stats(), href.stats());
            }
        }
    }
}
