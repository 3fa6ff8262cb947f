//! Order-preserving oblivious compaction: every **marked** cell moves to
//! the front of the buffer, in the order the marked cells stood in, by a
//! fixed schedule of O(n log n) conditional swaps (Goodrich, SPAA 2011;
//! Sasy, Johnson, Goldberg, CCS 2022 — ORCompact).
//!
//! It is what step 4 of Algorithm 4 needs. After the fold the survivors
//! already stand in ascending index order among the dummies, so a second
//! sort (≈ (n/4)·log₂² n compare-exchanges) only compacts; this network
//! does that in ≈ (n/2)·log₂ n swaps, in place.
//!
//! # The canonical trace
//!
//! `cswap(i, l, b)` is `read i, read l, write i, write l` whatever the bit
//! `b`; `mark(i)` is read off the cell at `i`. The trace of a compaction
//! of `n` cells is `compact(0, n)`:
//!
//! ```text
//! compact(lo, n):              n = 0 → nothing, return 0
//!     n1 = 2^⌊log₂ n⌋, n2 = n − n1
//!     m  = compact(lo, n2)
//!     m' = off_compact(lo + n2, n1, z = (n1 − n2 + m) mod n1)
//!     join stage:  i = 0 … n2−1 ascending:  cswap(lo+i, lo+i+n1,  i ≥ m)
//!     return m + m'
//! off_compact(lo, n, z):       n a power of two
//!     n = 1 → read lo;                                  return mark(lo)
//!     n = 2 → cswap(lo, lo+1, (¬mark₀ ∧ mark₁) ⊕ (z & 1));  return mark₀ + mark₁
//!     h = n/2;  m = off_compact(lo, h, z mod h);  m' = off_compact(lo+h, h, (z + m) mod h)
//!     s = ((z mod h) + m ≥ h) ⊕ (z ≥ h);  t = (z + m) mod h
//!     merge stage: i = 0 … h−1 ascending:  cswap(lo+i, lo+i+h,  s ⊕ (i ≥ t))
//!     return m + m'
//! ```
//!
//! `off_compact` leaves its `m + m'` marked cells in order at cyclic
//! offset `z` of its block; `compact` aims the power-of-two tail so that
//! the join stage lands it right behind the head's `m`. The swap count is
//! [`compact_swap_count`]: `S(0) = 0`, `S(n) = S(n2) + (n1/2)·log₂ n1 +
//! n2`, plus the one bare read when `n` is odd.
//!
//! # Why the trace depends on `n` alone
//!
//! The recursion order, every stage's bounds and every address above are
//! functions of `lo` and `n`. The secrets — the marks, the counts `m`
//! handed up the recursion, `z`, `s`, `t` — live in registers and on the
//! call stack and enter **only** as the swap bit, which becomes an
//! all-ones / all-zeros mask (the sort kernel's `wrapping_neg` idiom;
//! [`o_swap`] in the test oracle). **No loop bound, slice boundary, index
//! or branch condition may ever be derived from one of them.** Splitting a
//! merge loop at `t` into a "swap" run and a "keep" run would touch the
//! very same addresses — no trace test could see it — and still leak `t`
//! through the branch; the only `if`s below test `n`.
//!
//! [`compact_u64`] moves data on the untraced slice and reports each stage
//! as one [`Tracer::touch_swap_run`] block event, in recursion order; the
//! per-access oracle the differential tests hold it to is test-only.
//!
//! [`o_swap`]: crate::primitives::o_swap

use olive_memsim::{Op, RegionId, Tracer, TrackedBuf};

/// Conditional swaps a compaction of `n` cells performs — the closed form
/// `S(n)` of the module docs; its trace is four accesses per swap, plus
/// one read when `n` is odd.
pub fn compact_swap_count(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let log = n.ilog2() as u64;
    let (n1, n2) = (1 << log, n - (1 << log));
    compact_swap_count(n2) + n1 / 2 * log + n2
}

/// Moves the cells of `buf` that `mark` accepts to the front, keeping
/// their order, and returns how many there are; the cells behind them are
/// the rest in no particular order. `mark` must be branch-free register
/// arithmetic on the cell. The trace is the canonical one of the module
/// docs: a pure function of `buf.len()`.
pub fn compact_u64<M, TR>(buf: &mut TrackedBuf<u64>, mark: M, tr: &mut TR) -> usize
where
    M: Fn(u64) -> bool + Copy,
    TR: Tracer,
{
    let region = buf.region();
    Compaction { mark, region, tr }.compact(buf.as_mut_slice_untraced(), 0)
}

/// Bytes per cell, as the block events report them.
const CELL_BYTES: u32 = 8;

/// What every level of the recursion shares: the mark and where the
/// schedule is reported.
struct Compaction<'t, M, TR> {
    mark: M,
    region: RegionId,
    tr: &'t mut TR,
}

impl<M: Fn(u64) -> bool + Copy, TR: Tracer> Compaction<'_, M, TR> {
    /// `compact(lo, v.len())` over the cells `v`, which start at address
    /// `lo` of the buffer.
    fn compact(&mut self, v: &mut [u64], lo: u64) -> usize {
        let n = v.len();
        if n == 0 {
            return 0;
        }
        let n1 = 1 << n.ilog2();
        let n2 = n - n1;
        let (head, tail) = v.split_at_mut(n2);
        let m = self.compact(head, lo);
        let m_tail = self.off_compact(tail, lo + n2 as u64, (n1 - n2 + m) & (n1 - 1));
        self.tr.touch_swap_run(self.region, CELL_BYTES, lo, n1 as u64, n2 as u64);
        let (lower, upper) = v.split_at_mut(n1);
        swap_run(&mut lower[..n2], upper, false, m);
        m + m_tail
    }

    /// `off_compact(lo, v.len(), z)`; `v.len()` is a power of two.
    fn off_compact(&mut self, v: &mut [u64], lo: u64, z: usize) -> usize {
        let n = v.len();
        if n == 1 {
            self.tr.touch(self.region, lo * CELL_BYTES as u64, CELL_BYTES, Op::Read);
            return (self.mark)(v[0]) as usize;
        }
        let h = n / 2;
        let (lower, upper) = v.split_at_mut(h);
        if n == 2 {
            self.tr.touch_swap_run(self.region, CELL_BYTES, lo, 1, 1);
            let (m0, m1) = ((self.mark)(lower[0]), (self.mark)(upper[0]));
            // t = h: no position lies at or past it, the bit is `s` itself.
            swap_run(lower, upper, (!m0 & m1) ^ (z & 1 == 1), h);
            return m0 as usize + m1 as usize;
        }
        let m = self.off_compact(lower, lo, z & (h - 1));
        let m_upper = self.off_compact(upper, lo + h as u64, (z + m) & (h - 1));
        let s = ((z & (h - 1)) + m >= h) ^ (z >= h);
        self.tr.touch_swap_run(self.region, CELL_BYTES, lo, h as u64, h as u64);
        swap_run(lower, upper, s, (z + m) & (h - 1));
        m + m_upper
    }
}

/// One stage: swaps `lower[i]` with `upper[i]` iff `s ⊕ (i ≥ t)`, for every
/// `i`. `s` and `t` are secrets, so they only ever form the mask.
#[inline(always)]
fn swap_run(lower: &mut [u64], upper: &mut [u64], s: bool, t: usize) {
    debug_assert_eq!(lower.len(), upper.len());
    for (i, (a, b)) in lower.iter_mut().zip(upper).enumerate() {
        let diff = (*a ^ *b) & ((s ^ (i >= t)) as u64).wrapping_neg();
        (*a, *b) = (*a ^ diff, *b ^ diff);
    }
}

/// The network of the module docs, one traced access at a time: every
/// mark is read off a traced load and every swap is `read_pair` /
/// [`o_swap`](crate::primitives::o_swap) / `write_pair`. The oracle
/// [`compact_u64`] is tested against — output, count and trace.
#[cfg(test)]
fn compact_reference<M, TR>(buf: &mut TrackedBuf<u64>, mark: M, tr: &mut TR) -> usize
where
    M: Fn(u64) -> bool + Copy,
    TR: Tracer,
{
    use crate::primitives::o_swap;

    fn cswap<TR: Tracer>(buf: &mut TrackedBuf<u64>, i: usize, l: usize, bit: bool, tr: &mut TR) {
        let (mut a, mut b) = buf.read_pair(i, l, tr);
        o_swap(bit, &mut a, &mut b);
        buf.write_pair(i, a, l, b, tr);
    }
    fn compact<M: Fn(u64) -> bool + Copy, TR: Tracer>(
        buf: &mut TrackedBuf<u64>,
        lo: usize,
        n: usize,
        mark: M,
        tr: &mut TR,
    ) -> usize {
        if n == 0 {
            return 0;
        }
        let n1 = 1 << n.ilog2();
        let n2 = n - n1;
        let m = compact(buf, lo, n2, mark, tr);
        let m_tail = off_compact(buf, lo + n2, n1, (n1 - n2 + m) % n1, mark, tr);
        for i in 0..n2 {
            cswap(buf, lo + i, lo + i + n1, i >= m, tr);
        }
        m + m_tail
    }
    fn off_compact<M: Fn(u64) -> bool + Copy, TR: Tracer>(
        buf: &mut TrackedBuf<u64>,
        lo: usize,
        n: usize,
        z: usize,
        mark: M,
        tr: &mut TR,
    ) -> usize {
        if n == 1 {
            return mark(buf.read(lo, tr)) as usize;
        }
        if n == 2 {
            let (mut a, mut b) = buf.read_pair(lo, lo + 1, tr);
            let (m0, m1) = (mark(a), mark(b));
            o_swap((!m0 & m1) ^ (z % 2 == 1), &mut a, &mut b);
            buf.write_pair(lo, a, lo + 1, b, tr);
            return m0 as usize + m1 as usize;
        }
        let h = n / 2;
        let m = off_compact(buf, lo, h, z % h, mark, tr);
        let m_upper = off_compact(buf, lo + h, h, (z + m) % h, mark, tr);
        let (s, t) = ((z % h + m >= h) ^ (z >= h), (z + m) % h);
        for i in 0..h {
            cswap(buf, lo + i, lo + i + h, s ^ (i >= t), tr);
        }
        m + m_upper
    }
    compact(buf, 0, buf.len(), mark, tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer, RecordingTracer};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A cell is marked iff its high half is not all ones — Algorithm 4's
    /// "not a dummy".
    fn real(cell: u64) -> bool {
        (cell >> 32) as u32 != u32::MAX
    }

    /// `n` cells, each tagged with its position in the low half so that
    /// order is checkable, marked where `marked(i)`.
    fn cells(n: usize, marked: impl Fn(usize) -> bool) -> Vec<u64> {
        (0..n).map(|i| (if marked(i) { 7 } else { u32::MAX as u64 }) << 32 | i as u64).collect()
    }

    /// The mark patterns of the suite at length `n`: none, all, one at
    /// each end, alternating, random at 1 % / 50 % / 99 %, and the fold's
    /// real shape (the last cell of each run of a sorted vector survives).
    fn patterns(n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = SmallRng::seed_from_u64(seed ^ n as u64);
        let mut out = vec![
            cells(n, |_| false),
            cells(n, |_| true),
            cells(n, |i| i == 0),
            cells(n, |i| i + 1 == n),
            cells(n, |i| i % 2 == 1),
        ];
        for percent in [1u32, 50, 99] {
            let marks: Vec<bool> = (0..n).map(|_| rng.gen_range(0..100u32) < percent).collect();
            out.push(cells(n, |i| marks[i]));
        }
        let mut indices: Vec<u32> =
            (0..n).map(|_| rng.gen_range(0..n.div_ceil(8) as u32)).collect();
        indices.sort_unstable();
        out.push(cells(n, |i| i + 1 == n || indices[i] != indices[i + 1]));
        out
    }

    fn traced(
        data: &[u64],
        granularity: Granularity,
        run: impl FnOnce(&mut TrackedBuf<u64>, &mut RecordingTracer) -> usize,
    ) -> (Vec<u64>, usize, olive_memsim::TraceDigest) {
        let mut tr = RecordingTracer::new(granularity);
        let mut buf = TrackedBuf::new(9, data.to_vec());
        let count = run(&mut buf, &mut tr);
        (buf.into_inner(), count, tr.digest())
    }

    /// Every length up to a few 64-blocks, then the lengths around the
    /// sort kernel's block, the pinned Advanced shape and a Grouped group.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=4 * 64 + 9).chain([4095, 4096, 4097, (1 << 13) + 5, 31_154])
    }

    #[test]
    fn output_is_the_oracles_and_a_stable_partition_by_mark() {
        for n in lengths() {
            for data in patterns(n, 1) {
                let want: Vec<u64> = data.iter().copied().filter(|&c| real(c)).collect();
                let mut oracle = TrackedBuf::new(0, data.clone());
                let oracle_count = compact_reference(&mut oracle, real, &mut NullTracer);
                let mut buf = TrackedBuf::new(0, data.clone());
                let count = compact_u64(&mut buf, real, &mut NullTracer);
                assert_eq!((count, oracle_count), (want.len(), want.len()), "n={n}");
                let got = buf.into_inner();
                assert_eq!(got[..count], want[..], "n={n}: marked cells, in order");
                assert_eq!(got, oracle.into_inner(), "n={n}: the rest, cell for cell");
                let mut all = got;
                all.sort_unstable();
                let mut input = data;
                input.sort_unstable();
                assert_eq!(all, input, "n={n}: a permutation of the input");
            }
        }
    }

    #[test]
    fn trace_is_the_oracles_at_both_granularities_and_counts_s_of_n() {
        for n in lengths() {
            let data = &patterns(n, 2).pop().expect("the fold's shape");
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                let oracle = traced(data, granularity, |b, tr| compact_reference(b, real, tr));
                let kernel = traced(data, granularity, |b, tr| compact_u64(b, real, tr));
                assert_eq!(kernel, oracle, "n={n} {granularity:?}");
                // A cell never straddles a line: one unit per access either way.
                let accesses = 4 * compact_swap_count(n as u64) + n as u64 % 2;
                assert_eq!(kernel.2.len(), accesses, "n={n} {granularity:?}");
            }
        }
    }

    #[test]
    fn swap_count_closed_form() {
        assert_eq!(compact_swap_count(0), 0);
        assert_eq!(compact_swap_count(1), 0);
        assert_eq!(compact_swap_count(2), 1);
        assert_eq!(compact_swap_count(5), 5);
        // A power of two is one off_compact: (n/2)·log₂ n.
        assert_eq!(compact_swap_count(1 << 13), 4096 * 13);
        // The pinned Advanced shape, a Grouped group sort, `adv_sort`.
        assert_eq!(compact_swap_count((1 << 13) + 5), 53_258);
        assert_eq!(compact_swap_count(31_154), 229_873);
        assert_eq!(compact_swap_count(2_109_210), 22_111_957);
    }

    /// Definition 2.1 with δ = 0 on the production kernel: mark counts 0,
    /// 1, n/2, n and everything between leave one trace per length.
    #[test]
    fn trace_depends_on_length_only() {
        for n in [64usize, 201, 4099] {
            let inputs = patterns(n, 3);
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                assert_oblivious(granularity, &inputs, |input, tr| {
                    let mut buf = TrackedBuf::new(1, input.clone());
                    compact_u64(&mut buf, real, tr);
                });
            }
        }
        // The trace encodes the schedule: another length, another trace.
        let digest = |n: usize| {
            traced(&cells(n, |_| true), Granularity::Element, |b, tr| compact_u64(b, real, tr))
        };
        assert_ne!(digest(200).2, digest(201).2);
    }
}
