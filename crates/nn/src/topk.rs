//! Exact top-k by magnitude, with a canonical tie rule, at the CPU's
//! vector width: the selection behind the clients' top-k uploads.
//!
//! A value's ordering key is `x.to_bits() & 0x7FFF_FFFF`: `|x|` under
//! `f32::total_cmp`, read as an integer — ±0.0 are equal, subnormals sit
//! above zero, NaNs (any sign or payload) above ±∞. With T the k-th
//! largest key, [`top_k`] keeps every cell whose key exceeds T and, of the
//! cells whose key equals T, the ones with the **lowest indices**, as many
//! as make k, in ascending index order.
//!
//! The selection is O(d) and sorts nothing of length d. A sample of 256
//! keys, spread over the vector by the golden ratio, guesses a lower bound
//! `lo` on T. One pass over the d cells collects, in index order, the
//! cells whose key is at least `lo` — the top k and a few hundred more. If
//! fewer than k turn up, the guess was wrong and every cell is a candidate
//! instead, so the answer never depends on the sample. T is selected among
//! the candidates' keys, and one walk over the candidates writes the k
//! cells in index order straight into vectors of capacity k.
//!
//! Two bodies run that plan, and [`top_k`] picks the AVX-512 one when the
//! CPU has it (detected once; no knob). The portable body builds a 32-bit
//! mask of compares per block of cells, then pushes one index per hit: a
//! loop whose trip count is the data's, so it is not branch-free, and the
//! pushes, not the compares, are most of its cost. Its walk carries the
//! count of ties still to keep from one candidate to the next. The
//! AVX-512 body compares 16 keys a step and compresses the hits' indices
//! and raw bits in registers, then stores them whole; its walk
//! compress-stores 16 candidates a step into the output under a prefix
//! mask, and pops tie bits only in a block that holds a key equal to T.
//! Both return the same cells and bits, which the differential test below
//! checks on every body the CPU runs.
//!
//! Time a change here on deltas dumped from a round, each used once: the
//! branch predictor learns a repeated input, and a synthetic vector need
//! not place its large keys the way a trained model's update does.

use std::sync::OnceLock;

/// Keys the guess at the threshold samples.
const SAMPLE: usize = 256;

/// The ordering key: `|x|` under `f32::total_cmp`, as an integer.
#[inline(always)]
fn key(x: f32) -> u32 {
    x.to_bits() & 0x7FFF_FFFF
}

/// The min(k, d) cells of `dense` with the largest ordering keys, ties at
/// the threshold broken towards the lowest indices: their indices
/// (strictly increasing) and values (bit for bit), each in a vector of
/// capacity exactly min(k, d). O(d) time whatever the values; the scratch is a few
/// hundred cells beyond k unless the data fools the sample.
pub fn top_k(dense: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    top_k_with(Body::best(), dense, k)
}

/// The instruction sets a top-k body exists for.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Body {
    /// Baseline target features.
    Portable,
    /// 512-bit compares and compresses.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Body {
    /// Every body this build knows.
    #[cfg(test)]
    const ALL: &'static [Body] = &[
        Body::Portable,
        #[cfg(target_arch = "x86_64")]
        Body::Avx512,
    ];

    /// Whether this CPU can run the body.
    fn available(self) -> bool {
        match self {
            Body::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
        }
    }

    /// The widest available one, detected once per process.
    fn best() -> Body {
        static BEST: OnceLock<Body> = OnceLock::new();
        *BEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if Body::Avx512.available() {
                return Body::Avx512;
            }
            Body::Portable
        })
    }
}

/// [`top_k`] through one named body (the tests call each). Panics if the
/// CPU lacks it.
#[allow(unsafe_code)]
fn top_k_with(body: Body, dense: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    assert!(body.available(), "the {body:?} top-k body is not supported by this CPU");
    let d = dense.len();
    let k = k.min(d);
    if k == 0 || k == d {
        return ((0..k as u32).collect(), dense[..k].to_vec());
    }
    match body {
        Body::Portable => portable::top_k(dense, k),
        // SAFETY: the only requirement of a `#[target_feature]` function is
        // that the CPU has the features, and `available` just confirmed it.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe { avx512::top_k(dense, k) },
    }
}

/// The cells the guess samples: `s = min(d, 256)` positions of the Weyl
/// sequence `⌊frac(j·φ)·d⌋`, spread evenly over `0..d` with no period that
/// could line up with a layer's row length (a plain stride of 16 would see
/// 4 of a 64-input layer's 64 columns).
fn sample_positions(d: usize) -> impl Iterator<Item = usize> {
    (0..d.min(SAMPLE) as u64).map(move |j| {
        let frac = j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        ((frac * d as u64) >> 32) as usize
    })
}

/// The sample's guess at a lower bound on T (`0 < k < d`) and the number
/// of cells it expects to reach it; `None` when the bound would be below
/// every sampled key. `largest(keys, r)` is the r-th largest of `keys`, 0
/// the largest.
///
/// About `s·k/d` of the s sampled keys reach T: the guess is the sample
/// key that many ranks from the top, moved down by three binomial
/// standard deviations and one more rank, so that a few hundred cells
/// beyond the k kept ones are candidates.
#[inline(always)]
fn guess(
    dense: &[f32],
    k: usize,
    largest: impl FnOnce(&mut [u32], usize) -> u32,
) -> Option<(u32, usize)> {
    let d = dense.len();
    let s = d.min(SAMPLE);
    let mut sample: Vec<u32> = sample_positions(d).map(|i| key(dense[i])).collect();
    let p = k as f64 / d as f64;
    let mid = s as f64 * p;
    // Ranks from the top of the sample: 0 is its largest key.
    let rank = (mid + 3.0 * (mid * (1.0 - p)).sqrt() + 1.0).ceil() as usize;
    (rank < s).then(|| (largest(&mut sample, rank), (rank + 1) * d / s))
}

/// The body for any CPU: a mask of compares per 32-cell block and one push
/// per hit, then a walk over the candidates' indices.
mod portable {
    use super::{guess, key};

    /// The selection for `0 < k < d`.
    pub(super) fn top_k(dense: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
        if let Some((lo, expected)) = guess(dense, k, |keys, r| largest(keys, r).0) {
            let mut above_lo = Vec::with_capacity(expected + 64);
            candidates(dense, lo, &mut above_lo);
            if above_lo.len() >= k {
                return emit(dense, k, above_lo.iter().copied());
            }
        }
        emit(dense, k, 0..dense.len() as u32)
    }

    /// T among the keys of `candidates` (which hold the top k), then the k
    /// cells: every candidate above T and the lowest-indexed ones equal to
    /// T.
    #[inline(always)]
    fn emit(
        dense: &[f32],
        k: usize,
        candidates: impl Iterator<Item = u32> + Clone,
    ) -> (Vec<u32>, Vec<f32>) {
        let mut keys: Vec<u32> = candidates.clone().map(|i| key(dense[i as usize])).collect();
        let (t, above) = largest(&mut keys, k - 1);
        let mut ties = k - above;
        // About half the candidates are kept, in no pattern a predictor
        // could learn, so the keep is arithmetic: every candidate is
        // written to slot `n`, which moves on past the kept ones; the k-th
        // kept one ends the walk.
        let (mut indices, mut values) = (vec![0; k], vec![0.0; k]);
        let mut n = 0;
        for i in candidates {
            let x = dense[i as usize];
            (indices[n], values[n]) = (i, x);
            let tied = key(x) == t;
            let keep = (key(x) > t) | (tied & (ties > 0));
            ties -= usize::from(tied & keep);
            n += usize::from(keep);
            if n == k {
                break;
            }
        }
        debug_assert_eq!(n, k, "the candidates hold the top k");
        (indices, values)
    }

    /// The r-th largest of `keys` (0 the largest) and how many keys exceed
    /// it; `keys` is reordered.
    pub(super) fn largest(keys: &mut [u32], r: usize) -> (u32, usize) {
        let at = keys.len() - 1 - r;
        let (_, &mut t, larger) = keys.select_nth_unstable(at);
        (t, larger.iter().filter(|&&key| key > t).count())
    }

    /// Appends to `out`, ascending, the index of every cell whose key is
    /// at least `lo`: a 32-bit mask of compares per block, then one push
    /// per hit. The blocks must have a length the compiler can see, or the
    /// compares do not vectorise.
    fn candidates(dense: &[f32], lo: u32, out: &mut Vec<u32>) {
        let mut push = |base: usize, mut hits: u32| {
            while hits != 0 {
                out.push(base as u32 + hits.trailing_zeros());
                hits &= hits - 1;
            }
        };
        let blocks = dense.chunks_exact(32);
        let tail = blocks.remainder();
        for (b, cells) in blocks.enumerate() {
            push(b * 32, at_least(cells, lo));
        }
        push(dense.len() - tail.len(), at_least(tail, lo));
    }

    /// Bit j set when the key of `cells[j]` is at least `lo`
    /// (`cells.len() ≤ 32`).
    #[inline(always)]
    fn at_least(cells: &[f32], lo: u32) -> u32 {
        cells.iter().enumerate().fold(0, |hits, (j, &x)| hits | u32::from(key(x) >= lo) << j)
    }
}

/// The body for AVX-512F: 16 keys a step, hits compressed in registers.
/// `unsafe` here is the vectors' loads and stores: each `SAFETY:` comment
/// names the bound that keeps them inside their buffer.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::guess;
    use core::arch::x86_64::*;

    /// Lanes of one vector.
    const LANES: usize = 16;

    /// The key's bits of a raw `f32` pattern.
    const MAGNITUDE: u32 = 0x7FFF_FFFF;

    /// The selection for `0 < k < d`.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn top_k(dense: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
        let d = dense.len();
        let lo = guess(dense, k, |keys, r| largest(keys, r).0).map_or(0, |(lo, _)| lo);
        // A step stores a whole vector at the count so far, which is at
        // most the cells before the step: d + 16 slots hold any pass.
        let (mut index, mut bits) = (Vec::with_capacity(d + LANES), Vec::with_capacity(d + LANES));
        candidates(dense, lo, &mut index, &mut bits);
        if index.len() < k {
            candidates(dense, 0, &mut index, &mut bits);
        }
        let mut keys: Vec<u32> = bits.iter().map(|&b| b & MAGNITUDE).collect();
        let (t, above) = largest(&mut keys, k - 1);
        emit(k, &index, &bits, t, k - above)
    }

    /// Lane j's bit set for j < `n` (`n ≤ 16`).
    #[inline(always)]
    fn prefix(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// The lanes of `src` from `at` on (16, or the fewer left), zero past
    /// its end, and the mask of the lanes inside it.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn load(src: &[u32], at: usize) -> (__m512i, __mmask16) {
        let live = prefix((src.len() - at).min(LANES));
        // SAFETY: the lanes in `live` are entries `at ..` of `src`; a
        // masked load touches no memory in the lanes it masks off.
        (unsafe { _mm512_maskz_loadu_epi32(live, src.as_ptr().add(at).cast()) }, live)
    }

    /// Overwrites `index` and `bits` with the index and raw bits of every
    /// cell whose key is at least `lo`, ascending by index. Both have room
    /// for `dense.len() + 16` entries.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn candidates(dense: &[f32], lo: u32, index: &mut Vec<u32>, bits: &mut Vec<u32>) {
        let d = dense.len();
        assert!(index.capacity() >= d + LANES && bits.capacity() >= d + LANES);
        let (lo, magnitude) = (_mm512_set1_epi32(lo as i32), _mm512_set1_epi32(MAGNITUDE as i32));
        let (src, to_index, to_bits) =
            (dense.as_ptr().cast::<i32>(), index.as_mut_ptr(), bits.as_mut_ptr());
        let mut n = 0;
        // Cells `base ..` under `live`: compare, then store both compressed
        // vectors whole at slot n.
        let mut step = |base: usize, live: __mmask16| {
            // SAFETY: the lanes in `live` are cells below d; masked-off
            // lanes touch no memory.
            let raw = unsafe { _mm512_maskz_loadu_epi32(live, src.add(base)) };
            let hits = _mm512_mask_cmpge_epu32_mask(live, _mm512_and_si512(raw, magnitude), lo);
            let at = _mm512_add_epi32(
                _mm512_set1_epi32(base as i32),
                _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            );
            // SAFETY: n counts hits among the `base` cells before this
            // step, so slots n .. n + 16 end by d + 16, within capacity.
            unsafe {
                _mm512_storeu_si512(to_index.add(n).cast(), _mm512_maskz_compress_epi32(hits, at));
                _mm512_storeu_si512(to_bits.add(n).cast(), _mm512_maskz_compress_epi32(hits, raw));
            }
            n += hits.count_ones() as usize;
        };
        // Whole vectors under a constant mask, then the tail.
        let whole = d - d % LANES;
        for base in (0..whole).step_by(LANES) {
            step(base, !0);
        }
        if whole < d {
            step(whole, prefix(d - whole));
        }
        // SAFETY: slots 0 .. n hold this pass's hits.
        unsafe {
            index.set_len(n);
            bits.set_len(n);
        }
    }

    /// The r-th largest of `keys` (0 the largest) and how many keys exceed
    /// it; `keys` is reordered. Each pass counts the keys above and below
    /// a pivot: the pivot is the answer, or the side that holds the rank
    /// is compressed to the front of the set, in place, and is the next
    /// set. The pivot is the key at the rank's quantile among nine spread
    /// over the set. Once the set is small, or the passes have read four
    /// times the input without closing in, std's selection finishes, so
    /// the time stays O(len) whatever the keys.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn largest(keys: &mut [u32], r: usize) -> (u32, usize) {
        let len = keys.len();
        // The set's keys all lie below the `above` keys already set aside.
        let (mut set, mut r, mut above, mut read) = (keys, r, 0, 0);
        while set.len() > 4 * LANES && read <= 4 * len {
            let m = set.len();
            read += m;
            let mut spread: [u32; 9] = std::array::from_fn(|j| set[(2 * j + 1) * m / 18]);
            spread.sort_unstable_by(|a, b| b.cmp(a));
            let pivot = spread[r * 9 / m];
            let (gt, lt) = count(set, pivot);
            let keep_above = r < gt;
            if !keep_above && r < m - lt {
                return (pivot, above + gt);
            }
            if !keep_above {
                (above, r) = (above + m - lt, r - (m - lt));
            }
            let kept = split(set, pivot, keep_above);
            set = &mut std::mem::take(&mut set)[..kept];
        }
        let (t, larger) = super::portable::largest(set, r);
        (t, above + larger)
    }

    /// How many of `keys` are above and below `pivot`.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn count(keys: &[u32], pivot: u32) -> (usize, usize) {
        let pivot = _mm512_set1_epi32(pivot as i32);
        let (mut gt, mut lt) = (0, 0);
        for at in (0..keys.len()).step_by(LANES) {
            let (key, live) = load(keys, at);
            gt += _mm512_mask_cmpgt_epu32_mask(live, key, pivot).count_ones() as usize;
            lt += _mm512_mask_cmplt_epu32_mask(live, key, pivot).count_ones() as usize;
        }
        (gt, lt)
    }

    /// Moves the keys above `pivot` (`above`) or below it to the front of
    /// `keys`, in order, and returns how many there are. Each step writes
    /// only its kept lanes, at or before the lanes it read, so no key is
    /// overwritten before it is read.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn split(keys: &mut [u32], pivot: u32, above: bool) -> usize {
        let pivot = _mm512_set1_epi32(pivot as i32);
        let mut n = 0;
        for at in (0..keys.len()).step_by(LANES) {
            let (key, live) = load(keys, at);
            let side = match above {
                true => _mm512_mask_cmpgt_epu32_mask(live, key, pivot),
                false => _mm512_mask_cmplt_epu32_mask(live, key, pivot),
            };
            let kept = side.count_ones() as usize;
            // SAFETY: n counts kept keys among the `at` before this step,
            // so the prefix mask writes slots n .. n + kept, which end by
            // the last live lane of this step, inside `keys`.
            unsafe {
                let to = keys.as_mut_ptr().add(n).cast();
                _mm512_mask_storeu_epi32(to, prefix(kept), _mm512_maskz_compress_epi32(side, key));
            }
            n += kept;
        }
        n
    }

    /// The k cells: every candidate whose key exceeds `t`, and the first
    /// `ties` whose key equals it, in index order, compress-stored 16
    /// candidates a step into vectors of capacity k.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn emit(
        k: usize,
        index: &[u32],
        bits: &[u32],
        t: u32,
        mut ties: usize,
    ) -> (Vec<u32>, Vec<f32>) {
        let (mut out_index, mut out_values) =
            (Vec::<u32>::with_capacity(k), Vec::<f32>::with_capacity(k));
        let (t, magnitude) = (_mm512_set1_epi32(t as i32), _mm512_set1_epi32(MAGNITUDE as i32));
        let (to_index, to_values) =
            (out_index.as_mut_ptr().cast::<i32>(), out_values.as_mut_ptr().cast::<i32>());
        let mut n = 0;
        for base in (0..index.len()).step_by(LANES) {
            let ((at, _), (raw, live)) = (load(index, base), load(bits, base));
            let key = _mm512_and_si512(raw, magnitude);
            let mut keep = _mm512_cmpgt_epu32_mask(key, t);
            let mut tied = _mm512_mask_cmpeq_epu32_mask(live, key, t);
            while tied != 0 && ties > 0 {
                keep |= tied & tied.wrapping_neg();
                tied &= tied - 1;
                ties -= 1;
            }
            let kept = keep.count_ones() as usize;
            assert!(n + kept <= k, "the candidates hold exactly k cells to keep");
            let mask = prefix(kept);
            // SAFETY: the prefix mask writes slots n .. n + kept, within
            // capacity k by the assertion.
            unsafe {
                _mm512_mask_storeu_epi32(
                    to_index.add(n),
                    mask,
                    _mm512_maskz_compress_epi32(keep, at),
                );
                _mm512_mask_storeu_epi32(
                    to_values.add(n),
                    mask,
                    _mm512_maskz_compress_epi32(keep, raw),
                );
            }
            n += kept;
            if n == k {
                break;
            }
        }
        assert_eq!(n, k, "the candidates hold the top k");
        // SAFETY: slots 0 .. k were written above.
        unsafe {
            out_index.set_len(k);
            out_values.set_len(k);
        }
        (out_index, out_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The bodies this CPU can run; reports the ones it cannot, once.
    fn bodies() -> Vec<Body> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        let (ran, skipped): (Vec<Body>, Vec<Body>) = Body::ALL.iter().partition(|b| b.available());
        REPORT.call_once(|| {
            println!("top-k bodies exercised on this CPU: {ran:?}; lacking: {skipped:?}");
        });
        ran
    }

    /// The canonical rule, spelled out: a stable sort by key, largest
    /// first, ranks the lowest index first among equal keys; the first
    /// min(k, d) of that order, ascending.
    fn oracle(dense: &[f32], k: usize) -> Vec<u32> {
        let mut ranked: Vec<u32> = (0..dense.len() as u32).collect();
        ranked.sort_by_key(|&i| std::cmp::Reverse(key(dense[i as usize])));
        ranked.truncate(k.min(dense.len()));
        ranked.sort_unstable();
        ranked
    }

    /// Every body the CPU runs returns the oracle's cells, bits and all,
    /// in vectors of capacity min(k, d).
    fn check(dense: &[f32], ks: impl IntoIterator<Item = usize>) {
        let d = dense.len();
        for k in ks {
            let want = oracle(dense, k);
            for body in bodies() {
                let ctx = format!("{body:?} d={d} k={k}");
                let (indices, values) = top_k_with(body, dense, k);
                assert_eq!(indices, want, "{ctx}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want_values: Vec<f32> = want.iter().map(|&i| dense[i as usize]).collect();
                assert_eq!(bits(&values), bits(&want_values), "{ctx}");
                assert_eq!(
                    (indices.capacity(), values.capacity()),
                    (want.len(), want.len()),
                    "{ctx}"
                );
            }
        }
    }

    const SPECIAL: [u32; 12] = [
        0x0000_0000, // 0.0
        0x8000_0000, // -0.0
        0x0000_0001, // the smallest subnormal
        0x806D_3A1B, // a negative subnormal
        0x7F80_0000, // ∞
        0xFF80_0000, // -∞
        0x7FC0_0000, // the quiet NaN
        0xFFC0_1234, // a negative NaN with a payload
        0x7F80_0001, // a signalling NaN
        0xFFBF_FFFF, // a negative signalling NaN with every payload bit
        0x7F7F_FFFF, // f32::MAX
        0x3F80_0000, // 1.0
    ];

    /// `d` values of one of five kinds: continuous in (-2, 2); those with a
    /// share of the specials; a palette of five magnitudes (heavy ties);
    /// all equal; or mostly exact zeros.
    fn values(rng: &mut SmallRng, d: usize, kind: usize) -> Vec<f32> {
        const PALETTE: [f32; 5] = [0.0, 0.25, -0.5, 0.5, 1.0];
        (0..d)
            .map(|_| match kind {
                1 if rng.gen_bool(0.3) => f32::from_bits(SPECIAL[rng.gen_range(0..SPECIAL.len())]),
                2 => PALETTE[rng.gen_range(0..PALETTE.len())],
                3 => -0.75,
                4 if rng.gen_bool(0.9) => [0.0f32, -0.0][rng.gen_range(0..2usize)],
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// Every vector length around the 16- and 32-cell blocks and the
    /// benchmark's shapes, every kind of value, and k at the edges.
    #[test]
    fn every_body_matches_the_canonical_rule() {
        let mut rng = SmallRng::seed_from_u64(44);
        for d in [1, 2, 15, 16, 17, 31, 32, 33, 47, 255, 256, 257, 4210, 9610] {
            for kind in 0..5 {
                let dense = values(&mut rng, d, kind);
                let mid = rng.gen_range(0..=d);
                check(&dense, [0, 1, d / 10, d / 2, mid, d - 1, d, d + 1, 2 * d + 5]);
            }
        }
        for (d, k) in [(4210, 421), (9610, 96)] {
            for kind in (0..5).chain(0..3) {
                check(&values(&mut rng, d, kind), [k]);
            }
        }
    }

    /// Every special bit pattern against every other, so that each is the
    /// threshold, above it and below it.
    #[test]
    fn specials_rank_by_key_in_every_body() {
        let mut dense: Vec<f32> = SPECIAL.iter().map(|&b| f32::from_bits(b)).collect();
        dense.extend(SPECIAL.iter().rev().map(|&b| f32::from_bits(b)));
        check(&dense, 0..=dense.len());
    }

    /// Keys tied at T straddling the candidates' blocks: more tied cells
    /// than slots left for them, in every block, so the lowest indices
    /// must win across block edges.
    #[test]
    fn ties_straddling_the_threshold_keep_the_lowest_indices() {
        let mut rng = SmallRng::seed_from_u64(5);
        for d in [33, 100, 4210] {
            // Half large and distinct, half tied, shuffled by index.
            let dense: Vec<f32> = (0..d)
                .map(|i| if rng.gen_bool(0.5) { 2.0 + i as f32 } else { [1.0, -1.0][i % 2] })
                .collect();
            let above = dense.iter().filter(|&&x| x.abs() > 1.0).count();
            check(&dense, [above, above + 1, above + 7, above + (d - above) / 2, d - 1]);
        }
    }

    /// The AVX-512 order statistic equals std's on random keys, heavy
    /// ties, and keys laid out against its pivot rule: each pass's nine
    /// sampled keys are the set's smallest, so a pass sets aside only
    /// those nine and the read budget, not the set's size, ends the
    /// partitions.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[allow(unsafe_code)]
    fn the_partition_select_matches_std() {
        if !Body::Avx512.available() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(12);
        let against_the_pivots = |len: usize| {
            let (mut keys, mut next) = (vec![0u32; len], 1);
            let mut set: Vec<usize> = (0..len).collect();
            while set.len() > 64 {
                let m = set.len();
                let sampled: Vec<usize> = (0..9).map(|j| (2 * j + 1) * m / 18).collect();
                for &at in &sampled {
                    (keys[set[at]], next) = (next, next + 1);
                }
                set = set
                    .iter()
                    .enumerate()
                    .filter(|(at, _)| !sampled.contains(at))
                    .map(|(_, &i)| i)
                    .collect();
            }
            for i in set {
                (keys[i], next) = (next, next + 1);
            }
            keys
        };
        let mut sets: Vec<Vec<u32>> = vec![against_the_pivots(2000), against_the_pivots(300)];
        for len in [1, 16, 64, 65, 100, 748, 3000] {
            sets.push((0..len).map(|_| rng.gen::<u32>() >> 1).collect());
            sets.push((0..len).map(|_| rng.gen_range(0..4u32)).collect());
        }
        for keys in sets {
            let len = keys.len();
            for r in [0, 1, len / 3, len / 2, len.saturating_sub(2), len - 1]
                .into_iter()
                .filter(|&r| r < len)
            {
                let want = portable::largest(&mut keys.clone(), r);
                // SAFETY: the CPU has the features, checked above.
                let got = unsafe { avx512::largest(&mut keys.clone(), r) };
                assert_eq!(got, want, "len={len} r={r}");
            }
        }
    }

    /// Layouts built against the sample. With the top k all off the
    /// sampled cells the sample sees only small keys, and its guess lets
    /// nearly every cell through; with only the sampled cells large, fewer
    /// than k cells reach the guess and the selection falls back to every
    /// cell. At the edge, exactly k − 1 or exactly k cells reach the guess:
    /// unsampled cells set to the guess itself, which the sample cannot
    /// see. Every body returns the exact top k.
    #[test]
    fn a_guess_the_sample_gets_wrong_costs_time_not_bits() {
        let (d, k) = (4096, 1000);
        let mut sampled = vec![false; d];
        sample_positions(d).for_each(|i| sampled[i] = true);
        let mut rng = SmallRng::seed_from_u64(16);
        let base = values(&mut rng, d, 0);
        let layout = |large_if_sampled: bool| -> Vec<f32> {
            let large = |i: usize| sampled[i] == large_if_sampled;
            (0..d).map(|i| if large(i) { 10.0 + base[i] } else { 1e-3 * base[i] }).collect()
        };
        let (off_sample, on_sample) = (layout(false), layout(true));
        let guess = |dense: &[f32]| guess(dense, k, |keys, r| portable::largest(keys, r).0);
        let reaching = |dense: &[f32]| {
            let (lo, _) = guess(dense).unwrap();
            dense.iter().filter(|&&x| key(x) >= lo).count()
        };
        let unsampled = sampled.iter().filter(|&&s| !s).count();
        assert!(reaching(&off_sample) > unsampled, "the guess should let every large cell in");
        assert!(reaching(&on_sample) < k, "the guess should fall short of k");
        check(&off_sample, [k]);
        check(&on_sample, [k]);
        let (lo, _) = guess(&on_sample).unwrap();
        for short in [1, 0] {
            let mut edge = on_sample.clone();
            let missing = k - short - reaching(&on_sample);
            for i in (0..d).filter(|&i| !sampled[i]).take(missing) {
                edge[i] = f32::from_bits(lo);
            }
            assert_eq!(reaching(&edge), k - short);
            check(&edge, [k]);
        }
    }
}
