//! Sparsified gradient representation and selection policies.
//!
//! Clients encode their local model delta as `(index, value)` pairs
//! (Section 2.1). Top-k keeps the k largest-magnitude coordinates — the
//! standard, *data-dependent* policy whose index set the paper's attack
//! exploits; random-k is the data-independent alternative (ref. 24) that
//! leaks nothing by construction; threshold keeps everything above a
//! magnitude cutoff (variable k, ref. 65). Every policy emits its cells in
//! ascending index order; top-k and random-k in vectors of capacity k.
//!
//! **Top-k, exactly, with a canonical tie rule.** A value's ordering key
//! is `x.to_bits() & 0x7FFF_FFFF`: `|x|` under `f32::total_cmp`, read as
//! an integer — ±0.0 are equal, subnormals sit above zero, NaNs (any sign
//! or payload) above ±∞. With T the k-th largest key, top-k keeps every
//! cell whose key exceeds T and, of the cells whose key equals T, the
//! ones with the **lowest indices**, as many as make k. An upload is thus
//! a function of the delta alone; the choice among ties used to be
//! whatever std's `select_nth_unstable_by` did, which is unspecified and
//! has changed between Rust releases.
//!
//! The selection is O(d) and sorts nothing of length d. A sample of 256
//! keys, spread over the vector by the golden ratio, guesses a lower bound
//! `lo` on T; one pass over the d cells collects, in index order, the
//! cells whose key is at least `lo` — the top k and a few hundred more.
//! If fewer than k turn up, the guess was wrong and every cell is a
//! candidate instead, so the answer never depends on the sample. T is
//! selected among the candidates' keys, and one walk over the candidates
//! writes the k cells in index order straight into vectors of capacity k.
//!
//! It lives in [`olive_nn::topk`], beside the Dense kernels, because it
//! has an AVX-512 body (`olive-fl` has no `unsafe`). That body compares
//! 16 keys a step and compresses the hits' indices and bits in registers,
//! and emits the k cells by masked compress-stores. The portable body,
//! for other CPUs, compares 32 keys a block into a mask — the compiler
//! vectorises that part — but then pushes one index per hit, a loop whose
//! trip count is the data's and whose pushes cost more than the compares.
//! Both return the same bits.
//!
//! Every call brings new data, so the branch predictor learns nothing
//! from one client for the next; a benchmark that repeats one input hides
//! mispredictions. Time a change on deltas dumped from a round, each used
//! once.

use rand::Rng;

/// A sparsified gradient: `k` of `d` coordinates as parallel index/value
/// arrays, sorted by index.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseGradient {
    /// Dense dimension d.
    pub dense_dim: usize,
    /// Kept coordinate indices (strictly increasing).
    pub indices: Vec<u32>,
    /// Values aligned with `indices`.
    pub values: Vec<f32>,
}

/// Sparsification policy (the paper's `TopkSparse` plus the alternatives
/// discussed in Sections 2.1 and 3.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sparsifier {
    /// Keep the k largest-|value| coordinates (data-dependent, leaky).
    TopK(usize),
    /// Keep k uniformly random coordinates (data-independent: the index
    /// set is uncorrelated with training data, so index leakage is
    /// harmless — the paper's Section 3.3 "random-k involves no risk").
    RandomK(usize),
    /// Keep coordinates with |value| ≥ threshold.
    Threshold(f32),
}

impl SparseGradient {
    /// Number of transmitted coordinates k.
    pub fn k(&self) -> usize {
        self.indices.len()
    }

    /// Applies a sparsification policy to a dense vector. The cells come
    /// out in ascending index order; top-k and random-k return vectors of
    /// capacity k, threshold at most twice its count.
    ///
    /// `TopK(k)` keeps the min(k, d) cells of largest `|x|` (ordered by the
    /// key `x.to_bits() & 0x7FFF_FFFF`, so NaN ranks above ∞ and ±0.0 tie)
    /// and breaks a tie at the threshold towards the **lowest indices**. It
    /// costs O(d) time whatever the values, and its scratch is a few
    /// hundred cells beyond k unless the data fools its sample; see the
    /// module docs. `RandomK` draws its indices with a partial
    /// Fisher–Yates, which is O(d) as well.
    pub fn from_dense<R: Rng>(dense: &[f32], policy: Sparsifier, rng: &mut R) -> Self {
        let d = dense.len();
        let indices: Vec<u32> = match policy {
            Sparsifier::TopK(k) => return top_k(dense, k),
            Sparsifier::RandomK(k) => {
                let k = k.min(d);
                // Partial Fisher–Yates over the index range.
                let mut order: Vec<u32> = (0..d as u32).collect();
                for t in 0..k {
                    let j = rng.gen_range(t..d);
                    order.swap(t, j);
                }
                let mut picked = order[..k].to_vec();
                picked.sort_unstable();
                picked
            }
            Sparsifier::Threshold(t) => {
                (0..d as u32).filter(|&i| dense[i as usize].abs() >= t).collect()
            }
        };
        let values = indices.iter().map(|&i| dense[i as usize]).collect();
        SparseGradient { dense_dim: d, indices, values }
    }

    /// Densifies back to `d` coordinates (zeros elsewhere).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_dim];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
        out
    }

    /// ℓ2 norm of the kept values.
    pub fn l2_norm(&self) -> f32 {
        olive_dp::l2_norm(&self.values)
    }

    /// Clips the value vector to ℓ2 norm at most `c` (Algorithm 6 line 22;
    /// with sparsification only the k kept values contribute to the norm —
    /// the utility observation of Appendix D.2).
    pub fn clip_l2(&mut self, c: f32) {
        olive_dp::clip_l2(&mut self.values, c);
    }

    /// Serializes to the wire format the client encrypts:
    /// `d:u32 ‖ k:u32 ‖ (index:u32 ‖ value:f32-bits)×k`, little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_len()];
        self.encode_to(&mut out);
        out
    }

    /// Bytes of the wire format's `d:u32 ‖ k:u32` header.
    pub const HEADER_LEN: usize = 8;

    /// Bytes of the wire format: [`SparseGradient::HEADER_LEN`] + 8k.
    pub fn encoded_len(&self) -> usize {
        Self::HEADER_LEN + 8 * self.k()
    }

    /// [`SparseGradient::encode`] into a caller's buffer of exactly
    /// [`SparseGradient::encoded_len`] bytes, in one pass: a cell is one
    /// 8-byte store, `value bits << 32 | index` little-endian.
    pub fn encode_to(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.encoded_len(), "encode buffer length");
        let (head, cells) = out.split_at_mut(Self::HEADER_LEN);
        head[..4].copy_from_slice(&(self.dense_dim as u32).to_le_bytes());
        head[4..].copy_from_slice(&(self.k() as u32).to_le_bytes());
        for ((dst, &i), &v) in cells.chunks_exact_mut(8).zip(&self.indices).zip(&self.values) {
            dst.copy_from_slice(&((u64::from(v.to_bits()) << 32) | u64::from(i)).to_le_bytes());
        }
    }

    /// Parses the wire format. Returns `None` on malformed input: fewer
    /// than [`SparseGradient::HEADER_LEN`] bytes, a length other than
    /// `8 + 8k`, or an index at or above d.
    ///
    /// One pass reads each cell as one little-endian `u64` and splits it;
    /// the indices are checked against d once, by their largest.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (head, cells) = bytes.split_first_chunk::<{ Self::HEADER_LEN }>()?;
        let d = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let k = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
        if cells.len() % 8 != 0 || cells.len() / 8 != k {
            return None;
        }
        let (mut indices, mut values) = (vec![0; k], vec![0.0; k]);
        let mut largest = 0;
        for ((cell, i), v) in cells.chunks_exact(8).zip(&mut indices).zip(&mut values) {
            let cell = u64::from_le_bytes(cell.try_into().expect("8-byte cell"));
            (*i, *v) = (cell as u32, f32::from_bits((cell >> 32) as u32));
            largest = largest.max(*i);
        }
        (k == 0 || (largest as usize) < d).then_some(SparseGradient {
            dense_dim: d,
            indices,
            values,
        })
    }
}

/// [`olive_nn::topk::top_k`] as a sparse gradient.
fn top_k(dense: &[f32], k: usize) -> SparseGradient {
    let (indices, values) = olive_nn::topk::top_k(dense, k);
    SparseGradient { dense_dim: dense.len(), indices, values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let dense = vec![0.1f32, -5.0, 0.0, 3.0, -0.2, 4.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(3), &mut rng());
        assert_eq!(sg.indices, vec![1, 3, 5]);
        assert_eq!(sg.values, vec![-5.0, 3.0, 4.0]);
    }

    #[test]
    fn topk_k_larger_than_d() {
        let dense = vec![1.0f32, 2.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(10), &mut rng());
        assert_eq!(sg.k(), 2);
    }

    #[test]
    fn empty_input_and_zero_k_give_the_empty_gradient() {
        let policies = [Sparsifier::TopK(3), Sparsifier::RandomK(3), Sparsifier::Threshold(0.5)];
        for policy in policies.into_iter().chain([Sparsifier::TopK(0), Sparsifier::RandomK(0)]) {
            let sg = SparseGradient::from_dense(&[], policy, &mut rng());
            assert_eq!((sg.dense_dim, sg.k()), (0, 0), "{policy:?} on the empty vector");
        }
        let sg = SparseGradient::from_dense(&[1.0, -2.0], Sparsifier::TopK(0), &mut rng());
        assert_eq!((sg.dense_dim, sg.k()), (2, 0));
    }

    #[test]
    fn random_k_distinct_sorted_indices() {
        let dense = vec![1.0f32; 100];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::RandomK(10), &mut rng());
        assert_eq!(sg.k(), 10);
        for w in sg.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn random_k_is_data_independent() {
        // Identical RNG streams → identical index sets for different data.
        let a = SparseGradient::from_dense(&[1.0f32; 50], Sparsifier::RandomK(5), &mut rng());
        let data_b: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let b = SparseGradient::from_dense(&data_b, Sparsifier::RandomK(5), &mut rng());
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn threshold_policy() {
        let dense = vec![0.1f32, -2.0, 0.5, 3.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::Threshold(0.5), &mut rng());
        assert_eq!(sg.indices, vec![1, 2, 3]);
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0.0f32, -1.5, 0.0, 2.5, 0.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(2), &mut rng());
        assert_eq!(sg.to_dense(), dense);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dense = vec![0.5f32, -1.5, 0.0, 2.5];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(3), &mut rng());
        let bytes = sg.encode();
        assert_eq!(SparseGradient::decode(&bytes).unwrap(), sg);
    }

    #[test]
    fn encode_writes_the_documented_wire_format_over_any_buffer() {
        let sg = SparseGradient { dense_dim: 9, indices: vec![2, 7], values: vec![1.5, -0.0] };
        let words = [9, 2, 2, 1.5f32.to_bits(), 7, (-0.0f32).to_bits()];
        let want: Vec<u8> = words.iter().flat_map(|w: &u32| w.to_le_bytes()).collect();
        assert_eq!((sg.encoded_len(), sg.encode()), (want.len(), want.clone()));
        let mut reused = vec![0xAA; sg.encoded_len()];
        sg.encode_to(&mut reused);
        assert_eq!(reused, want);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(SparseGradient::decode(&[]).is_none());
        assert!(SparseGradient::decode(&[0; 7]).is_none());
        // k claims more cells than present.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]); // only one cell
        assert!(SparseGradient::decode(&bytes).is_none());
        // Index out of range.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
        assert!(SparseGradient::decode(&bytes).is_none());
    }

    /// The decoder [`SparseGradient::decode`] replaced: field by field,
    /// each index checked as it is read.
    fn decode_oracle(bytes: &[u8]) -> Option<SparseGradient> {
        if bytes.len() < SparseGradient::HEADER_LEN {
            return None;
        }
        let d = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let k = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        if bytes.len() != SparseGradient::HEADER_LEN + k * 8 {
            return None;
        }
        let mut indices = Vec::with_capacity(k);
        let mut values = Vec::with_capacity(k);
        for c in 0..k {
            let off = SparseGradient::HEADER_LEN + c * 8;
            let i = u32::from_le_bytes(bytes[off..off + 4].try_into().ok()?);
            if i as usize >= d {
                return None;
            }
            indices.push(i);
            values
                .push(f32::from_bits(u32::from_le_bytes(bytes[off + 4..off + 8].try_into().ok()?)));
        }
        Some(SparseGradient { dense_dim: d, indices, values })
    }

    /// Both decoders accept and reject the same inputs, and agree bit for
    /// bit on what they accept: every truncation of a well-formed upload,
    /// every wrong k, and an index equal to d (or the largest u32) in the
    /// first, a middle and the last cell.
    #[test]
    fn decode_agrees_with_the_field_by_field_decoder() {
        let same = |bytes: &[u8]| {
            let (got, want) = (SparseGradient::decode(bytes), decode_oracle(bytes));
            let bits = |g: &SparseGradient| {
                let values: Vec<u32> = g.values.iter().map(|v| v.to_bits()).collect();
                (g.dense_dim, g.indices.clone(), values)
            };
            assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "{bytes:?}");
            got.is_some()
        };
        let mut rng = SmallRng::seed_from_u64(8);
        let d = 97;
        let mut dense: Vec<f32> = (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        dense[3] = f32::from_bits(0xFFC0_1234);
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(9), &mut rng);
        let bytes = sg.encode();
        assert!(same(&bytes));
        for len in 0..bytes.len() {
            assert!(!same(&bytes[..len]), "truncated to {len}");
        }
        for k in (0..20u32).chain([u32::MAX / 8, u32::MAX]) {
            let mut wrong = bytes.clone();
            wrong[4..8].copy_from_slice(&k.to_le_bytes());
            assert_eq!(same(&wrong), k == 9, "k = {k}");
        }
        for cell in [0, 4, 8] {
            for (index, accepted) in [(d - 1, true), (d, false), (u32::MAX, false)] {
                let mut bad = bytes.clone();
                let at = SparseGradient::HEADER_LEN + 8 * cell;
                bad[at..at + 4].copy_from_slice(&index.to_le_bytes());
                assert_eq!(same(&bad), accepted, "index {index} in cell {cell}");
            }
        }
        let empty = SparseGradient { dense_dim: 0, indices: vec![], values: vec![] };
        assert!(same(&empty.encode()));
        assert!(same(&[0, 0, 0, 0, 0, 0, 0, 0]) && !same(&[0, 0, 0, 0, 1, 0, 0, 0]));
    }

    #[test]
    fn clip_bounds_norm() {
        let mut sg = SparseGradient { dense_dim: 4, indices: vec![0, 1], values: vec![3.0, 4.0] };
        sg.clip_l2(1.0);
        assert!((sg.l2_norm() - 1.0).abs() < 1e-5);
    }

    /// The selection the one-pass top-k replaced: an indirect
    /// `select_nth_unstable_by` over `(0..d)`, then a sort. Which of the
    /// keys tied at the threshold it keeps is unspecified.
    fn oracle(dense: &[f32], k: usize) -> Vec<u32> {
        let k = k.min(dense.len());
        let mut order: Vec<u32> = (0..dense.len() as u32).collect();
        if k > 0 {
            order.select_nth_unstable_by(k - 1, |&a, &b| {
                dense[b as usize].abs().total_cmp(&dense[a as usize].abs())
            });
        }
        order.truncate(k);
        order.sort_unstable();
        order
    }

    /// The ordering key of the module docs.
    fn key(x: f32) -> u32 {
        x.to_bits() & 0x7FFF_FFFF
    }

    /// For each k: the selection returns the canonical cells — strictly
    /// ascending, exactly min(k, d) of them, bits and all, in vectors of
    /// capacity min(k, d) — and the replaced selection agrees whenever the
    /// k-th and (k+1)-th largest keys differ.
    fn check(dense: &[f32], ks: impl IntoIterator<Item = usize>) {
        let d = dense.len();
        // The tie rule, spelled out: a stable sort by key, largest first,
        // ranks the lowest index first among equal keys.
        let mut ranked: Vec<u32> = (0..d as u32).collect();
        ranked.sort_by_key(|&i| std::cmp::Reverse(key(dense[i as usize])));
        let key_at = |rank: usize| key(dense[ranked[rank] as usize]);
        for k in ks {
            let n = k.min(d);
            let mut want = ranked[..n].to_vec();
            want.sort_unstable();
            let got = top_k(dense, k);
            assert_eq!((got.dense_dim, &got.indices), (d, &want), "d={d} k={k}");
            assert!(got.indices.windows(2).all(|w| w[0] < w[1]), "d={d} k={k}");
            let mut values = got.values.iter().zip(&want);
            let same_bits = values.all(|(v, &i)| v.to_bits() == dense[i as usize].to_bits());
            assert!(same_bits, "d={d} k={k}");
            let capacity = (got.indices.capacity(), got.values.capacity());
            assert_eq!(capacity, (n, n), "d={d} k={k}");
            if n == 0 || n == d || key_at(n - 1) != key_at(n) {
                assert_eq!(oracle(dense, k), want, "the replaced selection, d={d} k={k}");
            }
        }
    }

    /// `d` values of one of three kinds: continuous in (-2, 2) (ties
    /// unlikely); those with a share of ±0.0, subnormals, ±∞ and NaNs with
    /// payloads; or a palette of five magnitudes (heavy ties).
    fn values(rng: &mut SmallRng, d: usize, kind: usize) -> Vec<f32> {
        const SPECIAL: [u32; 10] = [
            0x0000_0000, // 0.0
            0x8000_0000, // -0.0
            0x0000_0001, // the smallest subnormal
            0x806D_3A1B, // a negative subnormal
            0x7F80_0000, // ∞
            0xFF80_0000, // -∞
            0x7FC0_0000, // the quiet NaN
            0xFFC0_1234, // a negative NaN with a payload
            0x7F80_0001, // a signalling NaN
            0x7F7F_FFFF, // f32::MAX
        ];
        const PALETTE: [f32; 5] = [0.0, 0.25, -0.5, 0.5, 1.0];
        (0..d)
            .map(|_| match kind {
                1 if rng.gen_bool(0.2) => f32::from_bits(SPECIAL[rng.gen_range(0..SPECIAL.len())]),
                2 => PALETTE[rng.gen_range(0..PALETTE.len())],
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// Every d in 1…300 (every remainder of a 32-cell block, and a sample
    /// of d positions, which may repeat, up to d = 256): every k in 0…d+1
    /// up to d = 48, the edges, a few fractions of d and four random k above.
    #[test]
    fn top_k_matches_the_canonical_rule_and_the_replaced_selection() {
        let mut rng = SmallRng::seed_from_u64(21);
        for d in 1..=300 {
            for kind in 0..3 {
                let ks: Vec<usize> = match d {
                    ..=48 => (0..=d + 1).collect(),
                    _ => [0, 1, 2, d / 16, d / 4, d / 2, d - 2, d - 1, d, d + 1]
                        .into_iter()
                        .chain((0..4).map(|_| rng.gen_range(0..=d + 1)))
                        .collect(),
                };
                check(&values(&mut rng, d, kind), ks);
            }
        }
    }

    /// Longer vectors, where the sample covers a fraction of the cells and
    /// its guess is a real one, at the benchmark's shapes and random ones.
    #[test]
    fn long_inputs_match_the_canonical_rule() {
        let mut rng = SmallRng::seed_from_u64(4210);
        for (d, k) in [(9610, 96), (4210, 421), (50_890, 5089)] {
            check(&values(&mut rng, d, 0), [k]);
        }
        for _ in 0..24 {
            let d = rng.gen_range(300..20_000);
            let (k, kind) = (rng.gen_range(0..=d / 4), rng.gen_range(0..3));
            check(&values(&mut rng, d, kind), [k]);
        }
    }

    #[test]
    fn at_the_threshold_the_lowest_index_wins() {
        // Ranks 2 and 3 tie at |2.0|: the lower index, 2, is kept.
        let dense = [0.1f32, 3.0, -2.0, 0.5, 2.0, 1.0];
        // ±0.0 tie: -0.0 at index 0 is kept, sign bit and all.
        let zeros = [-0.0f32, 0.0, 0.0];
        // Three hundred tied cells across many 32-cell blocks.
        let flat = [1.0f32; 1000];
        let sg = top_k(&dense, 2);
        assert_eq!((sg.indices, sg.values), (vec![1, 2], vec![3.0, -2.0]));
        let sg = top_k(&zeros, 1);
        assert_eq!(sg.indices, vec![0]);
        assert_eq!(sg.values[0].to_bits(), (-0.0f32).to_bits());
        let sg = top_k(&flat, 300);
        assert_eq!(sg.indices, (0..300).collect::<Vec<u32>>());
    }

    #[test]
    fn no_policy_keeps_more_capacity_than_its_cells() {
        let mut rng = rng();
        let dense = values(&mut rng, 10_000, 0);
        for policy in [Sparsifier::TopK(421), Sparsifier::RandomK(421), Sparsifier::Threshold(1.9)]
        {
            let sg = SparseGradient::from_dense(&dense, policy, &mut rng);
            let k = sg.k();
            assert!(k > 0, "{policy:?}");
            // A collected filter grows by doubling: at most 2k, and 4 at least.
            let bound = if let Sparsifier::Threshold(_) = policy { 2 * k.max(4) } else { k };
            assert!(sg.indices.capacity() <= bound, "{policy:?}: {}", sg.indices.capacity());
            assert!(sg.values.capacity() <= bound, "{policy:?}: {}", sg.values.capacity());
        }
    }

    #[test]
    fn topk_index_set_correlates_with_data() {
        // The heart of the attack: two different "clients" (dense vectors
        // with energy in different coordinate blocks) produce disjoint
        // top-k index sets.
        let mut a = vec![0.01f32; 100];
        let mut b = vec![0.01f32; 100];
        for i in 0..10 {
            a[i] = 1.0 + i as f32;
            b[50 + i] = 1.0 + i as f32;
        }
        let sa = SparseGradient::from_dense(&a, Sparsifier::TopK(10), &mut rng());
        let sb = SparseGradient::from_dense(&b, Sparsifier::TopK(10), &mut rng());
        assert!(sa.indices.iter().all(|i| *i < 10));
        assert!(sb.indices.iter().all(|i| *i >= 50 && *i < 60));
    }
}
