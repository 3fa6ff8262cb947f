//! Dense-layer kernels that run at the CPU's vector width without
//! changing one bit of any result.
//!
//! The rule is that every accumulation chain keeps its order —
//! `out[s][o] = ((b[o] + w[o][0]·x[s][0]) + w[o][1]·x[s][1]) + …`,
//! `grad_w[o][i]` and `grad_b[o]` summed over samples in ascending `s`,
//! `gin[s][i]` over outputs in ascending `o`, multiply then add, never
//! fused — so a vector's lanes are only ever *independent* chains and one
//! chain is never split across lanes. The forward pass puts the samples
//! of a batch in the lanes (it needs only the small input transposed,
//! never `Wᵀ`) with four output chains in flight; the backward pass holds
//! a tile of `in_dim` in registers across its sample / output loop.
//!
//! [`body`] is one safe generic body compiled three times — portable,
//! `avx2`, `avx512f` — and [`run`] picks the widest one the CPU has. There
//! is no knob: the width changes speed and nothing else, which the
//! differential test below checks by `to_bits` against the scalar oracle.

use std::sync::OnceLock;

/// One Dense-layer pass over a batch of `n` samples. `w` is row-major
/// `(out_dim, in_dim)`, `x` is `(n, in_dim)`, `gout` / `out` are
/// `(n, out_dim)`; the dimensions are read off the slice lengths.
pub(crate) enum Op<'a> {
    /// `out = x·Wᵀ + b`. `xt` is scratch for the transposed input.
    Forward { w: &'a [f32], b: &'a [f32], x: &'a [f32], xt: &'a mut Vec<f32>, out: &'a mut [f32] },
    /// Accumulates `grad_w` and `grad_b`; with `input_grad = Some((w, gin))`
    /// also overwrites `gin` (`(n, in_dim)`) with the input gradient.
    Backward {
        x: &'a [f32],
        gout: &'a [f32],
        grad_w: &'a mut [f32],
        grad_b: &'a mut [f32],
        input_grad: Option<(&'a [f32], &'a mut [f32])>,
    },
}

/// The instruction sets [`body`] is compiled for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Width {
    /// Baseline target features, four lanes.
    Portable,
    /// 256-bit, eight lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit, sixteen lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Width {
    /// Every width this build knows, narrowest first.
    #[cfg(test)]
    pub(crate) const ALL: &'static [Width] = &[
        Width::Portable,
        #[cfg(target_arch = "x86_64")]
        Width::Avx2,
        #[cfg(target_arch = "x86_64")]
        Width::Avx512,
    ];

    /// Whether this CPU can run the monomorphization.
    pub(crate) fn available(self) -> bool {
        match self {
            Width::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// The widest available one, detected once per process.
    fn best() -> Width {
        static BEST: OnceLock<Width> = OnceLock::new();
        *BEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            for w in [Width::Avx512, Width::Avx2] {
                if w.available() {
                    return w;
                }
            }
            Width::Portable
        })
    }
}

/// Runs `op` at the widest instruction set the CPU supports.
pub(crate) fn run(op: Op<'_>) {
    run_at(Width::best(), op);
}

/// Runs `op` through one named monomorphization (the tests call each).
/// Panics if the CPU lacks it.
#[allow(unsafe_code)]
pub(crate) fn run_at(width: Width, op: Op<'_>) {
    assert!(width.available(), "{width:?} kernels are not supported by this CPU");
    match width {
        Width::Portable => body::<4>(op),
        // SAFETY: the only requirement of a `#[target_feature]` function is
        // that the CPU has the feature, and `available` just confirmed it.
        #[cfg(target_arch = "x86_64")]
        Width::Avx2 => unsafe { body_avx2(op) },
        // SAFETY: as above, for `avx512f`.
        #[cfg(target_arch = "x86_64")]
        Width::Avx512 => unsafe { body_avx512(op) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn body_avx2(op: Op<'_>) {
    body::<8>(op)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn body_avx512(op: Op<'_>) {
    body::<16>(op)
}

/// The kernels, generic over the lane count `L`. Everything below must
/// inline into the three monomorphizations above: anything LLVM outlines
/// is compiled without the wide target feature.
#[inline(always)]
fn body<const L: usize>(op: Op<'_>) {
    match op {
        Op::Forward { w, b, x, xt, out } => forward::<L>(w, b, x, xt, out),
        Op::Backward { x, gout, grad_w, grad_b, input_grad } => {
            backward::<L>(x, gout, grad_w, grad_b, input_grad)
        }
    }
}

/// `L` independent f32 chains, one per lane.
#[derive(Clone, Copy)]
struct Lanes<const L: usize>([f32; L]);

impl<const L: usize> Lanes<L> {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        Lanes([v; L])
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let mut v = [0.0; L];
        v.copy_from_slice(&src[..L]);
        Lanes(v)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..L].copy_from_slice(&self.0);
    }

    /// `self + a·b` per lane: one rounding for the product, one for the
    /// sum, as in the scalar `acc += a * b`.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    fn mul_add(mut self, a: Self, b: Self) -> Self {
        for l in 0..L {
            self.0[l] += a.0[l] * b.0[l];
        }
        self
    }
}

/// Output chains the forward pass keeps in flight (hides the add latency).
const CHAINS: usize = 4;

/// Lanes = samples: `xt` receives the input transposed in blocks of `L`
/// samples (`[block][i][lane]`), so `w[o][·]` is read contiguously as
/// broadcasts and θ keeps its row-major layout. The lanes past the last
/// sample hold whatever `xt` held before: their chains are computed and
/// dropped.
#[inline(always)]
fn forward<const L: usize>(w: &[f32], b: &[f32], x: &[f32], xt: &mut Vec<f32>, out: &mut [f32]) {
    let out_dim = b.len();
    if out_dim == 0 {
        return;
    }
    let in_dim = w.len() / out_dim;
    let n = out.len() / out_dim;
    let block_len = in_dim * L;
    xt.resize(n.div_ceil(L) * block_len, 0.0);
    if in_dim > 0 {
        for (s, xs) in x.chunks_exact(in_dim).enumerate() {
            let base = (s / L) * block_len + s % L;
            for (i, &v) in xs.iter().enumerate() {
                xt[base + i * L] = v;
            }
        }
    }
    for blk in 0..n.div_ceil(L) {
        let xb = &xt[blk * block_len..(blk + 1) * block_len];
        let samples = blk * L..n.min((blk + 1) * L);
        for o in (0..out_dim).step_by(CHAINS) {
            // A short last tile recomputes its final row in the spare chains.
            let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|c| (o + c).min(out_dim - 1));
            let [w0, w1, w2, w3] = [r0, r1, r2, r3].map(|r| &w[r * in_dim..(r + 1) * in_dim]);
            let (mut a0, mut a1, mut a2, mut a3) = (
                Lanes::<L>::splat(b[r0]),
                Lanes::<L>::splat(b[r1]),
                Lanes::<L>::splat(b[r2]),
                Lanes::<L>::splat(b[r3]),
            );
            let ws = w0.iter().zip(w1).zip(w2).zip(w3);
            for (xv, (((&c0, &c1), &c2), &c3)) in xb.chunks_exact(L).zip(ws) {
                let xv = Lanes::<L>::load(xv);
                a0 = a0.mul_add(Lanes::splat(c0), xv);
                a1 = a1.mul_add(Lanes::splat(c1), xv);
                a2 = a2.mul_add(Lanes::splat(c2), xv);
                a3 = a3.mul_add(Lanes::splat(c3), xv);
            }
            let accs = [a0, a1, a2, a3];
            for (lane, s) in samples.clone().enumerate() {
                let os = &mut out[s * out_dim + o..(s + 1) * out_dim];
                for (ov, acc) in os.iter_mut().zip(&accs) {
                    *ov = acc.0[lane];
                }
            }
        }
    }
}

/// Lanes = a tile of `in_dim`: one [`accumulate_rows`] per `grad_w` row
/// (over the samples) and per `gin` row (over the outputs).
#[inline(always)]
fn backward<const L: usize>(
    x: &[f32],
    gout: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
    input_grad: Option<(&[f32], &mut [f32])>,
) {
    let out_dim = grad_b.len();
    if out_dim == 0 {
        return;
    }
    let in_dim = grad_w.len() / out_dim;
    let n = gout.len() / out_dim;
    for g in gout.chunks_exact(out_dim) {
        for (acc, &gv) in grad_b.iter_mut().zip(g) {
            *acc += gv;
        }
    }
    if in_dim == 0 || n == 0 {
        return;
    }
    // grad_w[o][·] += Σ_s gout[s][o] · x[s][·]
    for (o, row) in grad_w.chunks_exact_mut(in_dim).enumerate() {
        accumulate_rows::<L>(row, &gout[o..], out_dim, x, n);
    }
    if let Some((w, gin)) = input_grad {
        // gin[s][·] = 0 + Σ_o gout[s][o] · w[o][·]
        gin.fill(0.0);
        for (row, g) in gin.chunks_exact_mut(in_dim).zip(gout.chunks_exact(out_dim)) {
            accumulate_rows::<L>(row, g, 1, w, out_dim);
        }
    }
}

/// `acc[i] += Σ_j coef[j·stride] · rows[j·width + i]` for every
/// `i < width = acc.len()`, each sum in ascending `j`. Lanes = a tile of
/// `i`, carried in registers across the `j` loop.
#[inline(always)]
fn accumulate_rows<const L: usize>(
    acc: &mut [f32],
    coef: &[f32],
    stride: usize,
    rows: &[f32],
    count: usize,
) {
    let width = acc.len();
    let mut i = 0;
    while i + 4 * L <= width {
        let t = &mut acc[i..i + 4 * L];
        let (mut a0, mut a1, mut a2, mut a3) = (
            Lanes::<L>::load(t),
            Lanes::<L>::load(&t[L..]),
            Lanes::<L>::load(&t[2 * L..]),
            Lanes::<L>::load(&t[3 * L..]),
        );
        for j in 0..count {
            let c = Lanes::splat(coef[j * stride]);
            let r = &rows[j * width + i..j * width + i + 4 * L];
            a0 = a0.mul_add(c, Lanes::load(r));
            a1 = a1.mul_add(c, Lanes::load(&r[L..]));
            a2 = a2.mul_add(c, Lanes::load(&r[2 * L..]));
            a3 = a3.mul_add(c, Lanes::load(&r[3 * L..]));
        }
        a0.store(t);
        a1.store(&mut t[L..]);
        a2.store(&mut t[2 * L..]);
        a3.store(&mut t[3 * L..]);
        i += 4 * L;
    }
    while i + L <= width {
        let mut a = Lanes::<L>::load(&acc[i..]);
        for j in 0..count {
            a = a.mul_add(Lanes::splat(coef[j * stride]), Lanes::load(&rows[j * width + i..]));
        }
        a.store(&mut acc[i..]);
        i += L;
    }
    // Fewer than `L` columns left: the chains stay in memory.
    for j in 0..count {
        let c = coef[j * stride];
        for (a, &r) in acc[i..].iter_mut().zip(&rows[j * width + i..(j + 1) * width]) {
            *a += c * r;
        }
    }
}

/// The scalar loops the kernels replaced, kept as the reference the
/// differential tests compare against bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    /// `out[s][o] = b[o] + Σ_i w[o][i]·x[s][i]`, strictly left to right.
    pub(crate) fn forward(w: &[f32], b: &[f32], x: &[f32], n: usize) -> Vec<f32> {
        let (out_dim, in_dim) = (b.len(), w.len() / b.len());
        let mut out = vec![0.0f32; n * out_dim];
        for s in 0..n {
            let xs = &x[s * in_dim..(s + 1) * in_dim];
            let os = &mut out[s * out_dim..(s + 1) * out_dim];
            for (o, ov) in os.iter_mut().enumerate() {
                let row = &w[o * in_dim..(o + 1) * in_dim];
                let mut acc = b[o];
                for (wv, xv) in row.iter().zip(xs.iter()) {
                    acc += wv * xv;
                }
                *ov = acc;
            }
        }
        out
    }

    /// Accumulates `grad_w` / `grad_b` and returns the input gradient.
    pub(crate) fn backward(
        w: &[f32],
        x: &[f32],
        gout: &[f32],
        n: usize,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    ) -> Vec<f32> {
        let (out_dim, in_dim) = (grad_b.len(), w.len() / grad_b.len());
        let mut gin = vec![0.0f32; n * in_dim];
        for s in 0..n {
            let xs = &x[s * in_dim..(s + 1) * in_dim];
            let gs = &gout[s * out_dim..(s + 1) * out_dim];
            let gis = &mut gin[s * in_dim..(s + 1) * in_dim];
            for (o, &g) in gs.iter().enumerate() {
                grad_b[o] += g;
                let wrow = &w[o * in_dim..(o + 1) * in_dim];
                let gwrow = &mut grad_w[o * in_dim..(o + 1) * in_dim];
                for i in 0..in_dim {
                    gwrow[i] += g * xs[i];
                    gis[i] += g * wrow[i];
                }
            }
        }
        gin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Equal bits — except that two NaNs count as equal whatever their
    /// sign and payload: Rust leaves both unspecified for every float
    /// operation, so not even two builds of the scalar loop promise them.
    fn same(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// `len` values in (-2, 2), a `specials` share of them replaced by
    /// ±0.0, subnormals, ±∞ and NaN.
    fn values(rng: &mut SmallRng, len: usize, specials: f64) -> Vec<f32> {
        const SPECIAL: [f32; 8] =
            [0.0, -0.0, 1e-40, -1e-40, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 3.0e38];
        (0..len)
            .map(|_| match rng.gen_bool(specials) {
                true => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                false => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// The widths this CPU can run; reports the ones it cannot, once.
    fn widths() -> Vec<Width> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        let (ran, skipped): (Vec<Width>, Vec<Width>) =
            Width::ALL.iter().partition(|w| w.available());
        REPORT.call_once(|| {
            println!("nn kernel widths exercised: {ran:?}; skipped (CPU lacks them): {skipped:?}");
        });
        ran
    }

    /// Forward, then two backward batches without zeroing the gradients in
    /// between, through every available width and through the oracle.
    fn check(n: usize, in_dim: usize, out_dim: usize, seed: u64, specials: f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = values(&mut rng, out_dim * in_dim, specials);
        let b = values(&mut rng, out_dim, specials);
        let batches: [(Vec<f32>, Vec<f32>); 2] = std::array::from_fn(|_| {
            (values(&mut rng, n * in_dim, specials), values(&mut rng, n * out_dim, specials))
        });
        let (grad_w0, grad_b0) = (values(&mut rng, w.len(), 0.0), values(&mut rng, out_dim, 0.0));

        let want_out = oracle::forward(&w, &b, &batches[0].0, n);
        let (mut want_gw, mut want_gb) = (grad_w0.clone(), grad_b0.clone());
        let want_gin: Vec<Vec<f32>> = batches
            .iter()
            .map(|(x, gout)| oracle::backward(&w, x, gout, n, &mut want_gw, &mut want_gb))
            .collect();

        for width in widths() {
            let ctx = format!("{width:?} n={n} in={in_dim} out={out_dim} seed={seed}");
            let (mut xt, mut out) = (Vec::new(), vec![f32::NAN; n * out_dim]);
            let x = &batches[0].0;
            run_at(width, Op::Forward { w: &w, b: &b, x, xt: &mut xt, out: &mut out });
            assert!(same(&out, &want_out), "forward {ctx}");

            // Parameters only, then with the input gradient: the same sums.
            for with_gin in [false, true] {
                let (mut gw, mut gb) = (grad_w0.clone(), grad_b0.clone());
                for ((x, gout), want) in batches.iter().zip(&want_gin) {
                    let mut gin = vec![f32::NAN; n * in_dim];
                    let input_grad = with_gin.then_some((&w[..], &mut gin[..]));
                    let (grad_w, grad_b) = (&mut gw[..], &mut gb[..]);
                    run_at(width, Op::Backward { x, gout, grad_w, grad_b, input_grad });
                    assert!(!with_gin || same(&gin, want), "gin {ctx}");
                }
                assert!(same(&gw, &want_gw), "grad_w {ctx} with_gin={with_gin}");
                assert!(same(&gb, &want_gb), "grad_b {ctx} with_gin={with_gin}");
            }
        }
    }

    /// Batch sizes below, at and above one lane block of every width, on
    /// shapes with and without tile remainders.
    #[test]
    fn lane_block_boundaries_match_the_oracle() {
        for n in [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40] {
            for (in_dim, out_dim) in [(64, 128), (128, 10), (56, 10), (1, 1), (67, 3), (200, 5)] {
                check(n, in_dim, out_dim, n as u64, 0.0);
                check(n, in_dim, out_dim, n as u64 + 100, 0.01);
            }
        }
    }

    proptest! {
        #[test]
        fn every_width_matches_the_scalar_oracle(
            shape in (1usize..=40, 1usize..=200, 1usize..=200),
            seed in any::<u64>(),
            specials in 0usize..3,
        ) {
            let (n, in_dim, out_dim) = shape;
            check(n, in_dim, out_dim, seed, [0.0, 0.002, 0.05][specials]);
        }
    }

    #[test]
    fn empty_batch_and_empty_layer_are_no_ops() {
        for width in widths() {
            let (w, b) = (vec![1.0; 6], vec![0.5; 2]);
            let (mut xt, mut out) = (Vec::new(), Vec::new());
            run_at(width, Op::Forward { w: &w, b: &b, x: &[], xt: &mut xt, out: &mut out });
            let (mut gw, mut gb, mut gin) = (vec![1.0; 6], vec![1.0; 2], Vec::new());
            let input_grad = Some((&w[..], &mut gin[..]));
            let (grad_w, grad_b) = (&mut gw[..], &mut gb[..]);
            run_at(width, Op::Backward { x: &[], gout: &[], grad_w, grad_b, input_grad });
            assert_eq!((gw, gb), (vec![1.0; 6], vec![1.0; 2]));
            // in_dim = 0: the output is the bias.
            let mut out = vec![0.0; 4];
            run_at(width, Op::Forward { w: &[], b: &b, x: &[], xt: &mut xt, out: &mut out });
            assert_eq!(out, vec![0.5; 4]);
        }
    }
}
