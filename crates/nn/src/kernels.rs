//! Dense-layer kernels that run at the CPU's vector width without
//! changing one bit of any result.
//!
//! A Dense layer stores its weights transposed: `Wᵀ`, `in_dim` rows of
//! `out_dim` weights, each row padded to [`Shape::stride`] (a multiple of
//! [`PAD`] lanes), and its bias padded the same way. The forward pass and
//! the weight gradient put the *outputs* in the lanes — a `Wᵀ` row is the
//! vector, a sample's input value the broadcast, several samples' chains
//! in flight — so a batch of any size fills every lane. The input
//! gradient runs over `Wᵀ` rows with the samples in the lanes. θ stays
//! row-major outside the layer: [`Op::ToStorage`] and [`Op::FromStorage`]
//! transpose at that boundary (in register tiles on AVX-512 and AVX2).
//!
//! The rule is that every accumulation chain keeps its order —
//! `out[s][o] = ((b[o] + w[o][0]·x[s][0]) + w[o][1]·x[s][1]) + …`,
//! `grad_w[o][i]` and `grad_b[o]` summed over samples in ascending `s`,
//! `gin[s][i]` over outputs in ascending `o`, multiply then add, never
//! fused, each product's operands in the scalar loop's order — so a
//! vector's lanes are only ever *independent* chains and one chain is
//! never split across lanes. Padding lanes are computed and never read.
//!
//! [`body`] is one safe generic body compiled three times — portable,
//! `avx2`, `avx512f` — and [`run`] picks the widest one the CPU has. There
//! is no knob: the width changes speed and nothing else, which the
//! differential test below checks by `to_bits` against the scalar oracle.
//!
//! This module also holds the crate's one CPU detection ([`Width`]) and
//! its one way into a `#[target_feature]` body, a [`PerWidth`] table: the
//! Dense kernels here and [`crate::topk`]'s bodies each have one.

use std::sync::OnceLock;

/// The lane count every stored `Wᵀ` row and bias is padded to: the widest
/// body's, so every body loads whole vectors.
const PAD: usize = 16;

/// A float buffer that starts on a 64-byte boundary, so a stored row's
/// vectors never straddle two cache lines.
#[derive(Debug)]
pub(crate) struct Aligned {
    buf: Vec<f32>,
    len: usize,
}

impl Aligned {
    /// `len` zeros.
    pub(crate) fn zeroed(len: usize) -> Self {
        Aligned { buf: vec![0.0; len + 64 / 4 - 1], len }
    }

    fn start(&self) -> usize {
        self.buf.as_ptr().align_offset(64)
    }
}

impl Clone for Aligned {
    /// A fresh buffer (its own alignment offset) with the same contents.
    fn clone(&self) -> Self {
        let mut copy = Aligned::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl std::ops::Deref for Aligned {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[self.start()..self.start() + self.len]
    }
}

impl std::ops::DerefMut for Aligned {
    fn deref_mut(&mut self) -> &mut [f32] {
        let start = self.start();
        &mut self.buf[start..start + self.len]
    }
}

/// A Dense layer's dimensions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Shape {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
}

impl Shape {
    /// Floats per stored `Wᵀ` row (and in the stored bias): `out_dim`
    /// rounded up to a multiple of [`PAD`].
    pub(crate) fn stride(self) -> usize {
        self.out_dim.next_multiple_of(PAD)
    }
}

/// One Dense-layer operation. `wt` / `grad_wt` are `(in_dim, stride)`,
/// `b` / `grad_b` are `stride` long, `w` is θ's row-major
/// `(out_dim, in_dim)`; `x` is `(n, in_dim)`, `out` / `gout` are
/// `(n, out_dim)`.
pub(crate) enum Op<'a> {
    /// `out = x·Wᵀ + b`.
    Forward { shape: Shape, wt: &'a [f32], b: &'a [f32], x: &'a [f32], out: &'a mut [f32] },
    /// Accumulates `grad_wt` and `grad_b`; with `input_grad = Some((wt, gin))`
    /// also overwrites `gin` (`(n, in_dim)`) with the input gradient.
    /// `scratch` holds `gout` re-laid for the lanes.
    Backward {
        shape: Shape,
        x: &'a [f32],
        gout: &'a [f32],
        grad_wt: &'a mut [f32],
        grad_b: &'a mut [f32],
        scratch: &'a mut Vec<f32>,
        input_grad: Option<(&'a [f32], &'a mut [f32])>,
    },
    /// `params -= lr · grads`, then `grads = 0`, in one pass.
    Sgd { lr: f32, params: &'a mut [f32], grads: &'a mut [f32] },
    /// `wt = wᵀ`, padding lanes zeroed.
    ToStorage { shape: Shape, w: &'a [f32], wt: &'a mut [f32] },
    /// `w = wtᵀ`, or `w = wtᵀ − base` (`base` laid out like `w`).
    FromStorage { shape: Shape, wt: &'a [f32], base: Option<&'a [f32]>, w: &'a mut [f32] },
}

/// The instruction-set levels the crate's kernels are compiled for,
/// narrowest first. A level implies the ones below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Width {
    /// Baseline target features, four lanes.
    Portable,
    /// 256-bit, eight lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit, sixteen lanes: `avx512f`, and `popcnt` for the top-k
    /// body's mask counts (every AVX-512F CPU has it).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest level this CPU runs, detected once per process: the
/// crate's one CPU detection.
fn width() -> Width {
    static WIDTH: OnceLock<Width> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            if avx2
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                return Width::Avx512;
            }
            if avx2 {
                return Width::Avx2;
            }
        }
        Width::Portable
    })
}

/// One body per level, e.g. the Dense kernels or top-k: the only way
/// into a `#[target_feature]` body of the crate.
pub(crate) struct PerWidth<F> {
    pub(crate) portable: F,
    #[cfg(target_arch = "x86_64")]
    pub(crate) avx2: F,
    #[cfg(target_arch = "x86_64")]
    pub(crate) avx512: F,
}

impl<F: Copy> PerWidth<F> {
    /// The body of the widest level this CPU runs.
    pub(crate) fn get(&self) -> F {
        match width() {
            Width::Portable => self.portable,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => self.avx2,
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => self.avx512,
        }
    }

    /// Every body this CPU runs, named, portable first — what a test
    /// calls directly, since [`PerWidth::get`] reaches only the widest.
    #[cfg(test)]
    pub(crate) fn runnable(&self) -> Vec<(&'static str, F)> {
        let levels = [
            (Width::Portable, "portable", self.portable),
            #[cfg(target_arch = "x86_64")]
            (Width::Avx2, "avx2", self.avx2),
            #[cfg(target_arch = "x86_64")]
            (Width::Avx512, "avx512", self.avx512),
        ];
        let runs = |&(level, ..): &(Width, &str, F)| level <= width();
        levels.into_iter().filter(runs).map(|(_, name, body)| (name, body)).collect()
    }
}

/// A body of the Dense kernels: runs one operation.
///
/// # Safety
///
/// The CPU supports the body's instruction set.
type Body = unsafe fn(Op<'_>);

/// The Dense kernels, one body per level.
const BODIES: PerWidth<Body> = PerWidth {
    portable: body::<4>,
    #[cfg(target_arch = "x86_64")]
    avx2: body_avx2,
    #[cfg(target_arch = "x86_64")]
    avx512: body_avx512,
};

/// Runs `op` at the widest instruction set the CPU supports.
#[allow(unsafe_code)]
pub(crate) fn run(op: Op<'_>) {
    // SAFETY: `get` picks the body of the level this CPU runs.
    unsafe { run_with(BODIES.get(), op) }
}

/// [`run`] through one body (the tests call each).
///
/// # Safety
///
/// The CPU supports the body's instruction set.
#[allow(unsafe_code)]
unsafe fn run_with(body: Body, op: Op<'_>) {
    // A layer without weights has nothing to convert.
    if matches!(&op, Op::ToStorage { wt, .. } if wt.is_empty())
        || matches!(&op, Op::FromStorage { wt, .. } if wt.is_empty())
    {
        return;
    }
    // SAFETY: the caller's contract.
    unsafe { body(op) }
}

/// The eight-lane body; the θ boundary's transposes run on `ymm` tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn body_avx2(op: Op<'_>) {
    match op {
        Op::ToStorage { .. } | Op::FromStorage { .. } => tile::avx2(op),
        op => body::<8>(op),
    }
}

/// The sixteen-lane body; the θ boundary's transposes run on `zmm` tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn body_avx512(op: Op<'_>) {
    match op {
        Op::ToStorage { .. } | Op::FromStorage { .. } => tile::avx512(op),
        op => body::<16>(op),
    }
}

/// The kernels, generic over the lane count `L`. Everything below must
/// inline into the three monomorphizations above: anything LLVM outlines
/// is compiled without the wide target feature.
#[inline(always)]
fn body<const L: usize>(op: Op<'_>) {
    match op {
        Op::Forward { shape, wt, b, x, out } => forward::<L>(shape, wt, b, x, out),
        Op::Backward { shape, x, gout, grad_wt, grad_b, scratch, input_grad } => {
            backward::<L>(shape, x, gout, grad_wt, grad_b, scratch, input_grad)
        }
        Op::Sgd { lr, params, grads } => {
            for (p, g) in params.iter_mut().zip(grads.iter_mut()) {
                *p -= lr * *g;
                *g = 0.0;
            }
        }
        Op::ToStorage { shape, w, wt } => to_storage_rows(shape, w, wt, 0),
        Op::FromStorage { shape, wt, base, w } => from_storage_columns(shape, wt, base, w, 0),
    }
}

/// `wt[i][·] = w[·][i]` for the `Wᵀ` rows `i ≥ first`, one element at a
/// time, padding lanes zeroed.
#[inline(always)]
fn to_storage_rows(shape: Shape, w: &[f32], wt: &mut [f32], first: usize) {
    let (stride, out_dim) = (shape.stride(), shape.out_dim);
    for (i, row) in wt.chunks_exact_mut(stride).enumerate().skip(first) {
        for (v, &src) in row[..out_dim].iter_mut().zip(w[i..].iter().step_by(shape.in_dim)) {
            *v = src;
        }
        row[out_dim..].fill(0.0);
    }
}

/// `w[·][i] = wt[i][·]` (minus `base`) for the columns `i ≥ first` of θ's
/// `w`, one element at a time.
#[inline(always)]
fn from_storage_columns(
    shape: Shape,
    wt: &[f32],
    base: Option<&[f32]>,
    w: &mut [f32],
    first: usize,
) {
    if first == shape.in_dim {
        return;
    }
    let stride = shape.stride();
    for (o, row) in w.chunks_exact_mut(shape.in_dim).enumerate() {
        let (row, column) = (&mut row[first..], wt[first * stride + o..].iter().step_by(stride));
        match base {
            Some(base) => {
                let base = &base[o * shape.in_dim + first..(o + 1) * shape.in_dim];
                for ((v, &l), &g) in row.iter_mut().zip(column).zip(base) {
                    *v = l - g;
                }
            }
            None => row.iter_mut().zip(column).for_each(|(v, &l)| *v = l),
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

/// Lanes = outputs: groups of four output vectors with two samples in
/// flight, then single vectors with eight.
#[inline(always)]
fn forward<const L: usize>(shape: Shape, wt: &[f32], b: &[f32], x: &[f32], out: &mut [f32]) {
    if shape.out_dim == 0 {
        return;
    }
    let n = out.len() / shape.out_dim;
    let tiles = shape.out_dim.div_ceil(L);
    let mut t = 0;
    while t + 4 <= tiles {
        forward_samples::<L, 2, 4>(shape, wt, b, x, out, n, t * L);
        t += 4;
    }
    for t in t..tiles {
        forward_samples::<L, 8, 1>(shape, wt, b, x, out, n, t * L);
    }
}

/// Every sample's outputs `o0 .. o0 + T·L`, `S` samples at a time, then
/// the fewer than `S` left in halving blocks (a lone chain waits on its
/// add latency).
#[inline(always)]
fn forward_samples<const L: usize, const S: usize, const T: usize>(
    shape: Shape,
    wt: &[f32],
    b: &[f32],
    x: &[f32],
    out: &mut [f32],
    n: usize,
    o0: usize,
) {
    let mut s = 0;
    while s + S <= n {
        forward_block::<L, S, T>(shape, wt, b, x, out, s, o0);
        s += S;
    }
    if S > 4 && s + 4 <= n {
        forward_block::<L, 4, T>(shape, wt, b, x, out, s, o0);
        s += 4;
    }
    if S > 2 && s + 2 <= n {
        forward_block::<L, 2, T>(shape, wt, b, x, out, s, o0);
        s += 2;
    }
    if s < n {
        forward_block::<L, 1, T>(shape, wt, b, x, out, s, o0);
    }
}

/// `S × T` chains: samples `s0 ..` by the output vectors from `o0`. The
/// lanes past `out_dim` are padding: computed, never stored.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn forward_block<const L: usize, const S: usize, const T: usize>(
    shape: Shape,
    wt: &[f32],
    b: &[f32],
    x: &[f32],
    out: &mut [f32],
    s0: usize,
    o0: usize,
) {
    let Shape { in_dim, out_dim } = shape;
    let mut acc = [[Lanes::<L>::splat(0.0); T]; S];
    for t in 0..T {
        let bias = Lanes::load(&b[o0 + t * L..]);
        for s in 0..S {
            acc[s][t] = bias;
        }
    }
    let xs = &x[s0 * in_dim..(s0 + S) * in_dim];
    for (i, row) in wt.chunks_exact(shape.stride()).enumerate() {
        let row = &row[o0..o0 + T * L];
        let mut w = [Lanes::<L>::splat(0.0); T];
        for t in 0..T {
            w[t] = Lanes::load(&row[t * L..]);
        }
        for s in 0..S {
            let xv = Lanes::splat(xs[s * in_dim + i]);
            for t in 0..T {
                acc[s][t] = acc[s][t].mul_add(w[t], xv);
            }
        }
    }
    for s in 0..S {
        let os = &mut out[(s0 + s) * out_dim..(s0 + s + 1) * out_dim];
        for t in 0..T {
            let o = o0 + t * L;
            match out_dim.saturating_sub(o) {
                left if left >= L => acc[s][t].store(&mut os[o..]),
                left => os[o..].copy_from_slice(&acc[s][t].0[..left]),
            }
        }
    }
}

/// `scratch` becomes `gout` with rows padded to the stride (the weight
/// gradient's vectors) followed, if the input gradient is asked for, by
/// `gout` transposed in blocks of `L` samples (its vectors).
#[inline(always)]
fn backward<const L: usize>(
    shape: Shape,
    x: &[f32],
    gout: &[f32],
    grad_wt: &mut [f32],
    grad_b: &mut [f32],
    scratch: &mut Vec<f32>,
    input_grad: Option<(&[f32], &mut [f32])>,
) {
    let (Shape { in_dim, out_dim }, stride) = (shape, shape.stride());
    if out_dim == 0 {
        return;
    }
    let n = gout.len() / out_dim;
    let blocks = n.div_ceil(L);
    let gout_t_len = if input_grad.is_some() { blocks * out_dim * L } else { 0 };
    scratch.resize(scratch.len().max(n * stride + gout_t_len), 0.0);
    let (padded, gout_t) = scratch.split_at_mut(n * stride);
    for (row, g) in padded.chunks_exact_mut(stride).zip(gout.chunks_exact(out_dim)) {
        row[..out_dim].copy_from_slice(g);
        row[out_dim..].fill(0.0);
    }
    for g in gout.chunks_exact(out_dim) {
        for (acc, &gv) in grad_b.iter_mut().zip(g) {
            *acc += gv;
        }
    }
    weight_grad::<L>(shape, x, padded, grad_wt, n);
    if let Some((wt, gin)) = input_grad {
        // The lanes past the last sample hold whatever `scratch` held
        // before: their chains are computed and dropped.
        let gout_t = &mut gout_t[..gout_t_len];
        for (s, g) in gout.chunks_exact(out_dim).enumerate() {
            let base = (s / L) * out_dim * L + s % L;
            for (o, &gv) in g.iter().enumerate() {
                gout_t[base + o * L] = gv;
            }
        }
        for (blk, g) in gout_t.chunks_exact(out_dim * L).enumerate() {
            let samples = blk * L..n.min((blk + 1) * L);
            let mut i = 0;
            while i + 8 <= in_dim {
                input_grad_block::<L, 8>(shape, wt, g, gin, samples.clone(), i);
                i += 8;
            }
            for i in i..in_dim {
                input_grad_block::<L, 1>(shape, wt, g, gin, samples.clone(), i);
            }
        }
    }
}

/// Lanes = outputs: `grad_wt[i][o] += Σ_s gout[s][o] · x[s][i]`, the
/// accumulators of `R` rows by `T` output vectors held across the sample
/// loop.
#[inline(always)]
fn weight_grad<const L: usize>(
    shape: Shape,
    x: &[f32],
    padded: &[f32],
    grad_wt: &mut [f32],
    n: usize,
) {
    let tiles = shape.out_dim.div_ceil(L);
    let mut t = 0;
    while t + 4 <= tiles {
        // Sixteen accumulators fit AVX-512's 32 registers, not the
        // narrower bodies' 16.
        match L {
            16.. => weight_grad_rows::<L, 4, 4>(shape, x, padded, grad_wt, n, t * L),
            _ => weight_grad_rows::<L, 2, 4>(shape, x, padded, grad_wt, n, t * L),
        }
        t += 4;
    }
    for t in t..tiles {
        weight_grad_rows::<L, 4, 1>(shape, x, padded, grad_wt, n, t * L);
    }
}

/// Every row's outputs `o0 .. o0 + T·L`, `R` rows at a time.
#[inline(always)]
fn weight_grad_rows<const L: usize, const R: usize, const T: usize>(
    shape: Shape,
    x: &[f32],
    padded: &[f32],
    grad_wt: &mut [f32],
    n: usize,
    o0: usize,
) {
    let mut i = 0;
    while i + R <= shape.in_dim {
        weight_grad_block::<L, R, T>(shape, x, padded, grad_wt, n, i, o0);
        i += R;
    }
    for i in i..shape.in_dim {
        weight_grad_block::<L, 1, T>(shape, x, padded, grad_wt, n, i, o0);
    }
}

#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn weight_grad_block<const L: usize, const R: usize, const T: usize>(
    shape: Shape,
    x: &[f32],
    padded: &[f32],
    grad_wt: &mut [f32],
    n: usize,
    i0: usize,
    o0: usize,
) {
    let (in_dim, stride) = (shape.in_dim, shape.stride());
    let mut acc = [[Lanes::<L>::splat(0.0); T]; R];
    for r in 0..R {
        for t in 0..T {
            acc[r][t] = Lanes::load(&grad_wt[(i0 + r) * stride + o0 + t * L..]);
        }
    }
    for s in 0..n {
        let g = &padded[s * stride + o0..s * stride + o0 + T * L];
        let mut gv = [Lanes::<L>::splat(0.0); T];
        for t in 0..T {
            gv[t] = Lanes::load(&g[t * L..]);
        }
        let xs = &x[s * in_dim + i0..s * in_dim + i0 + R];
        for r in 0..R {
            let xv = Lanes::splat(xs[r]);
            for t in 0..T {
                acc[r][t] = acc[r][t].mul_add(gv[t], xv);
            }
        }
    }
    for r in 0..R {
        for t in 0..T {
            acc[r][t].store(&mut grad_wt[(i0 + r) * stride + o0 + t * L..]);
        }
    }
}

/// Lanes = samples: `gin[s][i] = 0 + Σ_o gout[s][o] · w[o][i]` for `R`
/// rows of `Wᵀ` from `i0`, reading each row's weights as broadcasts.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn input_grad_block<const L: usize, const R: usize>(
    shape: Shape,
    wt: &[f32],
    gout_t: &[f32],
    gin: &mut [f32],
    samples: std::ops::Range<usize>,
    i0: usize,
) {
    let (Shape { in_dim, out_dim }, stride) = (shape, shape.stride());
    // One slice per row, each `out_dim` long: indexed by the output, the
    // rows' bounds checks fold away (an index off one long slice kept a
    // check per row, and on AVX2 LLVM then left the chains as scalars).
    let mut rows = [&wt[..0]; R];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &wt[(i0 + r) * stride..(i0 + r) * stride + out_dim];
    }
    let mut acc = [Lanes::<L>::splat(0.0); R];
    for o in 0..out_dim {
        let g = Lanes::load(&gout_t[o * L..]);
        for r in 0..R {
            acc[r] = acc[r].mul_add(g, Lanes::splat(rows[r][o]));
        }
    }
    for (lane, s) in samples.enumerate() {
        let gs = &mut gin[s * in_dim + i0..s * in_dim + i0 + R];
        for r in 0..R {
            gs[r] = acc[r].0[lane];
        }
    }
}

/// The θ boundary on register tiles: `N × N` blocks of floats transposed
/// in registers, 16 × 16 in `zmm` on AVX-512 and 8 × 8 in `ymm` on AVX2.
/// The tile loops are generic; each instruction set hands them its
/// vector, its row load / store and its transpose as closures (which
/// inherit the entry point's target features). `unsafe` here is the
/// unaligned row load and store, at pointers the tile loops bound with
/// one assertion per tile.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod tile {
    use super::{Op, Shape};
    use core::arch::x86_64::*;

    /// One instruction set's tile operations.
    struct Isa<V, Load, Store, Sub, Transpose> {
        zero: V,
        /// `N` floats from the pointer, which must address `N` readable
        /// floats.
        load: Load,
        /// `N` floats to the pointer, which must address `N` writable
        /// floats.
        store: Store,
        sub: Sub,
        transpose: Transpose,
    }

    /// [`Op::ToStorage`] and [`Op::FromStorage`] on 16 × 16 `zmm` tiles,
    /// transposed by four rounds of two-source permutes.
    #[target_feature(enable = "avx512f")]
    pub(super) fn avx512(op: Op<'_>) {
        /// Lane j of the low result takes `a[j]` or `b[j − h]`, of the
        /// high result `a[j + h]` or `b[j]` (indices ≥ 16 select `b`).
        const fn indices(h: usize, high: bool) -> [i32; 16] {
            let mut idx = [0; 16];
            let mut j = 0;
            while j < 16 {
                idx[j] = match (j & h == 0, high) {
                    (true, false) => j,
                    (false, false) => 16 + j - h,
                    (true, true) => j + h,
                    (false, true) => 16 + j,
                } as i32;
                j += 1;
            }
            idx
        }
        /// Exchanges bit `H` of the row index with bit `H` of the lane.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn round<const H: usize>(r: &mut [__m512; 16]) {
            let vector = |[a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p]: [i32; 16]| {
                _mm512_setr_epi32(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p)
            };
            let (lo, hi) =
                (vector(const { indices(H, false) }), vector(const { indices(H, true) }));
            for i in 0..16 {
                if i & H == 0 {
                    let (a, b) = (r[i], r[i + H]);
                    r[i] = _mm512_permutex2var_ps(a, lo, b);
                    r[i + H] = _mm512_permutex2var_ps(a, hi, b);
                }
            }
        }
        let isa = Isa {
            zero: _mm512_setzero_ps(),
            // SAFETY: the tile loops pass pointers to 16 floats inside a
            // slice (asserted per tile); the load needs no alignment.
            load: |p: *const f32| unsafe { _mm512_loadu_ps(p) },
            // SAFETY: as above, inside a slice borrowed exclusively.
            store: |p: *mut f32, v| unsafe { _mm512_storeu_ps(p, v) },
            sub: |a, b| _mm512_sub_ps(a, b),
            transpose: |r: &mut [__m512; 16]| {
                round::<8>(r);
                round::<4>(r);
                round::<2>(r);
                round::<1>(r);
            },
        };
        convert(&isa, op);
    }

    /// [`Op::ToStorage`] and [`Op::FromStorage`] on 8 × 8 `ymm` tiles:
    /// 128-bit halves, then 64-bit pairs, then single lanes swap between
    /// row pairs 4, 2 and 1 apart.
    #[target_feature(enable = "avx2")]
    pub(super) fn avx2(op: Op<'_>) {
        let isa = Isa {
            zero: _mm256_setzero_ps(),
            // SAFETY: as in `avx512`, for 8 floats.
            load: |p: *const f32| unsafe { _mm256_loadu_ps(p) },
            // SAFETY: as in `avx512`, for 8 floats.
            store: |p: *mut f32, v| unsafe { _mm256_storeu_ps(p, v) },
            sub: |a, b| _mm256_sub_ps(a, b),
            transpose: |r: &mut [__m256; 8]| {
                for i in 0..4 {
                    let (a, b) = (r[i], r[i + 4]);
                    r[i] = _mm256_permute2f128_ps::<0x20>(a, b);
                    r[i + 4] = _mm256_permute2f128_ps::<0x31>(a, b);
                }
                for i in [0, 1, 4, 5] {
                    let (a, b) = (r[i], r[i + 2]);
                    r[i] = _mm256_shuffle_ps::<0x44>(a, b);
                    r[i + 2] = _mm256_shuffle_ps::<0xEE>(a, b);
                }
                for i in [0, 2, 4, 6] {
                    let (a, b) = (r[i], r[i + 1]);
                    r[i] = _mm256_blend_ps::<0xAA>(a, _mm256_moveldup_ps(b));
                    r[i + 1] = _mm256_blend_ps::<0xAA>(_mm256_movehdup_ps(a), b);
                }
            },
        };
        convert(&isa, op);
    }

    /// The tile loops of both conversions; the last `in_dim % N` θ
    /// columns (`Wᵀ` rows) go one element at a time.
    #[inline(always)]
    fn convert<const N: usize, V: Copy>(
        isa: &Isa<
            V,
            impl Fn(*const f32) -> V,
            impl Fn(*mut f32, V),
            impl Fn(V, V) -> V,
            impl Fn(&mut [V; N]),
        >,
        op: Op<'_>,
    ) {
        // `rows` rows of N floats, `step` floats apart from the start of
        // `src`; zero vectors past them. The assertion bounds every load.
        let load_rows = |src: &[f32], step: usize, rows: usize| {
            assert!(rows <= N && (rows == 0 || (rows - 1) * step + N <= src.len()));
            let mut r = [isa.zero; N];
            let mut p = src.as_ptr();
            for v in &mut r[..rows] {
                *v = (isa.load)(p);
                p = p.wrapping_add(step);
            }
            r
        };
        // The first `rows` of `r` to rows `step` floats apart in `dst`.
        let store_rows = |dst: &mut [f32], step: usize, rows: usize, r: [V; N]| {
            assert!(rows <= N && (rows == 0 || (rows - 1) * step + N <= dst.len()));
            let mut p = dst.as_mut_ptr();
            for &v in &r[..rows] {
                (isa.store)(p, v);
                p = p.wrapping_add(step);
            }
        };
        match op {
            Op::ToStorage { shape, w, wt } => {
                let (Shape { in_dim, out_dim }, stride) = (shape, shape.stride());
                let whole = in_dim - in_dim % N;
                // Over the whole stride: tiles past `out_dim` zero the
                // padding lanes.
                for o0 in (0..stride).step_by(N) {
                    let rows = out_dim.saturating_sub(o0).min(N);
                    for i0 in (0..whole).step_by(N) {
                        // Empty past the last row.
                        let src = &w[(o0 * in_dim + i0).min(w.len())..];
                        // A whole tile is its own call, so its row loop
                        // unrolls.
                        let mut r = match rows == N {
                            true => load_rows(src, in_dim, N),
                            false => load_rows(src, in_dim, rows),
                        };
                        (isa.transpose)(&mut r);
                        store_rows(&mut wt[i0 * stride + o0..], stride, N, r);
                    }
                }
                super::to_storage_rows(shape, w, wt, whole);
            }
            Op::FromStorage { shape, wt, base, w } => {
                let (Shape { in_dim, out_dim }, stride) = (shape, shape.stride());
                let whole = in_dim - in_dim % N;
                // Band by band of N θ rows, so the rows' (often unaligned)
                // stores stay in the lines the last tile touched.
                for o0 in (0..out_dim).step_by(N) {
                    let rows = (out_dim - o0).min(N);
                    for i0 in (0..whole).step_by(N) {
                        let mut r = load_rows(&wt[i0 * stride + o0..], stride, N);
                        (isa.transpose)(&mut r);
                        let at = o0 * in_dim + i0;
                        // Whole tiles are their own calls, so their row
                        // loops unroll.
                        if let Some(base) = base {
                            let g = match rows == N {
                                true => load_rows(&base[at..], in_dim, N),
                                false => load_rows(&base[at..], in_dim, rows),
                            };
                            for (v, g) in r.iter_mut().zip(g) {
                                *v = (isa.sub)(*v, g);
                            }
                        }
                        match rows == N {
                            true => store_rows(&mut w[at..], in_dim, N, r),
                            false => store_rows(&mut w[at..], in_dim, rows, r),
                        }
                    }
                }
                super::from_storage_columns(shape, wt, base, w, whole);
            }
            _ => unreachable!("only the boundary conversions run on tiles"),
        }
    }
}

/// The scalar loops the kernels replaced, over row-major `W`, kept as the
/// reference the differential tests compare against bit for bit.
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

    /// The bodies this CPU runs; reports them once.
    fn bodies() -> Vec<(&'static str, Body)> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        let bodies = BODIES.runnable();
        let names: Vec<&str> = bodies.iter().map(|b| b.0).collect();
        REPORT.call_once(|| println!("nn kernel widths exercised: {names:?}"));
        bodies
    }

    /// `op` through `body`, one of [`bodies`].
    #[allow(unsafe_code)]
    fn run_at(body: Body, op: Op<'_>) {
        // SAFETY: `bodies` lists the bodies this CPU runs.
        unsafe { run_with(body, op) }
    }

    /// Row-major `(out_dim, in_dim)` into the stored `Wᵀ`, with `pad` in
    /// the padding lanes; a plain loop, independent of the kernels.
    fn stored(shape: Shape, w: &[f32], pad: f32) -> Vec<f32> {
        let mut wt = vec![pad; shape.in_dim * shape.stride()];
        for o in 0..shape.out_dim {
            for i in 0..shape.in_dim {
                wt[i * shape.stride() + o] = w[o * shape.in_dim + i];
            }
        }
        wt
    }

    /// The inverse of [`stored`].
    fn row_major(shape: Shape, wt: &[f32]) -> Vec<f32> {
        let mut w = vec![0.0; shape.out_dim * shape.in_dim];
        for o in 0..shape.out_dim {
            for i in 0..shape.in_dim {
                w[o * shape.in_dim + i] = wt[i * shape.stride() + o];
            }
        }
        w
    }

    /// `v` padded to the stride with `pad`.
    fn padded(shape: Shape, v: &[f32], pad: f32) -> Vec<f32> {
        let mut p = vec![pad; shape.stride()];
        p[..v.len()].copy_from_slice(v);
        p
    }

    /// Forward, then two backward batches without zeroing the gradients in
    /// between, through every available width and through the oracle. The
    /// oracle runs on row-major `W`; only the kernels' inputs are
    /// transposed, and their gradients read back through [`row_major`].
    fn check(n: usize, in_dim: usize, out_dim: usize, seed: u64, specials: f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = Shape { in_dim, out_dim };
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

        // Padding lanes hold NaN: a kernel that read one would show it.
        let (wt, bp) = (stored(shape, &w, f32::NAN), padded(shape, &b, f32::NAN));
        for (name, body) in bodies() {
            let ctx = format!("{name} n={n} in={in_dim} out={out_dim} seed={seed}");
            let mut out = vec![f32::NAN; n * out_dim];
            let x = &batches[0].0;
            run_at(body, Op::Forward { shape, wt: &wt, b: &bp, x, out: &mut out });
            assert!(same(&out, &want_out), "forward {ctx}");

            // Parameters only, then with the input gradient: the same sums.
            for with_gin in [false, true] {
                let (mut gw, mut gb) = (stored(shape, &grad_w0, 0.0), padded(shape, &grad_b0, 0.0));
                let mut scratch = vec![f32::NAN; 3];
                for ((x, gout), want) in batches.iter().zip(&want_gin) {
                    let mut gin = vec![f32::NAN; n * in_dim];
                    let input_grad = with_gin.then_some((&wt[..], &mut gin[..]));
                    let (grad_wt, grad_b, scratch) = (&mut gw[..], &mut gb[..], &mut scratch);
                    run_at(
                        body,
                        Op::Backward { shape, x, gout, grad_wt, grad_b, scratch, input_grad },
                    );
                    assert!(!with_gin || same(&gin, want), "gin {ctx}");
                }
                assert!(same(&row_major(shape, &gw), &want_gw), "grad_w {ctx} with_gin={with_gin}");
                assert!(same(&gb[..out_dim], &want_gb), "grad_b {ctx} with_gin={with_gin}");
            }
        }
    }

    /// Batch sizes below, at and above one lane block of every width, on
    /// shapes with and without tile remainders.
    #[test]
    fn lane_block_boundaries_match_the_oracle() {
        for n in [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40] {
            for (in_dim, out_dim) in
                [(64, 128), (128, 10), (64, 56), (56, 10), (1, 1), (67, 3), (200, 5)]
            {
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
            check_conversions(in_dim, out_dim, seed);
        }
    }

    /// Both boundary conversions at every width equal the plain loops, bit
    /// for bit, with and without `base`, and leave the padding lanes zero.
    fn check_conversions(in_dim: usize, out_dim: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = Shape { in_dim, out_dim };
        let w = values(&mut rng, in_dim * out_dim, 0.02);
        let base = values(&mut rng, in_dim * out_dim, 0.02);
        let wt = stored(shape, &w, 0.0);
        let want_minus: Vec<f32> = w.iter().zip(&base).map(|(l, g)| l - g).collect();
        for (name, body) in bodies() {
            let ctx = format!("{name} in={in_dim} out={out_dim}");
            let mut got = vec![f32::NAN; wt.len()];
            run_at(body, Op::ToStorage { shape, w: &w, wt: &mut got });
            assert!(same(&got, &wt), "to_storage {ctx}");
            let mut back = vec![f32::NAN; w.len()];
            run_at(body, Op::FromStorage { shape, wt: &wt, base: None, w: &mut back });
            assert!(same(&back, &w), "from_storage {ctx}");
            let base = Some(&base[..]);
            run_at(body, Op::FromStorage { shape, wt: &wt, base, w: &mut back });
            assert!(same(&back, &want_minus), "from_storage minus base {ctx}");
        }
    }

    /// Whole tiles, remainders in either dimension, and no weights at all.
    #[test]
    fn storage_conversions_match_the_plain_transpose() {
        let shapes = [(1, 1), (67, 3), (200, 5), (64, 56), (64, 128), (128, 10), (16, 16)];
        for (seed, (in_dim, out_dim)) in
            shapes.into_iter().chain([(17, 33), (0, 3), (3, 0)]).enumerate()
        {
            check_conversions(in_dim, out_dim, seed as u64);
        }
    }

    #[test]
    fn sgd_updates_and_clears_in_one_pass() {
        let mut rng = SmallRng::seed_from_u64(6);
        for len in [0, 1, 15, 16, 17, 100] {
            let (p0, g0) = (values(&mut rng, len, 0.02), values(&mut rng, len, 0.02));
            let want: Vec<f32> = p0.iter().zip(&g0).map(|(p, g)| p - 0.1 * g).collect();
            for (name, body) in bodies() {
                let (mut params, mut grads) = (p0.clone(), g0.clone());
                let (params_r, grads_r) = (&mut params[..], &mut grads[..]);
                run_at(body, Op::Sgd { lr: 0.1, params: params_r, grads: grads_r });
                assert!(same(&params, &want), "{name} len={len}");
                assert!(grads.iter().all(|g| g.to_bits() == 0), "{name} len={len}");
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_layer_are_no_ops() {
        for (_, body) in bodies() {
            let shape = Shape { in_dim: 3, out_dim: 2 };
            let (wt, b) = (vec![1.0; 3 * PAD], padded(shape, &[0.5; 2], 0.0));
            let mut out = Vec::new();
            run_at(body, Op::Forward { shape, wt: &wt, b: &b, x: &[], out: &mut out });
            let (mut gw, mut gb, mut gin) = (vec![1.0; 3 * PAD], vec![1.0; PAD], Vec::new());
            let (input_grad, mut scratch) = (Some((&wt[..], &mut gin[..])), Vec::new());
            let (grad_wt, grad_b, scratch) = (&mut gw[..], &mut gb[..], &mut scratch);
            let op =
                Op::Backward { shape, x: &[], gout: &[], grad_wt, grad_b, scratch, input_grad };
            run_at(body, op);
            assert_eq!((gw, gb), (vec![1.0; 3 * PAD], vec![1.0; PAD]));
            // in_dim = 0: the output is the bias.
            let (shape, mut out) = (Shape { in_dim: 0, out_dim: 2 }, vec![0.0; 4]);
            run_at(body, Op::Forward { shape, wt: &[], b: &b, x: &[], out: &mut out });
            assert_eq!(out, vec![0.5; 4]);
        }
    }
}
