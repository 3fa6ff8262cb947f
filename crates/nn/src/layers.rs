//! Layer implementations: Dense, ReLU, Dropout, Conv2d, MaxPool2d.
//!
//! Every layer owns its parameters, gradients, and whatever activation
//! cache its backward pass needs. Data flows as flat `f32` batches: a
//! batch of `n` inputs of `d` features is a `n*d` vector in row-major
//! order; conv layers interpret features as `(channels, height, width)`.
//!
//! Each layer implements the buffer-reusing `Pass` trait; [`Layer::forward`] /
//! [`Layer::backward`] are the allocating calls on top of it, and
//! [`crate::Model`] drives the `_into` forms over buffers it owns, so a
//! training step allocates nothing once its buffers have grown.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::init::{he_uniform, xavier_uniform};
use crate::kernels::{self, Op};

/// One layer's passes over caller-owned buffers.
trait Pass {
    /// Writes the layer output for the `n`-sample batch `x` into `out`
    /// (resized to fit) and caches what the backward pass needs.
    fn forward_into(&mut self, x: &[f32], n: usize, train: bool, out: &mut Vec<f32>);

    /// Accumulates parameter gradients from `gout`; with `gin` given, also
    /// writes the gradient with respect to the layer input into it. `None`
    /// is the parameters-only pass of a first layer, whose input gradient
    /// nobody reads.
    fn backward_into(&mut self, gout: &[f32], n: usize, gin: Option<&mut Vec<f32>>);
}

/// A fully connected layer: `y = W x + b` with `W` stored row-major
/// `(out_dim, in_dim)`.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Input feature count.
    pub in_dim: usize,
    /// Output feature count.
    pub out_dim: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    input_cache: Vec<f32>,
    /// Kernel scratch: the input transposed (lanes = samples).
    input_t: Vec<f32>,
}

impl Dense {
    /// Creates a Xavier-initialized dense layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Dense {
            in_dim,
            out_dim,
            w: xavier_uniform(in_dim, out_dim, in_dim * out_dim, rng),
            b: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            input_cache: Vec::new(),
            input_t: Vec::new(),
        }
    }
}

impl Pass for Dense {
    fn forward_into(&mut self, x: &[f32], n: usize, _train: bool, out: &mut Vec<f32>) {
        assert_eq!(x.len(), n * self.in_dim, "dense input shape mismatch");
        self.input_cache.clear();
        self.input_cache.extend_from_slice(x);
        out.resize(n * self.out_dim, 0.0);
        kernels::run(Op::Forward { w: &self.w, b: &self.b, x, xt: &mut self.input_t, out });
    }

    fn backward_into(&mut self, gout: &[f32], n: usize, gin: Option<&mut Vec<f32>>) {
        assert_eq!(gout.len(), n * self.out_dim, "dense gradient shape mismatch");
        assert_eq!(self.input_cache.len(), n * self.in_dim, "backward without a matching forward");
        let input_grad = gin.map(|gin| {
            gin.resize(n * self.in_dim, 0.0);
            (&self.w[..], &mut gin[..])
        });
        kernels::run(Op::Backward {
            x: &self.input_cache,
            gout,
            grad_w: &mut self.grad_w,
            grad_b: &mut self.grad_b,
            input_grad,
        });
    }
}

/// Rectified linear unit.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Pass for Relu {
    fn forward_into(&mut self, x: &[f32], _n: usize, _train: bool, out: &mut Vec<f32>) {
        self.mask.clear();
        self.mask.extend(x.iter().map(|&v| v > 0.0));
        out.clear();
        out.extend(x.iter().map(|&v| v.max(0.0)));
    }

    fn backward_into(&mut self, gout: &[f32], _n: usize, gin: Option<&mut Vec<f32>>) {
        let Some(gin) = gin else { return };
        gin.clear();
        gin.extend(gout.iter().zip(&self.mask).map(|(&g, &m)| if m { g } else { 0.0 }));
    }
}

/// Inverted dropout: at train time zeroes activations with probability `p`
/// and scales survivors by `1/(1-p)`; identity at eval time.
#[derive(Clone, Debug)]
pub struct Dropout {
    /// Drop probability.
    pub p: f32,
    rng: SmallRng,
    mask: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer with its own seeded RNG stream.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout { p, rng: SmallRng::seed_from_u64(seed), mask: Vec::new() }
    }
}

impl Pass for Dropout {
    fn forward_into(&mut self, x: &[f32], _n: usize, train: bool, out: &mut Vec<f32>) {
        let Dropout { p, rng, mask } = self;
        mask.clear();
        out.clear();
        if !train || *p == 0.0 {
            out.extend_from_slice(x);
            return;
        }
        let scale = 1.0 / (1.0 - *p);
        mask.extend(x.iter().map(|_| if rng.gen::<f32>() < *p { 0.0 } else { scale }));
        out.extend(x.iter().zip(mask.iter()).map(|(&v, &m)| v * m));
    }

    fn backward_into(&mut self, gout: &[f32], _n: usize, gin: Option<&mut Vec<f32>>) {
        let Some(gin) = gin else { return };
        gin.clear();
        if self.mask.is_empty() {
            gin.extend_from_slice(gout);
        } else {
            gin.extend(gout.iter().zip(&self.mask).map(|(&g, &m)| g * m));
        }
    }
}

/// 2-D convolution, stride 1, no padding (LeNet-style as in Table 3).
#[derive(Clone, Debug)]
pub struct Conv2d {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Square kernel size.
    pub k: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w_dim: usize,
    weights: Vec<f32>, // (out_ch, in_ch, k, k)
    bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    input_cache: Vec<f32>,
}

impl Conv2d {
    /// Creates a He-initialized convolution over `(in_ch, h, w)` inputs.
    pub fn new<R: Rng>(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        h: usize,
        w: usize,
        rng: &mut R,
    ) -> Self {
        assert!(k <= h && k <= w, "kernel larger than input");
        let fan_in = in_ch * k * k;
        Conv2d {
            in_ch,
            out_ch,
            k,
            h,
            w_dim: w,
            weights: he_uniform(fan_in, out_ch * in_ch * k * k, rng),
            bias: vec![0.0; out_ch],
            grad_w: vec![0.0; out_ch * in_ch * k * k],
            grad_b: vec![0.0; out_ch],
            input_cache: Vec::new(),
        }
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.h - self.k + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.w_dim - self.k + 1
    }

    /// The direct backward loops; `INPUT_GRAD = false` skips the input
    /// gradient (`gin` is then unused and may be empty).
    fn backward_loops<const INPUT_GRAD: bool>(&mut self, gout: &[f32], n: usize, gin: &mut [f32]) {
        let (c, h, w, k) = (self.in_ch, self.h, self.w_dim, self.k);
        let (oh, ow) = (self.out_h(), self.out_w());
        debug_assert_eq!(gout.len(), n * self.out_ch * oh * ow);
        let x = &self.input_cache;
        for s in 0..n {
            let xs = &x[s * c * h * w..(s + 1) * c * h * w];
            let gis =
                if INPUT_GRAD { &mut gin[s * c * h * w..(s + 1) * c * h * w] } else { &mut [] };
            for oc in 0..self.out_ch {
                let wout = &self.weights[oc * c * k * k..(oc + 1) * c * k * k];
                let gwout = &mut self.grad_w[oc * c * k * k..(oc + 1) * c * k * k];
                let base = (s * self.out_ch + oc) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gout[base + oy * ow + ox];
                        self.grad_b[oc] += g;
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let xi = ci * h * w + (oy + ky) * w + ox + kx;
                                    let wi = ci * k * k + ky * k + kx;
                                    gwout[wi] += g * xs[xi];
                                    if INPUT_GRAD {
                                        gis[xi] += g * wout[wi];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Pass for Conv2d {
    fn forward_into(&mut self, x: &[f32], n: usize, _train: bool, out: &mut Vec<f32>) {
        let (c, h, w, k) = (self.in_ch, self.h, self.w_dim, self.k);
        let (oh, ow) = (self.out_h(), self.out_w());
        debug_assert_eq!(x.len(), n * c * h * w);
        self.input_cache.clear();
        self.input_cache.extend_from_slice(x);
        out.resize(n * self.out_ch * oh * ow, 0.0);
        for s in 0..n {
            let xs = &x[s * c * h * w..(s + 1) * c * h * w];
            for oc in 0..self.out_ch {
                let wout = &self.weights[oc * c * k * k..(oc + 1) * c * k * k];
                let base = (s * self.out_ch + oc) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias[oc];
                        for ci in 0..c {
                            let wch = &wout[ci * k * k..(ci + 1) * k * k];
                            let xch = &xs[ci * h * w..(ci + 1) * h * w];
                            for ky in 0..k {
                                let xrow = &xch[(oy + ky) * w + ox..(oy + ky) * w + ox + k];
                                let wrow = &wch[ky * k..(ky + 1) * k];
                                for kx in 0..k {
                                    acc += wrow[kx] * xrow[kx];
                                }
                            }
                        }
                        out[base + oy * ow + ox] = acc;
                    }
                }
            }
        }
    }

    fn backward_into(&mut self, gout: &[f32], n: usize, gin: Option<&mut Vec<f32>>) {
        match gin {
            Some(gin) => {
                gin.clear();
                gin.resize(n * self.in_ch * self.h * self.w_dim, 0.0);
                self.backward_loops::<true>(gout, n, gin);
            }
            None => self.backward_loops::<false>(gout, n, &mut []),
        }
    }
}

/// 2×2 max pooling with stride 2 over `(channels, h, w)` feature maps.
#[derive(Clone, Debug)]
pub struct MaxPool2d {
    /// Channels.
    pub ch: usize,
    /// Input height (must be even).
    pub h: usize,
    /// Input width (must be even).
    pub w: usize,
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a 2×2/stride-2 pool for the given input shape.
    pub fn new(ch: usize, h: usize, w: usize) -> Self {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "pool input must have even spatial dims"
        );
        MaxPool2d { ch, h, w, argmax: Vec::new() }
    }
}

impl Pass for MaxPool2d {
    fn forward_into(&mut self, x: &[f32], n: usize, _train: bool, out: &mut Vec<f32>) {
        let (c, h, w) = (self.ch, self.h, self.w);
        let (oh, ow) = (h / 2, w / 2);
        debug_assert_eq!(x.len(), n * c * h * w);
        out.resize(n * c * oh * ow, 0.0);
        self.argmax.resize(out.len(), 0);
        for s in 0..n {
            for ci in 0..c {
                let xch = &x[(s * c + ci) * h * w..(s * c + ci + 1) * h * w];
                let base = (s * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let xi = (2 * oy + dy) * w + 2 * ox + dx;
                                if xch[xi] > best {
                                    best = xch[xi];
                                    best_i = xi;
                                }
                            }
                        }
                        out[base + oy * ow + ox] = best;
                        self.argmax[base + oy * ow + ox] = (s * c + ci) * h * w + best_i;
                    }
                }
            }
        }
    }

    fn backward_into(&mut self, gout: &[f32], n: usize, gin: Option<&mut Vec<f32>>) {
        let Some(gin) = gin else { return };
        gin.clear();
        gin.resize(n * self.ch * self.h * self.w, 0.0);
        for (o, &g) in gout.iter().enumerate() {
            gin[self.argmax[o]] += g;
        }
    }
}

/// A network layer (enum dispatch keeps parameter plumbing simple and
/// monomorphic).
#[derive(Clone, Debug)]
pub enum Layer {
    /// Fully connected.
    Dense(Dense),
    /// ReLU activation.
    Relu(Relu),
    /// Inverted dropout.
    Dropout(Dropout),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// 2×2 max pool.
    MaxPool2d(MaxPool2d),
}

impl Layer {
    /// Batched forward pass. `train` toggles dropout.
    pub fn forward(&mut self, x: &[f32], n: usize, train: bool) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_into(x, n, train, &mut out);
        out
    }

    /// Batched backward pass; accumulates parameter gradients and returns
    /// the gradient with respect to the layer input.
    pub fn backward(&mut self, gout: &[f32], n: usize) -> Vec<f32> {
        let mut gin = Vec::new();
        self.backward_into(gout, n, Some(&mut gin));
        gin
    }

    /// [`Layer::forward`] into a reused buffer.
    pub(crate) fn forward_into(&mut self, x: &[f32], n: usize, train: bool, out: &mut Vec<f32>) {
        match self {
            Layer::Dense(l) => l.forward_into(x, n, train, out),
            Layer::Relu(l) => l.forward_into(x, n, train, out),
            Layer::Dropout(l) => l.forward_into(x, n, train, out),
            Layer::Conv2d(l) => l.forward_into(x, n, train, out),
            Layer::MaxPool2d(l) => l.forward_into(x, n, train, out),
        }
    }

    /// [`Layer::backward`] into a reused buffer, or — with `gin = None` —
    /// the parameters-only pass that skips the input gradient.
    pub(crate) fn backward_into(&mut self, gout: &[f32], n: usize, gin: Option<&mut Vec<f32>>) {
        match self {
            Layer::Dense(l) => l.backward_into(gout, n, gin),
            Layer::Relu(l) => l.backward_into(gout, n, gin),
            Layer::Dropout(l) => l.backward_into(gout, n, gin),
            Layer::Conv2d(l) => l.backward_into(gout, n, gin),
            Layer::MaxPool2d(l) => l.backward_into(gout, n, gin),
        }
    }

    /// Number of trainable parameters.
    pub fn param_len(&self) -> usize {
        match self {
            Layer::Dense(l) => l.w.len() + l.b.len(),
            Layer::Conv2d(l) => l.weights.len() + l.bias.len(),
            _ => 0,
        }
    }

    /// Appends this layer's parameters to `out` (weights then biases).
    pub fn read_params(&self, out: &mut Vec<f32>) {
        match self {
            Layer::Dense(l) => {
                out.extend_from_slice(&l.w);
                out.extend_from_slice(&l.b);
            }
            Layer::Conv2d(l) => {
                out.extend_from_slice(&l.weights);
                out.extend_from_slice(&l.bias);
            }
            _ => {}
        }
    }

    /// Overwrites this layer's parameters from `src`, advancing `offset`.
    pub fn write_params(&mut self, src: &[f32], offset: &mut usize) {
        match self {
            Layer::Dense(l) => {
                let wl = l.w.len();
                l.w.copy_from_slice(&src[*offset..*offset + wl]);
                *offset += wl;
                let bl = l.b.len();
                l.b.copy_from_slice(&src[*offset..*offset + bl]);
                *offset += bl;
            }
            Layer::Conv2d(l) => {
                let wl = l.weights.len();
                l.weights.copy_from_slice(&src[*offset..*offset + wl]);
                *offset += wl;
                let bl = l.bias.len();
                l.bias.copy_from_slice(&src[*offset..*offset + bl]);
                *offset += bl;
            }
            _ => {}
        }
    }

    /// Appends this layer's accumulated gradients to `out`.
    pub fn read_grads(&self, out: &mut Vec<f32>) {
        match self {
            Layer::Dense(l) => {
                out.extend_from_slice(&l.grad_w);
                out.extend_from_slice(&l.grad_b);
            }
            Layer::Conv2d(l) => {
                out.extend_from_slice(&l.grad_w);
                out.extend_from_slice(&l.grad_b);
            }
            _ => {}
        }
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        match self {
            Layer::Dense(l) => {
                l.grad_w.iter_mut().for_each(|g| *g = 0.0);
                l.grad_b.iter_mut().for_each(|g| *g = 0.0);
            }
            Layer::Conv2d(l) => {
                l.grad_w.iter_mut().for_each(|g| *g = 0.0);
                l.grad_b.iter_mut().for_each(|g| *g = 0.0);
            }
            _ => {}
        }
    }

    /// Applies `param -= lr * grad` (plus momentum handled by the caller via
    /// [`crate::optim::Sgd`], which uses the flat views instead).
    pub fn sgd_step(&mut self, lr: f32) {
        match self {
            Layer::Dense(l) => {
                for (p, g) in l.w.iter_mut().zip(l.grad_w.iter()) {
                    *p -= lr * g;
                }
                for (p, g) in l.b.iter_mut().zip(l.grad_b.iter()) {
                    *p -= lr * g;
                }
            }
            Layer::Conv2d(l) => {
                for (p, g) in l.weights.iter_mut().zip(l.grad_w.iter()) {
                    *p -= lr * g;
                }
                for (p, g) in l.bias.iter_mut().zip(l.grad_b.iter()) {
                    *p -= lr * g;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// [`Layer`]'s allocating calls on a bare layer struct.
    trait Alloc: Pass {
        fn forward(&mut self, x: &[f32], n: usize, train: bool) -> Vec<f32> {
            let mut out = Vec::new();
            self.forward_into(x, n, train, &mut out);
            out
        }

        fn backward(&mut self, gout: &[f32], n: usize) -> Vec<f32> {
            let mut gin = Vec::new();
            self.backward_into(gout, n, Some(&mut gin));
            gin
        }
    }
    impl<T: Pass> Alloc for T {}

    #[test]
    fn dense_forward_known_values() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.w = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        d.b = vec![0.5, -0.5];
        let out = d.forward(&[1.0, 1.0, 2.0, 0.0], 2, false);
        assert_eq!(out, vec![3.5, 6.5, 2.5, 5.5]);
    }

    #[test]
    fn dense_backward_shapes_and_bias_grad() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut d = Dense::new(3, 2, &mut rng);
        d.forward(&[1.0, 2.0, 3.0], 1, true);
        let gin = d.backward(&[1.0, 1.0], 1);
        assert_eq!(gin.len(), 3);
        assert_eq!(d.grad_b, vec![1.0, 1.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let out = r.forward(&[-1.0, 0.0, 2.0], 1, true);
        assert_eq!(out, vec![0.0, 0.0, 2.0]);
        let gin = r.backward(&[5.0, 5.0, 5.0], 1);
        assert_eq!(gin, vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut dr = Dropout::new(0.5, 42);
        let x = vec![1.0f32; 100];
        assert_eq!(dr.forward(&x, 1, false), x);
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let mut dr = Dropout::new(0.5, 42);
        let x = vec![1.0f32; 10_000];
        let out = dr.forward(&x, 1, true);
        let zeros = out.iter().filter(|&&v| v == 0.0).count();
        let survivors: Vec<f32> = out.iter().copied().filter(|&v| v != 0.0).collect();
        assert!((4000..6000).contains(&zeros), "~half dropped, got {zeros}");
        assert!(survivors.iter().all(|&v| (v - 2.0).abs() < 1e-6));
        // Backward respects the same mask.
        let gin = dr.backward(&vec![1.0f32; 10_000], 1);
        for (o, g) in out.iter().zip(gin.iter()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn conv_forward_identity_kernel() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 1, 3, 3, &mut rng);
        c.weights = vec![2.0];
        c.bias = vec![1.0];
        let x: Vec<f32> = (0..9).map(|v| v as f32).collect();
        let out = c.forward(&x, 1, false);
        let expected: Vec<f32> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn conv_forward_hand_computed() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 2, 3, 3, &mut rng);
        c.weights = vec![1.0, 0.0, 0.0, 1.0]; // main diagonal
        c.bias = vec![0.0];
        #[rustfmt::skip]
        let x = vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ];
        let out = c.forward(&x, 1, false);
        // 2x2 output: [1+5, 2+6, 4+8, 5+9]
        assert_eq!(out, vec![6.0, 8.0, 12.0, 14.0]);
    }

    #[test]
    fn maxpool_forward_backward() {
        let mut p = MaxPool2d::new(1, 4, 4);
        #[rustfmt::skip]
        let x = vec![
            1.0, 2.0,   0.0, 0.0,
            3.0, 4.0,   0.0, 5.0,

            9.0, 0.0,   1.0, 1.0,
            0.0, 0.0,   1.0, 2.0,
        ];
        let out = p.forward(&x, 1, false);
        assert_eq!(out, vec![4.0, 5.0, 9.0, 2.0]);
        let gin = p.backward(&[1.0, 1.0, 1.0, 1.0], 1);
        let nonzero: Vec<usize> =
            gin.iter().enumerate().filter(|(_, &g)| g != 0.0).map(|(i, _)| i).collect();
        assert_eq!(nonzero, vec![5, 7, 8, 15]);
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut layer = Layer::Dense(Dense::new(4, 3, &mut rng));
        assert_eq!(layer.param_len(), 15);
        let mut params = Vec::new();
        layer.read_params(&mut params);
        assert_eq!(params.len(), 15);
        let new_params: Vec<f32> = (0..15).map(|i| i as f32).collect();
        let mut off = 0;
        layer.write_params(&new_params, &mut off);
        assert_eq!(off, 15);
        let mut back = Vec::new();
        layer.read_params(&mut back);
        assert_eq!(back, new_params);
    }
}
