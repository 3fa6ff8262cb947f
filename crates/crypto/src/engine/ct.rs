//! The `ct` crypto backend: bitsliced constant-time software AES and a
//! GHASH built from integer multiplies.
//!
//! Table-based AES indexes `SBOX` with secret bytes — a classic
//! cache-timing side channel, and exactly the class of
//! data-dependent memory access Olive's threat model grants the adversary
//! (Section 2.3). This backend has no secret-indexed lookup and no
//! secret-conditioned branch; its implementation contains no `if`,
//! `match`, `while`, `loop`, division or remainder at all
//! (`tests/ct_lint.rs` holds it to that), so a call's instruction stream
//! and addresses depend on nothing but the public lengths:
//!
//! * **The state stays bitsliced for the whole cipher.** 64 state bytes
//!   (four AES blocks) are transposed once into 8 × `u64` planes — plane
//!   `b`, bit `i` holds bit `b` of byte lane `i` — run through every round
//!   in that form, and transposed back once.
//! * **One body, three plane widths** (Käsper and Schwabe, CHES 2009).
//!   Everything below is written over [`Plane`] and is lane-wise in
//!   64-bit lanes, so counter mode runs it on `u64` (4 blocks a pass,
//!   every target) and, on x86-64, on `__m256i` (16 blocks, AVX2) and
//!   `__m512i` (32 blocks, AVX-512F) planes from `super::ct_x86`: each
//!   lane of a wide plane is one `u64` body's state, and the `u64` round
//!   keys are broadcast to every lane. A GCM key records the widest
//!   width the CPU runs at set-up; single blocks and the key schedule
//!   stay on `u64`.
//! * **SubBytes** is the Boyar–Peralta straight-line circuit (115
//!   XOR/XNOR/AND gates, 32 of them AND) over the eight planes, all 64
//!   lanes at once.
//! * **ShiftRows / MixColumns** are masked shifts of each plane: a block is
//!   a 16-bit group of lanes and a column a nibble of it, so rotating a row
//!   or a column is a rotation inside fixed bit groups. **AddRoundKey** XORs
//!   round keys that were sliced once at key set-up (the key schedule's
//!   SubWord goes through the same circuit).
//! * **GHASH** runs the same way: one body over [`Plane`], one block per
//!   64-bit lane — ×1 on `u64`, ×4 on AVX2, ×8 on AVX-512F. Aggregated
//!   reduction (Gueron and Kounavis, 2010) makes the blocks of a group
//!   independent: y ← Σₗ (Xₗ ⊕ [l = 0]·y)·H^(L−l) over the `L` lanes, with
//!   H¹ … H⁸ built at key set-up, the 256-bit products XORed across lanes
//!   unreduced and one shift-and-fold reduction per group. A product is a
//!   two-level Karatsuba over 32-bit words, nine 32 × 32 → 64-bit
//!   carry-less products, each four groups of integer multiplies of
//!   operands masked to every fourth bit (Pornin's BearSSL `ghash_ctmul`),
//!   so the carries of the integer sums die in the three-bit gaps. This
//!   adds the module's one hardware assumption: **the integer multiplier
//!   runs in constant time**, which holds on x86-64 and AArch64
//!   application cores and does not on some microcontrollers
//!   (early-terminating multipliers).
//!
//! Measured at 3 376 bytes (one k = 421 upload) on the 2-vCPU AVX-512
//! runner, `u64` / AVX2 / AVX-512 planes: CTR ≈ 80–100 / 200–240 /
//! 470–540 MiB/s; GHASH ≈ 175–215 / 780–1 000 / 1 400–1 600 MiB/s; seal
//! ≈ 63–83 / 200–265 / 385–445 MiB/s; key set-up ≈ 2 µs. That is some six
//! times below [`super::hw`], but on every architecture, making it the
//! portable default wherever AES-NI is absent.

use core::ops::{BitAnd, BitOr, BitXor, Not};

use super::MAX_ROUND_KEYS;
use crate::CryptoError;

// ---------------------------------------------------------------------------
// Planes: the register one bit plane lives in
// ---------------------------------------------------------------------------

/// One bit plane of the sliced state: some number of 64-bit lanes, each
/// lane holding one bit of 64 bytes — four AES blocks. Every operation of
/// the cipher below is lane-wise, so a wider plane runs more blocks
/// through the same instructions. `u64` (one lane) is the body every
/// target runs; `super::ct_x86` adds the 256- and 512-bit registers.
pub(crate) trait Plane:
    Copy + BitAnd<Output = Self> + BitOr<Output = Self> + BitXor<Output = Self> + Not<Output = Self>
{
    /// The bytes one pass encrypts: 64 per lane.
    type Batch: Copy + AsRef<[u8]> + AsMut<[u8]>;
    /// An all-zero batch.
    const ZERO: Self::Batch;
    /// `x` in every lane.
    fn splat(x: u64) -> Self;
    /// Every lane shifted left by `N`.
    fn shl<const N: u32>(self) -> Self;
    /// Every lane shifted right by `N`.
    fn shr<const N: u32>(self) -> Self;
    /// Word `j` of lane `l` is the little-endian `u64` at byte
    /// `64l + 8j` of the batch.
    fn load(batch: &Self::Batch) -> [Self; 8];
    /// Inverse of [`Plane::load`].
    fn store(words: [Self; 8], batch: &mut Self::Batch);

    /// The blocks one GHASH group hashes: 16 per lane.
    type Blocks: Copy + AsRef<[u8]> + AsMut<[u8]>;
    /// An all-zero group.
    const ZERO_BLOCKS: Self::Blocks;
    /// Every lane's low 32 bits times `rhs`'s, as a 64-bit product.
    fn mul32(self, rhs: Self) -> Self;
    /// `[hi, lo]`: lane `l` of each is the big-endian `u64` at byte `16l`,
    /// `16l + 8` of the group — block `l`'s stored halves.
    fn load_blocks(blocks: &Self::Blocks) -> [Self; 2];
    /// Lane `l` is `words[8 − L + l]`, for `L` lanes.
    fn load_tail(words: &[u64; 8]) -> Self;
    /// `x` in lane 0, zero in the others.
    fn lane0(x: u64) -> Self;
    /// The XOR of every lane.
    fn xor_lanes(self) -> u64;
}

impl Plane for u64 {
    type Batch = [u8; 64];
    const ZERO: [u8; 64] = [0; 64];

    #[inline(always)]
    fn splat(x: u64) -> u64 {
        x
    }

    #[inline(always)]
    fn shl<const N: u32>(self) -> u64 {
        self << N
    }

    #[inline(always)]
    fn shr<const N: u32>(self) -> u64 {
        self >> N
    }

    #[inline(always)]
    fn load(batch: &[u8; 64]) -> [u64; 8] {
        let mut words = [0; 8];
        for (w, bytes) in words.iter_mut().zip(batch.as_chunks().0) {
            *w = u64::from_le_bytes(*bytes);
        }
        words
    }

    #[inline(always)]
    fn store(words: [u64; 8], batch: &mut [u8; 64]) {
        for (w, bytes) in words.iter().zip(batch.as_chunks_mut().0) {
            *bytes = w.to_le_bytes();
        }
    }

    type Blocks = [u8; 16];
    const ZERO_BLOCKS: [u8; 16] = [0; 16];

    #[inline(always)]
    fn mul32(self, rhs: u64) -> u64 {
        (self & 0xFFFF_FFFF).wrapping_mul(rhs & 0xFFFF_FFFF)
    }

    #[inline(always)]
    fn load_blocks(blocks: &[u8; 16]) -> [u64; 2] {
        let x = u128::from_be_bytes(*blocks);
        [(x >> 64) as u64, x as u64]
    }

    #[inline(always)]
    fn load_tail(words: &[u64; 8]) -> u64 {
        words[7]
    }

    #[inline(always)]
    fn lane0(x: u64) -> u64 {
        x
    }

    #[inline(always)]
    fn xor_lanes(self) -> u64 {
        self
    }
}

// ---------------------------------------------------------------------------
// Bitslicing: 64 byte lanes <-> 8 bit-plane words
// ---------------------------------------------------------------------------

/// 8×8 bit-matrix transpose of a `u64` viewed as 8 rows of 8 bits
/// (row `r` = bits `8r..8r+8`): bit `8r + c` ↔ bit `8c + r`. The classic
/// three-round masked-swap network (an involution).
#[inline(always)]
fn transpose8x8<P: Plane>(mut x: P) -> P {
    let t = (x ^ x.shr::<7>()) & P::splat(0x00AA_00AA_00AA_00AA);
    x = x ^ t ^ t.shl::<7>();
    let t = (x ^ x.shr::<14>()) & P::splat(0x0000_CCCC_0000_CCCC);
    x = x ^ t ^ t.shl::<14>();
    let t = (x ^ x.shr::<28>()) & P::splat(0x0000_0000_F0F0_F0F0);
    x ^ t ^ t.shl::<28>()
}

/// Swaps the `mask`ed bits of `w[hi]` with the bits `SHIFT` above them in
/// `w[lo]`.
#[inline(always)]
fn swap_between<P: Plane, const SHIFT: u32>(w: &mut [P; 8], lo: usize, hi: usize, mask: u64) {
    let t = (w[lo].shr::<SHIFT>() ^ w[hi]) & P::splat(mask);
    w[hi] = w[hi] ^ t;
    w[lo] = w[lo] ^ t.shl::<SHIFT>();
}

/// 8×8 byte-matrix transpose across eight words: byte `c` of `w[j]` ↔ byte
/// `j` of `w[c]` (the same three-round network one level up).
#[inline(always)]
fn transpose_bytes<P: Plane>(w: &mut [P; 8]) {
    for j in [0, 2, 4, 6] {
        swap_between::<P, 8>(w, j, j + 1, 0x00FF_00FF_00FF_00FF);
    }
    for j in [0, 1, 4, 5] {
        swap_between::<P, 16>(w, j, j + 2, 0x0000_FFFF_0000_FFFF);
    }
    for j in [0, 1, 2, 3] {
        swap_between::<P, 32>(w, j, j + 4, 0x0000_0000_FFFF_FFFF);
    }
}

/// Bitslices a batch into 8 bit-plane words: in each lane, bit `i` of
/// `w[b]` = bit `b` of the lane's byte `i`.
#[inline(always)]
fn bitslice<P: Plane>(batch: &P::Batch) -> [P; 8] {
    let mut w = P::load(batch);
    for x in &mut w {
        *x = transpose8x8(*x);
    }
    transpose_bytes(&mut w);
    w
}

/// Inverse of [`bitslice`].
#[inline(always)]
fn unbitslice<P: Plane>(w: &[P; 8], batch: &mut P::Batch) {
    let mut t = *w;
    transpose_bytes(&mut t);
    for x in &mut t {
        *x = transpose8x8(*x);
    }
    P::store(t, batch);
}

// ---------------------------------------------------------------------------
// The round functions on the sliced state
// ---------------------------------------------------------------------------

/// The AES S-box on every byte lane at once: the depth-16 circuit of Boyar and
/// Peralta, "A new combinational logic minimization technique with
/// applications to cryptology" (2010) — a 23-XOR linear layer, the shared
/// GF(2⁴)-tower inversion with its 32 ANDs, and a 30-gate linear layer
/// that folds in the affine constant 0x63 as four XNORs. The paper numbers
/// bits from the top: `x0` / `s0` are plane 7.
#[inline(always)]
fn sbox_circuit<P: Plane>(q: &mut [P; 8]) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = !(t56 ^ t62);
    let s7 = !(t48 ^ t60);
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = !(t64 ^ s3);
    let s2 = !(t55 ^ t67);

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

// Lane = byte index, and a block's byte `4·col + row` is state[row][col]:
// each 16-bit group of a plane is one block, each nibble of it one column,
// and row `r` is the bits under `0x1111 << r`.

/// ShiftRows: row `r` of every block rotates left by `r` columns, i.e. the
/// bits under `0x1111 << r` rotate right by `4r` inside their 16-bit group.
#[inline(always)]
fn shift_rows<P: Plane>(q: &mut [P; 8]) {
    let m = P::splat;
    for x in q.iter_mut() {
        *x = (*x & m(0x1111_1111_1111_1111))
            | (x.shr::<4>() & m(0x0222_0222_0222_0222))
            | (x.shl::<12>() & m(0x2000_2000_2000_2000))
            | (x.shr::<8>() & m(0x0044_0044_0044_0044))
            | (x.shl::<8>() & m(0x4400_4400_4400_4400))
            | (x.shr::<12>() & m(0x0008_0008_0008_0008))
            | (x.shl::<4>() & m(0x8880_8880_8880_8880));
    }
}

/// Every column rotated up by one row (row `r` ← row `r + 1`): a rotation
/// right by one inside each nibble.
#[inline(always)]
fn rot1<P: Plane>(x: P) -> P {
    (x.shr::<1>() & P::splat(0x7777_7777_7777_7777))
        | (x.shl::<3>() & P::splat(0x8888_8888_8888_8888))
}

/// Every column rotated by two rows.
#[inline(always)]
fn rot2<P: Plane>(x: P) -> P {
    (x.shr::<2>() & P::splat(0x3333_3333_3333_3333))
        | (x.shl::<2>() & P::splat(0xCCCC_CCCC_CCCC_CCCC))
}

/// MixColumns: row `r` ← 2·a[r] ⊕ 3·a[r+1] ⊕ a[r+2] ⊕ a[r+3], regrouped as
/// `xtime(t) ⊕ rot1(q) ⊕ rot2(t)` with `t = q ⊕ rot1(q)`. On planes,
/// `xtime` moves plane `b` to `b + 1` and folds plane 7 into planes 0, 1,
/// 3 and 4 (x⁸ ≡ x⁴ + x³ + x + 1).
#[inline(always)]
fn mix_columns<P: Plane>(q: &mut [P; 8]) {
    let mut r = *q;
    for x in &mut r {
        *x = rot1(*x);
    }
    let mut t = *q;
    for (x, &y) in t.iter_mut().zip(&r) {
        *x = *x ^ y;
    }
    let xt = [t[7], t[0] ^ t[7], t[1], t[2] ^ t[7], t[3] ^ t[7], t[4], t[5], t[6]];
    for (b, x) in q.iter_mut().enumerate() {
        *x = xt[b] ^ r[b] ^ rot2(t[b]);
    }
}

/// XORs a round key's `u64` planes into every lane.
#[inline(always)]
fn add_round_key<P: Plane>(q: &mut [P; 8], rk: &[u64; 8]) {
    for (x, &k) in q.iter_mut().zip(rk) {
        *x = *x ^ P::splat(k);
    }
}

// ---------------------------------------------------------------------------
// The cipher
// ---------------------------------------------------------------------------

/// An expanded AES key for the constant-time backend (128/192/256-bit).
/// Forward cipher only — GCM needs nothing else.
#[derive(Clone)]
pub(crate) struct CtAes {
    /// Round key `r`, repeated over the four block groups of a lane and
    /// bitsliced; a wider plane broadcasts it to every lane.
    round_keys: [[u64; 8]; MAX_ROUND_KEYS],
    rounds: usize,
}

impl CtAes {
    /// FIPS 197 key expansion ([`super::expand_key`]) with SubWord
    /// computed through the S-box circuit — the schedule touches key
    /// material, so it must be as lookup-free as the data path.
    pub(crate) fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let (byte_keys, rounds) = super::expand_key(key, sub_word)?;
        let mut round_keys = [[0u64; 8]; MAX_ROUND_KEYS];
        for (sliced, rk) in round_keys.iter_mut().zip(&byte_keys[..=rounds]) {
            let mut batch = [0u8; 64];
            for block in batch.chunks_exact_mut(16) {
                block.copy_from_slice(rk);
            }
            *sliced = bitslice::<u64>(&batch);
        }
        Ok(CtAes { round_keys, rounds })
    }

    /// Encrypts a batch in place: slice, all rounds, unslice.
    #[inline(always)]
    fn encrypt<P: Plane>(&self, batch: &mut P::Batch) {
        let q = &mut bitslice::<P>(batch);
        add_round_key(q, &self.round_keys[0]);
        for rk in &self.round_keys[1..self.rounds] {
            sbox_circuit(q);
            shift_rows(q);
            mix_columns(q);
            add_round_key(q, rk);
        }
        sbox_circuit(q);
        shift_rows(q);
        add_round_key(q, &self.round_keys[self.rounds]);
        unbitslice(q, batch);
    }

    /// Encrypts a single 16-byte block in place (batch of four with three
    /// dummy lanes — single blocks are off the bulk path).
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut batch = [0u8; 64];
        batch[..16].copy_from_slice(block);
        self.encrypt::<u64>(&mut batch);
        block.copy_from_slice(&batch[..16]);
    }

    /// CTR keystream XOR on `P` planes, bitwise identical to the table
    /// reference's counter mode (32-bit big-endian counter increment in
    /// the last word of `j0`): whole batches, the last one computed whole
    /// and truncated. The engine's one table of plane widths enters it.
    #[inline(always)]
    pub(crate) fn ctr_xor_on<P: Plane>(&self, j0: &[u8; 16], data: &mut [u8]) {
        let mut counter = u32::from_be_bytes(j0[12..16].try_into().unwrap());
        for chunk in data.chunks_mut(core::mem::size_of::<P::Batch>()) {
            let mut batch = P::ZERO;
            for block in batch.as_mut().chunks_exact_mut(16) {
                counter = counter.wrapping_add(1);
                block[..12].copy_from_slice(&j0[..12]);
                block[12..].copy_from_slice(&counter.to_be_bytes());
            }
            self.encrypt::<P>(&mut batch);
            for (d, k) in chunk.iter_mut().zip(batch.as_ref()) {
                *d ^= k;
            }
        }
    }
}

impl core::fmt::Debug for CtAes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CtAes").field("rounds", &self.rounds).finish_non_exhaustive()
    }
}

/// SubWord for the key schedule: four real lanes, sixty dummy lanes.
fn sub_word(w: [u8; 4]) -> [u8; 4] {
    let mut buf = [0u8; 64];
    buf[..4].copy_from_slice(&w);
    let mut q = bitslice::<u64>(&buf);
    sbox_circuit(&mut q);
    unbitslice(&q, &mut buf);
    [buf[0], buf[1], buf[2], buf[3]]
}

// ---------------------------------------------------------------------------
// GHASH from integer multiplies, one block per lane
// ---------------------------------------------------------------------------

/// Every fourth bit of a 32-bit word, at offsets 0..4: the "holes" an
/// operand is split on.
const HOLES32: [u64; 4] = [0x1111_1111, 0x2222_2222, 0x4444_4444, 0x8888_8888];

/// The same four classes over a whole 64-bit product.
const HOLES64: [u64; 4] =
    [0x1111_1111_1111_1111, 0x2222_2222_2222_2222, 0x4444_4444_4444_4444, 0x8888_8888_8888_8888];

/// Lane-wise carry-less product of the low 32 bits of `x` and the
/// operand whose hole classes are `y`: all 64 bits of it. The integer
/// product of two classes has its terms on every fourth bit, at most 8 of
/// them on one position, so each sum fits in the four bits it starts on:
/// its low bit is the XOR of the terms and no carry reaches the next
/// position of the class. `HOLES64` keeps each class's own positions.
#[inline(always)]
fn bmul32<P: Plane>(x: P, y: &[P; 4]) -> P {
    let mut xs = [x; 4];
    for (xi, m) in xs.iter_mut().zip(HOLES32) {
        *xi = *xi & P::splat(m);
    }
    let mut z = P::splat(0);
    for (k, m) in HOLES64.into_iter().enumerate() {
        let mut zk = xs[0].mul32(y[k]);
        for i in 1..4 {
            zk = zk ^ xs[i].mul32(y[(k + 4 - i) & 3]);
        }
        z = z | (zk & P::splat(m));
    }
    z
}

/// The nine 32-bit operands of a two-level Karatsuba product, for a
/// 128-bit value held as its 64-bit halves: for the low half, the high
/// half and their XOR, the low word, the high word and their XOR. Only
/// the low 32 bits of each lane count.
#[inline(always)]
fn karatsuba_words<P: Plane>(lo: P, hi: P) -> [P; 9] {
    let mut w = [lo; 9];
    for (i, half) in [lo, hi, lo ^ hi].into_iter().enumerate() {
        w[3 * i] = half;
        w[3 * i + 1] = half.shr::<32>();
        w[3 * i + 2] = half ^ half.shr::<32>();
    }
    w
}

/// A 64 × 64 carry-less product, low word first, from its low, high and
/// middle 32 × 32 products.
#[inline(always)]
fn karatsuba64<P: Plane>(lo: P, hi: P, mid: P) -> [P; 2] {
    let mid = mid ^ lo ^ hi;
    [lo ^ mid.shl::<32>(), hi ^ mid.shr::<32>()]
}

/// The 256-bit carry-less product, low word first, from the nine
/// products of [`karatsuba_words`]' operands.
#[inline(always)]
fn product256<P: Plane>(z: &[P; 9]) -> [P; 4] {
    let [a0, a1] = karatsuba64(z[0], z[1], z[2]);
    let [b0, b1] = karatsuba64(z[3], z[4], z[5]);
    let [m0, m1] = karatsuba64(z[6], z[7], z[8]);
    [a0, a1 ^ m0 ^ a0 ^ b0, b0 ^ m1 ^ a1 ^ b1, b1]
}

/// The field element a 256-bit carry-less product of two stored operands
/// (the `u128`s from `from_be_bytes`, bit 127 = coefficient of x⁰) stands
/// for, in the same representation.
///
/// That product is the bit-reversal of the true 255-bit one; shifted left
/// by one, its words `v3 v2 | v1 v0` hold degrees 0..128 | 128..256 in
/// stored order. Degree 128 + m reduces to m, m+1, m+2, m+7, which in
/// this layout is "move up 128 bits, then right by 0, 1, 2, 7": `v0`
/// folds into `v2` (and what the right shifts drop, into `v1`), then `v1`
/// into `v3` and `v2` the same way.
#[inline(always)]
fn reduce(p: [u64; 4]) -> u128 {
    let v0 = p[0] << 1;
    let mut v1 = (p[1] << 1) | (p[0] >> 63);
    let mut v2 = (p[2] << 1) | (p[1] >> 63);
    let mut v3 = (p[3] << 1) | (p[2] >> 63);
    v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
    v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
    v3 ^= v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
    v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
    (u128::from(v3) << 64) | u128::from(v2)
}

/// The GHASH key: H¹ … H⁸ as their nine Karatsuba words, built once per
/// key. Row `t` holds word `t` of H⁸, H⁷, …, H¹, so the last `L` words
/// of a row are, lane by lane, the powers a group of `L` blocks is
/// multiplied by ([`Plane::load_tail`]).
#[derive(Clone)]
pub(crate) struct CtGhash {
    h: [[u64; 8]; 9],
}

impl CtGhash {
    /// H¹ … H⁸, each power the one below times H on the `u64` body.
    pub(crate) fn new(h: u128) -> Self {
        let mut key = CtGhash { h: [[0; 8]; 9] };
        key.set_power(1, h);
        let mut power = h;
        for i in 2..=8 {
            power = key.mul_h(power);
            key.set_power(i, power);
        }
        key
    }

    /// Stores `power` = Hⁱ as column `8 − i`.
    fn set_power(&mut self, i: usize, power: u128) {
        let words = karatsuba_words(power as u64, (power >> 64) as u64);
        for (row, w) in self.h.iter_mut().zip(words) {
            row[8 - i] = w;
        }
    }

    /// `x · H` in GF(2¹²⁸), in the SP 800-38D bit-reflected
    /// representation (the `u128` from `from_be_bytes`, bit 127 =
    /// coefficient of x⁰) — bitwise identical to the table reference's
    /// `gf_mul(x, h)`. One group of one block on the `u64` body.
    pub(crate) fn mul_h(&self, x: u128) -> u128 {
        self.absorb_on::<u64>(0, &x.to_be_bytes())
    }

    /// Folds `groups` — whole groups of `L` 16-byte blocks, `L` the lanes
    /// of a `P` — into the GHASH state `y`. Lane `l` holds block `l` of a
    /// group, and the group step is y ← Σₗ (Xₗ ⊕ [l = 0]·y)·H^(L−l): the
    /// per-lane products are independent, stay unreduced, and are XORed
    /// across lanes before one reduction per group.
    #[inline(always)]
    pub(crate) fn absorb_on<P: Plane>(&self, mut y: u128, groups: &[u8]) -> u128 {
        let group_len = core::mem::size_of::<P::Blocks>();
        // A partial group would go unhashed, and its blocks unauthenticated.
        assert_eq!(groups.len() & (group_len - 1), 0, "a partial GHASH group");
        let mut h = [[P::splat(0); 4]; 9];
        for (split, row) in h.iter_mut().zip(&self.h) {
            let words = P::load_tail(row);
            for (s, m) in split.iter_mut().zip(HOLES32) {
                *s = words & P::splat(m);
            }
        }
        for group in groups.chunks_exact(group_len) {
            let mut blocks = P::ZERO_BLOCKS;
            blocks.as_mut().copy_from_slice(group);
            let [hi, lo] = P::load_blocks(&blocks);
            let mut z = karatsuba_words(lo ^ P::lane0(y as u64), hi ^ P::lane0((y >> 64) as u64));
            for (z, h) in z.iter_mut().zip(&h) {
                *z = bmul32(*z, h);
            }
            let mut p = [0u64; 4];
            for (limb, lanes) in p.iter_mut().zip(product256(&z)) {
                *limb = lanes.xor_lanes();
            }
            y = reduce(p);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{Aes, SBOX};
    use crate::engine::{runnable_planes, Planes};
    use crate::gcm::table::{gf_mul, TableGcm};
    use proptest::prelude::*;

    /// A deterministic byte stream (LCG) for the differential tests.
    fn lcg_batch(state: &mut u64) -> [u8; 64] {
        let mut bytes = [0u8; 64];
        for b in &mut bytes {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (*state >> 24) as u8;
        }
        bytes
    }

    #[test]
    fn bitslice_round_trips_and_matches_naive() {
        let mut state = 11;
        for _ in 0..8 {
            let bytes = lcg_batch(&mut state);
            let w = bitslice::<u64>(&bytes);
            // Naive reference: bit i of w[b] = bit b of bytes[i].
            for (b, wb) in w.iter().enumerate() {
                let mut expect = 0u64;
                for (i, &byte) in bytes.iter().enumerate() {
                    expect |= (((byte >> b) & 1) as u64) << i;
                }
                assert_eq!(*wb, expect, "plane {b}");
            }
            let mut back = [0u8; 64];
            unbitslice(&w, &mut back);
            assert_eq!(back, bytes);
        }
    }

    #[test]
    fn bitsliced_sbox_matches_table() {
        // All 256 byte values, four batches of 64, rotated through all 64
        // lanes: a gate that reads the wrong plane or a lane-dependent slip
        // cannot hide behind where a value happened to sit.
        for rotation in 0..64 {
            for chunk in 0..4 {
                let mut bytes = [0u8; 64];
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = (chunk * 64 + (i + rotation) % 64) as u8;
                }
                let mut q = bitslice::<u64>(&bytes);
                sbox_circuit(&mut q);
                let mut out = [0u8; 64];
                unbitslice(&q, &mut out);
                for (lane, (&x, &s)) in bytes.iter().zip(&out).enumerate() {
                    assert_eq!(s, SBOX[x as usize], "sbox({x:#x}) in lane {lane}");
                }
            }
        }
    }

    /// Runs a sliced round function over a batch and the byte-wise oracle
    /// from the table cipher over its four blocks.
    fn assert_matches_bytewise(sliced: fn(&mut [u64; 8]), oracle: fn(&mut [u8; 16]), name: &str) {
        let mut state = 0x5eed;
        for case in 0..64 {
            let bytes = lcg_batch(&mut state);
            let mut q = bitslice::<u64>(&bytes);
            sliced(&mut q);
            let mut got = [0u8; 64];
            unbitslice(&q, &mut got);
            let mut expected = bytes;
            for block in expected.chunks_exact_mut(16) {
                oracle(block.try_into().unwrap());
            }
            assert_eq!(got, expected, "{name}, case {case}");
        }
    }

    #[test]
    fn sliced_shift_rows_matches_bytewise() {
        assert_matches_bytewise(shift_rows, crate::aes::shift_rows, "ShiftRows");
    }

    #[test]
    fn sliced_mix_columns_matches_bytewise() {
        assert_matches_bytewise(mix_columns, crate::aes::mix_columns, "MixColumns");
    }

    #[test]
    fn presliced_round_keys_are_the_sliced_schedule() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8).map(|i| i.wrapping_mul(29) ^ 0xa5).collect();
            let ct = CtAes::new(&key).unwrap();
            let (byte_keys, rounds) = crate::engine::expand_key(&key, sub_word).unwrap();
            assert_eq!(ct.rounds, rounds);
            for (r, rk) in byte_keys[..=rounds].iter().enumerate() {
                let mut batch = [0u8; 64];
                for block in batch.chunks_exact_mut(16) {
                    block.copy_from_slice(rk);
                }
                assert_eq!(
                    ct.round_keys[r],
                    bitslice::<u64>(&batch),
                    "key_len {key_len} round {r}"
                );
            }
        }
    }

    // FIPS 197 Appendix C.1–C.3, straight on the sliced cipher: key bytes
    // 00 01 02 …, plaintext 00 11 22 … ff.
    #[test]
    fn fips197_appendix_c_on_encrypt_block() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        for (key_len, expected) in [
            (16, 0x69c4e0d8_6a7b0430_d8cdb780_70b4c55a_u128),
            (24, 0xdda97ca4_864cdfe0_6eaf70a0_ec0d7191),
            (32, 0x8ea2b7ca_516745bf_eafc4990_4b496089),
        ] {
            let aes = CtAes::new(&key[..key_len]).unwrap();
            let mut block: [u8; 16] = core::array::from_fn(|i| 0x11 * i as u8);
            aes.encrypt_block(&mut block);
            assert_eq!(block, expected.to_be_bytes(), "AES-{}", 8 * key_len);
        }
    }

    #[test]
    fn ct_cipher_matches_table_cipher() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for key_len in [16usize, 24, 32] {
            let key = &lcg_batch(&mut state)[..key_len];
            let table = Aes::new(key).unwrap();
            let ct = CtAes::new(key).unwrap();
            // Four different blocks per batch: every block group is checked.
            for _ in 0..4 {
                let mut batch = lcg_batch(&mut state);
                let blocks = batch;
                ct.encrypt::<u64>(&mut batch);
                for (got, block) in batch.chunks_exact(16).zip(blocks.chunks_exact(16)) {
                    assert_eq!(got, table.encrypt(block.try_into().unwrap()), "key_len {key_len}");
                }
            }
        }
    }

    /// `data` under `aes`'s counter mode from `j0`, on `planes`.
    fn ctr_at(planes: Planes, aes: &CtAes, j0: &[u8; 16], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        planes.ctr_xor(aes, j0, &mut out);
        out
    }

    /// Holds every width this CPU runs to the `u64` body, and the `u64`
    /// body to the table reference, on `data[..len]` for each `len`: the
    /// reference keystream of the whole of `data` is computed once, and a
    /// shorter message's is its prefix.
    fn assert_widths_agree(key: &[u8], j0: &[u8; 16], data: &[u8], lens: &[usize], what: &str) {
        let widths = runnable_planes();
        let aes = CtAes::new(key).unwrap();
        let mut want = data.to_vec();
        TableGcm::new(key).unwrap().ctr_xor(j0, &mut want);
        for &len in lens {
            let body = ctr_at(widths[0].1, &aes, j0, &data[..len]);
            assert_eq!(body, want[..len], "u64 body vs table: {what}, len {len}");
            for &(name, planes) in &widths {
                let got = ctr_at(planes, &aes, j0, &data[..len]);
                assert_eq!(got, body, "{name} vs u64 body: {what}, len {len}");
            }
        }
    }

    fn lcg_bytes(len: usize, state: &mut u64) -> Vec<u8> {
        (0..len.div_ceil(64)).flat_map(|_| lcg_batch(state)).take(len).collect()
    }

    #[test]
    fn ct_width_ctr_matches_u64_body_and_table_at_every_length() {
        let mut state = 0xc7c7;
        let key = lcg_bytes(32, &mut state);
        let j0: [u8; 16] = lcg_bytes(16, &mut state).try_into().unwrap();
        let data = lcg_bytes(65_536, &mut state);
        let lens: Vec<usize> = (0..=1_100).chain([3_376, 23_000, 65_536]).collect();
        assert_widths_agree(&key, &j0, &data, &lens, "AES-256");
    }

    /// Start counters that put the 32-bit wrap on every block of a 4-,
    /// 16- and 32-block batch, and just past one.
    #[test]
    fn ct_width_ctr_agrees_across_the_counter_wrap() {
        let mut state = 0x3a3a;
        let key = lcg_bytes(16, &mut state);
        let data = lcg_bytes(1_100, &mut state);
        let lens = [0, 1, 16, 17, 63, 64, 255, 256, 257, 511, 512, 513, 1_024, 1_100];
        for back in 0..=40u32 {
            let start = u32::MAX - back;
            let mut j0 = [0x5cu8; 16];
            j0[12..].copy_from_slice(&start.to_be_bytes());
            assert_widths_agree(&key, &j0, &data, &lens, &format!("counter {start:#x}"));
        }
    }

    #[test]
    fn ct_width_ctr_agrees_at_every_key_size() {
        let mut state = 0x1924;
        let data = lcg_bytes(3_376, &mut state);
        let lens = [0, 1, 15, 63, 64, 65, 255, 256, 257, 511, 512, 513, 3_376];
        for key_len in [16, 24, 32] {
            let key = lcg_bytes(key_len, &mut state);
            let j0: [u8; 16] = lcg_bytes(16, &mut state).try_into().unwrap();
            assert_widths_agree(&key, &j0, &data, &lens, &format!("AES-{}", 8 * key_len));
        }
    }

    #[test]
    fn gf_mul_ct_matches_reference_on_every_single_bit_pair() {
        // x^i · x^j for all 128 × 128 positions: a wrong hole mask or a
        // dropped carry-gap bit shows at exactly one of them.
        for i in 0..128 {
            let gh = CtGhash::new(1 << i);
            for j in 0..128 {
                assert_eq!(gh.mul_h(1 << j), gf_mul(1 << j, 1 << i), "bits {j} x {i}");
            }
        }
    }

    /// All-ones and alternating patterns put the most terms on every
    /// product position — where the integer carries run highest.
    const DENSE: [u128; 15] = [
        0,
        1,
        3,
        1 << 127,
        u128::MAX,
        u128::MAX >> 1,
        u128::MAX << 1,
        0x5555_5555_5555_5555_5555_5555_5555_5555,
        0xAAAA_AAAA_AAAA_AAAA_AAAA_AAAA_AAAA_AAAA,
        0x1111_1111_1111_1111_1111_1111_1111_1111,
        0x8888_8888_8888_8888_8888_8888_8888_8888,
        0xFFFF_FFFF_FFFF_FFFF_0000_0000_0000_0000,
        0x0000_0000_0000_0000_FFFF_FFFF_FFFF_FFFF,
        0x0388_dace_60b6_a392_f328_c2b9_71b2_fe78,
        0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e,
    ];

    #[test]
    fn gf_mul_ct_matches_reference() {
        for h in DENSE {
            let gh = CtGhash::new(h);
            for x in DENSE {
                assert_eq!(gh.mul_h(x), gf_mul(x, h), "{x:#x} * {h:#x}");
            }
        }
    }

    /// `[H¹, …, H⁸]` by the table multiply.
    fn reference_powers(h: u128) -> [u128; 8] {
        let mut powers = [h; 8];
        for i in 1..8 {
            powers[i] = gf_mul(powers[i - 1], h);
        }
        powers
    }

    /// One group step on `planes` from state `y`, lane `l` holding `xs[l]`.
    fn group_at(planes: Planes, gh: &CtGhash, y: u128, xs: &[u128]) -> u128 {
        assert_eq!(xs.len(), planes.lanes);
        let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_be_bytes()).collect();
        planes.ghash(gh, y, &bytes)
    }

    /// x^j alone in lane l of a group, for every bit pair and every lane
    /// of every width: the lane must be multiplied by exactly H^(L−l),
    /// which the key set-up built with the `u64` multiply.
    #[test]
    fn ct_width_ghash_single_bit_pairs_in_every_lane() {
        for i in 0..128 {
            let h = 1u128 << i;
            let gh = CtGhash::new(h);
            let powers = reference_powers(h);
            for (name, planes) in runnable_planes() {
                let lanes = planes.lanes;
                for j in 0..128 {
                    for l in 0..lanes {
                        let mut xs = vec![0; lanes];
                        xs[l] = 1 << j;
                        let want = gf_mul(1 << j, powers[lanes - l - 1]);
                        let got = group_at(planes, &gh, 0, &xs);
                        assert_eq!(got, want, "{name}: bits {j} x {i}, lane {l}");
                    }
                }
            }
        }
    }

    /// The dense patterns as full groups at every width — every lane busy,
    /// the state XORed into lane 0 — and as two groups in a row.
    #[test]
    fn ct_width_ghash_dense_patterns_as_full_groups() {
        let n = DENSE.len();
        for h in DENSE {
            let gh = CtGhash::new(h);
            let powers = reference_powers(h);
            for (name, planes) in runnable_planes() {
                let lanes = planes.lanes;
                for r in 0..n {
                    let y = DENSE[(r + 5) % n];
                    let xs: Vec<u128> = (0..lanes).map(|l| DENSE[(r + l) % n]).collect();
                    let mut want = 0;
                    for (l, &x) in xs.iter().enumerate() {
                        let x = if l == 0 { x ^ y } else { x };
                        want ^= gf_mul(x, powers[lanes - l - 1]);
                    }
                    assert_eq!(group_at(planes, &gh, y, &xs), want, "{name}: h {h:#x}, r {r}");
                    // Two groups in one call chain through the state.
                    let mut bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_be_bytes()).collect();
                    bytes.extend_from_within(..);
                    let twice = group_at(planes, &gh, want, &xs);
                    assert_eq!(planes.ghash(&gh, y, &bytes), twice, "{name}: h {h:#x}, r {r}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gf_mul_ct_matches_reference_on_random_pairs(
            x in (any::<u64>(), any::<u64>()),
            h in (any::<u64>(), any::<u64>()),
        ) {
            let x = (u128::from(x.0) << 64) | u128::from(x.1);
            let h = (u128::from(h.0) << 64) | u128::from(h.1);
            prop_assert_eq!(CtGhash::new(h).mul_h(x), gf_mul(x, h));
        }
    }
}
