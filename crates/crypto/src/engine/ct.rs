//! The `ct` crypto backend: bitsliced constant-time software AES and a
//! GHASH built from integer multiplies.
//!
//! The table backend ([`crate::aes`]) indexes `SBOX` with secret bytes —
//! a classic cache-timing side channel, and exactly the class of
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
//! * **SubBytes** is the Boyar–Peralta straight-line circuit (115
//!   XOR/XNOR/AND gates, 32 of them AND) over the eight planes, all 64
//!   lanes at once.
//! * **ShiftRows / MixColumns** are masked shifts of each plane: a block is
//!   a 16-bit group of lanes and a column a nibble of it, so rotating a row
//!   or a column is a rotation inside fixed bit groups. **AddRoundKey** XORs
//!   round keys that were sliced once at key set-up (the key schedule's
//!   SubWord goes through the same circuit).
//! * **GHASH** multiplies by H with six 64 × 64 → 64-bit carry-less
//!   products (Karatsuba over the two halves; the high half of each
//!   product is the low half of the bit-reversed operands' product). A
//!   carry-less product is four groups of integer multiplies of operands
//!   masked to every fourth bit, so the carries of the integer sums die in
//!   the three-bit gaps. This adds the module's one hardware assumption:
//!   **the integer multiplier runs in constant time**, which holds on
//!   x86-64 and AArch64 application cores and does not on some
//!   microcontrollers (early-terminating multipliers).
//!
//! Measured on the 2.1 GHz runner: CTR ≈ 120 MiB/s, GHASH ≈ 270 MiB/s,
//! seal/open ≈ 80 MiB/s, key set-up ≈ 2 µs — between two and three times
//! the leaky table backend and some thirty times below [`super::hw`], but
//! on every architecture, making it the portable default wherever AES-NI
//! is absent.

use crate::aes::MAX_ROUND_KEYS;
use crate::CryptoError;

// ---------------------------------------------------------------------------
// Bitslicing: 64 byte lanes <-> 8 bit-plane words
// ---------------------------------------------------------------------------

/// 8×8 bit-matrix transpose of a `u64` viewed as 8 rows of 8 bits
/// (row `r` = bits `8r..8r+8`): bit `8r + c` ↔ bit `8c + r`. The classic
/// three-round masked-swap network (an involution).
#[inline(always)]
fn transpose8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Swaps the `mask`ed bits of `w[hi]` with the bits `shift` above them in
/// `w[lo]`.
#[inline(always)]
fn swap_between(w: &mut [u64; 8], lo: usize, hi: usize, shift: u32, mask: u64) {
    let t = ((w[lo] >> shift) ^ w[hi]) & mask;
    w[hi] ^= t;
    w[lo] ^= t << shift;
}

/// 8×8 byte-matrix transpose across eight words: byte `c` of `w[j]` ↔ byte
/// `j` of `w[c]` (the same three-round network one level up).
#[inline(always)]
fn transpose_bytes(w: &mut [u64; 8]) {
    for j in [0, 2, 4, 6] {
        swap_between(w, j, j + 1, 8, 0x00FF_00FF_00FF_00FF);
    }
    for j in [0, 1, 4, 5] {
        swap_between(w, j, j + 2, 16, 0x0000_FFFF_0000_FFFF);
    }
    for j in [0, 1, 2, 3] {
        swap_between(w, j, j + 4, 32, 0x0000_0000_FFFF_FFFF);
    }
}

/// Bitslices 64 bytes into 8 bit-plane words: bit `i` of `w[b]` = bit `b`
/// of `bytes[i]`.
#[inline]
fn bitslice(bytes: &[u8; 64]) -> [u64; 8] {
    let mut w = [0u64; 8];
    for (wj, chunk) in w.iter_mut().zip(bytes.chunks_exact(8)) {
        *wj = transpose8x8(u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    transpose_bytes(&mut w);
    w
}

/// Inverse of [`bitslice`].
#[inline]
fn unbitslice(w: &[u64; 8], bytes: &mut [u8; 64]) {
    let mut t = *w;
    transpose_bytes(&mut t);
    for (tj, chunk) in t.iter().zip(bytes.chunks_exact_mut(8)) {
        chunk.copy_from_slice(&transpose8x8(*tj).to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// The round functions on the sliced state
// ---------------------------------------------------------------------------

/// The AES S-box on 64 lanes at once: the depth-16 circuit of Boyar and
/// Peralta, "A new combinational logic minimization technique with
/// applications to cryptology" (2010) — a 23-XOR linear layer, the shared
/// GF(2⁴)-tower inversion with its 32 ANDs, and a 30-gate linear layer
/// that folds in the affine constant 0x63 as four XNORs. The paper numbers
/// bits from the top: `x0` / `s0` are plane 7.
#[inline(always)]
fn sbox_circuit(q: &mut [u64; 8]) {
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
fn shift_rows(q: &mut [u64; 8]) {
    for x in q.iter_mut() {
        *x = (*x & 0x1111_1111_1111_1111)
            | ((*x >> 4) & 0x0222_0222_0222_0222)
            | ((*x << 12) & 0x2000_2000_2000_2000)
            | ((*x >> 8) & 0x0044_0044_0044_0044)
            | ((*x << 8) & 0x4400_4400_4400_4400)
            | ((*x >> 12) & 0x0008_0008_0008_0008)
            | ((*x << 4) & 0x8880_8880_8880_8880);
    }
}

/// Every column rotated up by one row (row `r` ← row `r + 1`): a rotation
/// right by one inside each nibble.
#[inline(always)]
fn rot1(x: u64) -> u64 {
    ((x >> 1) & 0x7777_7777_7777_7777) | ((x << 3) & 0x8888_8888_8888_8888)
}

/// Every column rotated by two rows.
#[inline(always)]
fn rot2(x: u64) -> u64 {
    ((x >> 2) & 0x3333_3333_3333_3333) | ((x << 2) & 0xCCCC_CCCC_CCCC_CCCC)
}

/// MixColumns: row `r` ← 2·a[r] ⊕ 3·a[r+1] ⊕ a[r+2] ⊕ a[r+3], regrouped as
/// `xtime(t) ⊕ rot1(q) ⊕ rot2(t)` with `t = q ⊕ rot1(q)`. On planes,
/// `xtime` moves plane `b` to `b + 1` and folds plane 7 into planes 0, 1,
/// 3 and 4 (x⁸ ≡ x⁴ + x³ + x + 1).
#[inline(always)]
fn mix_columns(q: &mut [u64; 8]) {
    let r = q.map(rot1);
    let t: [u64; 8] = core::array::from_fn(|b| q[b] ^ r[b]);
    let xt = [t[7], t[0] ^ t[7], t[1], t[2] ^ t[7], t[3] ^ t[7], t[4], t[5], t[6]];
    *q = core::array::from_fn(|b| xt[b] ^ r[b] ^ rot2(t[b]));
}

#[inline(always)]
fn add_round_key(q: &mut [u64; 8], rk: &[u64; 8]) {
    for (x, k) in q.iter_mut().zip(rk) {
        *x ^= k;
    }
}

// ---------------------------------------------------------------------------
// The cipher
// ---------------------------------------------------------------------------

/// An expanded AES key for the constant-time backend (128/192/256-bit).
/// Forward cipher only — GCM needs nothing else.
#[derive(Clone)]
pub(crate) struct CtAes {
    /// Round key `r`, repeated over the four block groups and bitsliced.
    round_keys: [[u64; 8]; MAX_ROUND_KEYS],
    rounds: usize,
}

impl CtAes {
    /// FIPS 197 key expansion ([`crate::aes::expand_key`]) with SubWord
    /// computed through the S-box circuit — the schedule touches key
    /// material, so it must be as lookup-free as the data path.
    pub(crate) fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let (byte_keys, rounds) = crate::aes::expand_key(key, sub_word)?;
        let mut round_keys = [[0u64; 8]; MAX_ROUND_KEYS];
        for (sliced, rk) in round_keys.iter_mut().zip(&byte_keys[..=rounds]) {
            let mut batch = [0u8; 64];
            for block in batch.chunks_exact_mut(16) {
                block.copy_from_slice(rk);
            }
            *sliced = bitslice(&batch);
        }
        Ok(CtAes { round_keys, rounds })
    }

    /// Encrypts four blocks in place: slice, all rounds, unslice.
    fn encrypt4(&self, batch: &mut [u8; 64]) {
        let q = &mut bitslice(batch);
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
        self.encrypt4(&mut batch);
        block.copy_from_slice(&batch[..16]);
    }

    /// CTR keystream XOR, bitwise identical to the table backend's
    /// [`crate::gcm`] counter mode (32-bit big-endian counter increment in
    /// the last word of `j0`).
    pub(crate) fn ctr_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
        let mut counter = u32::from_be_bytes(j0[12..16].try_into().unwrap());
        for chunk in data.chunks_mut(64) {
            let mut batch = [0u8; 64];
            for block in batch.chunks_exact_mut(16) {
                counter = counter.wrapping_add(1);
                block[..12].copy_from_slice(&j0[..12]);
                block[12..].copy_from_slice(&counter.to_be_bytes());
            }
            self.encrypt4(&mut batch);
            for (d, k) in chunk.iter_mut().zip(&batch) {
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
    let mut q = bitslice(&buf);
    sbox_circuit(&mut q);
    unbitslice(&q, &mut buf);
    [buf[0], buf[1], buf[2], buf[3]]
}

// ---------------------------------------------------------------------------
// GHASH from integer multiplies
// ---------------------------------------------------------------------------

/// Every fourth bit, at offsets 0..4: the "holes" operands are split on.
const HOLES: [u64; 4] =
    [0x1111_1111_1111_1111, 0x2222_2222_2222_2222, 0x4444_4444_4444_4444, 0x8888_8888_8888_8888];

/// Low 64 bits of the carry-less product `x ⊗ y`. Each operand is split
/// into its four hole classes; the integer product of two classes has its
/// terms on every fourth bit, at most 15 of them on one position (16 only
/// on the topmost, whose carry leaves the word), so the low bit of each
/// sum is the XOR of its terms and the carries stay inside the three-bit
/// gap above it, masked off at the end. Only the low word is safe this
/// way — in a full 128-bit product up to 16 terms meet mid-word.
#[inline(always)]
fn bmul64(x: u64, y: u64) -> u64 {
    let x = HOLES.map(|m| x & m);
    let y = HOLES.map(|m| y & m);
    let mut z = 0;
    for k in 0..4 {
        let mut zk = 0;
        for i in 0..4 {
            zk ^= x[i].wrapping_mul(y[(k + 4 - i) & 3]);
        }
        z |= zk & HOLES[k];
    }
    z
}

/// The GHASH key: H's two 64-bit halves and their Karatsuba sum, with the
/// bit-reversals of all three, built once per key.
#[derive(Clone)]
pub(crate) struct CtGhash {
    /// `[low, high, low ^ high]` of H as stored by `from_be_bytes`.
    h: [u64; 3],
    /// `h` with every word bit-reversed.
    h_rev: [u64; 3],
}

impl CtGhash {
    pub(crate) fn new(h: u128) -> Self {
        let (lo, hi) = (h as u64, (h >> 64) as u64);
        let h = [lo, hi, lo ^ hi];
        CtGhash { h, h_rev: h.map(u64::reverse_bits) }
    }

    /// `x · H` in GF(2¹²⁸), in the SP 800-38D bit-reflected representation
    /// (the `u128` from `from_be_bytes`, bit 127 = coefficient of x⁰) —
    /// bitwise identical to `gcm::gf_mul(x, h)`.
    ///
    /// The 256-bit carry-less product of the *stored* patterns is the
    /// bit-reversal of the true 255-bit product; shifted left by one, its
    /// limbs `v3 v2 | v1 v0` hold degrees 0..128 | 128..256 in stored
    /// order. Degree 128 + m reduces to m, m+1, m+2, m+7, which in this
    /// layout is "move up 128 bits, then right by 0, 1, 2, 7": `v0` folds
    /// into `v2` (and what the right shifts drop, into `v1`), then `v1`
    /// into `v3` and `v2` the same way.
    #[inline]
    pub(crate) fn mul_h(&self, x: u128) -> u128 {
        let (x0, x1) = (x as u64, (x >> 64) as u64);
        let x = [x0, x1, x0 ^ x1];
        // The three Karatsuba products, low and high 64 bits of each: the
        // high half is the low half of the reversed operands' product,
        // reversed back (a 127-bit product leaves that one bit short).
        let mut lo = [0u64; 3];
        let mut hi = [0u64; 3];
        for i in 0..3 {
            lo[i] = bmul64(x[i], self.h[i]);
            hi[i] = bmul64(x[i].reverse_bits(), self.h_rev[i]).reverse_bits() >> 1;
        }
        let mid_lo = lo[2] ^ lo[0] ^ lo[1];
        let mid_hi = hi[2] ^ hi[0] ^ hi[1];
        let p = [lo[0], hi[0] ^ mid_lo, lo[1] ^ mid_hi, hi[1]];

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{Aes, SBOX};
    use crate::gcm::gf_mul;
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
            let w = bitslice(&bytes);
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
                let mut q = bitslice(&bytes);
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
    /// from the table backend over its four blocks.
    fn assert_matches_bytewise(sliced: fn(&mut [u64; 8]), oracle: fn(&mut [u8; 16]), name: &str) {
        let mut state = 0x5eed;
        for case in 0..64 {
            let bytes = lcg_batch(&mut state);
            let mut q = bitslice(&bytes);
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
            let (byte_keys, rounds) = crate::aes::expand_key(&key, sub_word).unwrap();
            assert_eq!(ct.rounds, rounds);
            for (r, rk) in byte_keys[..=rounds].iter().enumerate() {
                let mut batch = [0u8; 64];
                for block in batch.chunks_exact_mut(16) {
                    block.copy_from_slice(rk);
                }
                assert_eq!(ct.round_keys[r], bitslice(&batch), "key_len {key_len} round {r}");
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
                ct.encrypt4(&mut batch);
                for (got, block) in batch.chunks_exact(16).zip(blocks.chunks_exact(16)) {
                    assert_eq!(got, table.encrypt(block.try_into().unwrap()), "key_len {key_len}");
                }
            }
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

    #[test]
    fn gf_mul_ct_matches_reference() {
        // All-ones and alternating patterns put the most terms on every
        // product position — where the integer carries run highest.
        let dense = [
            0u128,
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
        for &h in &dense {
            let gh = CtGhash::new(h);
            for &x in &dense {
                assert_eq!(gh.mul_h(x), gf_mul(x, h), "{x:#x} * {h:#x}");
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
