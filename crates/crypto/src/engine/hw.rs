//! The `hw` crypto backend: AES-NI/VAES counter mode, carry-less
//! PCLMULQDQ GHASH, and SHA-NI SHA-256 via `core::arch::x86_64`
//! intrinsics.
//!
//! Every primitive here runs in data-independent time by construction —
//! the AES rounds, the carry-less multiply and the SHA-256 message
//! schedule are single instructions whose latency does not depend on
//! operand values, and there is no secret-indexed memory access anywhere
//! in this module (asserted by the `ct_lint` test). The key schedule uses
//! `AESENCLAST` against a zero round key to compute `SubWord` (with all
//! four state columns equal, `ShiftRows` is the identity on column words),
//! which keeps even key expansion free of S-box lookups and works
//! uniformly for 128/192/256-bit keys.
//!
//! Counter-mode throughput comes from instruction-level parallelism: the
//! AES-NI path keeps eight independent blocks in flight per round-key
//! broadcast, and when VAES + AVX-512 are available a 16-block path runs
//! four blocks per `VAESENC`. GHASH multiplies in GF(2^128) with four
//! `PCLMULQDQ`s plus a reflected reduction (SP 800-38D stores blocks
//! bit-reflected; the product of the stored representations is the
//! bit-reversal of the true product, fixed by one 256-bit left shift —
//! the standard trick that avoids per-block bit reversal).

use core::arch::x86_64::*;

use super::{cpu, MAX_ROUND_KEYS};
use crate::CryptoError;

// ---------------------------------------------------------------------------
// AES key schedule and block encryption
// ---------------------------------------------------------------------------

/// An expanded AES key for the hardware backend (128/192/256-bit).
/// Forward cipher only — GCM needs nothing else.
#[derive(Clone)]
pub(crate) struct HwAes {
    round_keys: [[u8; 16]; MAX_ROUND_KEYS],
    rounds: usize,
    vaes: bool,
}

impl core::fmt::Debug for HwAes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HwAes").field("rounds", &self.rounds).finish_non_exhaustive()
    }
}

/// `SubWord` via `AESENCLAST` with a zero round key: with all four state
/// columns equal, `ShiftRows` permutes equal bytes (identity on the column
/// word), leaving exactly `SubBytes` — no table lookup touches the key.
#[target_feature(enable = "aes")]
fn sub_word_ni(w: [u8; 4]) -> [u8; 4] {
    let x = _mm_set1_epi32(i32::from_le_bytes(w));
    let y = _mm_aesenclast_si128(x, _mm_setzero_si128());
    (_mm_cvtsi128_si32(y) as u32).to_le_bytes()
}

/// Safe wrapper with the shared key-expansion signature.
fn sub_word_hw(w: [u8; 4]) -> [u8; 4] {
    // SAFETY: HwAes::new asserts `cpu().aes` before expanding.
    unsafe { sub_word_ni(w) }
}

impl HwAes {
    /// FIPS 197 key expansion (the generic Nk loop; `SubWord` in hardware).
    ///
    /// The caller must have checked `cpu().aes`.
    pub(crate) fn new(key: &[u8]) -> Result<Self, CryptoError> {
        assert!(cpu().aes, "hw backend constructed without AES-NI");
        let (round_keys, rounds) = super::expand_key(key, sub_word_hw)?;
        Ok(HwAes { round_keys, rounds, vaes: cpu().vaes })
    }

    /// Encrypts a single 16-byte block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: `cpu().aes` was checked at construction.
        unsafe { encrypt_block_ni(&self.round_keys, self.rounds, block) }
    }

    /// CTR keystream XOR, bitwise identical to the table reference's counter
    /// mode (32-bit big-endian counter increment in the last word of `j0`).
    pub(crate) fn ctr_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
        // SAFETY: feature availability was checked at construction
        // (`cpu().vaes` for the wide path, `cpu().aes` otherwise).
        unsafe {
            if self.vaes && data.len() >= 16 * VAES_BLOCKS {
                ctr_xor_vaes(&self.round_keys, self.rounds, j0, data)
            } else {
                ctr_xor_ni(&self.round_keys, self.rounds, j0, data)
            }
        }
    }
}

#[inline(always)]
unsafe fn load_rk(rk: &[u8; 16]) -> __m128i {
    // SAFETY: 16 readable bytes; loadu has no alignment requirement.
    unsafe { _mm_loadu_si128(rk.as_ptr() as *const __m128i) }
}

#[target_feature(enable = "aes")]
fn encrypt_block_ni(rks: &[[u8; 16]; MAX_ROUND_KEYS], rounds: usize, block: &mut [u8; 16]) {
    // SAFETY: in-bounds unaligned loads/stores over 16-byte arrays.
    unsafe {
        let mut b = _mm_loadu_si128(block.as_ptr() as *const __m128i);
        b = _mm_xor_si128(b, load_rk(&rks[0]));
        for rk in &rks[1..rounds] {
            b = _mm_aesenc_si128(b, load_rk(rk));
        }
        b = _mm_aesenclast_si128(b, load_rk(&rks[rounds]));
        _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, b);
    }
}

/// Blocks kept in flight by the AES-NI counter path (covers the ~4-cycle
/// AESENC latency at 1/cycle throughput with headroom).
const NI_BLOCKS: usize = 8;

/// Fills `bufs` with the next `n` counter blocks and advances the counter.
#[inline(always)]
fn next_counter_blocks<const N: usize>(j0: &[u8; 16], counter: &mut u32, bufs: &mut [[u8; 16]; N]) {
    for (i, buf) in bufs.iter_mut().enumerate() {
        *buf = *j0;
        buf[12..16].copy_from_slice(&counter.wrapping_add(i as u32 + 1).to_be_bytes());
    }
    *counter = counter.wrapping_add(N as u32);
}

#[target_feature(enable = "aes")]
fn ctr_xor_ni(rks: &[[u8; 16]; MAX_ROUND_KEYS], rounds: usize, j0: &[u8; 16], data: &mut [u8]) {
    let mut counter = u32::from_be_bytes(j0[12..16].try_into().unwrap());
    for chunk in data.chunks_mut(16 * NI_BLOCKS) {
        let mut bufs = [[0u8; 16]; NI_BLOCKS];
        let nblocks = chunk.len().div_ceil(16) as u32;
        next_counter_blocks(j0, &mut counter, &mut bufs);
        counter = counter.wrapping_add(nblocks).wrapping_sub(NI_BLOCKS as u32);
        // SAFETY: in-bounds unaligned loads/stores over the local buffers.
        unsafe {
            let mut b: [__m128i; NI_BLOCKS] =
                core::array::from_fn(|i| _mm_loadu_si128(bufs[i].as_ptr() as *const __m128i));
            let rk0 = load_rk(&rks[0]);
            for x in &mut b {
                *x = _mm_xor_si128(*x, rk0);
            }
            for rk in &rks[1..rounds] {
                let rk = load_rk(rk);
                for x in &mut b {
                    *x = _mm_aesenc_si128(*x, rk);
                }
            }
            let rkl = load_rk(&rks[rounds]);
            for (i, x) in b.iter_mut().enumerate() {
                *x = _mm_aesenclast_si128(*x, rkl);
                _mm_storeu_si128(bufs[i].as_mut_ptr() as *mut __m128i, *x);
            }
        }
        let ks = bufs.as_flattened();
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
    }
}

/// Blocks per iteration of the VAES path: four 512-bit registers of four
/// blocks each.
const VAES_BLOCKS: usize = 16;

#[target_feature(enable = "aes", enable = "vaes", enable = "avx512f")]
fn ctr_xor_vaes(rks: &[[u8; 16]; MAX_ROUND_KEYS], rounds: usize, j0: &[u8; 16], data: &mut [u8]) {
    let mut counter = u32::from_be_bytes(j0[12..16].try_into().unwrap());
    for chunk in data.chunks_mut(16 * VAES_BLOCKS) {
        let mut bufs = [[0u8; 16]; VAES_BLOCKS];
        let nblocks = chunk.len().div_ceil(16) as u32;
        next_counter_blocks(j0, &mut counter, &mut bufs);
        counter = counter.wrapping_add(nblocks).wrapping_sub(VAES_BLOCKS as u32);
        // SAFETY: in-bounds unaligned loads/stores over the local buffers;
        // feature gates checked by the caller's dispatch.
        unsafe {
            let flat = bufs.as_flattened_mut();
            let mut b: [__m512i; 4] = core::array::from_fn(|i| {
                _mm512_loadu_si512(flat.as_ptr().add(64 * i) as *const __m512i)
            });
            let rk0 = _mm512_broadcast_i32x4(load_rk(&rks[0]));
            for x in &mut b {
                *x = _mm512_xor_si512(*x, rk0);
            }
            for rk in &rks[1..rounds] {
                let rk = _mm512_broadcast_i32x4(load_rk(rk));
                for x in &mut b {
                    *x = _mm512_aesenc_epi128(*x, rk);
                }
            }
            let rkl = _mm512_broadcast_i32x4(load_rk(&rks[rounds]));
            for (i, x) in b.iter_mut().enumerate() {
                *x = _mm512_aesenclast_epi128(*x, rkl);
                _mm512_storeu_si512(flat.as_mut_ptr().add(64 * i) as *mut __m512i, *x);
            }
        }
        let ks = bufs.as_flattened();
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
    }
}

// ---------------------------------------------------------------------------
// Carry-less GHASH
// ---------------------------------------------------------------------------

/// GF(2^128) multiplication of two blocks in the SP 800-38D bit-reflected
/// representation (the `u128` from `from_be_bytes`, bit 127 = coefficient
/// of x^0), bitwise identical to the table reference's `gf_mul`.
///
/// Carry-less multiply of the *stored* bit patterns gives the bit-reversal
/// of the true 255-bit product; shifting the 256-bit result left by one
/// realigns it so the high/low halves are the reflected low/high halves of
/// the true product, and the reduction by x^128 ≡ x^7 + x^2 + x + 1 runs
/// reflected (right shifts, with the seven fall-off bits folded once more
/// from the top).
pub(crate) fn gf_mul_hw(x: u128, y: u128) -> u128 {
    // SAFETY: construction sites check `cpu().aes`, which includes
    // pclmulqdq.
    unsafe { reduce_clmul(clmul256(x, y)) }
}

/// 256-bit carry-less product of the stored bit patterns (no reduction),
/// as `(high, low)` halves. XOR-linear, so several products can be summed
/// before one shared reduction (the aggregated GHASH below).
#[target_feature(enable = "pclmulqdq")]
fn clmul256(x: u128, y: u128) -> (u128, u128) {
    // SAFETY: value-only SIMD ops (no memory access); transmutes between
    // __m128i and u128 are bit-pattern reinterpretations of 16-byte values
    // with matching little-endian lane order on x86.
    let (p_lo, p_hi, mid) = unsafe {
        let a: __m128i = core::mem::transmute(x);
        let b: __m128i = core::mem::transmute(y);
        let lo: u128 = core::mem::transmute(_mm_clmulepi64_si128(a, b, 0x00));
        let hi: u128 = core::mem::transmute(_mm_clmulepi64_si128(a, b, 0x11));
        let m0: u128 = core::mem::transmute(_mm_clmulepi64_si128(a, b, 0x01));
        let m1: u128 = core::mem::transmute(_mm_clmulepi64_si128(a, b, 0x10));
        (lo, hi, m0 ^ m1)
    };
    (p_hi ^ (mid >> 64), p_lo ^ (mid << 64))
}

/// Reduces a 256-bit carry-less product of stored representations to the
/// 128-bit GHASH representation: the <<1 reflection fix, then the
/// reduction by x^128 ≡ x^7 + x^2 + x + 1 run reflected.
#[inline]
fn reduce_clmul((r_hi, r_lo): (u128, u128)) -> u128 {
    let q_lo = r_lo << 1;
    let q_hi = (r_hi << 1) | (r_lo >> 127);
    // Reflected reduction: q_lo holds rev(C_hi), q_hi holds rev(C_lo).
    // C mod m = C_lo ^ C_hi·(x^7+x^2+x+1); multiplying by x^s is >>s here,
    // and the bits that fall off the low end are the degree-128.. overflow,
    // re-folded via their reflected image at the top of the word.
    let ro = (q_lo << 127) ^ (q_lo << 126) ^ (q_lo << 121);
    q_hi ^ q_lo ^ (q_lo >> 1) ^ (q_lo >> 2) ^ (q_lo >> 7) ^ ro ^ (ro >> 1) ^ (ro >> 2) ^ (ro >> 7)
}

/// Blocks folded per reduction by the aggregated GHASH.
const GHASH_AGG: usize = 4;

/// GHASH state with precomputed key powers H, H², H³, H⁴: four blocks
/// cost sixteen `PCLMULQDQ`s and **one** reduction via
/// Y ← (Y ⊕ b₀)·H⁴ ⊕ b₁·H³ ⊕ b₂·H² ⊕ b₃·H (the Horner unrolling; the
/// carry-less product is XOR-linear so the partial products sum before
/// reducing).
#[derive(Clone)]
pub(crate) struct HwGhash {
    /// `h_pow[i]` = H^(i+1).
    h_pow: [u128; GHASH_AGG],
}

impl core::fmt::Debug for HwGhash {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // H and its powers are key material (tag forgery); never printed.
        f.debug_struct("HwGhash").finish_non_exhaustive()
    }
}

impl HwGhash {
    pub(crate) fn new(h: u128) -> Self {
        let mut h_pow = [h; GHASH_AGG];
        for i in 1..GHASH_AGG {
            h_pow[i] = gf_mul_hw(h_pow[i - 1], h);
        }
        HwGhash { h_pow }
    }

    /// Absorbs one 16-byte-block stream into `y` (partial last block
    /// zero-padded, as in SP 800-38D).
    pub(crate) fn absorb(&self, y: u128, data: &[u8]) -> u128 {
        // SAFETY: construction sites check `cpu().aes`, which includes
        // pclmulqdq and ssse3.
        unsafe { absorb_simd(&self.h_pow, y, data) }
    }

    /// Full GHASH over `aad` and `ciphertext` (both zero-padded to block
    /// boundaries, then the 64|64-bit length block).
    pub(crate) fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> u128 {
        let y = self.absorb(0, aad);
        let y = self.absorb(y, ciphertext);
        let lens = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        gf_mul_hw(y ^ lens, self.h_pow[0])
    }
}

// The hot GHASH loop stays entirely in XMM registers — round-tripping
// every block through `u128` general-purpose arithmetic costs more in
// register-domain crossings than the carry-less multiplies themselves.
// The helpers below are the scalar derivation above transcribed op for op
// (the `__m128i` is viewed as a `u128`, lane 0 = low 64 bits).

/// `v >> s` for a 128-bit value in one register (1 ≤ s < 64; the shift
/// counts are instruction immediates, hence a macro rather than a fn).
macro_rules! srl128 {
    ($v:expr, $s:literal) => {{
        let v = $v;
        _mm_or_si128(_mm_srli_epi64(v, $s), _mm_slli_epi64(_mm_srli_si128(v, 8), 64 - $s))
    }};
}

#[target_feature(enable = "pclmulqdq", enable = "ssse3")]
fn absorb_simd(h_pow: &[u128; GHASH_AGG], y0: u128, data: &[u8]) -> u128 {
    // SAFETY: value-only SIMD ops plus in-bounds unaligned 16-byte loads;
    // __m128i ↔ u128 transmutes reinterpret 16-byte values with matching
    // little-endian lane order.
    unsafe {
        // from_be_bytes as a shuffle: reverse the 16 loaded bytes.
        let rev = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let hp: [__m128i; GHASH_AGG] = core::array::from_fn(|i| core::mem::transmute(h_pow[i]));
        let mut y: __m128i = core::mem::transmute(y0);

        let mut chunks = data.chunks_exact(16 * GHASH_AGG);
        for chunk in &mut chunks {
            let mut acc_hi = _mm_setzero_si128();
            let mut acc_lo = _mm_setzero_si128();
            for i in 0..GHASH_AGG {
                let mut b = _mm_shuffle_epi8(
                    _mm_loadu_si128(chunk.as_ptr().add(16 * i) as *const __m128i),
                    rev,
                );
                if i == 0 {
                    b = _mm_xor_si128(b, y);
                }
                let h = hp[GHASH_AGG - 1 - i];
                // 256-bit carry-less product, accumulated unreduced.
                let lo = _mm_clmulepi64_si128(b, h, 0x00);
                let hi = _mm_clmulepi64_si128(b, h, 0x11);
                let mid = _mm_xor_si128(
                    _mm_clmulepi64_si128(b, h, 0x01),
                    _mm_clmulepi64_si128(b, h, 0x10),
                );
                acc_lo = _mm_xor_si128(acc_lo, _mm_xor_si128(lo, _mm_slli_si128(mid, 8)));
                acc_hi = _mm_xor_si128(acc_hi, _mm_xor_si128(hi, _mm_srli_si128(mid, 8)));
            }
            y = reduce_simd(acc_hi, acc_lo);
        }
        let mut y_scalar: u128 = core::mem::transmute(y);
        for block in chunks.remainder().chunks(16) {
            let mut buf = [0u8; 16];
            buf[..block.len()].copy_from_slice(block);
            y_scalar = gf_mul_hw(y_scalar ^ u128::from_be_bytes(buf), h_pow[0]);
        }
        y_scalar
    }
}

/// [`reduce_clmul`] transcribed to SSE: the <<1 reflection fix across the
/// 256-bit value, then the reflected fold by x^7 + x^2 + x + 1.
#[inline(always)]
unsafe fn reduce_simd(r_hi: __m128i, r_lo: __m128i) -> __m128i {
    // SAFETY: value-only SSE2 ops.
    unsafe {
        // q = r << 1 over 256 bits: per-lane shifts with bit-63 carries
        // across lanes and from r_lo's top bit into r_hi.
        let lo_c = _mm_srli_epi64(r_lo, 63);
        let q_lo = _mm_or_si128(_mm_slli_epi64(r_lo, 1), _mm_slli_si128(lo_c, 8));
        let hi_c = _mm_srli_epi64(r_hi, 63);
        let q_hi = _mm_or_si128(
            _mm_or_si128(_mm_slli_epi64(r_hi, 1), _mm_slli_si128(hi_c, 8)),
            _mm_srli_si128(lo_c, 8),
        );
        // ro = (q_lo << 127) ^ (q_lo << 126) ^ (q_lo << 121): shifts ≥ 64
        // land entirely in the high lane.
        let t = _mm_slli_si128(q_lo, 8);
        let ro = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_epi64(t, 63), _mm_slli_epi64(t, 62)),
            _mm_slli_epi64(t, 57),
        );
        let fold_lo = _mm_xor_si128(
            _mm_xor_si128(q_lo, srl128!(q_lo, 1)),
            _mm_xor_si128(srl128!(q_lo, 2), srl128!(q_lo, 7)),
        );
        let fold_ro = _mm_xor_si128(
            _mm_xor_si128(ro, srl128!(ro, 1)),
            _mm_xor_si128(srl128!(ro, 2), srl128!(ro, 7)),
        );
        _mm_xor_si128(q_hi, _mm_xor_si128(fold_lo, fold_ro))
    }
}

// ---------------------------------------------------------------------------
// SHA-NI SHA-256
// ---------------------------------------------------------------------------

/// SHA-256 compression over whole 64-byte blocks with the SHA-NI
/// extension, bit-identical to the software compressor.
///
/// The caller must have checked `cpu().sha`.
pub(crate) fn sha256_compress_ni(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    // SAFETY: caller contract (dispatch checks `cpu().sha`).
    unsafe { compress_blocks_shani(state, blocks) }
}

#[target_feature(enable = "sha", enable = "ssse3", enable = "sse4.1")]
fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: every load/store below is an in-bounds unaligned access; the
    // SHA/SSE ops are value-only.
    unsafe {
        let shuf = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
        // Pack the state into the SHA-NI register layout: ABEF / CDGH.
        let abcd = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let efgh = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let cdab = _mm_shuffle_epi32(abcd, 0xB1);
        let efgh = _mm_shuffle_epi32(efgh, 0x1B);
        let mut s0 = _mm_alignr_epi8(cdab, efgh, 8); // ABEF
        let mut s1 = _mm_blend_epi16(efgh, cdab, 0xF0); // CDGH

        for block in blocks.chunks_exact(64) {
            let save0 = s0;
            let save1 = s1;
            let mut msg: [__m128i; 4] = core::array::from_fn(|i| {
                _mm_shuffle_epi8(
                    _mm_loadu_si128(block.as_ptr().add(16 * i) as *const __m128i),
                    shuf,
                )
            });
            for g in 0..16 {
                let k = _mm_loadu_si128(crate::sha256::K.as_ptr().add(4 * g) as *const __m128i);
                let wk = _mm_add_epi32(msg[g % 4], k);
                s1 = _mm_sha256rnds2_epu32(s1, s0, wk);
                s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(wk, 0x0E));
                if g < 12 {
                    // w[16+4g..20+4g] = σ1-extend(σ0-extend(w0..4) + w9..13).
                    let tmp = _mm_add_epi32(
                        _mm_sha256msg1_epu32(msg[g % 4], msg[(g + 1) % 4]),
                        _mm_alignr_epi8(msg[(g + 3) % 4], msg[(g + 2) % 4], 4),
                    );
                    msg[g % 4] = _mm_sha256msg2_epu32(tmp, msg[(g + 3) % 4]);
                }
            }
            s0 = _mm_add_epi32(s0, save0);
            s1 = _mm_add_epi32(s1, save1);
        }

        // Unpack ABEF / CDGH back to a..h.
        let feba = _mm_shuffle_epi32(s0, 0x1B);
        let dchg = _mm_shuffle_epi32(s1, 0xB1);
        let abcd = _mm_blend_epi16(feba, dchg, 0xF0);
        let efgh = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, efgh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;

    fn lcg_bytes(n: usize, seed: &mut u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (*seed >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn hw_cipher_matches_table_cipher() {
        if !cpu().aes {
            eprintln!("skipping: no AES-NI on this CPU");
            return;
        }
        let mut seed = 42u64;
        for key_len in [16usize, 24, 32] {
            let key = lcg_bytes(key_len, &mut seed);
            let table = Aes::new(&key).unwrap();
            let hw = HwAes::new(&key).unwrap();
            for _ in 0..8 {
                let block: [u8; 16] = lcg_bytes(16, &mut seed).try_into().unwrap();
                let expected = table.encrypt(block);
                let mut got = block;
                hw.encrypt_block(&mut got);
                assert_eq!(got, expected, "key_len {key_len}");
            }
        }
    }

    #[test]
    fn hw_ctr_matches_table_ctr_at_odd_lengths() {
        if !cpu().aes {
            eprintln!("skipping: no AES-NI on this CPU");
            return;
        }
        let mut seed = 7u64;
        let key = lcg_bytes(32, &mut seed);
        let table = crate::gcm::table::TableGcm::new(&key).unwrap();
        let hw = HwAes::new(&key).unwrap();
        let j0: [u8; 16] = {
            let mut j = [0u8; 16];
            j[..12].copy_from_slice(&lcg_bytes(12, &mut seed));
            j[15] = 1;
            j
        };
        // Lengths straddling the NI (128 B) and VAES (256 B) chunk sizes.
        for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000, 4096] {
            let data = lcg_bytes(len, &mut seed);
            let mut expected = data.clone();
            table.ctr_xor(&j0, &mut expected);
            let mut got = data;
            hw.ctr_xor(&j0, &mut got);
            assert_eq!(got, expected, "len {len}");
        }
    }

    #[test]
    fn gf_mul_hw_matches_reference() {
        if !cpu().aes {
            eprintln!("skipping: no PCLMULQDQ on this CPU");
            return;
        }
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (1, u128::MAX),
            (u128::MAX, u128::MAX),
            (1 << 127, 3),
            (0x0388_dace_60b6_a392_f328_c2b9_71b2_fe78, 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e),
        ];
        for (a, b) in cases {
            assert_eq!(gf_mul_hw(a, b), crate::gcm::table::gf_mul(a, b), "{a:#x} * {b:#x}");
        }
        let mut state = 3u128;
        for _ in 0..200 {
            state = state.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(0x9E3779B97F4A7C15);
            let a = state;
            state = state.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(0x9E3779B97F4A7C15);
            let b = state;
            assert_eq!(gf_mul_hw(a, b), crate::gcm::table::gf_mul(a, b));
        }
    }

    #[test]
    fn aggregated_ghash_matches_per_block_reference() {
        if !cpu().aes {
            eprintln!("skipping: no PCLMULQDQ on this CPU");
            return;
        }
        let mut seed = 5u64;
        let h = u128::from_be_bytes(lcg_bytes(16, &mut seed).try_into().unwrap());
        let gh = HwGhash::new(h);
        // Lengths straddling the 64-byte aggregation boundary and partial
        // final blocks.
        for (aad_len, ct_len) in
            [(0usize, 0usize), (0, 16), (20, 63), (16, 64), (5, 65), (64, 128), (13, 257), (0, 640)]
        {
            let aad = lcg_bytes(aad_len, &mut seed);
            let ct = lcg_bytes(ct_len, &mut seed);
            // Per-block reference on the table reference's gf_mul.
            let mut y = 0u128;
            for chunk in aad.chunks(16).chain(ct.chunks(16)) {
                let mut buf = [0u8; 16];
                buf[..chunk.len()].copy_from_slice(chunk);
                y = crate::gcm::table::gf_mul(y ^ u128::from_be_bytes(buf), h);
            }
            let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
            let expected = crate::gcm::table::gf_mul(y ^ lens, h);
            assert_eq!(gh.ghash(&aad, &ct), expected, "aad {aad_len} ct {ct_len}");
        }
    }

    #[test]
    fn shani_compress_matches_software() {
        if !cpu().sha {
            eprintln!("skipping: no SHA-NI on this CPU");
            return;
        }
        let mut seed = 99u64;
        for nblocks in [1usize, 2, 3, 7] {
            let data = lcg_bytes(64 * nblocks, &mut seed);
            let mut hw_state = crate::sha256::H0;
            sha256_compress_ni(&mut hw_state, &data);
            let mut sw_state = crate::sha256::H0;
            crate::sha256::compress_soft(&mut sw_state, &data);
            assert_eq!(hw_state, sw_state, "nblocks {nblocks}");
        }
    }
}
