//! The `ct` backend on x86-64 vector registers: the plane types `ct.rs`'s
//! generic bodies run on beside `u64`, and the four `#[target_feature]`
//! entry points (counter mode and GHASH, AVX2 and AVX-512F) that
//! monomorphize them.
//!
//! A plane of [`Avx2Plane`] is four `u64` planes side by side (sixteen
//! AES blocks a pass, four GHASH blocks a group), one of [`Avx512Plane`]
//! eight (thirty-two and eight). Every lane runs exactly what the `u64`
//! body runs on its own blocks: the circuit, the masks, the 8×8 bit
//! transposes and the 32 × 32 → 64 multiplies are lane-wise, the shifts
//! are by constant counts, and the round keys are the `u64` planes,
//! broadcast. The cross-lane steps are loads and stores at fixed offsets:
//! [`Plane::load`] / `store`, a transpose of 64-bit words between the
//! batch's byte order and the lane order; GHASH's block load, a word
//! byte-swap and deinterleave; the key-power load `load_tail`; `lane0`,
//! which puts the GHASH state in lane 0; and the lane fold `xor_lanes`.
//!
//! Held to `ct.rs`'s rules by `tests/ct_lint.rs`: no branch, no division,
//! no lookup. `unsafe` is the intrinsics: a plane is only ever built
//! inside its entry point, which is entered only as an entry of the
//! engine's one per-width table (`super::PLANES`), handed out only at a
//! width this CPU runs, and the loads and stores stay inside the batch,
//! the group or the key's eight-word rows.

use core::arch::x86_64::*;
use core::ops::{BitAnd, BitOr, BitXor, Not};

use super::ct::{CtAes, CtGhash, Plane};

/// Counter mode on 16-block batches.
#[target_feature(enable = "avx2")]
pub(super) fn ctr_xor_avx2(aes: &CtAes, j0: &[u8; 16], data: &mut [u8]) {
    aes.ctr_xor_on::<Avx2Plane>(j0, data);
}

/// Counter mode on 32-block batches.
#[target_feature(enable = "avx512f")]
pub(super) fn ctr_xor_avx512(aes: &CtAes, j0: &[u8; 16], data: &mut [u8]) {
    aes.ctr_xor_on::<Avx512Plane>(j0, data);
}

/// GHASH on 4-block groups.
#[target_feature(enable = "avx2")]
pub(super) fn ghash_avx2(gh: &CtGhash, y: u128, groups: &[u8]) -> u128 {
    gh.absorb_on::<Avx2Plane>(y, groups)
}

/// GHASH on 8-block groups.
#[target_feature(enable = "avx512f")]
pub(super) fn ghash_avx512(gh: &CtGhash, y: u128, groups: &[u8]) -> u128 {
    gh.absorb_on::<Avx512Plane>(y, groups)
}

/// Four `u64` lanes.
#[derive(Clone, Copy)]
struct Avx2Plane(__m256i);

/// Eight `u64` lanes.
#[derive(Clone, Copy)]
struct Avx512Plane(__m512i);

/// The bitwise operators of a plane type, each one intrinsic.
macro_rules! bitwise_ops {
    ($plane:ident, $and:ident, $or:ident, $xor:ident, $ones:expr) => {
        impl BitAnd for $plane {
            type Output = $plane;
            #[inline(always)]
            fn bitand(self, rhs: $plane) -> $plane {
                // SAFETY: planes exist only inside their entry point, which
                // runs after the feature was detected.
                $plane(unsafe { $and(self.0, rhs.0) })
            }
        }

        impl BitOr for $plane {
            type Output = $plane;
            #[inline(always)]
            fn bitor(self, rhs: $plane) -> $plane {
                // SAFETY: as in `bitand`.
                $plane(unsafe { $or(self.0, rhs.0) })
            }
        }

        impl BitXor for $plane {
            type Output = $plane;
            #[inline(always)]
            fn bitxor(self, rhs: $plane) -> $plane {
                // SAFETY: as in `bitand`.
                $plane(unsafe { $xor(self.0, rhs.0) })
            }
        }

        impl Not for $plane {
            type Output = $plane;
            #[inline(always)]
            fn not(self) -> $plane {
                self ^ $ones
            }
        }
    };
}

bitwise_ops!(Avx2Plane, _mm256_and_si256, _mm256_or_si256, _mm256_xor_si256, Avx2Plane::splat(!0));
bitwise_ops!(
    Avx512Plane,
    _mm512_and_si512,
    _mm512_or_si512,
    _mm512_xor_si512,
    Avx512Plane::splat(!0)
);

/// Transposes a 4 × 4 matrix of 64-bit words held in four rows (an
/// involution): two unpacks interleave row pairs, one 128-bit permute
/// gathers each column.
#[inline(always)]
fn transpose4x4([r0, r1, r2, r3]: [Avx2Plane; 4]) -> [Avx2Plane; 4] {
    // SAFETY: as in `bitand`.
    unsafe {
        let t0 = _mm256_unpacklo_epi64(r0.0, r1.0);
        let t1 = _mm256_unpackhi_epi64(r0.0, r1.0);
        let t2 = _mm256_unpacklo_epi64(r2.0, r3.0);
        let t3 = _mm256_unpackhi_epi64(r2.0, r3.0);
        [
            Avx2Plane(_mm256_permute2x128_si256::<0x20>(t0, t2)),
            Avx2Plane(_mm256_permute2x128_si256::<0x20>(t1, t3)),
            Avx2Plane(_mm256_permute2x128_si256::<0x31>(t0, t2)),
            Avx2Plane(_mm256_permute2x128_si256::<0x31>(t1, t3)),
        ]
    }
}

impl Plane for Avx2Plane {
    type Batch = [u8; 256];
    const ZERO: [u8; 256] = [0; 256];

    #[inline(always)]
    fn splat(x: u64) -> Avx2Plane {
        // SAFETY: as in `bitand`.
        Avx2Plane(unsafe { _mm256_set1_epi64x(x as i64) })
    }

    #[inline(always)]
    fn shl<const N: u32>(self) -> Avx2Plane {
        // SAFETY: as in `bitand`.
        Avx2Plane(unsafe { _mm256_sll_epi64(self.0, _mm_cvtsi32_si128(N as i32)) })
    }

    #[inline(always)]
    fn shr<const N: u32>(self) -> Avx2Plane {
        // SAFETY: as in `bitand`.
        Avx2Plane(unsafe { _mm256_srl_epi64(self.0, _mm_cvtsi32_si128(N as i32)) })
    }

    /// Row `q` of the batch is words `4q … 4q + 3`, so lane `l`'s word `j`
    /// sits in row `2l + j / 4` at column `j mod 4`: the even rows
    /// transpose into words 0–3, the odd rows into words 4–7.
    #[inline(always)]
    fn load(batch: &[u8; 256]) -> [Avx2Plane; 8] {
        let mut rows = [Avx2Plane::splat(0); 8];
        for (q, row) in rows.iter_mut().enumerate() {
            // SAFETY: row q is bytes 32q .. 32q + 32 of the 256-byte
            // batch; an unaligned load has no alignment requirement.
            *row = Avx2Plane(unsafe { _mm256_loadu_si256(batch.as_ptr().add(32 * q).cast()) });
        }
        let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
        let [w0, w1, w2, w3] = transpose4x4([r0, r2, r4, r6]);
        let [w4, w5, w6, w7] = transpose4x4([r1, r3, r5, r7]);
        [w0, w1, w2, w3, w4, w5, w6, w7]
    }

    #[inline(always)]
    fn store([w0, w1, w2, w3, w4, w5, w6, w7]: [Avx2Plane; 8], batch: &mut [u8; 256]) {
        let [r0, r2, r4, r6] = transpose4x4([w0, w1, w2, w3]);
        let [r1, r3, r5, r7] = transpose4x4([w4, w5, w6, w7]);
        for (q, row) in [r0, r1, r2, r3, r4, r5, r6, r7].into_iter().enumerate() {
            // SAFETY: as in `load`, and the batch is borrowed exclusively.
            unsafe { _mm256_storeu_si256(batch.as_mut_ptr().add(32 * q).cast(), row.0) };
        }
    }

    type Blocks = [u8; 64];
    const ZERO_BLOCKS: [u8; 64] = [0; 64];

    #[inline(always)]
    fn mul32(self, rhs: Avx2Plane) -> Avx2Plane {
        // SAFETY: as in `bitand`.
        Avx2Plane(unsafe { _mm256_mul_epu32(self.0, rhs.0) })
    }

    /// Each half of the group, byte-reversed inside its words, is
    /// `[hi, lo, hi, lo]` of two blocks; the unpacks pair the halves up in
    /// lane order 0, 2, 1, 3 and the permute puts them back.
    #[inline(always)]
    fn load_blocks(blocks: &[u8; 64]) -> [Avx2Plane; 2] {
        // SAFETY: the two loads are bytes 0 .. 32 and 32 .. 64 of the
        // 64-byte group, unaligned; the rest is as in `bitand`.
        unsafe {
            let swap = _mm256_setr_epi8(
                7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15,
                14, 13, 12, 11, 10, 9, 8,
            );
            let a = _mm256_shuffle_epi8(_mm256_loadu_si256(blocks.as_ptr().cast()), swap);
            let b = _mm256_shuffle_epi8(_mm256_loadu_si256(blocks.as_ptr().add(32).cast()), swap);
            [
                Avx2Plane(_mm256_permute4x64_epi64::<0xD8>(_mm256_unpacklo_epi64(a, b))),
                Avx2Plane(_mm256_permute4x64_epi64::<0xD8>(_mm256_unpackhi_epi64(a, b))),
            ]
        }
    }

    #[inline(always)]
    fn load_tail(words: &[u64; 8]) -> Avx2Plane {
        // SAFETY: words 4 .. 8 of the 8-word array, unaligned.
        Avx2Plane(unsafe { _mm256_loadu_si256(words.as_ptr().add(4).cast()) })
    }

    #[inline(always)]
    fn lane0(x: u64) -> Avx2Plane {
        // SAFETY: as in `bitand`.
        Avx2Plane(unsafe { _mm256_set_epi64x(0, 0, 0, x as i64) })
    }

    #[inline(always)]
    fn xor_lanes(self) -> u64 {
        // SAFETY: as in `bitand`.
        unsafe {
            let x = _mm_xor_si128(
                _mm256_castsi256_si128(self.0),
                _mm256_extracti128_si256::<1>(self.0),
            );
            (_mm_cvtsi128_si64(x) ^ _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x))) as u64
        }
    }
}

/// Transposes an 8 × 8 matrix of 64-bit words held in eight rows (an
/// involution): unpacks interleave row pairs, then two rounds of 128-bit
/// block shuffles gather the pairs.
#[inline(always)]
fn transpose8x8_words(r: [Avx512Plane; 8]) -> [Avx512Plane; 8] {
    // SAFETY: as in `bitand`.
    unsafe {
        // Block b of `t[2p]` is (r[2p][2b], r[2p+1][2b]); of `t[2p+1]`,
        // (r[2p][2b+1], r[2p+1][2b+1]).
        let t = [
            _mm512_unpacklo_epi64(r[0].0, r[1].0),
            _mm512_unpackhi_epi64(r[0].0, r[1].0),
            _mm512_unpacklo_epi64(r[2].0, r[3].0),
            _mm512_unpackhi_epi64(r[2].0, r[3].0),
            _mm512_unpacklo_epi64(r[4].0, r[5].0),
            _mm512_unpackhi_epi64(r[4].0, r[5].0),
            _mm512_unpacklo_epi64(r[6].0, r[7].0),
            _mm512_unpackhi_epi64(r[6].0, r[7].0),
        ];
        // 0x88 takes blocks 0 and 2 of each operand, 0xDD blocks 1 and 3.
        let u = [
            _mm512_shuffle_i64x2::<0x88>(t[0], t[2]),
            _mm512_shuffle_i64x2::<0xDD>(t[0], t[2]),
            _mm512_shuffle_i64x2::<0x88>(t[1], t[3]),
            _mm512_shuffle_i64x2::<0xDD>(t[1], t[3]),
            _mm512_shuffle_i64x2::<0x88>(t[4], t[6]),
            _mm512_shuffle_i64x2::<0xDD>(t[4], t[6]),
            _mm512_shuffle_i64x2::<0x88>(t[5], t[7]),
            _mm512_shuffle_i64x2::<0xDD>(t[5], t[7]),
        ];
        [
            Avx512Plane(_mm512_shuffle_i64x2::<0x88>(u[0], u[4])),
            Avx512Plane(_mm512_shuffle_i64x2::<0x88>(u[2], u[6])),
            Avx512Plane(_mm512_shuffle_i64x2::<0x88>(u[1], u[5])),
            Avx512Plane(_mm512_shuffle_i64x2::<0x88>(u[3], u[7])),
            Avx512Plane(_mm512_shuffle_i64x2::<0xDD>(u[0], u[4])),
            Avx512Plane(_mm512_shuffle_i64x2::<0xDD>(u[2], u[6])),
            Avx512Plane(_mm512_shuffle_i64x2::<0xDD>(u[1], u[5])),
            Avx512Plane(_mm512_shuffle_i64x2::<0xDD>(u[3], u[7])),
        ]
    }
}

/// Every 64-bit word byte-reversed: two rotations inside each 32-bit
/// word, then one of the word pair (AVX-512F has no byte shuffle).
#[inline(always)]
fn swap_bytes(v: __m512i) -> __m512i {
    // SAFETY: as in `bitand`.
    unsafe {
        let bytes = _mm512_or_si512(
            _mm512_and_si512(_mm512_rol_epi32::<8>(v), _mm512_set1_epi32(0x00FF_00FF)),
            _mm512_and_si512(_mm512_ror_epi32::<8>(v), _mm512_set1_epi32(!0x00FF_00FF)),
        );
        _mm512_rol_epi64::<32>(bytes)
    }
}

impl Plane for Avx512Plane {
    type Batch = [u8; 512];
    const ZERO: [u8; 512] = [0; 512];

    #[inline(always)]
    fn splat(x: u64) -> Avx512Plane {
        // SAFETY: as in `bitand`.
        Avx512Plane(unsafe { _mm512_set1_epi64(x as i64) })
    }

    #[inline(always)]
    fn shl<const N: u32>(self) -> Avx512Plane {
        // SAFETY: as in `bitand`.
        Avx512Plane(unsafe { _mm512_slli_epi64::<N>(self.0) })
    }

    #[inline(always)]
    fn shr<const N: u32>(self) -> Avx512Plane {
        // SAFETY: as in `bitand`.
        Avx512Plane(unsafe { _mm512_srli_epi64::<N>(self.0) })
    }

    /// Row `q` of the batch is lane `q`'s eight words: one transpose.
    #[inline(always)]
    fn load(batch: &[u8; 512]) -> [Avx512Plane; 8] {
        let mut rows = [Avx512Plane::splat(0); 8];
        for (q, row) in rows.iter_mut().enumerate() {
            // SAFETY: row q is bytes 64q .. 64q + 64 of the 512-byte
            // batch; an unaligned load has no alignment requirement.
            *row = Avx512Plane(unsafe { _mm512_loadu_si512(batch.as_ptr().add(64 * q).cast()) });
        }
        transpose8x8_words(rows)
    }

    #[inline(always)]
    fn store(words: [Avx512Plane; 8], batch: &mut [u8; 512]) {
        for (q, row) in transpose8x8_words(words).into_iter().enumerate() {
            // SAFETY: as in `load`, and the batch is borrowed exclusively.
            unsafe { _mm512_storeu_si512(batch.as_mut_ptr().add(64 * q).cast(), row.0) };
        }
    }

    type Blocks = [u8; 128];
    const ZERO_BLOCKS: [u8; 128] = [0; 128];

    #[inline(always)]
    fn mul32(self, rhs: Avx512Plane) -> Avx512Plane {
        // SAFETY: as in `bitand`.
        Avx512Plane(unsafe { _mm512_mul_epu32(self.0, rhs.0) })
    }

    /// Each half of the group is `[hi, lo, …]` of four blocks once its
    /// words are byte-reversed; one two-source permute gathers the even
    /// words, one the odd.
    #[inline(always)]
    fn load_blocks(blocks: &[u8; 128]) -> [Avx512Plane; 2] {
        // SAFETY: the two loads are bytes 0 .. 64 and 64 .. 128 of the
        // 128-byte group, unaligned; the rest is as in `bitand`.
        unsafe {
            let a = swap_bytes(_mm512_loadu_si512(blocks.as_ptr().cast()));
            let b = swap_bytes(_mm512_loadu_si512(blocks.as_ptr().add(64).cast()));
            let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
            [
                Avx512Plane(_mm512_permutex2var_epi64(a, even, b)),
                Avx512Plane(_mm512_permutex2var_epi64(a, odd, b)),
            ]
        }
    }

    #[inline(always)]
    fn load_tail(words: &[u64; 8]) -> Avx512Plane {
        // SAFETY: the whole 8-word array, unaligned.
        Avx512Plane(unsafe { _mm512_loadu_si512(words.as_ptr().cast()) })
    }

    #[inline(always)]
    fn lane0(x: u64) -> Avx512Plane {
        // SAFETY: as in `bitand`.
        Avx512Plane(unsafe { _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, x as i64) })
    }

    /// Halves folded onto each other three times (256, 128, then 64 bits).
    #[inline(always)]
    fn xor_lanes(self) -> u64 {
        // SAFETY: as in `bitand`.
        unsafe {
            let x = _mm512_xor_si512(self.0, _mm512_shuffle_i64x2::<0x4E>(self.0, self.0));
            let x = _mm512_xor_si512(x, _mm512_shuffle_i64x2::<0xB1>(x, x));
            let x = _mm512_xor_si512(x, _mm512_unpackhi_epi64(x, x));
            _mm_cvtsi128_si64(_mm512_castsi512_si128(x)) as u64
        }
    }
}
