//! The `ct` backend's bitsliced AES on x86-64 vector registers: the plane
//! types `ct.rs`'s generic body runs on beside `u64`, and the two
//! `#[target_feature]` counter-mode entry points that monomorphize it.
//!
//! A plane of [`Avx2Plane`] is four `u64` planes side by side (sixteen
//! blocks a pass), one of [`Avx512Plane`] eight (thirty-two blocks). Every
//! lane runs exactly what the `u64` body runs on its own four blocks: the
//! circuit, the masks and the 8×8 bit transposes are lane-wise logic and
//! shifts by constant counts, and the round keys are the `u64` planes,
//! broadcast. The only cross-lane step is [`Plane::load`] / `store`, a
//! transpose of 64-bit words between the batch's byte order and the lane
//! order, at fixed offsets.
//!
//! Held to `ct.rs`'s rules by `tests/ct_lint.rs`: no branch, no division,
//! no lookup. `unsafe` is the intrinsics: a plane is only ever built
//! inside its entry point, whose caller ([`super::CtWidth::ctr_xor`]) has
//! detected the feature, and the loads and stores stay inside the batch.

use core::arch::x86_64::*;
use core::ops::{BitAnd, BitOr, BitXor, Not};

use super::ct::{CtAes, Plane};

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
}
