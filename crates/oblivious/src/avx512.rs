//! The 64-cell register tile both batched kernels run on AVX-512F: eight
//! `zmm` rows of eight `u64` cells, and the 8 × 8 transpose that turns
//! each row's cells into a column. The sort kernel's tail and the
//! compaction's tile load, transpose and store through these three and
//! nothing else.
//!
//! `unsafe` here is the unaligned row load and store: each `SAFETY:`
//! comment names the 64-cell array that bounds it.

use core::arch::x86_64::*;

/// Cells `8q … 8q + 7` of a 64-cell tile as row `q`.
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn load(tile: &[u64; 64]) -> [__m512i; 8] {
    let mut r = [_mm512_setzero_si512(); 8];
    for (q, row) in r.iter_mut().enumerate() {
        // SAFETY: cells 8q .. 8q + 8 lie in the 64-cell array; an
        // unaligned load has no alignment requirement.
        *row = unsafe { _mm512_loadu_si512(tile.as_ptr().add(8 * q).cast()) };
    }
    r
}

/// Row `q` back to cells `8q … 8q + 7` of a 64-cell tile.
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn store(tile: &mut [u64; 64], r: [__m512i; 8]) {
    for (q, row) in r.into_iter().enumerate() {
        // SAFETY: as in `load`, and `tile` is borrowed exclusively.
        unsafe { _mm512_storeu_si512(tile.as_mut_ptr().add(8 * q).cast(), row) };
    }
}

/// Transposes the 8 × 8 matrix of 64-bit cells in eight rows: 8 unpacks
/// interleave row pairs, then two rounds of 8 shuffles of 128-bit blocks
/// gather the pairs. An involution: it also transposes back.
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn transpose(r: [__m512i; 8]) -> [__m512i; 8] {
    // Block b of `t[2p]` is (r[2p][2b], r[2p+1][2b]); of `t[2p+1]`,
    // (r[2p][2b+1], r[2p+1][2b+1]).
    let t = [
        _mm512_unpacklo_epi64(r[0], r[1]),
        _mm512_unpackhi_epi64(r[0], r[1]),
        _mm512_unpacklo_epi64(r[2], r[3]),
        _mm512_unpackhi_epi64(r[2], r[3]),
        _mm512_unpacklo_epi64(r[4], r[5]),
        _mm512_unpackhi_epi64(r[4], r[5]),
        _mm512_unpacklo_epi64(r[6], r[7]),
        _mm512_unpackhi_epi64(r[6], r[7]),
    ];
    // 0x88 takes blocks 0, 2 of each operand, 0xDD blocks 1, 3: `u[0]`
    // holds columns 0 and 4 of rows 0–3, `u[1]` columns 2 and 6, `u[2]`
    // 1 and 5, `u[3]` 3 and 7; `u[4..]` the same of rows 4–7.
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
        _mm512_shuffle_i64x2::<0x88>(u[0], u[4]),
        _mm512_shuffle_i64x2::<0x88>(u[2], u[6]),
        _mm512_shuffle_i64x2::<0x88>(u[1], u[5]),
        _mm512_shuffle_i64x2::<0x88>(u[3], u[7]),
        _mm512_shuffle_i64x2::<0xDD>(u[0], u[4]),
        _mm512_shuffle_i64x2::<0xDD>(u[2], u[6]),
        _mm512_shuffle_i64x2::<0xDD>(u[1], u[5]),
        _mm512_shuffle_i64x2::<0xDD>(u[3], u[7]),
    ]
}
