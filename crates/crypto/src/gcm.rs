//! NIST SP 800-38D AES-GCM authenticated encryption.
//!
//! This is the AEAD used on the client→enclave secure channel (Algorithm 1
//! lines 8, 11, 22 of the paper: gradients are encrypted under the per-user
//! shared key established by remote attestation, and the enclave verifies
//! and decrypts them inside the trust boundary).
//!
//! The GCM composition (J0, CTR layout, GHASH over AAD ∥ ciphertext ∥
//! lengths, tag masking) lives here once; the block cipher and the GHASH
//! body dispatch to the backend selected by
//! [`crate::engine::crypto_backend`] — hardware (AES-NI + PCLMULQDQ) or
//! bitsliced constant-time software. Both produce bitwise-identical
//! output, and the unit tests hold both to the lookup-table reference in
//! `gcm::table`, which test builds alone contain.

use crate::ct::ct_eq;
use crate::engine::ct::{CtAes, CtGhash};
#[cfg(target_arch = "x86_64")]
use crate::engine::hw::{HwAes, HwGhash};
use crate::engine::{crypto_backend, CryptoBackend, CtWidth};
use crate::CryptoError;

/// GCM nonce length in bytes (the 96-bit fast path).
pub const NONCE_LEN: usize = 12;
/// GCM authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// The GHASH length block: the bit lengths of `aad` and `ciphertext`.
fn length_block(aad: &[u8], ciphertext: &[u8]) -> u128 {
    ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8)
}

/// GHASH over `aad` and `ciphertext` on the `ct` backend's `width`. The
/// block stream aad ∥ ciphertext ∥ lengths (the first two zero-padded to
/// whole blocks) is hashed in groups of the width's lane count, led by as
/// many zero blocks as make the count whole: with y = 0 they add nothing,
/// and every later group is full. Whole groups inside a part are hashed
/// in place; the ones that straddle a part boundary are assembled in a
/// buffer. Every branch here is on a public length.
fn ct_ghash(width: CtWidth, gh: &CtGhash, aad: &[u8], ciphertext: &[u8]) -> u128 {
    let group = 16 * width.ghash_lanes();
    let blocks = aad.len().div_ceil(16) + ciphertext.len().div_ceil(16) + 1;
    let lens = length_block(aad, ciphertext).to_be_bytes();
    // Room for the widest group, eight blocks.
    let mut buf = [0u8; 16 * 8];
    let mut fill = (group - 16 * blocks % group) % group;
    let mut y = 0;
    for part in [aad, ciphertext, &lens] {
        let mut rest = part;
        if fill > 0 {
            let take = rest.len().min(group - fill);
            buf[fill..fill + take].copy_from_slice(&rest[..take]);
            fill += take.next_multiple_of(16);
            rest = &rest[take..];
            if fill < group {
                continue;
            }
            y = width.ghash(gh, y, &buf[..group]);
            buf = [0; 16 * 8];
        }
        let whole = rest.len() - rest.len() % group;
        if whole > 0 {
            y = width.ghash(gh, y, &rest[..whole]);
        }
        let tail = &rest[whole..];
        buf[..tail.len()].copy_from_slice(tail);
        fill = tail.len().next_multiple_of(16);
    }
    assert_eq!(fill, 0, "the length block ends the last group");
    y
}

/// The backend-specific cipher state behind one GCM key. The `ct` arm's
/// pre-sliced round keys (0.95 KiB) and split powers H¹ … H⁸ (0.56 KiB)
/// are boxed: unboxed they made every `AesGcm` 1.5 KiB against the `hw`
/// arm's 0.3, and each client session holds one, so a `hw` deployment
/// paid the `ct` size per client. The boxes cost a `ct` key two
/// allocations, against a seal of microseconds; the `hw` arm stays inline
/// (0.3 KiB), so a `hw` key allocates nothing.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
enum GcmImpl {
    Ct(Box<CtAes>, Box<CtGhash>),
    #[cfg(target_arch = "x86_64")]
    Hw(HwAes, HwGhash),
}

/// An AES-GCM key on the process-default crypto backend (override with
/// [`AesGcm::with_backend`]; every backend produces identical bytes).
///
/// ```
/// use olive_crypto::gcm::AesGcm;
/// let key = AesGcm::new(&[0x42; 16]).unwrap();
/// let nonce = [7u8; 12];
/// let ct = key.seal(&nonce, b"round-3 gradients", b"user-17");
/// let pt = key.open(&nonce, &ct, b"user-17").unwrap();
/// assert_eq!(pt, b"round-3 gradients");
/// assert!(key.open(&nonce, &ct, b"user-18").is_err()); // AAD mismatch
/// ```
#[derive(Clone)]
pub struct AesGcm {
    imp: GcmImpl,
}

impl core::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The backends' round keys and hash subkey powers are key
        // material (H alone enables tag forgery), so Debug prints the
        // backend only.
        let backend = match &self.imp {
            GcmImpl::Ct(..) => CryptoBackend::Ct,
            #[cfg(target_arch = "x86_64")]
            GcmImpl::Hw(..) => CryptoBackend::Hw,
        };
        f.debug_struct("AesGcm").field("backend", &backend).finish_non_exhaustive()
    }
}

impl AesGcm {
    /// Creates a GCM instance from a 16/24/32-byte AES key on the
    /// process-default backend ([`crypto_backend`]).
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        Self::with_backend(crypto_backend(), key)
    }

    /// Creates a GCM instance pinned to `backend` (differential tests
    /// compare backends in one process, bypassing the env cache).
    ///
    /// # Panics
    ///
    /// If `backend` is not available on this CPU (callers gate on
    /// [`CryptoBackend::is_available`]).
    pub fn with_backend(backend: CryptoBackend, key: &[u8]) -> Result<Self, CryptoError> {
        let imp = match backend {
            CryptoBackend::Ct => ct_impl(key, CtWidth::best())?,
            #[cfg(target_arch = "x86_64")]
            CryptoBackend::Hw => {
                let aes = HwAes::new(key)?;
                let h = hash_subkey(|b| aes.encrypt_block(b));
                GcmImpl::Hw(aes, HwGhash::new(h))
            }
            #[cfg(not(target_arch = "x86_64"))]
            CryptoBackend::Hw => panic!("hw crypto backend requires x86-64"),
        };
        Ok(AesGcm { imp })
    }

    fn j0(&self, nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    fn ctr_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
        match &self.imp {
            GcmImpl::Ct(aes, _) => aes.ctr_xor(j0, data),
            #[cfg(target_arch = "x86_64")]
            GcmImpl::Hw(aes, _) => aes.ctr_xor(j0, data),
        }
    }

    fn tag(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let s = match &self.imp {
            GcmImpl::Ct(aes, gh) => ct_ghash(aes.width(), gh, aad, ciphertext),
            #[cfg(target_arch = "x86_64")]
            GcmImpl::Hw(_, gh) => gh.ghash(aad, ciphertext),
        };
        let mut e = *j0;
        imp_encrypt_block(&self.imp, &mut e);
        (s ^ u128::from_be_bytes(e)).to_be_bytes()
    }

    /// Encrypts `plaintext`, authenticating `aad` as well. Returns
    /// `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, plaintext, aad, &mut out);
        out
    }

    /// [`AesGcm::seal`], appending `ciphertext || tag` to `out` (after a
    /// prefix the caller already wrote): the plaintext is copied once and
    /// encrypted in place.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        plaintext: &[u8],
        aad: &[u8],
        out: &mut Vec<u8>,
    ) {
        let j0 = self.j0(nonce);
        out.reserve(plaintext.len() + TAG_LEN);
        let start = out.len();
        out.extend_from_slice(plaintext);
        self.ctr_xor(&j0, &mut out[start..]);
        let tag = self.tag(&j0, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Verifies and decrypts `ciphertext || tag` produced by [`Self::seal`].
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        ciphertext_and_tag: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(CryptoError::BadLength);
        }
        let (ciphertext, tag) = ciphertext_and_tag.split_at(ciphertext_and_tag.len() - TAG_LEN);
        let j0 = self.j0(nonce);
        let expected = self.tag(&j0, aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::BadTag);
        }
        let mut out = ciphertext.to_vec();
        self.ctr_xor(&j0, &mut out);
        Ok(out)
    }
}

/// The `ct` backend's key state, its counter mode on `width` planes.
fn ct_impl(key: &[u8], width: CtWidth) -> Result<GcmImpl, CryptoError> {
    let aes = CtAes::new(key, width)?;
    let h = hash_subkey(|b| aes.encrypt_block(b));
    Ok(GcmImpl::Ct(Box::new(aes), Box::new(CtGhash::new(h))))
}

/// The hash subkey H = E_K(0¹²⁸), under the block cipher `encrypt_block`.
fn hash_subkey(encrypt_block: impl Fn(&mut [u8; 16])) -> u128 {
    let mut h = [0u8; 16];
    encrypt_block(&mut h);
    u128::from_be_bytes(h)
}

/// Single-block encryption on whichever backend `imp` wraps.
fn imp_encrypt_block(imp: &GcmImpl, block: &mut [u8; 16]) {
    match imp {
        GcmImpl::Ct(aes, _) => aes.encrypt_block(block),
        #[cfg(target_arch = "x86_64")]
        GcmImpl::Hw(aes, _) => aes.encrypt_block(block),
    }
}

/// The table backend: FIPS 197 lookup-table AES ([`crate::aes`]) in CTR
/// mode, and GHASH by the bit-serial field multiply of SP 800-38D §6.3 —
/// the reference the `hw` and `ct` backends are held to, bit for bit.
/// Both halves index or branch on secret bits, so only test builds
/// contain it.
#[cfg(test)]
pub(crate) mod table {
    use super::{length_block, NONCE_LEN};
    use crate::aes::Aes;
    use crate::CryptoError;

    /// GHASH over `aad` and `ciphertext`, block by block, with `mul_h` the
    /// multiplication by the hash subkey.
    pub(crate) fn ghash(aad: &[u8], ciphertext: &[u8], mul_h: impl Fn(u128) -> u128) -> u128 {
        let mut y = 0u128;
        for chunk in aad.chunks(16).chain(ciphertext.chunks(16)) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = mul_h(y ^ u128::from_be_bytes(block));
        }
        mul_h(y ^ length_block(aad, ciphertext))
    }

    /// The GHASH reduction constant R = 11100001 || 0^120.
    const R: u128 = 0xE100_0000_0000_0000_0000_0000_0000_0000;

    /// Multiplication in GF(2^128) as specified in SP 800-38D §6.3.
    /// Blocks are interpreted big-endian with bit 0 the most significant
    /// bit of the first byte.
    pub(crate) fn gf_mul(x: u128, y: u128) -> u128 {
        let mut z = 0u128;
        let mut v = x;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }

    /// An AES-GCM key on the table backend.
    pub(crate) struct TableGcm {
        aes: Aes,
        h: u128,
    }

    impl TableGcm {
        pub(crate) fn new(key: &[u8]) -> Result<Self, CryptoError> {
            let aes = Aes::new(key)?;
            let h = u128::from_be_bytes(aes.encrypt([0; 16]));
            Ok(TableGcm { aes, h })
        }

        /// The CTR keystream XOR from counter block `j0`: block i of the
        /// keystream is E(nonce ‖ counter + 1 + i mod 2³²).
        pub(crate) fn ctr_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
            let mut counter = u32::from_be_bytes(j0[12..16].try_into().unwrap());
            for chunk in data.chunks_mut(16) {
                counter = counter.wrapping_add(1);
                let mut block = *j0;
                block[12..16].copy_from_slice(&counter.to_be_bytes());
                let keystream = self.aes.encrypt(block);
                for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                    *b ^= k;
                }
            }
        }

        /// `ciphertext || tag`, as [`super::AesGcm::seal`] returns it.
        pub(crate) fn seal(&self, nonce: &[u8; NONCE_LEN], pt: &[u8], aad: &[u8]) -> Vec<u8> {
            let mut j0 = [0u8; 16];
            j0[..NONCE_LEN].copy_from_slice(nonce);
            j0[15] = 1;
            let mut out = pt.to_vec();
            self.ctr_xor(&j0, &mut out);
            let s = ghash(aad, &out, |x| gf_mul(x, self.h));
            let tag = s ^ u128::from_be_bytes(self.aes.encrypt(j0));
            out.extend_from_slice(&tag.to_be_bytes());
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::table::TableGcm;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// NIST GCM spec (Appendix B) cases 1–4 (AES-128) and 16 (AES-256):
    /// key, nonce, plaintext, AAD, ciphertext ‖ tag.
    const NIST: [[&str; 5]; 5] = [
        [
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        ],
        [
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        ],
        [
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985\
             4d5c2af327cd64a62cf35abd2ba6fab4",
        ],
        [
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091\
             5bc94fbc3221a5db94fae95ae7121a47",
        ],
        [
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662\
             76fc6ece0f4e1768cddf8853bb2d551b",
        ],
    ];

    /// Seals NIST case `case` under the key `gcm` builds from its key
    /// bytes, checks the output, and opens it back.
    fn assert_nist(case: usize, what: &str, gcm: impl Fn(&[u8]) -> AesGcm) {
        let [key, nonce, pt, aad, out] = NIST[case].map(from_hex);
        let g = gcm(&key);
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let sealed = g.seal(&nonce, &pt, &aad);
        assert_eq!(hex(&sealed), hex(&out), "NIST case {case}, {what}");
        assert_eq!(g.open(&nonce, &sealed, &aad).unwrap(), pt, "NIST case {case}, {what}");
    }

    fn process_default(key: &[u8]) -> AesGcm {
        AesGcm::new(key).unwrap()
    }

    #[test]
    fn nist_case_1_empty() {
        assert_nist(0, "process default", process_default);
    }

    #[test]
    fn nist_case_2_single_block() {
        assert_nist(1, "process default", process_default);
    }

    #[test]
    fn nist_case_3_four_blocks() {
        assert_nist(2, "process default", process_default);
    }

    #[test]
    fn nist_case_4_with_aad() {
        assert_nist(3, "process default", process_default);
    }

    #[test]
    fn nist_aes256_with_aad() {
        assert_nist(4, "process default", process_default);
    }

    /// The vectors through the `ct` backend's counter mode at every plane
    /// width this CPU runs.
    #[test]
    fn ct_width_nist_vectors() {
        for width in CtWidth::runnable() {
            for case in 0..NIST.len() {
                let what = format!("ct at {width:?}");
                assert_nist(case, &what, |key| AesGcm { imp: ct_impl(key, width).unwrap() });
            }
        }
    }

    /// A deterministic byte stream (LCG) for the GHASH width tests.
    fn lcg_bytes(len: usize, state: &mut u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (*state >> 24) as u8
            })
            .collect()
    }

    /// Holds the `ct` GHASH walk at every width this CPU runs to the
    /// per-block table reference, on `aad` and each prefix `data[..len]`.
    fn assert_ghash_widths(h: u128, aad: &[u8], data: &[u8], lens: impl Iterator<Item = usize>) {
        let gh = CtGhash::new(h);
        for len in lens {
            let want = table::ghash(aad, &data[..len], |x| table::gf_mul(x, h));
            for width in CtWidth::runnable() {
                let got = ct_ghash(width, &gh, aad, &data[..len]);
                assert_eq!(got, want, "{width:?}: aad {} ciphertext {len}", aad.len());
            }
        }
    }

    /// Every ciphertext length up to 1 100 bytes puts the zero lead, the
    /// part boundaries and the length block at every lane of a group.
    #[test]
    fn ct_width_ghash_matches_reference_at_every_length() {
        let mut state = 0x6a5a;
        let h = u128::from_be_bytes(lcg_bytes(16, &mut state).try_into().unwrap());
        let data = lcg_bytes(1_100, &mut state);
        for aad_len in [0, 1, 13, 16, 40] {
            let aad = lcg_bytes(aad_len, &mut state);
            assert_ghash_widths(h, &aad, &data, 0..=1_100);
        }
    }

    #[test]
    fn ct_width_ghash_matches_reference_on_long_ciphertexts() {
        let mut state = 0x10_0000;
        let h = u128::from_be_bytes(lcg_bytes(16, &mut state).try_into().unwrap());
        let data = lcg_bytes(65_536, &mut state);
        for aad_len in [0, 13, 40] {
            let aad = lcg_bytes(aad_len, &mut state);
            assert_ghash_widths(h, &aad, &data, [3_376, 23_000, 65_536].into_iter());
        }
    }

    /// One flipped bit in any block of a sealed k = 421 upload, in its AAD
    /// or in its tag fails the tag at every width: a dropped lane or a
    /// wrong power of H would let some block's flip through.
    #[test]
    fn ct_width_ghash_tamper_sweep_rejects_every_flip() {
        let mut state = 0x7a3e;
        let key = lcg_bytes(32, &mut state);
        let nonce: [u8; 12] = lcg_bytes(12, &mut state).try_into().unwrap();
        let pt = lcg_bytes(3_376, &mut state);
        let aad = lcg_bytes(40, &mut state);
        for width in CtWidth::runnable() {
            let g = AesGcm { imp: ct_impl(&key, width).unwrap() };
            let sealed = g.seal(&nonce, &pt, &aad);
            assert_eq!(g.open(&nonce, &sealed, &aad).unwrap(), pt, "{width:?}");
            let rejects = |sealed: &[u8], aad: &[u8]| {
                g.open(&nonce, sealed, aad).unwrap_err() == CryptoError::BadTag
            };
            for (block, start) in (0..sealed.len()).step_by(16).enumerate() {
                let mut bad = sealed.clone();
                bad[start + (block & 15)] ^= 1 << (block & 7);
                assert!(rejects(&bad, &aad), "{width:?}: ciphertext/tag block {block}");
            }
            for bit in 0..8 * aad.len() {
                let mut bad = aad.clone();
                bad[bit >> 3] ^= 1 << (bit & 7);
                assert!(rejects(&sealed, &bad), "{width:?}: aad bit {bit}");
            }
            for bit in 0..8 * TAG_LEN {
                let mut bad = sealed.clone();
                bad[pt.len() + (bit >> 3)] ^= 1 << (bit & 7);
                assert!(rejects(&bad, &aad), "{width:?}: tag bit {bit}");
            }
        }
    }

    /// A key lives on the caller's stack, one per message.
    #[test]
    fn an_aes_gcm_key_stays_under_two_kib() {
        assert!(core::mem::size_of::<AesGcm>() <= 2048, "{}", core::mem::size_of::<AesGcm>());
    }

    #[test]
    fn tamper_detection() {
        let g = AesGcm::new(&[1u8; 16]).unwrap();
        let nonce = [2u8; 12];
        let mut ct = g.seal(&nonce, b"secret gradient payload", b"meta");
        // Flip one bit anywhere: tag must fail.
        for idx in [0usize, 5, ct.len() - 1] {
            ct[idx] ^= 0x01;
            assert_eq!(g.open(&nonce, &ct, b"meta").unwrap_err(), CryptoError::BadTag);
            ct[idx] ^= 0x01;
        }
        assert!(g.open(&nonce, &ct, b"meta").is_ok());
    }

    #[test]
    fn wrong_nonce_fails() {
        let g = AesGcm::new(&[1u8; 16]).unwrap();
        let ct = g.seal(&[2u8; 12], b"payload", b"");
        assert!(g.open(&[3u8; 12], &ct, b"").is_err());
    }

    #[test]
    fn too_short_ciphertext() {
        let g = AesGcm::new(&[1u8; 16]).unwrap();
        assert_eq!(g.open(&[0u8; 12], &[0u8; 7], b"").unwrap_err(), CryptoError::BadLength);
    }

    /// The 32-bit counter wraps without carrying into the nonce, wherever
    /// the wrap falls in a backend's batch: start counters chosen so it
    /// lands inside, on the first and on the last block of 4-, 8- and
    /// 16-block batches. `ct` runs here at this CPU's widest plane;
    /// `ct_width_ctr_agrees_across_the_counter_wrap` runs every width.
    #[test]
    fn ctr_backends_agree_across_the_counter_wrap() {
        let key = [0x3cu8; 32];
        let table = TableGcm::new(&key).unwrap();
        let starts =
            [0xFFFF_FFF0u32, 0xFFFF_FFFB, 0xFFFF_FFFC, 0xFFFF_FFFD, 0xFFFF_FFFE, u32::MAX, 0];
        let lens = [0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000, 4096];
        for backend in crate::engine::available_backends() {
            let g = AesGcm::with_backend(backend, &key).unwrap();
            for start in starts {
                let mut j0 = [0xa7u8; 16];
                j0[12..].copy_from_slice(&start.to_be_bytes());
                for len in lens {
                    let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                    let mut expected = data.clone();
                    table.ctr_xor(&j0, &mut expected);
                    let mut got = data;
                    g.ctr_xor(&j0, &mut got);
                    assert_eq!(got, expected, "{backend}: counter {start:#x}, len {len}");
                }
            }
        }
        // The reference itself: block i is E(nonce ‖ start + 1 + i mod 2³²).
        let aes = crate::aes::Aes::new(&key).unwrap();
        let mut j0 = [0xa7u8; 16];
        j0[12..].copy_from_slice(&0xFFFF_FFFEu32.to_be_bytes());
        let mut stream = [0u8; 48];
        table.ctr_xor(&j0, &mut stream);
        for (i, counter) in [u32::MAX, 0, 1].into_iter().enumerate() {
            let mut block = j0;
            block[12..].copy_from_slice(&counter.to_be_bytes());
            assert_eq!(stream[16 * i..16 * i + 16], aes.encrypt(block), "block {i}");
        }
    }

    /// Sealing after a prefix leaves the prefix alone and appends exactly
    /// what `seal` returns, on every backend.
    #[test]
    fn seal_into_appends_the_sealed_bytes_after_a_prefix() {
        for backend in crate::engine::available_backends() {
            let g = AesGcm::with_backend(backend, &[5u8; 32]).unwrap();
            for len in [0usize, 1, 16, 17, 129, 1000] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
                let mut out = b"counter!".to_vec();
                g.seal_into(&[4u8; 12], &pt, b"aad", &mut out);
                assert_eq!(&out[..8], b"counter!", "{backend}: len {len}");
                assert_eq!(out[8..], g.seal(&[4u8; 12], &pt, b"aad"), "{backend}: len {len}");
            }
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let g = AesGcm::new(&[9u8; 32]).unwrap();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 255, 1024] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let nonce = [len as u8; 12];
            let ct = g.seal(&nonce, &pt, b"aad");
            assert_eq!(g.open(&nonce, &ct, b"aad").unwrap(), pt, "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `hw == ct == table` for the whole AEAD, bitwise, on random
        /// keys, nonces, AAD and plaintexts — empty and non-block-aligned
        /// lengths, key sizes 128/192/256, and payloads crossing the `hw`
        /// backend's 128-byte (AES-NI), 256-byte (VAES) and 64-byte (GHASH
        /// aggregation) chunk boundaries — and each backend opens what
        /// the reference sealed.
        #[test]
        fn gcm_backends_match_the_table_reference(
            key in vec(any::<u8>(), 32),
            key_len in 0usize..3,
            nonce in vec(any::<u8>(), 12),
            aad in vec(any::<u8>(), 0..48),
            pt in vec(any::<u8>(), 0..600),
        ) {
            let key = &key[..[16, 24, 32][key_len]];
            let nonce: [u8; 12] = nonce.try_into().unwrap();
            let want = TableGcm::new(key).unwrap().seal(&nonce, &pt, &aad);
            for backend in crate::engine::available_backends() {
                let g = AesGcm::with_backend(backend, key).unwrap();
                prop_assert_eq!(&g.seal(&nonce, &pt, &aad), &want, "backend {}", backend);
                prop_assert_eq!(g.open(&nonce, &want, &aad).unwrap(), pt.clone());
            }
        }
    }
}
