//! NIST SP 800-38D AES-GCM authenticated encryption.
//!
//! This is the AEAD used on the client→enclave secure channel (Algorithm 1
//! lines 8, 11, 22 of the paper: gradients are encrypted under the per-user
//! shared key established by remote attestation, and the enclave verifies
//! and decrypts them inside the trust boundary).
//!
//! The GCM composition (J0, CTR layout, GHASH over AAD ∥ ciphertext ∥
//! lengths, tag masking) lives here once; the block cipher and the field
//! multiplication dispatch to the backend selected by
//! [`crate::engine::crypto_backend`] — hardware (AES-NI + PCLMULQDQ),
//! bitsliced constant-time software, or the original lookup tables kept as
//! the differential reference. All three produce bitwise-identical output.

use crate::aes::Aes;
use crate::ct::ct_eq;
use crate::engine::ct::{CtAes, CtGhash};
#[cfg(target_arch = "x86_64")]
use crate::engine::hw::{HwAes, HwGhash};
use crate::engine::{crypto_backend, CryptoBackend};
use crate::CryptoError;

/// GCM nonce length in bytes (the 96-bit fast path).
pub const NONCE_LEN: usize = 12;
/// GCM authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// The GHASH reduction constant R = 11100001 || 0^120.
const R: u128 = 0xE100_0000_0000_0000_0000_0000_0000_0000;

/// Multiplication in GF(2^128) as specified in SP 800-38D §6.3 — the
/// table backend's field multiply and the differential reference the
/// `ct`/`hw` multiplies are tested against. **Not constant-time** (both
/// branches key on secret bits).
///
/// Blocks are interpreted big-endian with bit 0 the most significant bit of
/// the first byte.
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

fn block_to_u128(b: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..b.len()].copy_from_slice(b);
    u128::from_be_bytes(buf)
}

/// GHASH over `aad` and `ciphertext`, block by block, with the active
/// backend's multiplication by the hash subkey.
fn ghash(aad: &[u8], ciphertext: &[u8], mul_h: impl Fn(u128) -> u128) -> u128 {
    let mut y = 0u128;
    for chunk in aad.chunks(16).chain(ciphertext.chunks(16)) {
        y = mul_h(y ^ block_to_u128(chunk));
    }
    let lens = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
    mul_h(y ^ lens)
}

/// The backend-specific cipher state behind one GCM key. The `ct` arm's
/// pre-sliced round keys make it 1 KiB against the others' 0.3; a key is
/// built per message and lives on the caller's stack, so boxing the arm
/// would buy an allocation per message and nothing else.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
enum GcmImpl {
    Table(Aes),
    Ct(CtAes, CtGhash),
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
    /// Hash subkey H = E_K(0^128).
    h: u128,
}

impl core::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The hash subkey H (and the backends' round keys / H powers) is
        // key material: H alone enables tag forgery, so Debug prints the
        // backend only.
        let backend = match &self.imp {
            GcmImpl::Table(_) => CryptoBackend::Table,
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
        let mut imp = match backend {
            CryptoBackend::Table => GcmImpl::Table(Aes::new(key)?),
            CryptoBackend::Ct => GcmImpl::Ct(CtAes::new(key)?, CtGhash::new(0)),
            #[cfg(target_arch = "x86_64")]
            CryptoBackend::Hw => {
                let aes = HwAes::new(key)?;
                GcmImpl::Hw(aes, HwGhash::new(0))
            }
            #[cfg(not(target_arch = "x86_64"))]
            CryptoBackend::Hw => panic!("hw crypto backend requires x86-64"),
        };
        let mut hb = [0u8; 16];
        imp_encrypt_block(&imp, &mut hb);
        let h = u128::from_be_bytes(hb);
        if let GcmImpl::Ct(_, gh) = &mut imp {
            *gh = CtGhash::new(h);
        }
        #[cfg(target_arch = "x86_64")]
        if let GcmImpl::Hw(_, gh) = &mut imp {
            *gh = HwGhash::new(h);
        }
        Ok(AesGcm { imp, h })
    }

    fn j0(&self, nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    fn ctr_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
        match &self.imp {
            GcmImpl::Table(aes) => {
                let mut counter = u32::from_be_bytes(j0[12..16].try_into().unwrap());
                for chunk in data.chunks_mut(16) {
                    counter = counter.wrapping_add(1);
                    let mut block = *j0;
                    block[12..16].copy_from_slice(&counter.to_be_bytes());
                    aes.encrypt_block(&mut block);
                    for (b, k) in chunk.iter_mut().zip(block.iter()) {
                        *b ^= k;
                    }
                }
            }
            GcmImpl::Ct(aes, _) => aes.ctr_xor(j0, data),
            #[cfg(target_arch = "x86_64")]
            GcmImpl::Hw(aes, _) => aes.ctr_xor(j0, data),
        }
    }

    /// Test hook: the raw CTR keystream XOR (differential suites compare
    /// backends at exact chunk boundaries).
    #[cfg(test)]
    pub(crate) fn ctr_xor_for_tests(&self, j0: &[u8; 16], data: &mut [u8]) {
        self.ctr_xor(j0, data)
    }

    fn tag(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let s = match &self.imp {
            GcmImpl::Table(_) => ghash(aad, ciphertext, |x| gf_mul(x, self.h)),
            GcmImpl::Ct(_, gh) => ghash(aad, ciphertext, |x| gh.mul_h(x)),
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

/// Single-block encryption on whichever backend `imp` wraps.
fn imp_encrypt_block(imp: &GcmImpl, block: &mut [u8; 16]) {
    match imp {
        GcmImpl::Table(aes) => aes.encrypt_block(block),
        GcmImpl::Ct(aes, _) => aes.encrypt_block(block),
        #[cfg(target_arch = "x86_64")]
        GcmImpl::Hw(aes, _) => aes.encrypt_block(block),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // NIST GCM spec (Appendix B) test cases 1-4 for AES-128 and case 13/14
    // for AES-256.
    #[test]
    fn nist_case_1_empty() {
        let g = AesGcm::new(&[0u8; 16]).unwrap();
        let nonce = [0u8; 12];
        let out = g.seal(&nonce, b"", b"");
        assert_eq!(hex(&out), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_case_2_single_block() {
        let g = AesGcm::new(&[0u8; 16]).unwrap();
        let nonce = [0u8; 12];
        let out = g.seal(&nonce, &from_hex("00000000000000000000000000000000"), b"");
        assert_eq!(hex(&out), "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf");
    }

    #[test]
    fn nist_case_3_four_blocks() {
        let key = from_hex("feffe9928665731c6d6a8f9467308308");
        let nonce: [u8; 12] = from_hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let g = AesGcm::new(&key).unwrap();
        let out = g.seal(&nonce, &pt, b"");
        assert_eq!(
            hex(&out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985\
             4d5c2af327cd64a62cf35abd2ba6fab4"
        );
    }

    #[test]
    fn nist_case_4_with_aad() {
        let key = from_hex("feffe9928665731c6d6a8f9467308308");
        let nonce: [u8; 12] = from_hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let g = AesGcm::new(&key).unwrap();
        let out = g.seal(&nonce, &pt, &aad);
        assert_eq!(
            hex(&out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091\
             5bc94fbc3221a5db94fae95ae7121a47"
        );
        let back = g.open(&nonce, &out, &aad).unwrap();
        assert_eq!(back, pt);
    }

    #[test]
    fn nist_aes256_with_aad() {
        // GCM spec test case 16.
        let key = from_hex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let nonce: [u8; 12] = from_hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let g = AesGcm::new(&key).unwrap();
        let out = g.seal(&nonce, &pt, &aad);
        assert_eq!(
            hex(&out),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662\
             76fc6ece0f4e1768cddf8853bb2d551b"
        );
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
    /// lands inside, on the first and on the last block of the `ct`
    /// backend's 4-block and the `hw` backend's 8- and 16-block batches.
    #[test]
    fn ctr_backends_agree_across_the_counter_wrap() {
        let key = [0x3cu8; 32];
        let table = AesGcm::with_backend(CryptoBackend::Table, &key).unwrap();
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
                    table.ctr_xor_for_tests(&j0, &mut expected);
                    let mut got = data;
                    g.ctr_xor_for_tests(&j0, &mut got);
                    assert_eq!(got, expected, "{backend}: counter {start:#x}, len {len}");
                }
            }
        }
        // The reference itself: block i is E(nonce ‖ start + 1 + i mod 2³²).
        let aes = Aes::new(&key).unwrap();
        let mut j0 = [0xa7u8; 16];
        j0[12..].copy_from_slice(&0xFFFF_FFFEu32.to_be_bytes());
        let mut stream = [0u8; 48];
        table.ctr_xor_for_tests(&j0, &mut stream);
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
}
