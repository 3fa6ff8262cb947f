//! RFC 2104 HMAC instantiated with SHA-256.

use crate::engine::{crypto_backend, CryptoBackend};
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA256 on the process-default crypto backend
/// (override with [`HmacSha256::with_backend`]).
///
/// Used by [`crate::hkdf`] for session-key derivation after remote
/// attestation, and by the simulated enclave to sign its output (a
/// symmetric stand-in for a public-key signature, see README's
/// "Substitutions").
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        Self::with_backend(crypto_backend(), key)
    }

    /// Creates an HMAC context pinned to `backend` (both hash passes and
    /// the long-key digest run on it).
    pub fn with_backend(backend: CryptoBackend, key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = Sha256::with_backend(backend);
            h.update(key);
            k[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::with_backend(backend);
        inner.update(&ipad);
        let mut outer = Sha256::with_backend(backend);
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the MAC.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        self.outer.finalize()
    }

    /// One-shot HMAC.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Constant-time verification of a MAC over `data`.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let expected = Self::mac(key, data);
        crate::ct::ct_eq(&expected, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case_1() {
        let mac = HmacSha256::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(hex(&mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_case_3() {
        let mac = HmacSha256::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(hex(&mac), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let mac = HmacSha256::mac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&mac), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let mac = HmacSha256::mac(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
        );
        assert_eq!(hex(&mac), "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = HmacSha256::mac(b"key", b"msg");
        assert!(HmacSha256::verify(b"key", b"msg", &tag));
        assert!(!HmacSha256::verify(b"key", b"msg2", &tag));
        assert!(!HmacSha256::verify(b"key2", b"msg", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha256::verify(b"key", b"msg", &bad));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = HmacSha256::new(b"secret");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), HmacSha256::mac(b"secret", b"hello world"));
    }
}
