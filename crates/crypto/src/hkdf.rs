//! RFC 5869 HKDF with SHA-256.
//!
//! After remote attestation completes a Diffie–Hellman exchange, the enclave
//! and each client derive their AES-GCM session key with
//! `HKDF(salt = RA transcript hash, ikm = DH shared secret)`.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(salt);
    h.update(ikm);
    h.finalize()
}

/// HKDF-Expand: derives `len` bytes of output key material (`len <= 255*32`).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "HKDF-Expand output too long");
    let mut okm = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut h = HmacSha256::new(prk);
        h.update(&t);
        h.update(info);
        h.update(&[counter]);
        let block = h.finalize();
        t = block.to_vec();
        let take = (len - okm.len()).min(DIGEST_LEN);
        okm.extend_from_slice(&block[..take]);
        counter += 1;
    }
    okm
}

/// `derive(salt, ikm, info, len)` = Expand(Extract(salt, ikm), info, len).
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
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

    // RFC 5869 Appendix A, test case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0b; 22];
        let salt = from_hex("000102030405060708090a0b0c");
        let info = from_hex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(hex(&prk), "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 Appendix A, test case 2 (longer inputs/outputs).
    #[test]
    fn rfc5869_case_2() {
        let ikm: Vec<u8> = (0x00u8..=0x4f).collect();
        let salt: Vec<u8> = (0x60u8..=0xaf).collect();
        let info: Vec<u8> = (0xb0u8..=0xff).collect();
        let okm = derive(&salt, &ikm, &info, 82);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    // RFC 5869 Appendix A, test case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case_3() {
        let okm = derive(b"", &[0x0b; 22], b"", 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    #[should_panic(expected = "output too long")]
    fn expand_length_cap() {
        hkdf_expand(&[0u8; 32], b"", 255 * 32 + 1);
    }

    #[test]
    fn distinct_info_distinct_keys() {
        let a = derive(b"salt", b"shared-secret", b"client-17", 32);
        let b = derive(b"salt", b"shared-secret", b"client-18", 32);
        assert_ne!(a, b);
    }
}
