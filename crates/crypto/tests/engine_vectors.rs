//! Backend equivalence for the crypto engine: every backend this CPU runs
//! (`hw`, `ct`) must produce bitwise-identical AES-GCM ciphertexts/tags
//! and SHA-256/HMAC digests — pinned by NIST/RFC test vectors on each
//! backend, then by a proptest differential suite over random keys,
//! nonces, AAD and lengths (empty and non-block-aligned included). The
//! unit tests hold both to the lookup-table reference, which only test
//! builds of the crate contain.

use olive_crypto::gcm::AesGcm;
use olive_crypto::hkdf;
use olive_crypto::hmac::HmacSha256;
use olive_crypto::sha256::{sha256, Sha256};
use olive_crypto::{available_backends, crypto_backend, CryptoBackend, CryptoError};
use proptest::collection::vec;
use proptest::prelude::*;

fn from_hex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// NIST GCM spec (Appendix B) cases 1–4 (AES-128) plus case 16 (AES-256),
/// run on **every** backend the CPU offers.
#[test]
fn nist_gcm_vectors_on_all_backends() {
    struct Case {
        key: &'static str,
        nonce: &'static str,
        pt: &'static str,
        aad: &'static str,
        out: &'static str,
    }
    let cases = [
        Case {
            key: "00000000000000000000000000000000",
            nonce: "000000000000000000000000",
            pt: "",
            aad: "",
            out: "58e2fccefa7e3061367f1d57a4e7455a",
        },
        Case {
            key: "00000000000000000000000000000000",
            nonce: "000000000000000000000000",
            pt: "00000000000000000000000000000000",
            aad: "",
            out: "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        },
        Case {
            key: "feffe9928665731c6d6a8f9467308308",
            nonce: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            aad: "",
            out: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                  21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985\
                  4d5c2af327cd64a62cf35abd2ba6fab4",
        },
        Case {
            key: "feffe9928665731c6d6a8f9467308308",
            nonce: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            out: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                  21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091\
                  5bc94fbc3221a5db94fae95ae7121a47",
        },
        Case {
            key: "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            nonce: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            out: "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                  8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662\
                  76fc6ece0f4e1768cddf8853bb2d551b",
        },
    ];
    let backends = available_backends();
    assert!(backends.contains(&CryptoBackend::Ct), "ct must always be available");
    for (i, case) in cases.iter().enumerate() {
        let nonce: [u8; 12] = from_hex(case.nonce).try_into().unwrap();
        let pt = from_hex(case.pt);
        let aad = from_hex(case.aad);
        let expected = case.out.replace(' ', "");
        for &backend in &backends {
            let g = AesGcm::with_backend(backend, &from_hex(case.key)).unwrap();
            let out = g.seal(&nonce, &pt, &aad);
            assert_eq!(hex(&out), expected, "case {i} backend {backend}");
            assert_eq!(g.open(&nonce, &out, &aad).unwrap(), pt, "case {i} backend {backend}");
        }
    }
}

/// FIPS 180-4 / RFC 6234 SHA-256 vectors on every backend.
#[test]
fn sha256_vectors_on_all_backends() {
    let cases: [(&[u8], &str); 3] = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for backend in available_backends() {
        for (msg, digest) in cases {
            let mut h = Sha256::with_backend(backend);
            h.update(msg);
            assert_eq!(hex(&h.finalize()), digest, "backend {backend}");
        }
        // The million-'a' vector exercises the bulk multi-block path.
        let mut h = Sha256::with_backend(backend);
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            "backend {backend}"
        );
    }
}

/// RFC 4231 HMAC-SHA256 vectors on every backend (cases 1, 2 and the
/// longer-than-block-size key of case 6).
#[test]
fn hmac_vectors_on_all_backends() {
    for backend in available_backends() {
        let mac = |key: &[u8], data: &[u8]| {
            let mut h = HmacSha256::with_backend(backend, key);
            h.update(data);
            h.finalize()
        };
        assert_eq!(
            hex(&mac(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            "backend {backend}"
        );
        assert_eq!(
            hex(&mac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            "backend {backend}"
        );
        assert_eq!(
            hex(&mac(&[0xaa; 131], b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            "backend {backend}"
        );
    }
}

/// The engine's handles — the plain constructors the enclave, the client
/// sessions and the shard tunnels call — run on the process backend, and
/// agree with every backend pinned explicitly.
#[test]
fn engine_handles_agree() {
    assert!(available_backends().contains(&crypto_backend()));
    let gcm = AesGcm::new(&[9u8; 32]).unwrap();
    assert!(format!("{gcm:?}").contains(&format!("{:?}", crypto_backend())));
    let okm = hkdf::derive(b"salt", b"ikm", b"info", 42);
    for b in available_backends() {
        let mut h = Sha256::with_backend(b);
        h.update(b"payload");
        assert_eq!(h.finalize(), sha256(b"payload"), "backend {b}");
        let mut mac = HmacSha256::with_backend(b, b"key");
        mac.update(b"data");
        let tag = mac.finalize();
        assert_eq!(tag, HmacSha256::mac(b"key", b"data"), "backend {b}");
        assert!(HmacSha256::verify(b"key", b"data", &tag));
        let mut prk = HmacSha256::with_backend(b, b"salt");
        prk.update(b"ikm");
        let mut t1 = HmacSha256::with_backend(b, &prk.finalize());
        t1.update(b"info\x01");
        assert_eq!(okm[..32], t1.finalize(), "backend {b}");
        let pinned = AesGcm::with_backend(b, &[9u8; 32]).unwrap();
        assert_eq!(gcm.seal(&[1; 12], b"x", b"a"), pinned.seal(&[1; 12], b"x", b"a"));
        assert_eq!(AesGcm::with_backend(b, &[0u8; 15]).unwrap_err(), CryptoError::BadLength);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The differential core: `hw == ct`, bitwise, on random
    /// keys/nonces/AAD/plaintexts — including empty and non-block-aligned
    /// lengths, key sizes 128/192/256, and payloads crossing the hw
    /// backend's 128-byte (AES-NI), 256-byte (VAES) and 64-byte (GHASH
    /// aggregation) chunk boundaries.
    #[test]
    fn gcm_backends_agree_bitwise(
        key in vec(any::<u8>(), 32),
        key_len in 0usize..3,
        nonce in vec(any::<u8>(), 12),
        aad in vec(any::<u8>(), 0..48),
        pt in vec(any::<u8>(), 0..600),
    ) {
        let key = &key[..[16, 24, 32][key_len]];
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let backends = available_backends();
        let sealed: Vec<Vec<u8>> = backends
            .iter()
            .map(|&b| AesGcm::with_backend(b, key).unwrap().seal(&nonce, &pt, &aad))
            .collect();
        for (b, s) in backends.iter().zip(&sealed) {
            prop_assert_eq!(s, &sealed[0], "backend {} disagrees", b);
        }
        // Cross-backend open: what one seals, every other opens.
        for &b in &backends {
            let g = AesGcm::with_backend(b, key).unwrap();
            prop_assert_eq!(g.open(&nonce, &sealed[0], &aad).unwrap(), pt.clone());
            prop_assert!(g.open(&nonce, &sealed[0], b"wrong-aad").is_err());
        }
    }

    /// SHA-256 and HMAC backends agree bitwise on arbitrary inputs and
    /// arbitrary incremental splits (exercising the buffered/bulk paths).
    #[test]
    fn hash_backends_agree_bitwise(
        data in vec(any::<u8>(), 0..800),
        split in 0usize..800,
        key in vec(any::<u8>(), 0..100),
    ) {
        let split = split.min(data.len());
        let backends = available_backends();
        let digests: Vec<[u8; 32]> = backends
            .iter()
            .map(|&b| {
                let mut h = Sha256::with_backend(b);
                h.update(&data[..split]);
                h.update(&data[split..]);
                h.finalize()
            })
            .collect();
        for d in &digests {
            prop_assert_eq!(d, &digests[0]);
        }
        let macs: Vec<[u8; 32]> = backends
            .iter()
            .map(|&b| {
                let mut h = HmacSha256::with_backend(b, &key);
                h.update(&data);
                h.finalize()
            })
            .collect();
        for m in &macs {
            prop_assert_eq!(m, &macs[0]);
        }
    }
}
