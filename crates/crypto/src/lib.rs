//! # olive-crypto
//!
//! Self-contained cryptographic substrate for the Olive reproduction.
//!
//! The paper (Section 2.2, Algorithm 1) requires: AES-GCM authenticated
//! encryption of gradients on the secure channel established by remote
//! attestation, a hash for enclave measurements, and a key-exchange +
//! signature mechanism standing in for Intel EPID / the Intel Attestation
//! Service. No external crypto crates are in the allowed dependency set, so
//! everything here is implemented from scratch:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (tested against NIST vectors),
//! * [`hmac`] — RFC 2104 HMAC-SHA256 (tested against RFC 4231 vectors),
//! * [`hkdf`] — RFC 5869 HKDF-SHA256 (tested against RFC 5869 vectors),
//! * [`gcm`] — NIST SP 800-38D AES-GCM AEAD (tested against NIST vectors),
//! * [`ct`] — constant-time byte comparison,
//! * [`dh`] — **simulation-grade** finite-field Diffie–Hellman and a
//!   Schnorr-style signature used to model EPID quotes. The group is a
//!   61-bit Mersenne prime field: adequate to exercise the attestation
//!   protocol shape, *cryptographically worthless*. Production code would use
//!   X25519/Ed25519; see README's "Substitutions" for the rationale.
//!
//! The primitives used on the *data path* (SHA-256, AES-GCM) are real,
//! full-strength implementations; only the asymmetric pieces are simulation
//! stand-ins.
//!
//! The symmetric primitives run on a runtime-dispatched [`engine`]:
//! hardware ISA extensions (AES-NI/VAES, PCLMULQDQ, SHA-NI), or a
//! bitsliced constant-time software fallback (`OLIVE_CRYPTO=hw|ct`). The
//! textbook lookup-table AES and GHASH they are tested against are
//! compiled into test builds only. Unsafe code is denied crate-wide and
//! allowed only in the intrinsics-backed `engine::hw` and
//! `engine::ct_x86` modules and in the call that enters the latter's
//! `#[target_feature]` bodies once the CPU feature is detected.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod aes;
pub mod ct;
pub mod dh;
pub mod engine;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod sha256;

pub use engine::{available_backends, crypto_backend, CryptoBackend};
pub use gcm::{AesGcm, NONCE_LEN, TAG_LEN};
pub use hkdf::{hkdf_expand, hkdf_extract};
pub use hmac::HmacSha256;
pub use sha256::{sha256, Sha256};

/// Errors produced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// AEAD tag verification failed (ciphertext corrupt or wrong key).
    BadTag,
    /// An input had an unsupported length (e.g. AES key that is not
    /// 16/24/32 bytes).
    BadLength,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
            CryptoError::BadLength => write!(f, "unsupported input length"),
        }
    }
}

impl std::error::Error for CryptoError {}
