//! Runtime-dispatched crypto engine: one backend decision for every
//! primitive on the trusted path.
//!
//! The enclave's threat model is data-dependent memory access (Section
//! 2.3 of the paper), and the original table-based AES/GHASH is exactly
//! that — S-box and field-multiply lookups indexed by secret bytes. This
//! module holds three backends, two of which the process-wide decision
//! can land on:
//!
//! | backend | AES-CTR | GHASH | SHA-256 | constant time | needs |
//! |---------|---------|-------|---------|---------------|-------|
//! | `hw`    | AES-NI, VAES×16 when available | PCLMULQDQ | SHA-NI | yes (ISA) | x86-64 + aes+pclmulqdq(+sha) |
//! | `ct`    | bitsliced ×4, Boyar–Peralta S-box circuit | carry-less products from masked integer multiplies | software | yes (construction; assumes a constant-time integer multiplier) | nothing |
//! | `table` | S-box lookups | bit loop with branches | software | **no** | nothing |
//!
//! `OLIVE_CRYPTO=hw|ct` pins the backend; unset picks `hw` when the CPU
//! supports it and `ct` otherwise (the portable default). `table` is not
//! constant-time, so the environment cannot put it on the trusted path:
//! it survives only as the differential reference, built explicitly with
//! [`CryptoEngine::with_backend`]. All three produce bitwise-identical
//! ciphertexts, tags and digests, asserted by the vector and proptest
//! suites in `tests/engine_vectors.rs`.
//!
//! The decision is read once and cached ([`crypto_backend`]); everything
//! that builds an [`AesGcm`], [`Sha256`] or [`HmacSha256`] without an
//! explicit backend inherits it, so one knob governs the whole
//! deployment. [`CryptoEngine`] packages the decision as a value that the
//! TEE layer threads through enclave sealing, attestation and the client
//! secure channel.
//!
//! [`AesGcm`]: crate::gcm::AesGcm
//! [`Sha256`]: crate::sha256::Sha256
//! [`HmacSha256`]: crate::hmac::HmacSha256

use std::sync::OnceLock;

use crate::gcm::AesGcm;
use crate::hmac::HmacSha256;
use crate::sha256::{Sha256, DIGEST_LEN};
use crate::CryptoError;

pub(crate) mod ct;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod hw;

/// Which implementation family services the symmetric primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoBackend {
    /// x86-64 ISA extensions: AES-NI/VAES, PCLMULQDQ, SHA-NI.
    Hw,
    /// Bitsliced constant-time software (portable default).
    Ct,
    /// The original lookup-table code — **not** cache-timing-safe; kept as
    /// the differential reference, never selected by [`crypto_backend`].
    Table,
}

impl CryptoBackend {
    /// True when this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            CryptoBackend::Hw => hw::aes_available(),
            #[cfg(not(target_arch = "x86_64"))]
            CryptoBackend::Hw => false,
            CryptoBackend::Ct | CryptoBackend::Table => true,
        }
    }

    /// The knob spelling (`hw`/`ct`/`table`).
    pub fn name(self) -> &'static str {
        match self {
            CryptoBackend::Hw => "hw",
            CryptoBackend::Ct => "ct",
            CryptoBackend::Table => "table",
        }
    }
}

impl core::fmt::Display for CryptoBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every backend the current CPU can run, fastest first (what the
/// differential suites iterate over).
pub fn available_backends() -> Vec<CryptoBackend> {
    [CryptoBackend::Hw, CryptoBackend::Ct, CryptoBackend::Table]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// Process-wide backend selection: `OLIVE_CRYPTO=hw|ct` pins it (falling
/// back with a warning if the CPU lacks the requested ISA), anything else
/// — `table` included — or unset auto-detects `hw`, then `ct`. Read once and
/// cached; code that needs several backends in one process uses the
/// `*_with_backend` constructors instead.
pub fn crypto_backend() -> CryptoBackend {
    static BACKEND: OnceLock<CryptoBackend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        let requested = match std::env::var("OLIVE_CRYPTO").as_deref() {
            Ok("hw") => Some(CryptoBackend::Hw),
            Ok("ct") => Some(CryptoBackend::Ct),
            Ok(other) => {
                eprintln!("OLIVE_CRYPTO={other:?} is not \"hw\" or \"ct\"; using auto");
                None
            }
            Err(_) => None,
        };
        match requested {
            Some(b) if b.is_available() => b,
            Some(b) => {
                eprintln!("OLIVE_CRYPTO={} unavailable on this CPU; using ct", b.name());
                CryptoBackend::Ct
            }
            None if CryptoBackend::Hw.is_available() => CryptoBackend::Hw,
            None => CryptoBackend::Ct,
        }
    })
}

/// A crypto backend decision packaged as a value.
///
/// The TEE layer holds one per enclave / client session so the whole
/// trusted path — sealing, attestation hashing, session-key derivation,
/// upload encryption — runs on the same implementation family, and tests
/// can pin a specific backend end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CryptoEngine {
    backend: CryptoBackend,
}

impl Default for CryptoEngine {
    fn default() -> Self {
        Self::auto()
    }
}

impl CryptoEngine {
    /// The process-default engine ([`crypto_backend`]).
    pub fn auto() -> Self {
        CryptoEngine { backend: crypto_backend() }
    }

    /// An engine pinned to `backend`, or `None` when the CPU can't run it.
    pub fn with_backend(backend: CryptoBackend) -> Option<Self> {
        backend.is_available().then_some(CryptoEngine { backend })
    }

    /// The backend this engine dispatches to.
    pub fn backend(self) -> CryptoBackend {
        self.backend
    }

    /// An AES-GCM key (16/24/32 bytes) on this engine's backend.
    pub fn aes_gcm(self, key: &[u8]) -> Result<AesGcm, CryptoError> {
        AesGcm::with_backend(self.backend, key)
    }

    /// A fresh SHA-256 hasher on this engine's backend.
    pub fn sha256(self) -> Sha256 {
        Sha256::with_backend(self.backend)
    }

    /// One-shot SHA-256.
    pub fn digest(self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = self.sha256();
        h.update(data);
        h.finalize()
    }

    /// An HMAC-SHA256 context keyed with `key` on this engine's backend.
    pub fn hmac(self, key: &[u8]) -> HmacSha256 {
        HmacSha256::with_backend(self.backend, key)
    }

    /// One-shot HMAC-SHA256.
    pub fn mac(self, key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = self.hmac(key);
        h.update(data);
        h.finalize()
    }

    /// Constant-time MAC verification.
    pub fn verify_mac(self, key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        crate::ct::ct_eq(&self.mac(key, data), tag)
    }

    /// HKDF-SHA256: Expand(Extract(salt, ikm), info, len).
    pub fn hkdf(self, salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
        crate::hkdf::derive_with_backend(self.backend, salt, ikm, info, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_and_ct_always_available() {
        assert!(CryptoBackend::Table.is_available());
        assert!(CryptoBackend::Ct.is_available());
        assert!(available_backends().contains(&CryptoBackend::Ct));
    }

    #[test]
    fn env_knob_pins_backend() {
        // The cached process-wide selection honors OLIVE_CRYPTO when the
        // suite was launched with it (the CI `ct` pass) — and whatever
        // it says, never lands on the non-constant-time reference.
        assert_ne!(crypto_backend(), CryptoBackend::Table);
        match std::env::var("OLIVE_CRYPTO").as_deref() {
            Ok("ct") => assert_eq!(crypto_backend(), CryptoBackend::Ct),
            Ok("hw") if CryptoBackend::Hw.is_available() => {
                assert_eq!(crypto_backend(), CryptoBackend::Hw)
            }
            _ => assert!(crypto_backend().is_available()),
        }
    }

    #[test]
    fn engine_with_unavailable_backend_is_none() {
        #[cfg(not(target_arch = "x86_64"))]
        assert!(CryptoEngine::with_backend(CryptoBackend::Hw).is_none());
        assert!(CryptoEngine::with_backend(CryptoBackend::Table).is_some());
    }
}
