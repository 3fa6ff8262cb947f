//! Runtime-dispatched crypto engine: one backend decision for every
//! primitive on the trusted path.
//!
//! The enclave's threat model is data-dependent memory access (Section
//! 2.3 of the paper), and the textbook table-based AES/GHASH is exactly
//! that — S-box and field-multiply lookups indexed by secret bytes. The
//! process runs one of two backends, neither of which has a
//! secret-indexed lookup or a secret-conditioned branch:
//!
//! | backend | AES-CTR | GHASH | SHA-256 | constant time | needs |
//! |---------|---------|-------|---------|---------------|-------|
//! | `hw`    | AES-NI, VAES×16 when available | PCLMULQDQ | SHA-NI | yes (ISA) | x86-64 + aes+pclmulqdq(+sha) |
//! | `ct`    | bitsliced ×4 (`u64`), ×16 (AVX2), ×32 (AVX-512F); Boyar–Peralta S-box circuit | carry-less products from masked integer multiplies | software | yes (construction; assumes a constant-time integer multiplier) | nothing |
//!
//! `OLIVE_CRYPTO=hw|ct` pins the backend; unset picks `hw` when the CPU
//! supports it and `ct` otherwise (the portable default). Both produce
//! bitwise-identical ciphertexts, tags and digests: the KAT vectors run
//! on each (`tests/engine_vectors.rs`), and the unit tests hold each to
//! the lookup-table reference — FIPS 197 table AES and the bit-serial
//! SP 800-38D multiply — which exists only in test builds, so nothing in
//! a release build can select it.
//!
//! The decision is read once and cached ([`crypto_backend`]); every
//! [`AesGcm`], [`Sha256`] and [`HmacSha256`] built without an explicit
//! backend inherits it, so one knob governs the whole deployment — the
//! enclave, the client sessions and the shard tunnels all call the plain
//! constructors. The `with_backend` constructors exist for the
//! differential suites and benches that compare backends in one process.
//!
//! [`AesGcm`]: crate::gcm::AesGcm
//! [`Sha256`]: crate::sha256::Sha256
//! [`HmacSha256`]: crate::hmac::HmacSha256

use std::sync::OnceLock;

use crate::CryptoError;

pub(crate) mod ct;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ct_x86;
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
}

impl CryptoBackend {
    /// True when this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            CryptoBackend::Hw => hw::aes_available(),
            #[cfg(not(target_arch = "x86_64"))]
            CryptoBackend::Hw => false,
            CryptoBackend::Ct => true,
        }
    }

    /// The knob spelling (`hw`/`ct`).
    pub fn name(self) -> &'static str {
        match self {
            CryptoBackend::Hw => "hw",
            CryptoBackend::Ct => "ct",
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
    [CryptoBackend::Hw, CryptoBackend::Ct].into_iter().filter(|b| b.is_available()).collect()
}

/// Process-wide backend selection: `OLIVE_CRYPTO=hw|ct` pins it (falling
/// back with a warning if the CPU lacks the requested ISA), anything else
/// or unset auto-detects `hw`, then `ct`. Read once and cached; code that
/// needs several backends in one process uses the `with_backend`
/// constructors instead.
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

/// The plane widths the `ct` backend's bitsliced counter mode is compiled
/// for: one generic body ([`ct::Plane`]), three monomorphizations. The
/// choice is public (it depends on the CPU alone) and moves no output
/// byte; it lives here because `ct.rs` and `ct_x86.rs` contain no
/// branches at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CtWidth {
    /// One `u64` per plane, four blocks a pass: every target.
    U64,
    /// `__m256i` planes, sixteen blocks a pass.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `__m512i` planes, thirty-two blocks a pass.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl CtWidth {
    /// Every width this build knows, narrowest first.
    #[cfg(test)]
    pub(crate) const ALL: &'static [CtWidth] = &[
        CtWidth::U64,
        #[cfg(target_arch = "x86_64")]
        CtWidth::Avx2,
        #[cfg(target_arch = "x86_64")]
        CtWidth::Avx512,
    ];

    /// Whether this CPU can run the monomorphization.
    pub(crate) fn available(self) -> bool {
        match self {
            CtWidth::U64 => true,
            #[cfg(target_arch = "x86_64")]
            CtWidth::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            CtWidth::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// The widest one this CPU runs (std caches the detection).
    pub(crate) fn best() -> CtWidth {
        #[cfg(target_arch = "x86_64")]
        for width in [CtWidth::Avx512, CtWidth::Avx2] {
            if width.available() {
                return width;
            }
        }
        CtWidth::U64
    }

    /// `aes`'s counter mode through this width's body. Panics if the CPU
    /// lacks it.
    #[allow(unsafe_code)]
    pub(crate) fn ctr_xor(self, aes: &ct::CtAes, j0: &[u8; 16], data: &mut [u8]) {
        assert!(self.available(), "{self:?} ct planes are not supported by this CPU");
        match self {
            CtWidth::U64 => aes.ctr_xor_on::<u64>(j0, data),
            // SAFETY: the only requirement of a `#[target_feature]` function
            // is that the CPU has the feature, and `available` just
            // confirmed it.
            #[cfg(target_arch = "x86_64")]
            CtWidth::Avx2 => unsafe { ct_x86::ctr_xor_avx2(aes, j0, data) },
            // SAFETY: as above, for `avx512f`.
            #[cfg(target_arch = "x86_64")]
            CtWidth::Avx512 => unsafe { ct_x86::ctr_xor_avx512(aes, j0, data) },
        }
    }

    /// The widths this CPU runs, narrowest first; the first call prints
    /// them and the ones it lacks.
    #[cfg(test)]
    pub(crate) fn runnable() -> Vec<CtWidth> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        let (ran, skipped): (Vec<CtWidth>, Vec<CtWidth>) =
            CtWidth::ALL.iter().partition(|w| w.available());
        REPORT.call_once(|| {
            println!(
                "ct AES widths exercised on this CPU: {ran:?}; skipped (CPU lacks them): {skipped:?}"
            );
        });
        ran
    }
}

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Maximum number of round keys (AES-256: 14 rounds + initial).
pub(crate) const MAX_ROUND_KEYS: usize = 15;

/// FIPS 197 key expansion, shared by both backends: the schedule differs
/// only in how `SubWord` is computed (the bitsliced circuit in `ct`,
/// `AESENCLAST` in `hw`), so the Nk/rounds bookkeeping and RCON wiring
/// live exactly once. Returns the round keys and the round count for a
/// 16/24/32-byte `key`.
pub(crate) fn expand_key(
    key: &[u8],
    sub_word: fn([u8; 4]) -> [u8; 4],
) -> Result<([[u8; 16]; MAX_ROUND_KEYS], usize), CryptoError> {
    let (nk, rounds) = match key.len() {
        16 => (4usize, 10usize),
        24 => (6, 12),
        32 => (8, 14),
        _ => return Err(CryptoError::BadLength),
    };
    let nwords = 4 * (rounds + 1);
    let mut w = [[0u8; 4]; 4 * MAX_ROUND_KEYS];
    for i in 0..nk {
        w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
    }
    for i in nk..nwords {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp.rotate_left(1);
            temp = sub_word(temp);
            temp[0] ^= RCON[i / nk];
        } else if nk > 6 && i % nk == 4 {
            temp = sub_word(temp);
        }
        for j in 0..4 {
            w[i][j] = w[i - nk][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; MAX_ROUND_KEYS];
    for r in 0..=rounds {
        for c in 0..4 {
            round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    Ok((round_keys, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_and_ct_always_available() {
        // `ct` is the portable production default; the table reference the
        // unit tests hold both backends to is portable too, at every key
        // size.
        assert!(CryptoBackend::Ct.is_available());
        assert!(available_backends().contains(&CryptoBackend::Ct));
        for len in [16, 24, 32] {
            assert!(crate::aes::Aes::new(&vec![7u8; len]).is_ok());
            assert!(crate::gcm::table::TableGcm::new(&vec![7u8; len]).is_ok());
        }
    }

    #[test]
    fn env_knob_pins_backend() {
        // The cached process-wide selection honors OLIVE_CRYPTO when the
        // suite was launched with it (the CI `ct` pass), and whatever it
        // says lands on a backend this CPU runs.
        let backend = crypto_backend();
        assert!(matches!(backend, CryptoBackend::Hw | CryptoBackend::Ct));
        assert!(backend.is_available());
        match std::env::var("OLIVE_CRYPTO").as_deref() {
            Ok("ct") => assert_eq!(backend, CryptoBackend::Ct),
            Ok("hw") if CryptoBackend::Hw.is_available() => assert_eq!(backend, CryptoBackend::Hw),
            _ => {}
        }
    }
}
