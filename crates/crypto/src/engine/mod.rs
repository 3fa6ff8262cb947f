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
//! | `ct`    | bitsliced ×4 (`u64`), ×16 (AVX2), ×32 (AVX-512F); Boyar–Peralta S-box circuit | ×1 (`u64`), ×4 (AVX2), ×8 (AVX-512F) blocks a group over H¹…H⁸; carry-less products from masked integer multiplies | software | yes (construction; assumes a constant-time integer multiplier) | nothing |
//!
//! `OLIVE_CRYPTO=hw|ct` pins the backend; unset picks `hw` when the CPU
//! supports it and `ct` otherwise (the portable default). Both produce
//! bitwise-identical ciphertexts, tags and digests: the KAT vectors run
//! on each (`tests/engine_vectors.rs`), and the unit tests hold each to
//! the lookup-table reference — FIPS 197 table AES and the bit-serial
//! SP 800-38D multiply — which exists only in test builds, so nothing in
//! a release build can select it.
//!
//! The CPU is detected once per process, in this module: the `hw`
//! backend's features and the widest `ct` plane width are one cached
//! record, and the `ct` bodies are entered through one table with an
//! entry per plane width (`PLANES`).
//!
//! The decision is read once and cached ([`crypto_backend`]); every
//! [`AesGcm`], [`Sha256`] and [`HmacSha256`] built without an explicit
//! backend inherits it, so one knob governs the whole deployment — the
//! enclave, the client sessions and the shard tunnels all call the plain
//! constructors. The `with_backend` constructors exist for the
//! differential suites that compare backends in one process.
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
            CryptoBackend::Hw => cpu().aes,
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

/// What this CPU offers the engine's bodies.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cpu {
    /// The `hw` backend: AES-NI, PCLMULQDQ and the SSE levels its kernels
    /// use.
    pub(crate) aes: bool,
    /// `hw`'s 16-block counter mode: VAES and AVX-512F.
    pub(crate) vaes: bool,
    /// SHA-NI SHA-256, with SSSE3 and SSE4.1.
    pub(crate) sha: bool,
    /// The widest `ct` plane width.
    ct: CtWidth,
}

/// The CPU, detected once per process: the crate's one CPU detection.
pub(crate) fn cpu() -> Cpu {
    static CPU: OnceLock<Cpu> = OnceLock::new();
    *CPU.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let sse = std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1");
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let avx512f = std::arch::is_x86_feature_detected!("avx512f");
            Cpu {
                aes: std::arch::is_x86_feature_detected!("aes")
                    && std::arch::is_x86_feature_detected!("pclmulqdq")
                    && sse,
                vaes: std::arch::is_x86_feature_detected!("vaes") && avx512f,
                sha: std::arch::is_x86_feature_detected!("sha") && sse,
                ct: match (avx2, avx512f) {
                    (true, true) => CtWidth::Avx512,
                    (true, false) => CtWidth::Avx2,
                    (false, _) => CtWidth::U64,
                },
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Cpu { aes: false, vaes: false, sha: false, ct: CtWidth::U64 }
    })
}

/// The plane widths the `ct` backend's counter mode and GHASH are compiled
/// for, narrowest first: one generic body each over [`ct::Plane`], three
/// monomorphizations. A width implies the ones below it. The choice is
/// public (it depends on the CPU alone) and moves no output byte; it
/// lives here because `ct.rs` and `ct_x86.rs` contain no branches at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum CtWidth {
    /// One `u64` per plane: every target.
    U64,
    /// `__m256i` planes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `__m512i` planes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// One entry per `ct` plane width: the only way into the `ct` backend's
/// `#[target_feature]` bodies. The fields are private to this module, so
/// [`PerWidth::get`] and the tests' [`PerWidth::runnable`] are the only
/// ways to read an entry, and both hand out only widths this CPU runs.
pub(crate) struct PerWidth<F> {
    u64: F,
    #[cfg(target_arch = "x86_64")]
    avx2: F,
    #[cfg(target_arch = "x86_64")]
    avx512: F,
}

impl<F: Copy> PerWidth<F> {
    /// The entry of the widest width this CPU runs.
    pub(crate) fn get(&self) -> F {
        match cpu().ct {
            CtWidth::U64 => self.u64,
            #[cfg(target_arch = "x86_64")]
            CtWidth::Avx2 => self.avx2,
            #[cfg(target_arch = "x86_64")]
            CtWidth::Avx512 => self.avx512,
        }
    }

    /// Every entry this CPU runs, named, narrowest first — what a test
    /// calls directly, since [`PerWidth::get`] reaches only the widest.
    #[cfg(test)]
    pub(crate) fn runnable(&self) -> Vec<(&'static str, F)> {
        let widths = [
            (CtWidth::U64, "u64", self.u64),
            #[cfg(target_arch = "x86_64")]
            (CtWidth::Avx2, "avx2", self.avx2),
            #[cfg(target_arch = "x86_64")]
            (CtWidth::Avx512, "avx512", self.avx512),
        ];
        let runs = |&(width, ..): &(CtWidth, &str, F)| width <= cpu().ct;
        widths.into_iter().filter(runs).map(|(_, name, entry)| (name, entry)).collect()
    }
}

/// One `ct` plane width's bodies: counter mode and GHASH.
#[derive(Clone, Copy)]
pub(crate) struct Planes {
    /// `u64` lanes per plane: the blocks one GHASH group holds, one per
    /// lane, and a quarter of the AES blocks of one counter-mode pass.
    pub(crate) lanes: usize,
    ctr_xor: unsafe fn(&ct::CtAes, &[u8; 16], &mut [u8]),
    ghash: unsafe fn(&ct::CtGhash, u128, &[u8]) -> u128,
}

/// The `ct` backend's bodies, one entry per plane width.
pub(crate) const PLANES: PerWidth<Planes> = PerWidth {
    u64: Planes {
        lanes: 1,
        ctr_xor: ct::CtAes::ctr_xor_on::<u64>,
        ghash: ct::CtGhash::absorb_on::<u64>,
    },
    #[cfg(target_arch = "x86_64")]
    avx2: Planes { lanes: 4, ctr_xor: ct_x86::ctr_xor_avx2, ghash: ct_x86::ghash_avx2 },
    #[cfg(target_arch = "x86_64")]
    avx512: Planes { lanes: 8, ctr_xor: ct_x86::ctr_xor_avx512, ghash: ct_x86::ghash_avx512 },
};

impl Planes {
    /// `aes`'s counter mode on these planes.
    #[allow(unsafe_code)]
    pub(crate) fn ctr_xor(self, aes: &ct::CtAes, j0: &[u8; 16], data: &mut [u8]) {
        // SAFETY: a `Planes` is an entry of `PLANES`, read through `get`
        // or `runnable`, which hand out only the widths this CPU runs; the
        // only requirement of a `#[target_feature]` body is that feature.
        unsafe { (self.ctr_xor)(aes, j0, data) }
    }

    /// Folds `groups` (whole groups of [`Planes::lanes`] blocks) into the
    /// GHASH state `y` on these planes.
    #[allow(unsafe_code)]
    pub(crate) fn ghash(self, gh: &ct::CtGhash, y: u128, groups: &[u8]) -> u128 {
        // SAFETY: as in `ctr_xor`.
        unsafe { (self.ghash)(gh, y, groups) }
    }
}

/// The `ct` plane widths this CPU runs, named, narrowest first; the first
/// call prints them.
#[cfg(test)]
pub(crate) fn runnable_planes() -> Vec<(&'static str, Planes)> {
    static REPORT: std::sync::Once = std::sync::Once::new();
    let planes = PLANES.runnable();
    let names: Vec<&str> = planes.iter().map(|p| p.0).collect();
    REPORT.call_once(|| println!("ct AES CTR and GHASH widths exercised on this CPU: {names:?}"));
    planes
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
