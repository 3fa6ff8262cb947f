//! FIPS 180-4 SHA-256.
//!
//! Used for enclave measurements (Section 2.2 of the paper: the remote
//! attestation report carries a hash of the initial enclave state), for
//! HMAC/HKDF, and for Fiat–Shamir challenges in the simulated EPID signature.
//!
//! The padding/buffering frame lives here once; the compression function
//! dispatches per the backend selected by [`crate::engine::crypto_backend`]
//! — SHA-NI when the `hw` backend is active and the CPU supports it, the
//! software compressor otherwise (which is already constant-time: pure
//! arithmetic, constants indexed by public loop counters only). Both
//! produce identical digests.

use crate::engine::{crypto_backend, CryptoBackend};

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which compression function a hasher runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShaImpl {
    Soft,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl ShaImpl {
    fn for_backend(backend: CryptoBackend) -> ShaImpl {
        match backend {
            #[cfg(target_arch = "x86_64")]
            CryptoBackend::Hw if crate::engine::cpu().sha => ShaImpl::ShaNi,
            _ => ShaImpl::Soft,
        }
    }
}

/// Incremental SHA-256 hasher on the process-default crypto backend
/// (override with [`Sha256::with_backend`]; every backend produces
/// identical digests).
///
/// ```
/// use olive_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    imp: ShaImpl,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the process-default backend.
    pub fn new() -> Self {
        Self::with_backend(crypto_backend())
    }

    /// Creates a fresh hasher pinned to `backend` (SHA-NI for `hw` when
    /// the CPU has it, the software compressor otherwise).
    pub fn with_backend(backend: CryptoBackend) -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            imp: ShaImpl::for_backend(backend),
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress_blocks(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything fit in the buffer; don't fall through to the
                // remainder logic, which would reset `buf_len`.
                return;
            }
        }
        let whole = data.len() - data.len() % BLOCK_LEN;
        if whole > 0 {
            self.compress_blocks(&data[..whole]);
        }
        let rem = &data[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Runs the compression function over whole blocks on the selected
    /// implementation (`blocks.len()` is a multiple of [`BLOCK_LEN`]).
    fn compress_blocks(&mut self, blocks: &[u8]) {
        match self.imp {
            ShaImpl::Soft => compress_soft(&mut self.state, blocks),
            #[cfg(target_arch = "x86_64")]
            ShaImpl::ShaNi => crate::engine::hw::sha256_compress_ni(&mut self.state, blocks),
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        self.update_padding();
        let mut last = [0u8; BLOCK_LEN];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_blocks(&last);
        let mut out = [0u8; DIGEST_LEN];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self) {
        // Append 0x80 then zero-fill; if fewer than 8 bytes remain for the
        // length, compress and start a fresh block.
        self.buf[self.buf_len] = 0x80;
        self.buf_len += 1;
        if self.buf_len > BLOCK_LEN - 8 {
            for b in &mut self.buf[self.buf_len..] {
                *b = 0;
            }
            let block = self.buf;
            self.compress_blocks(&block);
            self.buf = [0; BLOCK_LEN];
            self.buf_len = 0;
        } else {
            for b in &mut self.buf[self.buf_len..BLOCK_LEN - 8] {
                *b = 0;
            }
        }
        // `finalize` writes the length into the tail of the final block.
        self.buf_len = self.buf_len.min(BLOCK_LEN - 8);
    }
}

/// The software compression function over whole 64-byte blocks —
/// constant-time by construction (pure arithmetic; `K` is indexed by the
/// public loop counter only): the `ct` backend's, and the differential
/// reference for SHA-NI.
pub(crate) fn compress_soft(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(BLOCK_LEN));
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // NIST FIPS 180-4 example vectors plus RFC 6234 test cases.
    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of length 55, 56, 63, 64 exercise both padding branches.
        for len in [55usize, 56, 57, 63, 64, 119, 120] {
            let data = vec![0xabu8; len];
            let one = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }
}
