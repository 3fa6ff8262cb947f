//! FIPS 197 AES block cipher (128/192/256-bit keys) with lookup tables —
//! the reference cipher the `hw` and `ct` backends are tested against.
//!
//! `SubBytes` indexes the S-box with secret bytes, a cache-timing side
//! channel of exactly the kind the paper's adversary observes (Section
//! 2.3), so this module is compiled into test builds only: no release
//! build contains it, and nothing can select it at run time. The GCM
//! mode over it is [`crate::gcm::table`].
//!
//! The S-box and inverse S-box are derived at compile time from the GF(2^8)
//! field definition rather than transcribed, which removes a whole class of
//! copy-paste errors; the FIPS 197 appendix vectors in the tests pin the
//! result. The key schedule is written out here again rather than shared
//! with the backends' [`crate::engine::expand_key`], so the differential
//! suites check that schedule too.

use crate::engine::MAX_ROUND_KEYS;
use crate::CryptoError;

const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// Multiplication in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.
const fn gmul(a: u8, b: u8) -> u8 {
    let mut res = 0u8;
    let mut a = a;
    let mut b = b;
    let mut i = 0;
    while i < 8 {
        if b & 1 == 1 {
            res ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    res
}

/// Multiplicative inverse in GF(2^8): a^254 (0 maps to 0).
const fn ginv(a: u8) -> u8 {
    // a^254 via square-and-multiply; exponent 254 = 0b11111110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gmul(result, base);
        }
        base = gmul(base, base);
        exp >>= 1;
    }
    result
}

const fn sbox_entry(a: u8) -> u8 {
    let x = ginv(a);
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = sbox_entry(i as u8);
        i += 1;
    }
    t
}

const fn build_inv_sbox(sbox: &[u8; 256]) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        t[sbox[i] as usize] = i as u8;
        i += 1;
    }
    t
}

/// The AES substitution box, generated at compile time.
pub(crate) const SBOX: [u8; 256] = build_sbox();
/// The inverse substitution box.
const INV_SBOX: [u8; 256] = build_inv_sbox(&SBOX);

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// FIPS 197 key expansion with `SubWord` by S-box lookup. Returns the
/// round keys and the round count for a 16/24/32-byte `key`.
fn expand_key(key: &[u8]) -> Result<([[u8; 16]; MAX_ROUND_KEYS], usize), CryptoError> {
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
            temp = sub_word_table(temp);
            temp[0] ^= RCON[i / nk];
        } else if nk > 6 && i % nk == 4 {
            temp = sub_word_table(temp);
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

/// `SubWord` via the lookup table.
fn sub_word_table(w: [u8; 4]) -> [u8; 4] {
    w.map(|b| SBOX[b as usize])
}

/// An expanded AES key. Supports 128-, 192- and 256-bit keys.
///
/// The `Debug` impl intentionally omits key material.
pub(crate) struct Aes {
    round_keys: [[u8; 16]; MAX_ROUND_KEYS],
    rounds: usize,
}

impl core::fmt::Debug for Aes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Aes").field("rounds", &self.rounds).finish_non_exhaustive()
    }
}

impl Aes {
    /// Expands `key` (16, 24 or 32 bytes). Returns
    /// [`CryptoError::BadLength`] for any other length.
    pub(crate) fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let (round_keys, rounds) = expand_key(key)?;
        Ok(Aes { round_keys, rounds })
    }

    /// Encrypts a single 16-byte block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Decrypts a single 16-byte block in place.
    pub(crate) fn decrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[self.rounds]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for r in (1..self.rounds).rev() {
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_keys[0]);
    }

    /// Returns the ciphertext of `block` without mutating the input.
    pub(crate) fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let mut b = block;
        self.encrypt_block(&mut b);
        b
    }
}

// The state is column-major: state[row][col] = block[4*col + row].

fn add_round_key(block: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        block[i] ^= rk[i];
    }
}

fn sub_bytes(block: &mut [u8; 16]) {
    for b in block.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(block: &mut [u8; 16]) {
    for b in block.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

pub(crate) fn shift_rows(block: &mut [u8; 16]) {
    let orig = *block;
    for row in 1..4 {
        for col in 0..4 {
            block[4 * col + row] = orig[4 * ((col + row) % 4) + row];
        }
    }
}

fn inv_shift_rows(block: &mut [u8; 16]) {
    let orig = *block;
    for row in 1..4 {
        for col in 0..4 {
            block[4 * ((col + row) % 4) + row] = orig[4 * col + row];
        }
    }
}

pub(crate) fn mix_columns(block: &mut [u8; 16]) {
    for col in 0..4 {
        let c = [block[4 * col], block[4 * col + 1], block[4 * col + 2], block[4 * col + 3]];
        block[4 * col] = gmul(c[0], 2) ^ gmul(c[1], 3) ^ c[2] ^ c[3];
        block[4 * col + 1] = c[0] ^ gmul(c[1], 2) ^ gmul(c[2], 3) ^ c[3];
        block[4 * col + 2] = c[0] ^ c[1] ^ gmul(c[2], 2) ^ gmul(c[3], 3);
        block[4 * col + 3] = gmul(c[0], 3) ^ c[1] ^ c[2] ^ gmul(c[3], 2);
    }
}

fn inv_mix_columns(block: &mut [u8; 16]) {
    for col in 0..4 {
        let c = [block[4 * col], block[4 * col + 1], block[4 * col + 2], block[4 * col + 3]];
        block[4 * col] = gmul(c[0], 14) ^ gmul(c[1], 11) ^ gmul(c[2], 13) ^ gmul(c[3], 9);
        block[4 * col + 1] = gmul(c[0], 9) ^ gmul(c[1], 14) ^ gmul(c[2], 11) ^ gmul(c[3], 13);
        block[4 * col + 2] = gmul(c[0], 13) ^ gmul(c[1], 9) ^ gmul(c[2], 14) ^ gmul(c[3], 11);
        block[4 * col + 3] = gmul(c[0], 11) ^ gmul(c[1], 13) ^ gmul(c[2], 9) ^ gmul(c[3], 14);
    }
}

mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn sbox_known_entries() {
        // FIPS 197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
        assert_eq!(INV_SBOX[0xed], 0x53);
    }

    #[test]
    fn sbox_is_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    // FIPS 197 Appendix C example vectors.
    #[test]
    fn fips197_aes128() {
        let aes = Aes::new(&from_hex("000102030405060708090a0b0c0d0e0f")).unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_aes192() {
        let aes = Aes::new(&from_hex("000102030405060708090a0b0c0d0e0f1011121314151617")).unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_aes256() {
        let aes =
            Aes::new(&from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"))
                .unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn aes128_nist_kat() {
        // NIST SP 800-38A F.1.1 ECB-AES128 first block.
        let aes = Aes::new(&from_hex("2b7e151628aed2a6abf7158809cf4f3c")).unwrap();
        let mut block: [u8; 16] = from_hex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn bad_key_length() {
        assert_eq!(Aes::new(&[0u8; 15]).unwrap_err(), CryptoError::BadLength);
        assert_eq!(Aes::new(&[0u8; 33]).unwrap_err(), CryptoError::BadLength);
    }

    #[test]
    fn roundtrip_random_blocks() {
        let aes = Aes::new(&[7u8; 32]).unwrap();
        let mut state = 0x12345678u64;
        for _ in 0..100 {
            let mut block = [0u8; 16];
            for b in &mut block {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 32) as u8;
            }
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }
}
