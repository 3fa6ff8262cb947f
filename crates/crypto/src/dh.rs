//! Simulation-grade Diffie–Hellman and Schnorr-style signatures.
//!
//! **These are NOT secure primitives.** The group is the multiplicative group
//! of Z_p with the 61-bit Mersenne prime p = 2^61 − 1, small enough that a
//! laptop breaks it. They exist to exercise the *protocol shape* of remote
//! attestation (Section 2.2 of the paper): the enclave proves its identity
//! with a platform-signed quote and completes an authenticated key exchange,
//! exactly as the Intel EPID + IAS flow does. Production deployments would
//! use X25519 and Ed25519; README's "Substitutions" records the swap.
//!
//! Exponents are sampled and all group arithmetic is done in `u128`, so no
//! bignum dependency is required.

use crate::sha256::sha256;

/// The group modulus: the Mersenne prime 2^61 − 1.
pub const P: u64 = (1u64 << 61) - 1;
/// Group generator. 2^61−1 is prime so Z_p* is cyclic of order p−1; 3
/// generates a large subgroup which is all we need for the simulation.
pub const G: u64 = 3;
/// The exponent modulus (group order), p − 1.
pub const Q: u64 = P - 1;

#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % P as u128) as u64
}

/// Modular exponentiation `base^exp mod P`.
pub fn pow_mod(base: u64, mut exp: u64) -> u64 {
    let mut base = base % P;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// A Diffie–Hellman key pair in the simulation group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DhKeyPair {
    /// Secret exponent in `[1, Q)`.
    pub secret: u64,
    /// `G^secret mod P`.
    pub public: u64,
}

impl DhKeyPair {
    /// Derives a key pair deterministically from 32 bytes of entropy.
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let h = sha256(seed);
        let mut x = u64::from_be_bytes(h[..8].try_into().unwrap()) % (Q - 1) + 1;
        if x == 0 {
            x = 1;
        }
        DhKeyPair { secret: x, public: pow_mod(G, x) }
    }

    /// Computes the shared group element with a peer's public value.
    pub fn shared_secret(&self, peer_public: u64) -> [u8; 32] {
        let s = pow_mod(peer_public, self.secret);
        // Hash the group element so the output looks like uniform key
        // material regardless of group structure.
        sha256(&s.to_be_bytes())
    }
}

/// A Schnorr-style signature in the simulation group.
///
/// `sign`: pick nonce k, r = G^k, e = H(r ∥ pk ∥ m) mod Q, s = k + e·x mod Q.
/// `verify`: G^s == r · pk^e.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Commitment `r = G^k`.
    pub r: u64,
    /// Response `s = k + e·x mod Q`.
    pub s: u64,
}

fn challenge(r: u64, public: u64, msg: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(16 + msg.len());
    buf.extend_from_slice(&r.to_be_bytes());
    buf.extend_from_slice(&public.to_be_bytes());
    buf.extend_from_slice(msg);
    let h = sha256(&buf);
    u64::from_be_bytes(h[..8].try_into().unwrap()) % Q
}

/// Signs `msg` with secret key `keypair.secret`, deriving the nonce
/// deterministically from the key and message (RFC 6979 style, so no RNG is
/// needed and nonce reuse across distinct messages is impossible).
pub fn sign(keypair: &DhKeyPair, msg: &[u8]) -> Signature {
    let mut nonce_input = Vec::with_capacity(8 + msg.len());
    nonce_input.extend_from_slice(&keypair.secret.to_be_bytes());
    nonce_input.extend_from_slice(msg);
    let nh = sha256(&nonce_input);
    let k = u64::from_be_bytes(nh[..8].try_into().unwrap()) % (Q - 1) + 1;
    let r = pow_mod(G, k);
    let e = challenge(r, keypair.public, msg);
    // s = k + e*x mod Q, with 128-bit intermediates.
    let s = ((k as u128 + (e as u128 * keypair.secret as u128) % Q as u128) % Q as u128) as u64;
    Signature { r, s }
}

/// Verifies a signature against a public key.
pub fn verify(public: u64, msg: &[u8], sig: &Signature) -> bool {
    if sig.r == 0 || sig.r >= P || public == 0 || public >= P {
        return false;
    }
    let e = challenge(sig.r, public, msg);
    let lhs = pow_mod(G, sig.s);
    let rhs = mul_mod(sig.r, pow_mod(public, e));
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_is_mersenne_61() {
        assert_eq!(P, 2305843009213693951);
    }

    #[test]
    fn dh_agreement() {
        let a = DhKeyPair::from_seed(&[1u8; 32]);
        let b = DhKeyPair::from_seed(&[2u8; 32]);
        assert_ne!(a.public, b.public);
        assert_eq!(a.shared_secret(b.public), b.shared_secret(a.public));
    }

    #[test]
    fn dh_distinct_peers_distinct_secrets() {
        let a = DhKeyPair::from_seed(&[1u8; 32]);
        let b = DhKeyPair::from_seed(&[2u8; 32]);
        let c = DhKeyPair::from_seed(&[3u8; 32]);
        assert_ne!(a.shared_secret(b.public), a.shared_secret(c.public));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = DhKeyPair::from_seed(&[7u8; 32]);
        let sig = sign(&kp, b"enclave measurement report");
        assert!(verify(kp.public, b"enclave measurement report", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = DhKeyPair::from_seed(&[7u8; 32]);
        let sig = sign(&kp, b"report A");
        assert!(!verify(kp.public, b"report B", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp = DhKeyPair::from_seed(&[7u8; 32]);
        let other = DhKeyPair::from_seed(&[8u8; 32]);
        let sig = sign(&kp, b"report");
        assert!(!verify(other.public, b"report", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = DhKeyPair::from_seed(&[7u8; 32]);
        let mut sig = sign(&kp, b"report");
        sig.s ^= 1;
        assert!(!verify(kp.public, b"report", &sig));
    }

    #[test]
    fn pow_mod_fermat() {
        // Fermat's little theorem: a^(p-1) = 1 mod p for prime p.
        for a in [2u64, 3, 5, 12345678901] {
            assert_eq!(pow_mod(a, P - 1), 1, "a = {a}");
        }
    }

    #[test]
    fn signatures_deterministic() {
        let kp = DhKeyPair::from_seed(&[9u8; 32]);
        assert_eq!(sign(&kp, b"m"), sign(&kp, b"m"));
        assert_ne!(sign(&kp, b"m"), sign(&kp, b"n"));
    }
}
