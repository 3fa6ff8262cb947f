//! Simulated remote attestation (Section 2.2 of the paper).
//!
//! Real flow: the enclave produces a report containing its measurement
//! (MRENCLAVE) and user data; the quoting enclave signs it with an EPID
//! group key; the client forwards the quote to the Intel Attestation
//! Service which verifies the signature. Here a single
//! [`AttestationService`] plays both the quoting enclave and IAS: it signs
//! reports with a platform key whose public half clients pin.

use olive_crypto::dh::{self, DhKeyPair, Signature};
use olive_crypto::sha256::Sha256;

/// SHA-256 measurement of the enclave's initial state (code + config),
/// the simulation's MRENCLAVE.
pub type Measurement = [u8; 32];

/// The body an enclave asks the platform to attest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// Hash of the enclave's code identity.
    pub measurement: Measurement,
    /// The enclave's ephemeral DH public value, bound into the quote so the
    /// subsequent key exchange is authenticated.
    pub enclave_dh_public: u64,
    /// Free-form data (e.g. protocol version, round bounds).
    pub user_data: Vec<u8>,
}

impl Report {
    /// Canonical byte serialization signed by the platform.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 8 + 4 + self.user_data.len());
        out.extend_from_slice(&self.measurement);
        out.extend_from_slice(&self.enclave_dh_public.to_be_bytes());
        out.extend_from_slice(&(self.user_data.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.user_data);
        out
    }

    /// Transcript hash used as the HKDF salt for session keys, binding the
    /// derived keys to this exact attestation.
    pub fn transcript_hash(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"olive-ra-transcript-v1");
        h.update(&self.to_bytes());
        h.finalize()
    }
}

/// A platform-signed report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quote {
    /// The attested report.
    pub report: Report,
    /// Platform signature over the canonical report bytes.
    pub signature: Signature,
}

/// Attestation failure modes a client distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttestationError {
    /// The platform signature did not verify: the quote is forged or
    /// corrupted.
    BadSignature,
    /// The signature verified but the measurement is not the enclave the
    /// client expected — per Algorithm 1, the client must refuse to join
    /// the FL task.
    WrongMeasurement,
}

impl core::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttestationError::BadSignature => write!(f, "quote signature invalid"),
            AttestationError::WrongMeasurement => write!(f, "enclave measurement mismatch"),
        }
    }
}

impl std::error::Error for AttestationError {}

/// The simulated EPID/IAS: holds the platform signing key.
pub struct AttestationService {
    platform_key: DhKeyPair,
}

impl AttestationService {
    /// Creates a service with a key pair derived from `seed`.
    pub fn new(seed: [u8; 32]) -> Self {
        let mut tagged = seed;
        tagged[0] ^= 0xA5; // domain-separate from any enclave key seeds
        AttestationService { platform_key: DhKeyPair::from_seed(&tagged) }
    }

    /// The public verification key clients pin.
    pub fn public_key(&self) -> u64 {
        self.platform_key.public
    }

    /// Signs an enclave report, producing a quote (the EPID+IAS round trip
    /// collapsed into one call).
    pub fn quote(&self, report: Report) -> Quote {
        let signature = dh::sign(&self.platform_key, &report.to_bytes());
        Quote { report, signature }
    }
}

/// Client-side quote verification: checks the platform signature and the
/// expected measurement.
pub fn verify_quote(
    platform_public: u64,
    expected_measurement: &Measurement,
    quote: &Quote,
) -> Result<(), AttestationError> {
    if !dh::verify(platform_public, &quote.report.to_bytes(), &quote.signature) {
        return Err(AttestationError::BadSignature);
    }
    if &quote.report.measurement != expected_measurement {
        return Err(AttestationError::WrongMeasurement);
    }
    Ok(())
}

/// Computes the measurement of an enclave code identity string + config
/// bytes (what the `Enclave` constructor hashes).
pub fn measure(code_identity: &str, config_bytes: &[u8]) -> Measurement {
    let mut h = Sha256::new();
    h.update(b"olive-enclave-measurement-v1");
    h.update(code_identity.as_bytes());
    h.update(&(config_bytes.len() as u64).to_be_bytes());
    h.update(config_bytes);
    h.finalize()
}

/// Convenience: hash arbitrary bytes (re-exported for enclave sealing).
pub fn digest(data: &[u8]) -> [u8; 32] {
    olive_crypto::sha256(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(dh_public: u64) -> Report {
        Report {
            measurement: measure("olive-aggregator", b"v1"),
            enclave_dh_public: dh_public,
            user_data: b"rounds=10".to_vec(),
        }
    }

    #[test]
    fn quote_verifies() {
        let service = AttestationService::new([1u8; 32]);
        let q = service.quote(sample_report(12345));
        let m = measure("olive-aggregator", b"v1");
        assert!(verify_quote(service.public_key(), &m, &q).is_ok());
    }

    #[test]
    fn forged_quote_rejected() {
        let service = AttestationService::new([1u8; 32]);
        let rogue = AttestationService::new([2u8; 32]);
        let q = rogue.quote(sample_report(12345));
        let m = measure("olive-aggregator", b"v1");
        assert_eq!(
            verify_quote(service.public_key(), &m, &q).unwrap_err(),
            AttestationError::BadSignature
        );
    }

    #[test]
    fn tampered_report_rejected() {
        let service = AttestationService::new([1u8; 32]);
        let mut q = service.quote(sample_report(12345));
        q.report.enclave_dh_public ^= 1; // MITM swaps the DH share
        let m = measure("olive-aggregator", b"v1");
        assert_eq!(
            verify_quote(service.public_key(), &m, &q).unwrap_err(),
            AttestationError::BadSignature
        );
    }

    #[test]
    fn wrong_measurement_rejected() {
        // A *valid* quote for malicious code must still be refused.
        let service = AttestationService::new([1u8; 32]);
        let mut report = sample_report(12345);
        report.measurement = measure("evil-aggregator", b"v1");
        let q = service.quote(report);
        let expected = measure("olive-aggregator", b"v1");
        assert_eq!(
            verify_quote(service.public_key(), &expected, &q).unwrap_err(),
            AttestationError::WrongMeasurement
        );
    }

    #[test]
    fn measurement_sensitive_to_identity_and_config() {
        let a = measure("olive-aggregator", b"v1");
        let b = measure("olive-aggregator", b"v2");
        let c = measure("other", b"v1");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, measure("olive-aggregator", b"v1"));
    }

    #[test]
    fn transcript_hash_binds_dh_share() {
        let r1 = sample_report(1);
        let r2 = sample_report(2);
        assert_ne!(r1.transcript_hash(), r2.transcript_hash());
    }
}
