//! Mutually attested enclave-to-enclave tunnels for sharded aggregation.
//!
//! The sharded round topology splits the aggregation plane across `S`
//! shard enclaves, each owning one contiguous stripe of the `G` region
//! under its own EPC budget. The coordinator enclave (the one clients
//! attest) forwards each chunk's public descriptor to the shards and
//! collects each shard's stripe of the round output — so the
//! coordinator↔shard link must be as trustworthy as the client↔enclave
//! link: each endpoint verifies the *other's* platform quote before any
//! key material is derived (the TNG ingress/egress shape: two peer
//! gateways, a secure channel established by remote attestation in both
//! directions, then a duplex encrypted stream).
//!
//! Key schedule (mirrors [`crate::ClientSession::establish`], extended to
//! mutual attestation):
//!
//! ```text
//! salt = SHA-256("olive-shard-tunnel-salt-v1" ∥ T_coord ∥ T_shard)
//! ikm  = DH(coordinator enclave key, shard enclave key)
//! key  = HKDF(salt, ikm, "olive-shard-tunnel-v1:" ∥ shard_id, 32)
//! ```
//!
//! where `T_coord`/`T_shard` are the two attestation transcript hashes —
//! so the key is bound to both quotes, and a MITM that swapped either
//! side's DH share would have failed quote verification first. One key
//! serves both directions safely because every nonce is prefixed with a
//! direction tag (coordinator→shard vs shard→coordinator), and each
//! direction keeps its own monotone sequence counter with a receiver-side
//! replay floor.

use olive_crypto::gcm::{AesGcm, NONCE_LEN};
use olive_crypto::{hkdf, sha256};
use olive_telemetry::Telemetry;

use crate::attestation::{verify_quote, AttestationError, Measurement, Quote};
use crate::enclave::Enclave;

/// A shard identifier (index of the `G`-region stripe the shard owns).
pub type ShardId = u32;

/// Errors surfaced by tunnel establishment and transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunnelError {
    /// The peer's quote failed verification (forged signature or a
    /// measurement other than the pinned one) — the tunnel must not come
    /// up at all.
    Attestation(AttestationError),
    /// The local enclave has not attested yet: there is no transcript to
    /// bind the tunnel key to.
    NotAttested,
    /// A message failed AEAD verification (tampered, or sealed for a
    /// different shard/kind/sequence/direction).
    AuthFailure,
    /// A message's sequence number is at or below the replay floor.
    Replay,
}

impl core::fmt::Display for TunnelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TunnelError::Attestation(e) => write!(f, "peer attestation failed: {e}"),
            TunnelError::NotAttested => write!(f, "local enclave has not attested"),
            TunnelError::AuthFailure => write!(f, "tunnel message failed authentication"),
            TunnelError::Replay => write!(f, "tunnel message replayed or out of order"),
        }
    }
}

impl std::error::Error for TunnelError {}

/// Which end of the tunnel this endpoint is. The role fixes the nonce
/// direction tags: a coordinator seals with tag 1 and opens tag 2; a
/// shard seals with tag 2 and opens tag 1. Reflecting a message back at
/// its sender therefore fails authentication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunnelRole {
    /// The round driver's enclave (TNG ingress: traffic enters here).
    Coordinator,
    /// A shard enclave (TNG egress: traffic exits to the stripe owner).
    Shard,
}

impl TunnelRole {
    fn send_tag(self) -> u8 {
        match self {
            TunnelRole::Coordinator => 1,
            TunnelRole::Shard => 2,
        }
    }

    fn recv_tag(self) -> u8 {
        match self {
            TunnelRole::Coordinator => 2,
            TunnelRole::Shard => 1,
        }
    }
}

/// An encrypted tunnel frame. Header fields are authenticated (AAD), not
/// secret — the untrusted host routes on them.
#[derive(Clone, Debug)]
pub struct TunnelMessage {
    /// Stripe the frame belongs to (part of the key *and* the AAD).
    pub shard_id: ShardId,
    /// Application message kind (cells, stripe, receipt, …).
    pub kind: u8,
    /// Monotone per-direction sequence number.
    pub seq: u64,
    /// AES-GCM ciphertext ∥ tag.
    pub ciphertext: Vec<u8>,
}

fn tunnel_info(shard_id: ShardId) -> Vec<u8> {
    let mut v = b"olive-shard-tunnel-v1:".to_vec();
    v.extend_from_slice(&shard_id.to_be_bytes());
    v
}

fn tunnel_nonce(direction: u8, seq: u64) -> [u8; NONCE_LEN] {
    let mut n = [0u8; NONCE_LEN];
    n[0] = direction;
    n[4..].copy_from_slice(&seq.to_be_bytes());
    n
}

fn tunnel_aad(shard_id: ShardId, kind: u8, seq: u64) -> Vec<u8> {
    let mut aad = Vec::with_capacity(19 + 4 + 1 + 8);
    aad.extend_from_slice(b"olive-shard-msg-v1:");
    aad.extend_from_slice(&shard_id.to_be_bytes());
    aad.push(kind);
    aad.extend_from_slice(&seq.to_be_bytes());
    aad
}

/// One endpoint of a mutually attested coordinator↔shard channel.
///
/// Both endpoints are built by [`ShardTunnel::establish`] from their own
/// (attested) enclave plus the peer's quote; the derived keys agree iff
/// both quotes are genuine and carry the DH shares the enclaves actually
/// hold.
pub struct ShardTunnel {
    shard_id: ShardId,
    role: TunnelRole,
    key: [u8; 32],
    /// Last sequence number sealed in this endpoint's send direction.
    send_seq: u64,
    /// Replay floor for the receive direction: opened frames must carry a
    /// strictly larger sequence number.
    recv_floor: u64,
    /// Side-band metrics handle (disarmed by default): sealed frames feed
    /// the `tunnel_frames` counter keyed by stripe and direction.
    telemetry: Telemetry,
}

impl core::fmt::Debug for ShardTunnel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Key material is intentionally redacted.
        f.debug_struct("ShardTunnel")
            .field("shard_id", &self.shard_id)
            .field("role", &self.role)
            .field("send_seq", &self.send_seq)
            .field("recv_floor", &self.recv_floor)
            .finish_non_exhaustive()
    }
}

impl ShardTunnel {
    /// Brings up this endpoint: verifies the peer's quote against the
    /// pinned platform key and expected peer measurement (refusing the
    /// tunnel outright on any mismatch), then derives the tunnel key from
    /// both attestation transcripts and the enclave-to-enclave DH secret.
    ///
    /// `own` must already have attested ([`Enclave::attest`]) — its
    /// transcript is half of the HKDF salt.
    pub fn establish(
        role: TunnelRole,
        own: &Enclave,
        platform_public: u64,
        expected_peer_measurement: &Measurement,
        peer_quote: &Quote,
        shard_id: ShardId,
    ) -> Result<Self, TunnelError> {
        // The peer's quote first: a forged peer must never learn whether
        // we are attested.
        verify_quote(platform_public, expected_peer_measurement, peer_quote)
            .map_err(TunnelError::Attestation)?;
        let own_transcript = own.attested_transcript().ok_or(TunnelError::NotAttested)?;
        let peer_transcript = peer_quote.report.transcript_hash();
        // Canonical transcript order: coordinator first, shard second —
        // both endpoints compute the same salt.
        let (coord_t, shard_t) = match role {
            TunnelRole::Coordinator => (own_transcript, peer_transcript),
            TunnelRole::Shard => (peer_transcript, own_transcript),
        };
        let mut salt_input = b"olive-shard-tunnel-salt-v1".to_vec();
        salt_input.extend_from_slice(&coord_t);
        salt_input.extend_from_slice(&shard_t);
        let salt = sha256(&salt_input);
        let ikm = own.dh_keypair().shared_secret(peer_quote.report.enclave_dh_public);
        let key: [u8; 32] = hkdf::derive(&salt, &ikm, &tunnel_info(shard_id), 32)
            .try_into()
            .expect("hkdf returns requested length");
        Ok(ShardTunnel {
            shard_id,
            role,
            key,
            send_seq: 0,
            recv_floor: 0,
            telemetry: Telemetry::off(),
        })
    }

    /// The stripe this tunnel serves.
    pub fn shard_id(&self) -> ShardId {
        self.shard_id
    }

    /// Arms side-band telemetry on this endpoint. Tunnels come up with a
    /// disarmed handle; the shard runtime threads its own after
    /// `establish`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Seals one frame in this endpoint's send direction.
    pub fn seal(&mut self, kind: u8, payload: &[u8]) -> TunnelMessage {
        if self.telemetry.is_armed() {
            let dir = match self.role {
                TunnelRole::Coordinator => "c2s",
                TunnelRole::Shard => "s2c",
            };
            self.telemetry.count("tunnel_frames", &format!("s{}:{dir}", self.shard_id), 1);
        }
        self.send_seq += 1;
        let seq = self.send_seq;
        let nonce = tunnel_nonce(self.role.send_tag(), seq);
        let aad = tunnel_aad(self.shard_id, kind, seq);
        let gcm = AesGcm::new(&self.key).expect("32-byte key");
        TunnelMessage {
            shard_id: self.shard_id,
            kind,
            seq,
            ciphertext: gcm.seal(&nonce, payload, &aad),
        }
    }

    /// Opens one frame from the peer: checks the replay floor, then the
    /// AEAD tag under the peer's direction tag and the frame's AAD. On
    /// success the floor advances past the frame's sequence number.
    pub fn open(&mut self, msg: &TunnelMessage) -> Result<Vec<u8>, TunnelError> {
        if msg.shard_id != self.shard_id {
            return Err(TunnelError::AuthFailure);
        }
        if msg.seq <= self.recv_floor {
            return Err(TunnelError::Replay);
        }
        let nonce = tunnel_nonce(self.role.recv_tag(), msg.seq);
        let aad = tunnel_aad(msg.shard_id, msg.kind, msg.seq);
        let gcm = AesGcm::new(&self.key).expect("32-byte key");
        let plain =
            gcm.open(&nonce, &msg.ciphertext, &aad).map_err(|_| TunnelError::AuthFailure)?;
        self.recv_floor = msg.seq;
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::AttestationService;
    use crate::enclave::EnclaveConfig;

    fn shard_cfg() -> EnclaveConfig {
        EnclaveConfig { code_identity: "olive-shard-aggregator-v1".into(), ..Default::default() }
    }

    /// Service + attested coordinator and shard enclaves + both quotes.
    fn setup() -> (AttestationService, Enclave, Quote, Enclave, Quote) {
        let service = AttestationService::new([9u8; 32]);
        let mut coord = Enclave::launch(&EnclaveConfig::default(), [7u8; 32]);
        let coord_quote = coord.attest(&service, b"tunnel-test");
        let mut shard = Enclave::launch(&shard_cfg(), [8u8; 32]);
        let shard_quote = shard.attest(&service, b"tunnel-test");
        (service, coord, coord_quote, shard, shard_quote)
    }

    fn pair(id: ShardId) -> (ShardTunnel, ShardTunnel) {
        let (service, coord, coord_quote, shard, shard_quote) = setup();
        let c = ShardTunnel::establish(
            TunnelRole::Coordinator,
            &coord,
            service.public_key(),
            &shard.measurement(),
            &shard_quote,
            id,
        )
        .expect("genuine shard quote");
        let s = ShardTunnel::establish(
            TunnelRole::Shard,
            &shard,
            service.public_key(),
            &coord.measurement(),
            &coord_quote,
            id,
        )
        .expect("genuine coordinator quote");
        (c, s)
    }

    #[test]
    fn duplex_roundtrip() {
        let (mut c, mut s) = pair(3);
        let down = c.seal(1, b"cells for stripe 3");
        assert_eq!(s.open(&down).unwrap(), b"cells for stripe 3");
        let up = s.seal(2, b"receipt");
        assert_eq!(c.open(&up).unwrap(), b"receipt");
    }

    #[test]
    fn wrong_peer_measurement_refused() {
        let (service, coord, _cq, _shard, _sq) = setup();
        // An imposter shard with valid platform attestation but different
        // code: its quote verifies, its measurement does not.
        let mut evil = Enclave::launch(
            &EnclaveConfig {
                code_identity: "olive-shard-with-backdoor".into(),
                ..Default::default()
            },
            [13u8; 32],
        );
        let evil_quote = evil.attest(&service, b"tunnel-test");
        let genuine_measurement = Enclave::launch(&shard_cfg(), [1u8; 32]).measurement();
        let err = ShardTunnel::establish(
            TunnelRole::Coordinator,
            &coord,
            service.public_key(),
            &genuine_measurement,
            &evil_quote,
            0,
        )
        .unwrap_err();
        assert_eq!(err, TunnelError::Attestation(AttestationError::WrongMeasurement));
    }

    #[test]
    fn forged_quote_refused() {
        let (service, coord, _cq, shard, mut shard_quote) = setup();
        shard_quote.report.enclave_dh_public ^= 1; // MITM swaps the DH share
        let err = ShardTunnel::establish(
            TunnelRole::Coordinator,
            &coord,
            service.public_key(),
            &shard.measurement(),
            &shard_quote,
            0,
        )
        .unwrap_err();
        assert_eq!(err, TunnelError::Attestation(AttestationError::BadSignature));
    }

    #[test]
    fn unattested_local_enclave_refused() {
        let (service, _coord, _cq, shard, shard_quote) = setup();
        let cold = Enclave::launch(&EnclaveConfig::default(), [2u8; 32]);
        let err = ShardTunnel::establish(
            TunnelRole::Coordinator,
            &cold,
            service.public_key(),
            &shard.measurement(),
            &shard_quote,
            0,
        )
        .unwrap_err();
        assert_eq!(err, TunnelError::NotAttested);
    }

    #[test]
    fn replay_rejected() {
        let (mut c, mut s) = pair(0);
        let m = c.seal(1, b"x");
        assert!(s.open(&m).is_ok());
        assert_eq!(s.open(&m).unwrap_err(), TunnelError::Replay);
    }

    #[test]
    fn tampered_frame_rejected() {
        let (mut c, mut s) = pair(0);
        let mut m = c.seal(1, b"x");
        m.ciphertext[0] ^= 1;
        assert_eq!(s.open(&m).unwrap_err(), TunnelError::AuthFailure);
        // Relabeling the kind breaks the AAD too.
        let mut m2 = c.seal(1, b"y");
        m2.kind = 2;
        assert_eq!(s.open(&m2).unwrap_err(), TunnelError::AuthFailure);
    }

    #[test]
    fn reflected_frame_rejected() {
        // A frame bounced back at its sender must not decrypt: the nonce
        // direction tag separates the two halves of the duplex channel
        // even though they share one key.
        let (mut c, _s) = pair(0);
        let m = c.seal(1, b"downlink");
        assert_eq!(c.open(&m).unwrap_err(), TunnelError::AuthFailure);
    }

    #[test]
    fn cross_shard_key_separation() {
        // Stripe ids enter the HKDF info: a frame sealed on the stripe-0
        // tunnel must not open on stripe 1, even between the same two
        // enclaves (and independently of the AAD check, which is why the
        // message's own shard_id is rewritten here).
        let (service, coord, coord_quote, shard, shard_quote) = setup();
        let mk = |id: ShardId, role: TunnelRole| match role {
            TunnelRole::Coordinator => ShardTunnel::establish(
                role,
                &coord,
                service.public_key(),
                &shard.measurement(),
                &shard_quote,
                id,
            )
            .unwrap(),
            TunnelRole::Shard => ShardTunnel::establish(
                role,
                &shard,
                service.public_key(),
                &coord.measurement(),
                &coord_quote,
                id,
            )
            .unwrap(),
        };
        let mut c0 = mk(0, TunnelRole::Coordinator);
        let mut s1 = mk(1, TunnelRole::Shard);
        let mut m = c0.seal(1, b"stripe 0 cells");
        m.shard_id = 1;
        assert_eq!(s1.open(&m).unwrap_err(), TunnelError::AuthFailure);
    }

    #[test]
    fn sequence_numbers_advance_per_direction() {
        let (mut c, mut s) = pair(2);
        let a = c.seal(1, b"a");
        let b = c.seal(1, b"b");
        assert_eq!((a.seq, b.seq), (1, 2));
        // Out-of-order delivery of the *newest* frame advances the floor
        // past the older one: strict monotonicity, like upload nonces.
        assert!(s.open(&b).is_ok());
        assert_eq!(s.open(&a).unwrap_err(), TunnelError::Replay);
        // The uplink direction counts independently.
        let up = s.seal(2, b"r");
        assert_eq!(up.seq, 1);
        assert!(c.open(&up).is_ok());
    }
}
