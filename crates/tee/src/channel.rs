//! The client side of the RA-established secure channel.
//!
//! Mirrors Algorithm 1: during provisioning each client verifies the
//! enclave quote and derives a session key; each round it encrypts its
//! sparsified gradient encoding under that key with a monotone nonce.

use olive_crypto::dh::DhKeyPair;
use olive_crypto::gcm::{AesGcm, TAG_LEN};
use olive_crypto::{crypto_backend, hkdf};
use olive_telemetry::Telemetry;

use crate::attestation::{verify_quote, AttestationError, Measurement, Quote};
use crate::enclave::{nonce_bytes, session_info};
use crate::UserId;

/// An encrypted client→enclave upload.
#[derive(Clone, Debug)]
pub struct SealedMessage {
    /// Sender.
    pub user: UserId,
    /// FL round this payload belongs to (authenticated, not secret).
    pub round: u64,
    /// Monotone per-user nonce counter.
    pub nonce_counter: u64,
    /// AES-GCM ciphertext ∥ tag.
    pub ciphertext: Vec<u8>,
}

/// Exact byte length of an upload's AAD (domain tag + user + round).
pub const AAD_LEN: usize = 16 + 4 + 8;

impl SealedMessage {
    /// Associated data binding sender identity and round into the AEAD —
    /// a fixed-size value, so opening an upload on any thread allocates
    /// nothing for it.
    pub fn aad(&self) -> [u8; AAD_LEN] {
        let mut aad = [0u8; AAD_LEN];
        aad[..16].copy_from_slice(b"olive-upload-v1:");
        aad[16..20].copy_from_slice(&self.user.to_be_bytes());
        aad[20..].copy_from_slice(&self.round.to_be_bytes());
        aad
    }

    /// Bytes of the plaintext under the ciphertext: its length without the
    /// AES-GCM tag (0 for a ciphertext too short to hold one). Public, like
    /// the ciphertext length it is read from.
    pub fn plaintext_len(&self) -> usize {
        self.ciphertext.len().saturating_sub(TAG_LEN)
    }
}

/// A client's attested session with the enclave.
pub struct ClientSession {
    user: UserId,
    /// The session key, expanded once at establishment (client memory;
    /// the enclave expands its copy per message).
    gcm: AesGcm,
    dh: DhKeyPair,
    nonce_counter: u64,
    /// Side-band metrics handle (disarmed by default): sealed upload
    /// payload bytes feed `upload_sealed_bytes` keyed by backend.
    telemetry: Telemetry,
}

impl core::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Key material is intentionally redacted.
        f.debug_struct("ClientSession")
            .field("user", &self.user)
            .field("nonce_counter", &self.nonce_counter)
            .finish_non_exhaustive()
    }
}

impl ClientSession {
    /// Verifies the enclave `quote` against the pinned `platform_public`
    /// key and `expected_measurement`, then completes the DH exchange.
    ///
    /// On success the caller must deliver [`ClientSession::dh_public`] to
    /// the enclave (`Enclave::register_client`) to finish provisioning.
    pub fn establish(
        user: UserId,
        platform_public: u64,
        expected_measurement: &Measurement,
        quote: &Quote,
        seed: [u8; 32],
    ) -> Result<Self, AttestationError> {
        verify_quote(platform_public, expected_measurement, quote)?;
        let mut dh_seed = seed;
        dh_seed[30] ^= user as u8;
        dh_seed[29] ^= (user >> 8) as u8;
        let dh = DhKeyPair::from_seed(&dh_seed);
        let shared = dh.shared_secret(quote.report.enclave_dh_public);
        let key = hkdf::derive(&quote.report.transcript_hash(), &shared, &session_info(user), 32);
        let gcm = AesGcm::new(&key).expect("hkdf returns a 32-byte key");
        Ok(ClientSession { user, gcm, dh, nonce_counter: 0, telemetry: Telemetry::off() })
    }

    /// Arms side-band telemetry on this session (sessions come up with a
    /// disarmed handle).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The client's DH share the enclave needs to derive the same key.
    pub fn dh_public(&self) -> u64 {
        self.dh.public
    }

    /// The user id this session belongs to.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Encrypts one round's gradient encoding.
    pub fn seal_upload(&mut self, round: u64, payload: &[u8]) -> SealedMessage {
        self.telemetry.count("upload_sealed_bytes", crypto_backend().name(), payload.len() as u64);
        self.nonce_counter += 1;
        let mut msg = SealedMessage {
            user: self.user,
            round,
            nonce_counter: self.nonce_counter,
            ciphertext: Vec::new(),
        };
        msg.ciphertext = self.gcm.seal(&nonce_bytes(self.nonce_counter), payload, &msg.aad());
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::AttestationService;
    use crate::enclave::{Enclave, EnclaveConfig, TeeError};

    fn setup() -> (AttestationService, Enclave, Quote) {
        let service = AttestationService::new([9u8; 32]);
        let mut enclave = Enclave::launch(&EnclaveConfig::default(), [7u8; 32]);
        let quote = enclave.attest(&service, b"test");
        (service, enclave, quote)
    }

    #[test]
    fn end_to_end_handshake_and_upload() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut client =
            ClientSession::establish(17, service.public_key(), &m, &quote, [5u8; 32]).unwrap();
        enclave.register_client(17, client.dh_public()).unwrap();
        enclave.begin_round(0, vec![17, 18]);

        let msg = client.seal_upload(0, b"sparse-gradient-bytes");
        assert_eq!(enclave.open_upload(&msg).unwrap(), b"sparse-gradient-bytes");
    }

    #[test]
    fn unsampled_user_rejected() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut client =
            ClientSession::establish(17, service.public_key(), &m, &quote, [5u8; 32]).unwrap();
        enclave.register_client(17, client.dh_public()).unwrap();
        enclave.begin_round(0, vec![18]);
        let msg = client.seal_upload(0, b"x");
        assert_eq!(enclave.open_upload(&msg).unwrap_err(), TeeError::NotSampled);
    }

    #[test]
    fn unregistered_user_rejected() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut client =
            ClientSession::establish(17, service.public_key(), &m, &quote, [5u8; 32]).unwrap();
        enclave.begin_round(0, vec![17]);
        let msg = client.seal_upload(0, b"x");
        assert_eq!(enclave.open_upload(&msg).unwrap_err(), TeeError::UnknownUser);
    }

    #[test]
    fn replay_rejected() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut client =
            ClientSession::establish(17, service.public_key(), &m, &quote, [5u8; 32]).unwrap();
        enclave.register_client(17, client.dh_public()).unwrap();
        enclave.begin_round(0, vec![17]);
        let msg = client.seal_upload(0, b"x");
        assert!(enclave.open_upload(&msg).is_ok());
        assert_eq!(enclave.open_upload(&msg).unwrap_err(), TeeError::Replay);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut client =
            ClientSession::establish(17, service.public_key(), &m, &quote, [5u8; 32]).unwrap();
        enclave.register_client(17, client.dh_public()).unwrap();
        enclave.begin_round(0, vec![17]);
        let mut msg = client.seal_upload(0, b"x");
        msg.ciphertext[0] ^= 1;
        assert_eq!(enclave.open_upload(&msg).unwrap_err(), TeeError::AuthFailure);
    }

    #[test]
    fn stale_round_rejected() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut client =
            ClientSession::establish(17, service.public_key(), &m, &quote, [5u8; 32]).unwrap();
        enclave.register_client(17, client.dh_public()).unwrap();
        enclave.begin_round(3, vec![17]);
        // A payload sealed for round 2 authenticates (its AAD is
        // self-consistent) but must be rejected as stale.
        let msg = client.seal_upload(2, b"x");
        assert_eq!(enclave.open_upload(&msg).unwrap_err(), TeeError::WrongRound);
        let fresh = client.seal_upload(3, b"y");
        assert_eq!(enclave.open_upload(&fresh).unwrap(), b"y");
    }

    /// The batched open path: one bad upload (replayed, stale, unknown,
    /// tampered) must surface in its own slot without poisoning the rest
    /// of the chunk.
    #[test]
    fn open_upload_batch_isolates_per_message_failures() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut clients: Vec<ClientSession> = (0..4u32)
            .map(|u| {
                let c =
                    ClientSession::establish(u, service.public_key(), &m, &quote, [u as u8; 32])
                        .unwrap();
                enclave.register_client(u, c.dh_public()).unwrap();
                c
            })
            .collect();
        enclave.begin_round(1, vec![0, 1, 2, 3]);

        let good0 = clients[0].seal_upload(1, b"g0");
        let replayed = good0.clone();
        let stale = clients[1].seal_upload(0, b"stale");
        let mut tampered = clients[2].seal_upload(1, b"t");
        tampered.ciphertext[0] ^= 1;
        let good3 = clients[3].seal_upload(1, b"g3");
        let mut unsampled = clients[1].seal_upload(1, b"u");
        unsampled.user = 99;

        let batch = [good0, replayed, stale, tampered, good3, unsampled];
        let results = enclave.open_upload_batch(&batch);
        assert_eq!(results.len(), 6);
        assert_eq!(results[0].as_deref().unwrap(), b"g0");
        assert_eq!(results[1].as_ref().unwrap_err(), &TeeError::Replay);
        assert_eq!(results[2].as_ref().unwrap_err(), &TeeError::WrongRound);
        assert_eq!(results[3].as_ref().unwrap_err(), &TeeError::AuthFailure);
        assert_eq!(results[4].as_deref().unwrap(), b"g3", "later slots unaffected");
        assert_eq!(results[5].as_ref().unwrap_err(), &TeeError::NotSampled);
    }

    /// Batched and serial opening are the same verification pipeline:
    /// identical accept/reject decisions and plaintexts on a fresh clone
    /// of the message stream.
    #[test]
    fn open_upload_batch_matches_serial_semantics() {
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut c =
            ClientSession::establish(7, service.public_key(), &m, &quote, [1u8; 32]).unwrap();
        enclave.register_client(7, c.dh_public()).unwrap();
        enclave.begin_round(0, vec![7]);
        let msgs: Vec<SealedMessage> = (0..3).map(|i| c.seal_upload(0, &[i as u8])).collect();
        // Serial reference on a second enclave with the same platform seed
        // and attestation transcript (hence the same session keys).
        let mut enclave2 = Enclave::launch(&EnclaveConfig::default(), [7u8; 32]);
        let _ = enclave2.attest(&service, b"test");
        enclave2.register_client(7, c.dh_public()).unwrap();
        enclave2.begin_round(0, vec![7]);
        let batch = enclave.open_upload_batch(&msgs);
        for (msg, got) in msgs.iter().zip(batch) {
            assert_eq!(enclave2.open_upload(msg), got);
        }
    }

    /// Two enclaves with the same platform seed and attestation transcript
    /// (hence the same session keys), users 0..4 registered and sampled
    /// for round 1 — plus user 5, sampled but never registered — with
    /// users 3 and 5 holding replay floors at 50; and a hostile batch of
    /// uploads for them.
    fn hostile_batch() -> (Enclave, Enclave, Vec<SealedMessage>) {
        let service = AttestationService::new([9u8; 32]);
        let enclave = || {
            let mut e = Enclave::launch(&EnclaveConfig::default(), [7u8; 32]);
            let quote = e.attest(&service, b"test");
            (e, quote)
        };
        let ((mut a, quote), (mut b, _)) = (enclave(), enclave());
        let m = a.measurement();
        let mut clients: Vec<ClientSession> = (0..5u32)
            .map(|u| {
                let seed = [u as u8 + 1; 32];
                let c =
                    ClientSession::establish(u, service.public_key(), &m, &quote, seed).unwrap();
                a.register_client(u, c.dh_public()).unwrap();
                b.register_client(u, c.dh_public()).unwrap();
                c
            })
            .collect();
        for e in [&mut a, &mut b] {
            e.begin_round(1, vec![0, 1, 2, 3, 5]);
            e.restore_replay_floors(&[(3, 50), (5, 50)]);
        }
        let genuine = clients[0].seal_upload(1, b"g0");
        let mut tampered = genuine.clone();
        tampered.ciphertext[1] ^= 4;
        let accepted = clients[1].seal_upload(1, b"g1");
        let mut tampered_replay = accepted.clone();
        tampered_replay.ciphertext[0] ^= 1;
        // Stale, unsampled and unknown — each also at or below a floor.
        let mut stale = clients[1].seal_upload(0, b"stale");
        stale.nonce_counter = 1;
        let mut unsampled = clients[4].seal_upload(1, b"u");
        unsampled.nonce_counter = 0;
        let mut unknown = clients[2].seal_upload(1, b"k");
        unknown.user = 5;
        let low = clients[3].seal_upload(1, b"below the floor");
        let fine = clients[2].seal_upload(1, b"g2");
        let batch = vec![
            tampered,
            genuine,
            accepted.clone(),
            accepted,
            tampered_replay,
            stale,
            unsampled,
            unknown,
            low,
            fine,
        ];
        (a, b, batch)
    }

    /// The split open is the serial open: a hostile chunk decrypted on
    /// several threads at once through the shared half, then accepted in
    /// upload order, gives slot for slot what `open_upload_batch` gives on
    /// a twin enclave, and leaves the same replay floors.
    #[test]
    fn decrypt_then_accept_is_the_serial_open() {
        let (_, mut serial, batch) = hostile_batch();
        let want = serial.open_upload_batch(&batch);
        assert_eq!(
            want.iter().map(|r| r.as_ref().err().copied()).collect::<Vec<_>>(),
            [
                Some(TeeError::AuthFailure),
                None,
                None,
                Some(TeeError::Replay),
                Some(TeeError::Replay),
                Some(TeeError::WrongRound),
                Some(TeeError::NotSampled),
                Some(TeeError::UnknownUser),
                Some(TeeError::Replay),
                None,
            ],
            "the hostile batch exercises every refusal"
        );
        for threads in [1usize, 2, 3] {
            let (mut fresh, _, _) = hostile_batch();
            let shared = &fresh;
            let per_thread = batch.len().div_ceil(threads);
            let decrypted: Vec<Result<Vec<u8>, TeeError>> = std::thread::scope(|s| {
                let workers: Vec<_> = batch
                    .chunks(per_thread)
                    .map(|part| {
                        s.spawn(move || {
                            part.iter().map(|m| shared.decrypt_upload(m)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers.into_iter().flat_map(|w| w.join().unwrap()).collect::<Vec<_>>()
            });
            let got: Vec<_> =
                batch.iter().zip(decrypted).map(|(m, d)| fresh.accept_upload(m, d)).collect();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(fresh.replay_floors(), serial.replay_floors(), "threads={threads}");
        }
        assert_eq!(serial.replay_floors(), [(0, 1), (1, 1), (2, 2), (3, 50), (5, 50)]);
    }

    #[test]
    fn cross_user_key_isolation() {
        // User 18's key cannot decrypt user 17's upload even if the server
        // relabels the message.
        let (service, mut enclave, quote) = setup();
        let m = enclave.measurement();
        let mut c17 =
            ClientSession::establish(17, service.public_key(), &m, &quote, [5u8; 32]).unwrap();
        let c18 =
            ClientSession::establish(18, service.public_key(), &m, &quote, [6u8; 32]).unwrap();
        enclave.register_client(17, c17.dh_public()).unwrap();
        enclave.register_client(18, c18.dh_public()).unwrap();
        enclave.begin_round(0, vec![17, 18]);
        let mut msg = c17.seal_upload(0, b"secret");
        msg.user = 18; // server tries to attribute the payload to user 18
        assert_eq!(enclave.open_upload(&msg).unwrap_err(), TeeError::AuthFailure);
    }

    #[test]
    fn client_refuses_wrong_enclave() {
        let (service, mut enclave, _quote) = setup();
        // A different (e.g. malicious) enclave attests successfully but has
        // the wrong measurement.
        let evil_cfg = EnclaveConfig {
            code_identity: "olive-aggregator-with-backdoor".into(),
            ..Default::default()
        };
        let mut evil = Enclave::launch(&evil_cfg, [8u8; 32]);
        let evil_quote = evil.attest(&service, b"test");
        let expected = enclave.measurement();
        let err =
            ClientSession::establish(1, service.public_key(), &expected, &evil_quote, [5; 32])
                .unwrap_err();
        assert_eq!(err, AttestationError::WrongMeasurement);
        let _ = &mut enclave;
    }
}
