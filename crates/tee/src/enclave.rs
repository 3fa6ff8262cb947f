//! The simulated enclave: lifecycle, key store, sealing, EPC accounting.
//!
//! All symmetric crypto on the trusted path runs on the process's one
//! crypto backend ([`olive_crypto::crypto_backend`]: AES-NI/SHA-NI or
//! bitsliced constant-time — `OLIVE_CRYPTO`), so the whole deployment
//! runs on a single dispatch decision.

use std::collections::{HashMap, HashSet};

use olive_crypto::dh::DhKeyPair;
use olive_crypto::gcm::{AesGcm, NONCE_LEN, TAG_LEN};
use olive_crypto::hmac::HmacSha256;
use olive_crypto::{crypto_backend, hkdf};
use olive_telemetry::Telemetry;

use crate::attestation::{measure, AttestationService, Measurement, Quote, Report};
use crate::channel::SealedMessage;
use crate::epc::EpcBudget;
use crate::UserId;

/// Errors surfaced by enclave operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TeeError {
    /// Decryption/verification of a client upload failed.
    AuthFailure,
    /// The sender has no registered session key (no RA handshake).
    UnknownUser,
    /// The upload named a user not selected for this round
    /// (Algorithm 1 line 9's check).
    NotSampled,
    /// The requested scratch allocation exceeds the configured EPC budget.
    EpcExceeded,
    /// A replayed or out-of-order nonce was detected.
    Replay,
    /// The upload names a round other than the one in progress (a stale or
    /// premature message; its AAD would still authenticate, so this is an
    /// explicit freshness check, not a crypto failure).
    WrongRound,
    /// A session operation was attempted before [`Enclave::attest`]: the
    /// transcript salt that binds session keys to the attestation
    /// evidence does not exist yet, so keys derived now would lose
    /// channel binding.
    NotAttested,
    /// A sealed blob authenticated correctly but its monotonic counter is
    /// below the caller's pinned floor — a rollback to stale state.
    StaleSeal,
}

impl core::fmt::Display for TeeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            TeeError::AuthFailure => "client payload failed authentication",
            TeeError::UnknownUser => "no session key for user (remote attestation missing)",
            TeeError::NotSampled => "user not in this round's sample",
            TeeError::EpcExceeded => "enclave working set exceeds EPC budget",
            TeeError::Replay => "nonce replay detected",
            TeeError::WrongRound => "upload names a round other than the one in progress",
            TeeError::NotAttested => "enclave has not attested (no transcript to bind keys to)",
            TeeError::StaleSeal => "sealed blob is older than the pinned rollback floor",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for TeeError {}

/// Static enclave configuration, part of the measurement.
#[derive(Clone, Debug)]
pub struct EnclaveConfig {
    /// Human-readable code identity (stands in for the signed binary).
    pub code_identity: String,
    /// Usable EPC bytes (the paper's machine: 96 MB).
    pub epc_bytes: u64,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            code_identity: "olive-oblivious-aggregator-v1".to_string(),
            epc_bytes: 96 << 20,
        }
    }
}

/// The simulated enclave.
///
/// Holds the RA key store (`user → AES-GCM session key`, Algorithm 1
/// line 1), the per-round sample set used for upload verification
/// (line 9), replay protection, sealing keys, and EPC accounting.
pub struct Enclave {
    measurement: Measurement,
    dh: DhKeyPair,
    /// user id → session key bytes (32).
    keystore: HashMap<UserId, [u8; 32]>,
    /// user id → last accepted nonce counter (replay protection).
    last_nonce: HashMap<UserId, u64>,
    /// Users sampled for the current round (Algorithm 1 line 5), hashed
    /// for O(1) membership checks — at production scale (10⁵–10⁶ sampled
    /// users) a linear `contains` per upload would make verification
    /// quadratic in the round size.
    round_sample_set: HashSet<UserId>,
    /// The round currently in progress (uploads must name it).
    current_round: u64,
    /// Monotone sealing key derived from the measurement + platform secret.
    sealing_key: [u8; 32],
    /// Per-label monotonic sealing counters: GCM nonces must never repeat
    /// under one key, so each (label, counter) pair seals at most once.
    seal_counters: HashMap<Vec<u8>, u64>,
    /// EPC accounting.
    pub epc: EpcBudget,
    transcript_salt: [u8; 32],
    /// Set by [`Enclave::attest`]; registration is refused before it so a
    /// session key can never silently bind to the all-zeros salt.
    attested: bool,
    /// Side-band telemetry handle (disarmed by default): seal/open byte
    /// counters keyed by the crypto backend. Reads, never perturbs.
    telemetry: Telemetry,
}

impl Enclave {
    /// Creates and "launches" an enclave: computes its measurement and an
    /// ephemeral DH key pair from `seed`.
    pub fn launch(config: &EnclaveConfig, seed: [u8; 32]) -> Self {
        let measurement = measure(&config.code_identity, &config.epc_bytes.to_be_bytes());
        let mut dh_seed = seed;
        dh_seed[31] ^= 0x3C;
        let dh = DhKeyPair::from_seed(&dh_seed);
        let sealing_key: [u8; 32] = hkdf::derive(&measurement, &seed, b"olive-sealing-v1", 32)
            .try_into()
            .expect("hkdf returns requested length");
        Enclave {
            measurement,
            dh,
            keystore: HashMap::new(),
            last_nonce: HashMap::new(),
            round_sample_set: HashSet::new(),
            current_round: 0,
            sealing_key,
            seal_counters: HashMap::new(),
            epc: EpcBudget { limit: config.epc_bytes, ..Default::default() },
            transcript_salt: [0u8; 32],
            attested: false,
            telemetry: Telemetry::off(),
        }
    }

    /// Arms (or swaps) this enclave's side-band telemetry handle. The
    /// default is the disarmed no-op handle; the owning system threads
    /// its own handle through after launch (and after a coordinator
    /// relaunch, which constructs a fresh disarmed enclave).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The enclave's measurement (what clients must pin).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The attestation transcript hash this enclave's session keys are
    /// bound to, or `None` before [`Enclave::attest`] — the same guard
    /// [`Enclave::register_client`] applies, for the enclave-to-enclave
    /// tunnel layer.
    pub(crate) fn attested_transcript(&self) -> Option<[u8; 32]> {
        self.attested.then_some(self.transcript_salt)
    }

    /// The enclave's DH key pair, for tunnel key agreement (the
    /// client-session path goes through [`Enclave::register_client`]
    /// instead).
    pub(crate) fn dh_keypair(&self) -> DhKeyPair {
        self.dh
    }

    /// Produces the attestation report and obtains a platform quote.
    pub fn attest(&mut self, service: &AttestationService, user_data: &[u8]) -> Quote {
        let report = Report {
            measurement: self.measurement,
            enclave_dh_public: self.dh.public,
            user_data: user_data.to_vec(),
        };
        self.transcript_salt = report.transcript_hash();
        self.attested = true;
        service.quote(report)
    }

    /// Completes the RA key exchange for one client: derives and stores the
    /// session key from the client's DH public value (enclave side of
    /// Algorithm 1 line 1).
    ///
    /// Fails with [`TeeError::NotAttested`] before [`Enclave::attest`]:
    /// the session key mixes in the attestation transcript hash, and
    /// deriving it from the launch-time all-zeros salt would silently
    /// drop the channel's binding to the attestation evidence.
    pub fn register_client(&mut self, user: UserId, client_dh_public: u64) -> Result<(), TeeError> {
        if !self.attested {
            return Err(TeeError::NotAttested);
        }
        let shared = self.dh.shared_secret(client_dh_public);
        let key: [u8; 32] = hkdf::derive(&self.transcript_salt, &shared, &session_info(user), 32)
            .try_into()
            .expect("hkdf returns requested length");
        self.keystore.insert(user, key);
        Ok(())
    }

    /// Number of registered clients.
    pub fn registered_clients(&self) -> usize {
        self.keystore.len()
    }

    /// Sets the round counter and sampled user set for the round now in
    /// progress (the enclave memorizes `t` and `Q_t`; Algorithm 1 line 5).
    /// Also opens a fresh EPC accounting epoch, so `epc.peak` and
    /// [`EpcBudget::would_page`] answer "did *this* round page" rather
    /// than aggregating over the enclave's lifetime.
    pub fn begin_round(&mut self, round: u64, sampled: Vec<UserId>) {
        self.current_round = round;
        self.round_sample_set = sampled.into_iter().collect();
        self.epc.begin_epoch();
    }

    /// Overwrites the replay floors from a checkpoint's snapshot (the
    /// crash-restore path). The snapshot covers exactly the uploads whose
    /// chunks were *folded* before the checkpoint: uploads the crashed
    /// enclave had opened but not folded (the double-buffered next chunk)
    /// get no entry, so their legitimate re-sends are accepted again,
    /// while folded uploads still hit [`TeeError::Replay`].
    pub fn restore_replay_floors(&mut self, floors: &[(UserId, u64)]) {
        self.last_nonce = floors.iter().copied().collect();
    }

    /// Snapshot of the per-user replay floors, sorted by user id — the
    /// deterministic order a sealed checkpoint needs so that identical
    /// enclave state serializes to identical bytes.
    pub fn replay_floors(&self) -> Vec<(UserId, u64)> {
        let mut floors: Vec<(UserId, u64)> =
            self.last_nonce.iter().map(|(&u, &c)| (u, c)).collect();
        floors.sort_unstable_by_key(|&(u, _)| u);
        floors
    }

    /// Verifies and decrypts one client upload (Algorithm 1 lines 8–11):
    /// checks the round and that the user is sampled, fetches the session
    /// key, authenticates, rejects replays, and returns the plaintext
    /// gradient encoding — [`Enclave::decrypt_upload`] then
    /// [`Enclave::accept_upload`].
    pub fn open_upload(&mut self, msg: &SealedMessage) -> Result<Vec<u8>, TeeError> {
        let decrypted = self.decrypt_upload(msg);
        self.accept_upload(msg, decrypted)
    }

    /// [`Enclave::open_upload`] over a whole chunk of uploads, in order.
    /// Returns one `Result` per message — a replayed, stale or tampered
    /// upload is reported in its slot without poisoning the rest of the
    /// chunk.
    pub fn open_upload_batch(&mut self, msgs: &[SealedMessage]) -> Vec<Result<Vec<u8>, TeeError>> {
        msgs.iter().map(|msg| self.open_upload(msg)).collect()
    }

    /// The stateless half of [`Enclave::open_upload`]: checks the round,
    /// that the user is sampled and has a session key, and authenticates
    /// and decrypts. It reads no replay state and writes nothing, so any
    /// number of threads may decrypt a chunk at once; what it returns is
    /// only an upload once [`Enclave::accept_upload`] has passed it.
    pub fn decrypt_upload(&self, msg: &SealedMessage) -> Result<Vec<u8>, TeeError> {
        if msg.round != self.current_round {
            return Err(TeeError::WrongRound);
        }
        if !self.round_sample_set.contains(&msg.user) {
            return Err(TeeError::NotSampled);
        }
        let key = self.keystore.get(&msg.user).ok_or(TeeError::UnknownUser)?;
        let gcm = AesGcm::new(key).expect("32-byte key");
        let nonce = nonce_bytes(msg.nonce_counter);
        gcm.open(&nonce, &msg.ciphertext, &msg.aad()).map_err(|_| TeeError::AuthFailure)
    }

    /// The stateful half of [`Enclave::open_upload`], called in upload
    /// order with what [`Enclave::decrypt_upload`] made of `msg` (or any
    /// value derived from its plaintext, such as the decoded gradient).
    /// The refusals are [`Enclave::open_upload`]'s, in its precedence:
    /// a wrong round, an unsampled or unknown user; then a replay (a nonce
    /// at or below the user's floor — decided before the tag, so a replayed
    /// copy is a replay even when tampered); then an authentication
    /// failure. Only an upload that passes all three raises its user's
    /// floor.
    pub fn accept_upload<T>(
        &mut self,
        msg: &SealedMessage,
        decrypted: Result<T, TeeError>,
    ) -> Result<T, TeeError> {
        if let Err(e @ (TeeError::WrongRound | TeeError::NotSampled | TeeError::UnknownUser)) =
            decrypted
        {
            return Err(e);
        }
        let last = self.last_nonce.get(&msg.user).copied().unwrap_or(0);
        if msg.nonce_counter <= last {
            return Err(TeeError::Replay);
        }
        let plain = decrypted?;
        self.last_nonce.insert(msg.user, msg.nonce_counter);
        self.telemetry.count("opened_bytes", crypto_backend().name(), msg.plaintext_len() as u64);
        Ok(plain)
    }

    /// Encrypts enclave state for untrusted storage (sealing).
    ///
    /// The nonce is derived from a **per-label monotonic counter** —
    /// sealing the same label twice with different plaintexts must not
    /// reuse a GCM nonce under the (fixed) sealing key, or the keystream
    /// XOR of the two plaintexts leaks. The nonce is the full 96-bit
    /// prefix of `H(label ∥ counter)`, so distinct `(label, counter)`
    /// pairs collide with probability 2⁻⁹⁶ even across labels. The counter
    /// is prepended to the sealed blob so [`Enclave::unseal`] can
    /// reconstruct the nonce; it is covered by the AEAD's nonce binding (a
    /// tampered counter changes the nonce and fails the tag).
    ///
    /// Counters live in enclave memory: a relaunched enclave with the same
    /// platform seed restarts them, as a real SGX enclave's would without
    /// hardware monotonic counters. [`Enclave::unseal`] raises the floor
    /// past every counter it sees, so the supported restart flow — unseal
    /// persisted state, then reseal — never reuses a nonce; a deployment
    /// would pin the floor in rollback-protected storage.
    ///
    /// The blob is allocated once at its final size: the counter, then the
    /// plaintext copied in and encrypted in place, then the tag.
    pub fn seal(&mut self, plaintext: &[u8], label: &[u8]) -> Vec<u8> {
        let counter = self.seal_counters.entry(label.to_vec()).or_insert(0);
        *counter += 1;
        let nonce = seal_nonce(label, *counter);
        let gcm = AesGcm::new(&self.sealing_key).expect("32-byte key");
        let mut out = Vec::with_capacity(8 + plaintext.len() + TAG_LEN);
        out.extend_from_slice(&counter.to_be_bytes());
        gcm.seal_into(&nonce, plaintext, label, &mut out);
        self.telemetry.count("sealed_bytes", crypto_backend().name(), plaintext.len() as u64);
        out
    }

    /// Decrypts sealed state. On success the label's seal counter floor is
    /// raised past the blob's counter, so a relaunched enclave that
    /// restores its state before sealing again cannot reuse a nonce.
    pub fn unseal(&mut self, sealed: &[u8], label: &[u8]) -> Result<Vec<u8>, TeeError> {
        let counter = seal_counter(sealed).ok_or(TeeError::AuthFailure)?;
        let nonce = seal_nonce(label, counter);
        let gcm = AesGcm::new(&self.sealing_key).expect("32-byte key");
        let plain = gcm.open(&nonce, &sealed[8..], label).map_err(|_| TeeError::AuthFailure)?;
        let floor = self.seal_counters.entry(label.to_vec()).or_insert(0);
        *floor = (*floor).max(counter);
        self.telemetry.count("unsealed_bytes", crypto_backend().name(), plain.len() as u64);
        Ok(plain)
    }

    /// [`Enclave::unseal`] plus rollback protection: the caller supplies
    /// the counter floor it pinned in rollback-protected platform storage
    /// (which, unlike enclave memory, survives a crash), and a blob whose
    /// counter is *below* that floor is rejected as [`TeeError::StaleSeal`]
    /// even though it authenticates — it is genuine enclave state, just
    /// not the newest, and replaying it would rewind replay floors past
    /// uploads that were already folded. Authentication runs first so
    /// tampering still reports [`TeeError::AuthFailure`].
    pub fn unseal_with_floor(
        &mut self,
        sealed: &[u8],
        label: &[u8],
        floor: u64,
    ) -> Result<Vec<u8>, TeeError> {
        let plain = self.unseal(sealed, label)?;
        if seal_counter(sealed).expect("checked by unseal") < floor {
            return Err(TeeError::StaleSeal);
        }
        Ok(plain)
    }

    /// Signs bytes with a key only the enclave holds, so clients can verify
    /// the aggregated model was produced inside the enclave (the
    /// malicious-server defense discussed in Section 5.6).
    pub fn sign_output(&self, payload: &[u8]) -> [u8; 32] {
        HmacSha256::mac(&self.sealing_key, payload)
    }

    /// Verifies an output signature (in the simulation the "public" verify
    /// key equals the sealing MAC key; a deployment would use the Schnorr
    /// pair — see Section 5.6 discussion).
    pub fn verify_output(&self, payload: &[u8], tag: &[u8; 32]) -> bool {
        HmacSha256::verify(&self.sealing_key, payload, tag)
    }
}

/// The monotonic counter [`Enclave::seal`] prepends to a blob (`None` for
/// a blob too short to carry one).
fn seal_counter(sealed: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(sealed.get(..8)?.try_into().expect("8-byte prefix")))
}

/// Untrusted storage for one label's sealed blobs, and the pin that keeps
/// it honest. Unsealing `newest` against [`SealedStore::floor`]
/// ([`Enclave::unseal_with_floor`]) refuses every genuine-but-older blob.
#[derive(Default)]
pub struct SealedStore {
    /// The newest blob — untrusted, hence public: anyone may copy it,
    /// replace it, or drop it once what it restores is durable elsewhere.
    pub newest: Option<Vec<u8>>,
    /// The highest seal counter parked here, standing in for
    /// rollback-protected platform NV storage: it survives the enclave's
    /// death and only ever rises, so no stale blob replays into later
    /// state.
    floor: u64,
}

impl SealedStore {
    /// Parks a blob fresh from [`Enclave::seal`], raising the pin to its
    /// counter; returns the blob it replaces.
    pub fn put(&mut self, blob: Vec<u8>) -> Option<Vec<u8>> {
        let counter = seal_counter(&blob).expect("a sealed blob leads with its counter");
        self.floor = self.floor.max(counter);
        self.newest.replace(blob)
    }

    /// The pinned seal counter.
    pub fn floor(&self) -> u64 {
        self.floor
    }
}

/// Sealing nonce: the 96-bit prefix of `H("olive-seal-nonce-v1" ∥
/// len(label) ∥ label ∥ counter)` — the full nonce width separates both
/// labels and counters, so distinct `(label, counter)` pairs collide with
/// probability 2⁻⁹⁶ (length-prefixing keeps `(label ∥ counter)` encodings
/// injective).
fn seal_nonce(label: &[u8], counter: u64) -> [u8; NONCE_LEN] {
    let mut input = b"olive-seal-nonce-v1".to_vec();
    input.extend_from_slice(&(label.len() as u64).to_be_bytes());
    input.extend_from_slice(label);
    input.extend_from_slice(&counter.to_be_bytes());
    let lh = crate::attestation::digest(&input);
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&lh[..NONCE_LEN]);
    nonce
}

/// Session-key derivation info string, shared by enclave and client.
pub(crate) fn session_info(user: UserId) -> Vec<u8> {
    let mut v = b"olive-session-key-v1:".to_vec();
    v.extend_from_slice(&user.to_be_bytes());
    v
}

/// Deterministic 96-bit nonce from a counter (client keeps it monotone).
pub(crate) fn nonce_bytes(counter: u64) -> [u8; NONCE_LEN] {
    let mut n = [0u8; NONCE_LEN];
    n[4..].copy_from_slice(&counter.to_be_bytes());
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epc_budget_accounting() {
        let mut b = EpcBudget { limit: 100, ..Default::default() };
        b.alloc(60);
        b.alloc(30);
        assert_eq!(b.peak, 90);
        assert!(!b.would_page());
        b.free(30);
        b.alloc(50);
        assert_eq!(b.peak, 110);
        assert!(b.would_page());
    }

    #[test]
    fn launch_is_deterministic_in_config() {
        let cfg = EnclaveConfig::default();
        let a = Enclave::launch(&cfg, [1; 32]);
        let b = Enclave::launch(&cfg, [2; 32]);
        // The measurement binds the whole static config — code identity
        // AND the EPC size (`measure(code_identity, epc_bytes)`) — but
        // never the platform seed, which only keys sealing/DH.
        assert_eq!(a.measurement(), b.measurement(), "platform seed must not enter measurement");
        let cfg2 = EnclaveConfig { code_identity: "different".into(), ..Default::default() };
        let c = Enclave::launch(&cfg2, [1; 32]);
        assert_ne!(a.measurement(), c.measurement(), "code identity is measured");
        let cfg3 = EnclaveConfig { epc_bytes: 128 << 20, ..Default::default() };
        let d = Enclave::launch(&cfg3, [1; 32]);
        assert_ne!(a.measurement(), d.measurement(), "EPC size is measured too");
    }

    #[test]
    fn register_before_attest_is_refused() {
        let mut e = Enclave::launch(&EnclaveConfig::default(), [6; 32]);
        assert_eq!(e.register_client(7, 12345).unwrap_err(), TeeError::NotAttested);
        assert_eq!(e.registered_clients(), 0, "refused registration must not store a key");
        let service = AttestationService::new([6; 32]);
        e.attest(&service, b"ctx");
        e.register_client(7, 12345).expect("registration valid after attestation");
        assert_eq!(e.registered_clients(), 1);
    }

    #[test]
    fn epc_epoch_resets_peak_per_round() {
        let mut e = Enclave::launch(&EnclaveConfig::default(), [6; 32]);
        e.epc.alloc(500);
        e.epc.free(500);
        assert_eq!(e.epc.peak, 500);
        e.begin_round(1, vec![]);
        assert_eq!(e.epc.peak, 0, "begin_round opens a fresh accounting epoch");
        e.epc.alloc(90);
        e.epc.free(90);
        e.begin_round(2, vec![]);
        e.epc.alloc(40);
        assert_eq!(e.epc.peak, 40, "round 2's peak is not shadowed by round 1's");
        e.epc.free(40);
    }

    /// Rollback protection: an *older* authentic blob must be rejected
    /// when the caller pins the newest counter as the floor.
    #[test]
    fn rolled_back_seal_rejected_against_pinned_floor() {
        let mut e = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        let gen1 = e.seal(b"generation-1", b"model");
        let gen2 = e.seal(b"generation-2", b"model");
        let pinned = u64::from_be_bytes(gen2[..8].try_into().unwrap());
        // A relaunched enclave (fresh counters) + the pinned floor: the
        // newest blob loads, the rolled-back one is stale, and tampering
        // is still an auth failure, not staleness.
        let mut e2 = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        assert_eq!(e2.unseal_with_floor(&gen2, b"model", pinned).unwrap(), b"generation-2");
        assert_eq!(
            e2.unseal_with_floor(&gen1, b"model", pinned).unwrap_err(),
            TeeError::StaleSeal,
            "rollback to generation-1 must fail"
        );
        let mut tampered = gen2.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert_eq!(
            e2.unseal_with_floor(&tampered, b"model", pinned).unwrap_err(),
            TeeError::AuthFailure
        );
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let mut e = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        let sealed = e.seal(b"keystore state", b"keystore");
        assert_eq!(e.unseal(&sealed, b"keystore").unwrap(), b"keystore state");
        assert_eq!(e.unseal(&sealed, b"other-label").unwrap_err(), TeeError::AuthFailure);
    }

    #[test]
    fn sealed_data_bound_to_enclave_identity() {
        let mut e1 = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        let mut e2 = Enclave::launch(&EnclaveConfig::default(), [4; 32]);
        let sealed = e1.seal(b"state", b"l");
        assert!(e2.unseal(&sealed, b"l").is_err(), "different platform seed, different key");
    }

    /// The supported restart flow — relaunch, unseal persisted state,
    /// reseal — must advance the counter past everything unsealed, never
    /// reusing a nonce of the previous lifetime.
    #[test]
    fn unseal_restores_counter_monotonicity_across_relaunch() {
        let mut e1 = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        let _gen1 = e1.seal(b"generation-1", b"model");
        let gen2 = e1.seal(b"generation-2", b"model");
        // Same platform seed → same sealing key, fresh in-memory counters.
        let mut e2 = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        assert_eq!(e2.unseal(&gen2, b"model").unwrap(), b"generation-2");
        let gen3 = e2.seal(b"generation-3", b"model");
        assert_eq!(&gen3[..8], &3u64.to_be_bytes(), "floor raised past unsealed counter 2");
        assert_eq!(e2.unseal(&gen3, b"model").unwrap(), b"generation-3");
    }

    /// Regression for the sealing-nonce reuse hazard: two seals of one
    /// label must use distinct nonces — observable as distinct counter
    /// prefixes and, crucially, ciphertexts whose keystreams don't cancel.
    #[test]
    fn reseal_same_label_uses_fresh_nonce() {
        let mut e = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        let s1 = e.seal(b"generation-1 state", b"model");
        let s2 = e.seal(b"generation-2 state", b"model");
        // Distinct monotonic counters → distinct nonces.
        assert_eq!(&s1[..8], &1u64.to_be_bytes());
        assert_eq!(&s2[..8], &2u64.to_be_bytes());
        assert_ne!(s1[8..], s2[8..], "same-label seals must not share ciphertext bytes");
        // With a reused nonce, xor of ciphertexts == xor of plaintexts for
        // the common prefix; with fresh nonces it must not be.
        let xor_ct: Vec<u8> = s1[8..26].iter().zip(&s2[8..26]).map(|(a, b)| a ^ b).collect();
        let xor_pt: Vec<u8> =
            b"generation-1 state".iter().zip(b"generation-2 state").map(|(a, b)| a ^ b).collect();
        assert_ne!(xor_ct, xor_pt, "keystream reuse detected");
        // Both generations remain unsealable.
        assert_eq!(e.unseal(&s1, b"model").unwrap(), b"generation-1 state");
        assert_eq!(e.unseal(&s2, b"model").unwrap(), b"generation-2 state");
    }

    /// A tampered counter prefix changes the reconstructed nonce and must
    /// fail authentication.
    #[test]
    fn tampered_seal_counter_rejected() {
        let mut e = Enclave::launch(&EnclaveConfig::default(), [3; 32]);
        let mut sealed = e.seal(b"state", b"l");
        sealed[7] ^= 1;
        assert_eq!(e.unseal(&sealed, b"l").unwrap_err(), TeeError::AuthFailure);
        assert_eq!(e.unseal(&sealed[..4], b"l").unwrap_err(), TeeError::AuthFailure);
    }

    #[test]
    fn output_signature_roundtrip() {
        let e = Enclave::launch(&EnclaveConfig::default(), [5; 32]);
        let tag = e.sign_output(b"aggregated model v3");
        assert!(e.verify_output(b"aggregated model v3", &tag));
        assert!(!e.verify_output(b"tampered model", &tag));
    }
}
