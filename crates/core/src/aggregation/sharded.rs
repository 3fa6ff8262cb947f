//! Sharded multi-enclave aggregation: the `G`-region dimension split into
//! `S` contiguous stripes, one mutually attested shard enclave per stripe:
//! the transport and receipted-egress plane a partitioned aggregation
//! (TENNOR makes that move for oblivious NN inference) would run over,
//! with the compute still in the coordinator.
//!
//! ## Topology and invariants
//!
//! The **coordinator** enclave (the one clients attest and upload to)
//! remains the round's canonical compute site: every upload is opened,
//! every cell folded, and the adversary-visible trace emitted there,
//! exactly as in the monolithic path. Sharding adds a *transport* plane
//! around that schedule:
//!
//! * every shard runs in its own enclave, mutually attested to the
//!   coordinator through a [`ShardTunnel`] (measurement pinned both ways);
//! * **ingress** hands every shard what it keeps of a staged chunk: the
//!   chunk's 24-byte public descriptor (absolute chunk index, clients,
//!   cells), a pure function of the chunk schedule. The sparse index sets
//!   are the secret (§3), and a shard has no compute that reads them, so
//!   no client cell ever leaves the coordinator: an enclave that never
//!   holds them has nothing to leak. Each shard adds the descriptor's
//!   cells to a running tally;
//! * **egress** seals each shard's stripe of the finalized delta through
//!   its tunnel; the shard answers with a receipt carrying the stripe
//!   hash and its cell tally, the coordinator checks both against what it
//!   sent — a chunk a shard never tallied fails the round instead of
//!   passing unnoticed — and folds the shard-held stripes back together
//!   in ascending shard order, a deterministic fold that reproduces the
//!   canonical delta bit for bit;
//! * each shard's [`olive_tee::EpcBudget`] is charged what that enclave
//!   decrypts and holds, where it happens: the descriptor while it is
//!   tallied, and its `4·|stripe|`-byte stripe from the egress open until
//!   the receipt is out (both counted under `shard{i}` on the telemetry
//!   stream). The staged cells, the sort scratch and the resident state
//!   live in the coordinator, whose budget the round engine's ledger
//!   ([`crate::round::Ledger`]) charges in full at every S.
//!
//! Because the canonical schedule never changes, the round output,
//! signature and trace digest are bitwise identical at every shard count
//! — the repo's hard invariant. What the plane does **not** do is shrink
//! the Advanced working set: every cell is still staged and sorted in one
//! enclave. Per-shard compute needs cells *routed* to their stripe's
//! shard with the per-shard counts hidden (ROADMAP item 4), which nobody
//! has built; a cell payload comes back together with the compute that
//! reads it.
//!
//! ## Failures
//!
//! The plane does not heal itself. A frame that does not open (tunnel
//! authentication or replay) or a receipt that does not match is an
//! immediate structured [`ShardError`] naming the shard — never a panic,
//! never a retry. The shard's transient charge is released on the way
//! out, the round engine aborts with every budget at `live == 0`, and the
//! round stays restorable: `OliveSystem::restore_round` re-provisions the
//! plane (fresh tunnel keys at a fresh seed epoch) and resumes from the
//! coordinator's sealed restore point, like any aborted round.

use olive_fl::SparseGradient;
use olive_memsim::ShardPlan;
use olive_tee::{
    attestation::digest, AttestationService, Enclave, EnclaveConfig, ShardTunnel, TunnelError,
    TunnelRole,
};
use olive_telemetry::Telemetry;

/// Code identity every shard enclave must measure to (what the
/// coordinator pins when it verifies a shard's quote, and vice versa the
/// shards pin the coordinator's measurement).
pub const SHARD_CODE_IDENTITY: &str = "olive-shard-aggregator-v1";

/// Attestation user data binding shard quotes to the shard plane (the
/// coordinator keeps its own client-facing context: re-attesting it under
/// a different context would change the transcript its session keys are
/// bound to).
const SHARD_ATTEST_CONTEXT: &[u8] = b"olive-shard-plane-v1";

/// Tunnel message kinds.
const MSG_CHUNK: u8 = 1;
const MSG_STRIPE: u8 = 2;
const MSG_RECEIPT: u8 = 3;

/// What went wrong with one shard operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFailure {
    /// Tunnel establishment or transport failed (attestation refused,
    /// AEAD authentication failure, replay).
    Tunnel(TunnelError),
    /// A shard's egress receipt authenticated but named a stripe hash
    /// other than the one the coordinator sealed, or a cell tally other
    /// than that of the chunks the coordinator delivered.
    ReceiptMismatch,
}

impl core::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShardFailure::Tunnel(e) => write!(f, "tunnel failure: {e}"),
            ShardFailure::ReceiptMismatch => write!(f, "stripe receipt mismatch"),
        }
    }
}

impl std::error::Error for ShardFailure {}

/// A structured shard-plane error: which shard failed, and how.
/// Surfaced by every fallible [`ShardRuntime`] operation instead of a
/// panic, so the round driver can abort cleanly with the round still
/// restorable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardError {
    /// The shard the operation targeted.
    pub shard: u32,
    /// What failed.
    pub failure: ShardFailure,
}

impl core::fmt::Display for ShardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "shard {} failed: {}", self.shard, self.failure)
    }
}

impl std::error::Error for ShardError {}

/// One shard enclave plus both endpoints of its coordinator tunnel (the
/// simulation holds the whole deployment in one process, so the pair
/// lives side by side; a real deployment holds one end per machine).
struct ShardState {
    enclave: Enclave,
    /// Telemetry key of this shard's budget (`shard{i}`).
    key: String,
    coord_end: ShardTunnel,
    shard_end: ShardTunnel,
    /// Cells the descriptors this shard was handed this round named —
    /// the public tally its egress receipt reports.
    cells: u64,
}

/// The provisioned shard plane: `S` shard enclaves, their tunnels, and
/// the stripe plan that maps coordinates onto them.
pub struct ShardRuntime {
    plan: ShardPlan,
    shards: Vec<ShardState>,
    /// Absolute index of the next ingress chunk — the descriptor's first
    /// word (kept absolute across a coordinator restore via
    /// [`ShardRuntime::skip_to_chunk`]).
    chunk_cursor: u32,
    /// Cells of the chunks delivered this round — what every shard's
    /// egress receipt must tally to.
    cells_sent: u64,
    /// Side-band metrics handle (disarmed by default): ingress/egress
    /// spans and per-shard EPC counters. Strictly read-only over the
    /// round — arming it never perturbs output, signature or trace.
    telemetry: Telemetry,
}

impl core::fmt::Debug for ShardRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.shards.len())
            .field("chunk_cursor", &self.chunk_cursor)
            .finish_non_exhaustive()
    }
}

impl ShardRuntime {
    /// Launches and mutually attests `shards` shard enclaves against the
    /// (already client-attested) coordinator.
    ///
    /// The coordinator re-attests under its *existing* `user_data`
    /// context so its transcript — which every client session key is
    /// bound to — is unchanged; shard quotes use the shard-plane context.
    /// Both directions of every tunnel pin the peer's measurement, so a
    /// shard enclave only ever accepts frames from the verified
    /// coordinator and the coordinator only accepts receipts from
    /// verified shards.
    pub fn provision(
        service: &AttestationService,
        coordinator: &mut Enclave,
        coordinator_context: &[u8],
        seed_bytes: [u8; 32],
        epc_bytes: u64,
        d: usize,
        shards: usize,
    ) -> Result<Self, ShardError> {
        Self::provision_with_plan(
            service,
            coordinator,
            coordinator_context,
            seed_bytes,
            epc_bytes,
            ShardPlan::even(d, shards),
        )
    }

    /// [`ShardRuntime::provision`] with an explicit stripe plan (uneven
    /// boundaries included) — boundary placement is public topology and
    /// must never change the round output or trace, which the proptest
    /// suite pins through this entry point.
    pub fn provision_with_plan(
        service: &AttestationService,
        coordinator: &mut Enclave,
        coordinator_context: &[u8],
        seed_bytes: [u8; 32],
        epc_bytes: u64,
        plan: ShardPlan,
    ) -> Result<Self, ShardError> {
        let coord_quote = coordinator.attest(service, coordinator_context);
        let coord_measurement = coordinator.measurement();
        let shard_cfg = EnclaveConfig { code_identity: SHARD_CODE_IDENTITY.to_string(), epc_bytes };
        let platform = service.public_key();
        let mut shards = Vec::with_capacity(plan.shards());
        for shard in 0..plan.shards() as u32 {
            let mut seed = seed_bytes;
            seed[16..20].copy_from_slice(&shard.to_be_bytes());
            seed[20] ^= 0x5D;
            let mut enclave = Enclave::launch(&shard_cfg, seed);
            let quote = enclave.attest(service, SHARD_ATTEST_CONTEXT);
            let refused = |e| ShardError { shard, failure: ShardFailure::Tunnel(e) };
            let (coord, measurement) = (TunnelRole::Coordinator, enclave.measurement());
            let coord_end =
                ShardTunnel::establish(coord, coordinator, platform, &measurement, &quote, shard)
                    .map_err(refused)?;
            let shard_end = ShardTunnel::establish(
                TunnelRole::Shard,
                &enclave,
                platform,
                &coord_measurement,
                &coord_quote,
                shard,
            )
            .map_err(refused)?;
            let key = format!("shard{shard}");
            shards.push(ShardState { enclave, key, coord_end, shard_end, cells: 0 });
        }
        Ok(ShardRuntime {
            plan,
            shards,
            chunk_cursor: 0,
            cells_sent: 0,
            telemetry: Telemetry::off(),
        })
    }

    /// Arms side-band telemetry on the whole shard plane: the runtime
    /// itself, every shard enclave (seal/open byte counters) and both
    /// ends of every tunnel (frame counters), and emits one
    /// `shard_provisioned` event per stripe so the topology is on the
    /// stream.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (i, sh) in self.shards.iter_mut().enumerate() {
            sh.enclave.set_telemetry(telemetry.clone());
            sh.coord_end.set_telemetry(telemetry.clone());
            sh.shard_end.set_telemetry(telemetry.clone());
            if telemetry.is_armed() {
                let range = self.plan.range(i);
                telemetry.event(
                    "shard_provisioned",
                    &[
                        ("shard", (i as u64).into()),
                        ("stripe_lo", (range.start as u64).into()),
                        ("stripe_hi", (range.end as u64).into()),
                    ],
                );
            }
        }
        self.telemetry = telemetry;
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Re-aligns the absolute chunk cursor after a coordinator restore,
    /// so the resumed half of a round keeps the original chunk numbering
    /// in its descriptors.
    pub(crate) fn skip_to_chunk(&mut self, chunks_done: usize) {
        self.chunk_cursor = chunks_done as u32;
    }

    /// Opens a fresh per-round accounting epoch on every shard budget
    /// (mirrors [`Enclave::begin_round`]'s epoch on the coordinator) and
    /// resets the per-round transport state.
    pub fn begin_round(&mut self) {
        self.chunk_cursor = 0;
        self.cells_sent = 0;
        for sh in &mut self.shards {
            sh.enclave.epc.begin_epoch();
            sh.cells = 0;
        }
    }

    /// Hands every shard one staged chunk's public descriptor — absolute
    /// chunk index, clients, cells; the cells themselves stay in the
    /// coordinator — through its tunnel, and has the shard tally it. The
    /// frame is a transient EPC charge on the shard while it is tallied.
    ///
    /// A frame that does not open is a [`ShardError`]; the chunk cursor
    /// then stays put, and the round is restorable over a re-provisioned
    /// plane.
    pub fn ingress_chunk(&mut self, staged: &[SparseGradient]) -> Result<(), ShardError> {
        let chunk = self.chunk_cursor;
        let cells: u64 = staged.iter().map(|u| u.k() as u64).sum();
        let descriptor = [u64::from(chunk), staged.len() as u64, cells];
        let frame: Vec<u8> = descriptor.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _span = self.telemetry.span(
            "shard_ingress",
            &[
                ("chunk", chunk.into()),
                ("shards", (self.shards.len() as u64).into()),
                ("frame_bytes", (frame.len() as u64).into()),
            ],
        );
        for i in 0..self.shards.len() {
            self.deliver(i, &frame).map_err(|failure| ShardError { shard: i as u32, failure })?;
        }
        self.chunk_cursor += 1;
        self.cells_sent += cells;
        Ok(())
    }

    /// Distributes the finalized delta stripewise to the shards and folds
    /// the shard-held stripes back in ascending shard order — the
    /// deterministic merge. Each shard's receipt carries the hash of the
    /// stripe it holds and its cell tally; the coordinator verifies both
    /// against the stripe it sealed and the chunks it delivered, so the
    /// reassembled delta is bitwise the canonical one by construction.
    /// A stripe or receipt that does not open, or a receipt that does not
    /// match, is a [`ShardError`] with the round still restorable.
    pub fn egress_round(&mut self, delta: &[f32]) -> Result<Vec<f32>, ShardError> {
        assert_eq!(delta.len(), self.plan.d(), "delta dimension must match the plan");
        let _span =
            self.telemetry.span("shard_egress", &[("shards", (self.shards.len() as u64).into())]);
        let mut out = Vec::with_capacity(delta.len());
        for i in 0..self.shards.len() {
            let stripe = &delta[self.plan.range(i)];
            let mut bytes = Vec::with_capacity(stripe.len() * 4);
            for v in stripe {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            let held = self
                .egress(i, &bytes)
                .map_err(|failure| ShardError { shard: i as u32, failure })?;
            out.extend_from_slice(&held);
        }
        Ok(out)
    }

    /// Coordinator → shard: seals `payload` and opens it inside the shard
    /// — whose budget holds the `payload.len()` decrypted bytes until the
    /// caller, done with them, frees the transient. A frame that does not
    /// open frees it here.
    fn send_down(&mut self, i: usize, kind: u8, payload: &[u8]) -> Result<Vec<u8>, ShardFailure> {
        let sh = &mut self.shards[i];
        let msg = sh.coord_end.seal(kind, payload);
        let transient = payload.len() as u64;
        sh.enclave.epc.alloc_counted(transient, &self.telemetry, &sh.key);
        sh.shard_end.open(&msg).map_err(|e| {
            sh.enclave.epc.free_counted(transient, &self.telemetry, &sh.key);
            ShardFailure::Tunnel(e)
        })
    }

    /// One delivery: seal, open, tally.
    fn deliver(&mut self, i: usize, frame: &[u8]) -> Result<(), ShardFailure> {
        let plain = self.send_down(i, MSG_CHUNK, frame)?;
        // The descriptor's third word.
        let cells = plain[16..].try_into().expect("an authenticated 24-byte descriptor");
        let sh = &mut self.shards[i];
        sh.cells += u64::from_le_bytes(cells);
        sh.enclave.epc.free_counted(frame.len() as u64, &self.telemetry, &sh.key);
        Ok(())
    }

    /// One egress: stripe down, receipt up, hash and tally check.
    fn egress(&mut self, i: usize, bytes: &[u8]) -> Result<Vec<f32>, ShardFailure> {
        let held = self.send_down(i, MSG_STRIPE, bytes)?;
        let sh = &mut self.shards[i];
        let up = sh.shard_end.seal(MSG_RECEIPT, &stripe_receipt(&held, sh.cells));
        let opened = sh.coord_end.open(&up);
        // The receipt is out: the shard no longer needs the plaintext.
        sh.enclave.epc.free_counted(bytes.len() as u64, &self.telemetry, &sh.key);
        if opened.map_err(ShardFailure::Tunnel)? != stripe_receipt(bytes, self.cells_sent) {
            return Err(ShardFailure::ReceiptMismatch);
        }
        let word = |v: &[u8]| f32::from_bits(u32::from_le_bytes(v.try_into().expect("4-byte f32")));
        Ok(held.chunks_exact(4).map(word).collect())
    }

    /// Per-shard EPC peaks (bytes) for the current accounting epoch, in
    /// shard order.
    pub fn peaks(&self) -> Vec<u64> {
        self.shards.iter().map(|sh| sh.enclave.epc.peak).collect()
    }

    /// Per-shard live EPC bytes (zero after a balanced round).
    pub fn live(&self) -> Vec<u64> {
        self.shards.iter().map(|sh| sh.enclave.epc.live).collect()
    }

    /// True if any shard's epoch peak exceeds its own EPC limit — the
    /// sharded deployment's paging predicate.
    pub fn any_would_page(&self) -> bool {
        self.shards.iter().any(|sh| sh.enclave.epc.would_page())
    }
}

/// An egress receipt: `stripe hash ‖ cell tally` — what the shard answers
/// with, and what the coordinator expects from what it sent.
fn stripe_receipt(stripe: &[u8], cells: u64) -> Vec<u8> {
    [&digest(stripe)[..], &cells.to_be_bytes()].concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::test_support::{random_updates, shard_runtime as runtime};
    use crate::aggregation::{Aggregator, AggregatorKind, StreamingAggregator};
    use crate::round::{Ledger, RoundEngine, RoundError};
    use olive_memsim::{FaultPlan, NullTracer};
    use olive_tee::EpcBudget;

    /// A single-threaded round engine of `kind` over the shard plane `rt`,
    /// with `plan` armed.
    fn engine_armed(
        kind: AggregatorKind,
        d: usize,
        k: usize,
        rt: ShardRuntime,
        plan: FaultPlan,
    ) -> RoundEngine {
        let mut ledger = Ledger::new(EpcBudget::default(), Some(rt), Telemetry::off());
        ledger.arm(plan);
        RoundEngine::new(StreamingAggregator::new(kind, d, 1), k, 1, ledger)
    }

    fn engine(kind: AggregatorKind, d: usize, k: usize, rt: ShardRuntime) -> RoundEngine {
        engine_armed(kind, d, k, rt, FaultPlan::empty())
    }

    /// Swaps shard `i`'s own tunnel end for the same stripe's end of
    /// another plane (other keys): no frame to shard `i` opens any more.
    fn cross_wire(rt: &mut ShardRuntime, i: usize) {
        let mut other = runtime(rt.plan.d(), rt.shards(), 0xEE);
        std::mem::swap(&mut rt.shards[i].shard_end, &mut other.shards[i].shard_end);
    }

    #[test]
    fn sharded_matches_monolithic_bitwise() {
        let (d, n, k) = (96, 24, 6);
        let updates = random_updates(n, k, d, 11);
        let mut mono = StreamingAggregator::new(AggregatorKind::Advanced, d, 1);
        for chunk in updates.chunks(5) {
            mono.ingest(chunk, &mut NullTracer);
        }
        let want = mono.finalize(&mut NullTracer);
        for shards in [1usize, 2, 4, 8] {
            let (got, end) = engine(AggregatorKind::Advanced, d, k, runtime(d, shards, 3))
                .run(updates.chunks(5), &mut NullTracer);
            let got = got.expect("fault-free round");
            let rt = end.shards.expect("the plane comes back");
            assert_eq!(rt.peaks().len(), shards);
            assert!(rt.live().iter().all(|&b| b == 0), "S={shards}: budgets must balance");
            assert_eq!(end.coordinator.live, 0, "S={shards}: coordinator must balance");
            let same = want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "S={shards} changed the round output");
        }
    }

    /// A shard budget carries exactly what the shard decrypts and holds —
    /// a chunk descriptor while it is tallied, its stripe at egress — so a
    /// completed round peaks at the larger of the two (the 24-byte frame
    /// at S = 4, the stripe at S = 1 here), and every budget is empty after
    /// a completed, a refused-tunnel and a `crash@`-killed round alike.
    #[test]
    fn shard_budgets_track_stripe_share_plus_transport() {
        let (d, n, k, chunk) = (20, 40, 8, 20);
        let updates = random_updates(n, k, d, 9);
        let frame = 24u64;
        for shards in [1usize, 4] {
            for (cross_wired, plan, completes) in [
                (false, FaultPlan::empty(), true),
                (true, FaultPlan::empty(), false),
                (false, FaultPlan::crash_after([0]), false),
            ] {
                let mut rt = runtime(d, shards, 2);
                if cross_wired {
                    cross_wire(&mut rt, shards - 1);
                }
                let mut eng = engine_armed(AggregatorKind::Advanced, d, k, rt, plan);
                let folded = updates.chunks(chunk).try_for_each(|c| {
                    eng.fold(c, 0, || (), &mut NullTracer)?;
                    eng.crash_point()
                });
                let (out, end) = match folded {
                    Ok(()) => eng.finish(&mut NullTracer),
                    Err(e) => (Err(e), eng.abort()),
                };
                assert_eq!(out.is_ok(), completes, "S={shards}: {out:?}");
                let rt = end.shards.expect("the plane comes back");
                assert!(rt.live().iter().all(|&b| b == 0), "S={shards}: shard budgets balance");
                assert_eq!(end.coordinator.live, 0, "S={shards}: the coordinator balances");
                if completes {
                    let want: Vec<u64> =
                        (0..shards).map(|i| frame.max(4 * rt.plan.range(i).len() as u64)).collect();
                    assert_eq!(rt.peaks(), want, "S={shards}");
                }
            }
        }
    }

    /// Checkpoint blobs stay shard-agnostic: the aggregator's descriptor
    /// and the folded prefix are the round's whole restorable truth, so a
    /// round sealed at S=4 restores at S=1 (and vice versa) — shard
    /// topology is runtime configuration, not persisted state.
    #[test]
    fn state_blob_is_shard_agnostic() {
        let (d, n, k) = (64, 12, 4);
        let updates = random_updates(n, k, d, 13);
        let kind = AggregatorKind::Grouped { h: 3 };
        let mut sharded = engine(kind, d, k, runtime(d, 4, 4));
        sharded.fold(&updates[..6], 0, || (), &mut NullTracer).expect("fault-free chunk");
        let blob = sharded.checkpoint_state();
        // A monolithic aggregator resumes from the sharded blob.
        let mut mono = StreamingAggregator::new(kind, d, 1);
        mono.load_state(&blob).expect("shard topology must not enter the blob");
        mono.replay(&updates[..6]).expect("the folded prefix");
        mono.ingest(&updates[6..], &mut NullTracer);
        let want = mono.finalize(&mut NullTracer);
        sharded.fold(&updates[6..], 0, || (), &mut NullTracer).expect("fault-free chunk");
        let got = sharded.finish(&mut NullTracer).0.expect("fault-free round");
        let same = want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "sharded and monolithic continuations must agree bitwise");
    }

    /// A descriptor frame that does not open in its shard fails the
    /// chunk's fold at once — a structured error naming the shard, never a
    /// retry or a panic — with the chunk unfolded and every budget,
    /// coordinator and shards, back at zero.
    #[test]
    fn a_tunnel_that_does_not_open_fails_ingress() {
        let (d, n, k) = (64, 8, 4);
        let updates = random_updates(n, k, d, 23);
        let mut rt = runtime(d, 2, 8);
        cross_wire(&mut rt, 1);
        let (out, end) =
            engine(AggregatorKind::NonOblivious, d, k, rt).run(updates.chunks(4), &mut NullTracer);
        let failure = ShardFailure::Tunnel(TunnelError::AuthFailure);
        assert_eq!(out, Err(RoundError::Shard(ShardError { shard: 1, failure })));
        assert_eq!(end.telemetry.chunks, 0, "the refused chunk is not folded");
        let rt = end.shards.expect("the plane comes back");
        assert!(rt.live().iter().all(|&b| b == 0), "a refused ingress still balances");
        assert_eq!(end.coordinator.live, 0, "an aborted round must balance");
    }

    /// A stripe that does not open in its shard fails egress the same
    /// way: the shards before it held and released their stripes, the
    /// refused one never charged its own for long, and every budget ends
    /// at zero.
    #[test]
    fn a_tunnel_that_does_not_open_fails_egress() {
        let (d, k) = (64, 4);
        let updates = random_updates(8, k, d, 31);
        let mut rt = runtime(d, 4, 12);
        for chunk in updates.chunks(4) {
            rt.ingress_chunk(chunk).expect("fault-free delivery");
        }
        cross_wire(&mut rt, 2);
        let err = rt.egress_round(&vec![0.5; d]).expect_err("shard 2's end cannot open");
        let failure = ShardFailure::Tunnel(TunnelError::AuthFailure);
        assert_eq!(err, ShardError { shard: 2, failure });
        assert!(rt.live().iter().all(|&b| b == 0), "a refused egress still balances");
        assert!(rt.peaks()[..2].iter().all(|&p| p == 4 * 16), "shards 0 and 1 held a stripe");
    }

    /// The receipt's second half: a shard whose tally is one chunk short
    /// of what the coordinator delivered fails egress with a structured
    /// `ReceiptMismatch`, never a delta.
    #[test]
    fn a_shard_tally_one_chunk_short_fails_egress() {
        let (d, k) = (64, 4);
        let updates = random_updates(8, k, d, 29);
        let mut rt = runtime(d, 2, 10);
        for chunk in updates.chunks(4) {
            rt.ingress_chunk(chunk).expect("fault-free delivery");
        }
        rt.shards[1].cells -= 4 * k as u64;
        let err = rt.egress_round(&vec![0.5; d]).expect_err("the tally is short");
        assert_eq!(err, ShardError { shard: 1, failure: ShardFailure::ReceiptMismatch });
        assert!(rt.live().iter().all(|&b| b == 0), "a refused egress still balances");
    }
}
