//! Deterministic fault injection for the sharded round pipeline.
//!
//! The paper's service model assumes the enclave fleet stays up for a
//! whole round; a production coordinator cannot. This module is the
//! simulation's *chaos plane*: a [`FaultPlan`] scripts exactly which
//! transport-layer failures fire at which (chunk, shard) site — shard
//! enclave kill, tunnel frame tamper/drop, stripe-receipt corruption,
//! stale sealed checkpoint served on restore — plus a crash of the
//! coordinator enclave itself after a given chunk, and the round engine
//! and shard runtime consult it at every injection hook. Everything is
//! seeded and replayable: the same plan against the same round produces
//! the same failure sequence, the same recovery actions, and (the hard invariant
//! the tests pin) the same bitwise round output and trace digest as the
//! fault-free round, because recovery lives entirely in the side-band
//! transport plane and never touches canonical compute.
//!
//! Plans come from three places:
//!
//! * [`FaultPlan::from_events`] — explicit scripts in tests;
//! * [`FaultPlan::parse`] — the `OLIVE_FAULTS` grammar (see below), which
//!   [`RuntimeConfig`](crate::RuntimeConfig) applies to the environment;
//! * [`FaultPlan::scripted`] — a seeded xoshiro-driven generator used by
//!   the CI chaos pass (`seed:<u64>x<count>@<chunks>.<shards>`).
//!
//! # `OLIVE_FAULTS` grammar
//!
//! ```text
//! OLIVE_FAULTS="kill@2.0,tamper@5.3,drop@0.1,receipt@e.2,stale@1.0"
//! OLIVE_FAULTS="seed:1337x5@6.4"        # 5 scripted events, chunks<6, shards<4
//! OLIVE_FAULTS="crash@3"                # coordinator dies after chunk 3
//! ```
//!
//! Each explicit event is `kind@chunk.shard` with kind one of `kill`,
//! `tamper`, `drop`, `receipt`, `stale`; `chunk` is a 0-based chunk
//! index, or `e`/`egress` for the stripe-egress phase after the last
//! chunk. `receipt` and `stale` events are egress/restore-phase faults,
//! so their chunk is canonicalized to egress. `crash@<chunk>` names no
//! shard: it kills the *coordinator* enclave once chunk `chunk` is folded
//! and checkpointed, and is never emitted by the seeded generator.
//! Events at sites the round never reaches (chunk beyond the stream,
//! shard ≥ S) simply never fire.
//!
//! # Arming
//!
//! One rule, at every shard count (`OliveSystem::run_round`): a fresh
//! round arms the explicit script if one is pending (`set_fault_plan`),
//! else a fresh copy of the system's
//! [`RuntimeConfig::faults`](crate::RuntimeConfig::faults) — by default
//! the `OLIVE_FAULTS` plan, parsed once per process (a malformed spec
//! warns and arms nothing) — so `crash@3` ends an unsharded round too.
//! Events that have not fired when the round is interrupted span its
//! restores; whatever is left when the round completes is dropped with
//! it, so the next fresh round arms the configured plan afresh rather
//! than inherit a remainder.
//!
//! There is no wall clock anywhere: retry backoff is *simulated* — the
//! [`RetryPolicy`] computes a deterministic schedule and the runtime
//! records the would-be sleep in [`RecoveryStats::backoff_ms`] instead
//! of sleeping, so faulted tests run as fast as fault-free ones.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Chunk index standing for the stripe-egress phase (after the last
/// ingest chunk) in a [`FaultEvent`]. Also matches the restore phase for
/// [`FaultKind::StaleSeal`].
pub const EGRESS_CHUNK: u32 = u32::MAX;

/// The transport-plane failure taxonomy the shard runtime can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The shard enclave dies: all volatile state (tunnel keys, stripe)
    /// is lost and the coordinator must re-provision it mid-round.
    ShardKill,
    /// A tunnel frame is tampered in flight (ciphertext bit flip): the
    /// receiver's AEAD open fails and the sender must retry.
    TunnelTamper,
    /// A tunnel frame is dropped in flight: the receiver never sees it
    /// and the sender must retry (receiver seq floors tolerate the gap).
    TunnelDrop,
    /// The shard's stripe-digest receipt is corrupted in flight.
    ReceiptCorrupt,
    /// A relaunched shard is served its *previous* sealed checkpoint
    /// instead of the newest one — the rollback attack the per-label
    /// monotonic floor must catch as [`StaleSeal`](enum@FaultKind).
    StaleSeal,
    /// The *coordinator* enclave dies right after the event's chunk was
    /// folded and checkpointed: aggregator, staged plaintexts, session
    /// keys, replay floors and seal counters are gone, and the round
    /// resumes from its sealed checkpoint. Explicit scripts only —
    /// [`FaultPlan::scripted`] never draws it.
    CoordinatorKill,
}

impl FaultKind {
    /// The shard-plane kinds, in the seeded generator's draw order.
    const SHARD_KINDS: [FaultKind; 5] = [
        FaultKind::ShardKill,
        FaultKind::TunnelTamper,
        FaultKind::TunnelDrop,
        FaultKind::ReceiptCorrupt,
        FaultKind::StaleSeal,
    ];

    fn token(self) -> &'static str {
        match self {
            FaultKind::ShardKill => "kill",
            FaultKind::TunnelTamper => "tamper",
            FaultKind::TunnelDrop => "drop",
            FaultKind::ReceiptCorrupt => "receipt",
            FaultKind::StaleSeal => "stale",
            FaultKind::CoordinatorKill => "crash",
        }
    }

    /// A delivery failure (retried in place), as opposed to a kill or a
    /// stale restore — the kinds whose stacking can exhaust a retry budget.
    fn is_delivery(self) -> bool {
        matches!(self, FaultKind::TunnelTamper | FaultKind::TunnelDrop | FaultKind::ReceiptCorrupt)
    }
}

/// One scripted failure: `kind` fires when the runtime reaches chunk
/// `chunk` on shard `shard` ([`EGRESS_CHUNK`] = the egress phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What fails.
    pub kind: FaultKind,
    /// 0-based chunk index, or [`EGRESS_CHUNK`] for the egress phase.
    pub chunk: u32,
    /// 0-based shard id.
    pub shard: u32,
}

impl FaultEvent {
    /// Renders this event in the explicit `kind@chunk.shard` grammar
    /// (`crash@chunk` for a coordinator kill, which names no shard) —
    /// the fault-site label telemetry records carry, and the per-event
    /// form of [`FaultPlan::render`].
    pub fn render(&self) -> String {
        let chunk =
            if self.chunk == EGRESS_CHUNK { "e".to_string() } else { self.chunk.to_string() };
        match self.kind {
            FaultKind::CoordinatorKill => format!("{}@{chunk}", self.kind.token()),
            _ => format!("{}@{chunk}.{}", self.kind.token(), self.shard),
        }
    }
}

/// A deterministic script of transport failures, consumed as it fires.
///
/// Each event fires **once**: [`FaultPlan::fire`] removes the first
/// matching event, so a retried operation at the same site succeeds
/// unless the script stacks multiple events there. Stacking
/// `RetryPolicy::MAX_ATTEMPTS` delivery failures at one site exhausts
/// recovery — the structured-error path the exhaustion tests pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no events (every hook is a no-op).
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// A plan from an explicit event list (test scripts).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Parses the `OLIVE_FAULTS` grammar (module docs). Returns a
    /// message naming the offending token on malformed input.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultPlan::empty());
        }
        if let Some(rest) = spec.strip_prefix("seed:") {
            // seed:<u64>x<count>@<chunks>.<shards>
            let (seed_s, rest) =
                rest.split_once('x').ok_or_else(|| format!("missing 'x<count>' in {spec:?}"))?;
            let (count_s, rest) =
                rest.split_once('@').ok_or_else(|| format!("missing '@<chunks>' in {spec:?}"))?;
            let (chunks_s, shards_s) =
                rest.split_once('.').ok_or_else(|| format!("missing '.<shards>' in {spec:?}"))?;
            let bad = |what: &str, s: &str| format!("bad {what} {s:?} in {spec:?}");
            let seed: u64 = seed_s.parse().map_err(|_| bad("seed", seed_s))?;
            let count: usize = count_s.parse().map_err(|_| bad("count", count_s))?;
            let chunks: u32 = chunks_s.parse().map_err(|_| bad("chunk bound", chunks_s))?;
            let shards: u32 = shards_s.parse().map_err(|_| bad("shard bound", shards_s))?;
            if chunks == 0 || shards == 0 {
                return Err(format!("chunk/shard bounds must be positive in {spec:?}"));
            }
            return Ok(FaultPlan::scripted(seed, count, chunks, shards));
        }
        let mut events = Vec::new();
        for tok in spec.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let (kind_s, site) =
                tok.split_once('@').ok_or_else(|| format!("missing '@' in event {tok:?}"))?;
            if kind_s.trim() == "crash" {
                // The coordinator is one enclave: a chunk, no shard, and
                // no egress form (a crash after the last chunk *is* the
                // crash before egress).
                let chunk = site
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad chunk {site:?} in event {tok:?}"))?;
                events.push(FaultEvent { kind: FaultKind::CoordinatorKill, chunk, shard: 0 });
                continue;
            }
            let kind = FaultKind::SHARD_KINDS
                .into_iter()
                .find(|kind| kind.token() == kind_s.trim())
                .ok_or_else(|| format!("unknown fault kind {:?} in {tok:?}", kind_s.trim()))?;
            let (chunk_s, shard_s) = site
                .split_once('.')
                .ok_or_else(|| format!("missing '.<shard>' in event {tok:?}"))?;
            let chunk = match chunk_s.trim() {
                "e" | "egress" => EGRESS_CHUNK,
                n => n.parse().map_err(|_| format!("bad chunk {n:?} in event {tok:?}"))?,
            };
            // Receipt corruption and stale-seal are egress/restore-phase
            // faults regardless of the written chunk.
            let chunk = match kind {
                FaultKind::ReceiptCorrupt | FaultKind::StaleSeal => EGRESS_CHUNK,
                _ => chunk,
            };
            let shard: u32 = shard_s
                .trim()
                .parse()
                .map_err(|_| format!("bad shard {shard_s:?} in event {tok:?}"))?;
            events.push(FaultEvent { kind, chunk, shard });
        }
        Ok(FaultPlan { events })
    }

    /// A seeded script of `count` events over chunk indices `< chunks`
    /// and shard ids `< shards`, drawn from the vendored xoshiro
    /// generator. The generator caps stacking per site so every scripted
    /// plan stays *recoverable*: at most 2 delivery failures
    /// (tamper/drop/receipt) per (chunk, shard) — under the
    /// [`RetryPolicy::MAX_ATTEMPTS`] = 4 budget — and at most one kill
    /// and one stale-seal per site.
    pub fn scripted(seed: u64, count: usize, chunks: u32, shards: u32) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events: Vec<FaultEvent> = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while events.len() < count && attempts < count * 32 {
            attempts += 1;
            let kind = FaultKind::SHARD_KINDS[rng.gen_range(0u32..5) as usize];
            let chunk = match kind {
                FaultKind::ReceiptCorrupt | FaultKind::StaleSeal => EGRESS_CHUNK,
                _ => {
                    if rng.gen_bool(0.15) {
                        EGRESS_CHUNK
                    } else {
                        rng.gen_range(0..chunks)
                    }
                }
            };
            let shard = rng.gen_range(0..shards);
            let at_site = |e: &&FaultEvent| e.chunk == chunk && e.shard == shard;
            let site_delivery = events.iter().filter(at_site).filter(|e| e.kind.is_delivery());
            let site_same_kind = events.iter().filter(at_site).filter(|e| e.kind == kind);
            let ok = if kind.is_delivery() {
                site_delivery.count() < 2
            } else {
                site_same_kind.count() < 1
            };
            if ok {
                events.push(FaultEvent { kind, chunk, shard });
            }
        }
        FaultPlan { events }
    }

    /// Injection hook: does a `kind` fault fire at (`chunk`, `shard`)?
    /// Consumes the first matching event, so a retry of the same
    /// operation succeeds unless the script stacked another event there.
    pub fn fire(&mut self, kind: FaultKind, chunk: u32, shard: u32) -> bool {
        if let Some(i) =
            self.events.iter().position(|e| e.kind == kind && e.chunk == chunk && e.shard == shard)
        {
            self.events.remove(i);
            true
        } else {
            false
        }
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// True when no events remain (or the plan was always empty).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, in firing-priority order (for diagnostics).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Renders the plan back in the explicit `OLIVE_FAULTS` grammar.
    pub fn render(&self) -> String {
        self.events.iter().map(FaultEvent::render).collect::<Vec<_>>().join(",")
    }
}

/// Bounded-retry schedule for faulted shard operations. The backoff is
/// exponential with a cap, and **simulated**: the runtime adds
/// [`RetryPolicy::backoff_ms`] to [`RecoveryStats::backoff_ms`] instead
/// of sleeping, keeping rounds deterministic and tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per operation before recovery is declared exhausted.
    pub max_attempts: u32,
    /// Backoff before the second attempt (simulated milliseconds).
    pub base_ms: u64,
    /// Backoff ceiling (simulated milliseconds).
    pub cap_ms: u64,
}

impl RetryPolicy {
    /// The default attempt budget (see [`RetryPolicy::default`]).
    pub const MAX_ATTEMPTS: u32 = 4;

    /// Simulated backoff before attempt `attempt` (1-based; attempt 1
    /// has no backoff): `min(base · 2^(attempt-2), cap)`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let shift = (attempt - 2).min(63);
        self.base_ms.saturating_shl(shift).min(self.cap_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: Self::MAX_ATTEMPTS, base_ms: 5, cap_ms: 80 }
    }
}

/// What recovery cost a round: retries, full shard relaunches, and the
/// total simulated backoff the schedule would have slept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Operations retried after a delivery failure.
    pub retries: u64,
    /// Shard enclaves relaunched (kill recovery).
    pub relaunches: u64,
    /// Total simulated backoff, milliseconds.
    pub backoff_ms: u64,
}

impl RecoveryStats {
    /// The recovery work done since `base` — a snapshot taken earlier
    /// from the same runtime. Counters are monotone, so the per-round
    /// delta the round report embeds is a plain field-wise subtraction.
    pub fn since(self, base: RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            retries: self.retries.saturating_sub(base.retries),
            relaunches: self.relaunches.saturating_sub(base.relaunches),
            backoff_ms: self.backoff_ms.saturating_sub(base.backoff_ms),
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        if self == 0 {
            0
        } else if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_explicit_grammar() {
        let plan = FaultPlan::parse("kill@2.0, tamper@5.3 ,drop@0.1,receipt@e.2,stale@1.0")
            .expect("well-formed spec");
        assert_eq!(
            plan.events(),
            &[
                FaultEvent { kind: FaultKind::ShardKill, chunk: 2, shard: 0 },
                FaultEvent { kind: FaultKind::TunnelTamper, chunk: 5, shard: 3 },
                FaultEvent { kind: FaultKind::TunnelDrop, chunk: 0, shard: 1 },
                FaultEvent { kind: FaultKind::ReceiptCorrupt, chunk: EGRESS_CHUNK, shard: 2 },
                // stale is canonicalized to the restore/egress phase.
                FaultEvent { kind: FaultKind::StaleSeal, chunk: EGRESS_CHUNK, shard: 0 },
            ]
        );
        // Round-trips through render (stale now prints as egress).
        let again = FaultPlan::parse(&plan.render()).expect("render is parseable");
        assert_eq!(again, plan);
        // Per-event rendering — the telemetry fault-site labels.
        assert_eq!(plan.events()[0].render(), "kill@2.0");
        assert_eq!(plan.events()[3].render(), "receipt@e.2");
        assert_eq!(plan.events()[4].render(), "stale@e.0");
        // A coordinator crash names a chunk and no shard, and composes
        // with shard events in one script.
        let plan = FaultPlan::parse("kill@2.0, crash@3 ,drop@0.1").expect("well-formed spec");
        assert_eq!(
            plan.events()[1],
            FaultEvent { kind: FaultKind::CoordinatorKill, chunk: 3, shard: 0 }
        );
        assert_eq!(plan.render(), "kill@2.0,crash@3,drop@0.1");
        assert_eq!(FaultPlan::parse(&plan.render()).expect("render is parseable"), plan);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "boom@1.0",
            "kill@x.0",
            "kill@1",
            "kill1.0",
            "seed:7x3@4",
            "seed:7@4.2",
            "kill@1.z",
            "crash@",
            "crash@x",
            "crash@e",
            "crash@1.0",
            "crash3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(FaultPlan::parse("").expect("empty is a no-op"), FaultPlan::empty());
    }

    #[test]
    fn scripted_is_deterministic_and_bounded() {
        let a = FaultPlan::scripted(1337, 5, 6, 4);
        let b = FaultPlan::parse("seed:1337x5@6.4").expect("scripted spec");
        assert_eq!(a, b, "seed form must match the generator");
        assert_eq!(a.remaining(), 5);
        for e in a.events() {
            assert!(e.chunk < 6 || e.chunk == EGRESS_CHUNK);
            assert!(e.shard < 4);
        }
        assert_ne!(a, FaultPlan::scripted(1338, 5, 6, 4), "seed must matter");
    }

    /// The CI chaos script, byte for byte: adding a fault kind must not
    /// shift the seeded generator's draws (and it never emits a
    /// coordinator crash — that would abort every seeded CI round).
    #[test]
    fn ci_script_renders_exactly_as_before_coordinator_kill() {
        assert_eq!(
            FaultPlan::scripted(1337, 5, 6, 4).render(),
            "drop@4.2,stale@e.1,kill@5.1,receipt@e.3,receipt@e.1"
        );
        for seed in 0..50u64 {
            let plan = FaultPlan::scripted(seed, 12, 5, 3);
            assert!(plan.events().iter().all(|e| e.kind != FaultKind::CoordinatorKill));
        }
    }

    #[test]
    fn scripted_sites_stay_recoverable() {
        // Any scripted plan must keep every site under the retry budget:
        // ≤ 2 delivery failures and ≤ 1 of each non-delivery kind.
        for seed in 0..50u64 {
            let plan = FaultPlan::scripted(seed, 12, 5, 3);
            for e in plan.events() {
                let at_site =
                    plan.events().iter().filter(|x| x.chunk == e.chunk && x.shard == e.shard);
                let delivery = at_site.clone().filter(|x| x.kind.is_delivery()).count();
                let same_kind = at_site.filter(|x| x.kind == e.kind).count();
                assert!(delivery <= 2, "seed {seed}: {} delivery faults at one site", delivery);
                if !e.kind.is_delivery() {
                    assert!(same_kind <= 1, "seed {seed}: stacked {:?}", e.kind);
                }
            }
        }
    }

    #[test]
    fn fire_consumes_one_event_per_call() {
        let mut plan = FaultPlan::parse("tamper@1.0,tamper@1.0,kill@1.0").expect("spec");
        assert!(plan.fire(FaultKind::TunnelTamper, 1, 0));
        assert!(plan.fire(FaultKind::TunnelTamper, 1, 0));
        assert!(!plan.fire(FaultKind::TunnelTamper, 1, 0), "both tampers consumed");
        assert!(!plan.fire(FaultKind::ShardKill, 2, 0), "wrong site never fires");
        assert!(!plan.fire(FaultKind::ShardKill, 1, 1), "wrong shard never fires");
        assert!(plan.fire(FaultKind::ShardKill, 1, 0));
        assert!(plan.is_empty());
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(1), 0, "first attempt is immediate");
        assert_eq!(p.backoff_ms(2), 5);
        assert_eq!(p.backoff_ms(3), 10);
        assert_eq!(p.backoff_ms(4), 20);
        assert_eq!(p.backoff_ms(10), 80, "capped");
        let huge = RetryPolicy { max_attempts: 200, base_ms: u64::MAX / 2, cap_ms: u64::MAX };
        assert_eq!(huge.backoff_ms(100), u64::MAX, "shift saturates, never overflows");
    }
}
