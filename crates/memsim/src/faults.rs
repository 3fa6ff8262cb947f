//! Coordinator crash injection: the one fault a round must survive.
//!
//! Algorithm 1 runs a round in one enclave, and a crash of that enclave is
//! what the sealed, rollback-pinned restore point exists for. A
//! [`FaultPlan`] scripts such crashes: each entry is the 0-based index of
//! a chunk after which the coordinator enclave dies, once that chunk is
//! folded and checkpointed. The round engine consults the plan at its
//! crash hook and surfaces a fired crash as `RoundError::CoordinatorKilled`;
//! telemetry labels the event `crash@<chunk>`.
//!
//! Plans are armed explicitly (`OliveSystem::set_fault_plan`); there is
//! no environment grammar. A fresh round arms the pending plan, if any;
//! the crash points that have not fired when the round is interrupted
//! span its restores, and whatever is left when the round completes is
//! dropped with it. A crash point the round never reaches never fires.
//!
//! A shard plane has no fault script: a tunnel or receipt failure is an
//! immediate structured error, and the round restores like any other
//! aborted round.

/// A deterministic script of coordinator crashes, consumed as it fires.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Chunk indices the coordinator dies after, in script order.
    crashes: Vec<usize>,
}

impl FaultPlan {
    /// A plan with no crash points.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A plan that kills the coordinator after each of `chunks` (0-based
    /// chunk indices; a repeated index fires once per entry).
    pub fn crash_after(chunks: impl IntoIterator<Item = usize>) -> Self {
        FaultPlan { crashes: chunks.into_iter().collect() }
    }

    /// The crash hook: does a crash fire after chunk `chunk`? Consumes the
    /// first matching crash point, so a resumed round passes the same
    /// chunk again unless the script names it twice.
    pub fn fire(&mut self, chunk: usize) -> bool {
        let Some(i) = self.crashes.iter().position(|&c| c == chunk) else {
            return false;
        };
        self.crashes.remove(i);
        true
    }

    /// Crash points not yet fired.
    pub fn remaining(&self) -> usize {
        self.crashes.len()
    }

    /// True when no crash point remains (or the plan was always empty).
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    /// The telemetry site label of a crash after chunk `chunk`:
    /// `crash@<chunk>`.
    pub fn site(chunk: usize) -> String {
        format!("crash@{chunk}")
    }
}

/// What in-band recovery cost a round. There is no in-band recovery, so
/// every round reports zeroes; the type stays because the benchmark
/// package reads `RoundTelemetry::recovery` (its `core.recovery_attempts`
/// metric), and goes with that metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Operations retried after a delivery failure (always 0).
    pub retries: u64,
    /// Shard enclaves relaunched mid-round (always 0).
    pub relaunches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_consumes_one_event_per_call() {
        let mut plan = FaultPlan::crash_after([1, 1, 3]);
        assert_eq!(plan.remaining(), 3);
        assert!(!plan.fire(0), "an unscripted chunk never fires");
        assert!(plan.fire(1));
        assert!(plan.fire(1), "a repeated crash point fires once per entry");
        assert!(!plan.fire(1), "both crashes after chunk 1 consumed");
        assert!(plan.fire(3));
        assert!(plan.is_empty() && plan == FaultPlan::empty());
        assert_eq!(FaultPlan::site(3), "crash@3");
    }
}
