//! Admission control: backpressure policies gating open-system arrivals.
//!
//! A run with an open schedule ([`crate::Arrivals`]) measures the backlog —
//! operations issued but not yet completed. An [`AdmissionPolicy`] lets
//! the scheduler's arrivals phase *act* on it: each
//! scheduled arrival passes through an [`AdmissionController`] that admits,
//! sheds, or delays it against the **live global backlog**, trading
//! completeness (drops) or admission latency (delays) for a bounded number
//! of in-flight operations.
//!
//! # Per-phase invariant
//!
//! Admission for round `t` is decided in the scheduler's **arrivals phase**
//! (phase 1 of [`crate::scheduler`]): every message matured and delivered
//! up to round `t − 1` has already updated the backlog the controller
//! reads, and no round-`t` transport transmission has happened yet. In
//! other words, an admission decision at `t` observes exactly the
//! post-maturation state of `t − 1` and strictly precedes the transmit
//! phase of `t`. The backlog is the *global* issued-minus-completed count
//! of the whole run, which `SimApi::backlog` reads off the
//! report's issue and completion lists, one count whatever the shard plan
//! — which is why a `k = 1` sharded run admits byte-identically to the
//! unsharded one. [`AdmissionPolicy::PerNode`] alone reads a per-shard
//! count, kept over the run's shard cut when the run's [`crate::Arrivals`]
//! gate on it.
//!
//! # Liveness
//!
//! Delaying policies ([`AdmissionPolicy::DelayRetry`],
//! [`AdmissionPolicy::Adaptive`]) could starve single-wave combining
//! protocols forever: such a protocol completes nothing until every
//! retained requester has arrived, but a backlog-gated controller would
//! never let the stragglers in. The controller therefore **ages** delayed
//! arrivals: once one has waited [`AGE_LIMIT`] rounds past its scheduled
//! round it is admitted unconditionally. Shedding ([`AdmissionPolicy::
//! DropTail`]) needs no aging — a drop resolves the arrival immediately
//! (and the protocol is told via [`crate::Protocol::cancel`]).

use crate::Round;

/// Rounds a delayed arrival may wait before it is admitted unconditionally
/// — the starvation bound of the delaying policies (see the module docs).
pub const AGE_LIMIT: Round = 4096;

/// Cap on the adaptive controller's pacing interval: multiplicative
/// increase stops doubling here, bounding the gap between retries.
pub const INTERVAL_CAP: Round = 256;

/// How arrivals are admitted against the live backlog.
///
/// Every policy is deterministic: the decision depends only on the policy
/// state, the current round and the backlog — no randomness — so admission
/// composes with the engine's byte-reproducibility guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything immediately (the pre-backpressure behaviour; a
    /// run's [`crate::Arrivals`] under `Open` issue every arrival at its
    /// round).
    Open,
    /// Shed load: an arrival finding `backlog ≥ bound` is dropped — it
    /// never issues, never completes, and the protocol releases anything
    /// waiting on it.
    DropTail {
        /// Largest backlog that still admits (`≥ 1` to admit anything).
        bound: usize,
    },
    /// Defer load: an arrival finding `backlog ≥ bound` retries `backoff`
    /// rounds later (repeatedly, until admitted or aged out).
    DelayRetry {
        /// Largest backlog that still admits (clamped to `≥ 1`).
        bound: usize,
        /// Rounds between retries (clamped to `≥ 1`).
        backoff: Round,
    },
    /// AIMD throttle: the controller keeps a pacing interval that
    /// **doubles** (multiplicative decrease of the admission rate, capped
    /// at [`INTERVAL_CAP`]) whenever an arrival finds
    /// `backlog ≥ target_backlog`, and **shrinks by `gain`** (additive
    /// increase of the rate, floored at 1) on every admission. Arrivals
    /// over target retry one interval later; nothing is ever dropped.
    Adaptive {
        /// Backlog the controller steers towards (clamped to `≥ 1`).
        target_backlog: usize,
        /// Rounds subtracted from the pacing interval per admission.
        gain: Round,
    },
    /// Per-node budget: shed an arrival when the backlog of the **shard
    /// its node lives on** reaches `bound`, unless its priority class is
    /// protected. This closes the loop on *local* congestion: in a
    /// federated slow-ferry regime the global backlog can look healthy
    /// while one shard drowns, and the global policies above never see
    /// it. Classes `< protect` bypass the budget entirely, which is what
    /// keeps high-priority latency flat while background load saturates.
    PerNode {
        /// Largest per-shard open-operation count that still admits
        /// unprotected traffic (`bound` is literal, like `DropTail`:
        /// 0 sheds every unprotected arrival).
        bound: usize,
        /// Classes strictly below this value are always admitted
        /// (0 protects nothing; 1 protects class 0, and so on).
        protect: u8,
    },
}

impl AdmissionPolicy {
    /// Short display name, used by sweeps and the CLI.
    pub fn name(&self) -> String {
        match *self {
            AdmissionPolicy::Open => "open".into(),
            AdmissionPolicy::DropTail { bound } => format!("droptail(bound={bound})"),
            AdmissionPolicy::DelayRetry { bound, backoff } => {
                format!("delayretry(bound={bound},backoff={backoff})")
            }
            AdmissionPolicy::Adaptive { target_backlog, gain } => {
                format!("adaptive(target={target_backlog},gain={gain})")
            }
            AdmissionPolicy::PerNode { bound, protect } => {
                format!("pernode(bound={bound},protect={protect})")
            }
        }
    }

    /// Whether this policy can ever refuse or defer an arrival.
    pub fn is_active(&self) -> bool {
        !matches!(self, AdmissionPolicy::Open)
    }

    /// Whether this policy gates on shard-local backlogs (and therefore
    /// has the run count open operations per shard of its cut).
    pub fn is_shard_scoped(&self) -> bool {
        matches!(self, AdmissionPolicy::PerNode { .. })
    }
}

/// Outcome of one admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Issue the operation now.
    Admit,
    /// Refuse the operation permanently (shed load).
    Drop,
    /// Re-evaluate at the given (strictly later) round.
    Retry {
        /// Round at which to retry.
        at: Round,
    },
}

/// Stateful evaluator of an [`AdmissionPolicy`] (the AIMD interval is the
/// only mutable state; the stateless policies ignore it).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionController {
    pub(crate) policy: AdmissionPolicy,
    /// Current adaptive pacing interval, in rounds.
    interval: Round,
}

impl AdmissionController {
    /// A controller at its initial state (interval 1).
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionController { policy, interval: 1 }
    }

    /// The current adaptive pacing interval (1 for the stateless policies)
    /// — exposed so the probe layer can include controller state in
    /// execution hashes.
    pub fn interval(&self) -> Round {
        self.interval
    }

    /// Decide the fate of an arrival at round `now` that was first due at
    /// `first_due`, given the live backlog (issued − completed).
    ///
    /// This is the global-scope entry point: the arrival's shard backlog
    /// is taken to be the global backlog and its class to be 0. Callers
    /// with per-shard accounting use [`AdmissionController::decide_scoped`].
    pub fn decide(&mut self, now: Round, first_due: Round, backlog: usize) -> Admission {
        self.decide_scoped(now, first_due, backlog, backlog, 0)
    }

    /// Decide the fate of an arrival at round `now`, first due at
    /// `first_due` and carrying priority class `class`, given both the
    /// global backlog and the backlog of the shard the arriving node
    /// lives on. The global policies ignore `shard_backlog` and `class`;
    /// [`AdmissionPolicy::PerNode`] reads only them.
    pub fn decide_scoped(
        &mut self,
        now: Round,
        first_due: Round,
        backlog: usize,
        shard_backlog: usize,
        class: u8,
    ) -> Admission {
        // A future-scheduled arrival (`first_due > now`) is not waiting:
        // `now.saturating_sub(first_due)` would clamp its age to 0 and
        // the aging paths below would treat it as freshly due, deferring
        // (or shedding) an operation the schedule has not released yet.
        // Make the pre-due case explicit: an active policy re-evaluates
        // it at the round it first becomes due.
        if first_due > now && self.policy.is_active() {
            return Admission::Retry { at: first_due };
        }
        match self.policy {
            AdmissionPolicy::Open => Admission::Admit,
            AdmissionPolicy::DropTail { bound } => {
                if backlog >= bound {
                    Admission::Drop
                } else {
                    Admission::Admit
                }
            }
            AdmissionPolicy::DelayRetry { bound, backoff } => {
                if backlog >= bound.max(1) && now - first_due < AGE_LIMIT {
                    Admission::Retry { at: now + backoff.max(1) }
                } else {
                    Admission::Admit
                }
            }
            AdmissionPolicy::Adaptive { target_backlog, gain } => {
                if backlog < target_backlog.max(1) {
                    // Additive increase of the admission rate.
                    self.interval = self.interval.saturating_sub(gain).max(1);
                    Admission::Admit
                } else if now - first_due >= AGE_LIMIT {
                    // Aged out: admit unconditionally (liveness).
                    Admission::Admit
                } else {
                    // Multiplicative decrease of the admission rate.
                    self.interval = (self.interval * 2).min(INTERVAL_CAP);
                    Admission::Retry { at: now + self.interval }
                }
            }
            AdmissionPolicy::PerNode { bound, protect } => {
                if class < protect || shard_backlog < bound {
                    Admission::Admit
                } else {
                    Admission::Drop
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_always_admits() {
        let mut c = AdmissionController::new(AdmissionPolicy::Open);
        for backlog in [0, 1, 1_000_000] {
            assert_eq!(c.decide(0, 0, backlog), Admission::Admit);
        }
        assert!(!AdmissionPolicy::Open.is_active());
    }

    #[test]
    fn droptail_sheds_at_the_bound() {
        let mut c = AdmissionController::new(AdmissionPolicy::DropTail { bound: 4 });
        assert_eq!(c.decide(0, 0, 3), Admission::Admit);
        assert_eq!(c.decide(0, 0, 4), Admission::Drop);
        assert_eq!(c.decide(0, 0, 100), Admission::Drop);
        assert!(AdmissionPolicy::DropTail { bound: 4 }.is_active());
    }

    #[test]
    fn delayretry_defers_then_ages_out() {
        let p = AdmissionPolicy::DelayRetry { bound: 2, backoff: 5 };
        let mut c = AdmissionController::new(p);
        assert_eq!(c.decide(10, 10, 1), Admission::Admit);
        assert_eq!(c.decide(10, 10, 2), Admission::Retry { at: 15 });
        // Past the aging bound the arrival is admitted regardless.
        assert_eq!(c.decide(10 + AGE_LIMIT, 10, 99), Admission::Admit);
    }

    #[test]
    fn adaptive_is_aimd_on_the_interval() {
        let p = AdmissionPolicy::Adaptive { target_backlog: 8, gain: 1 };
        let mut c = AdmissionController::new(p);
        // Over target: interval doubles 1 → 2 → 4, retries pushed out.
        assert_eq!(c.decide(0, 0, 8), Admission::Retry { at: 2 });
        assert_eq!(c.decide(2, 0, 9), Admission::Retry { at: 6 });
        // Under target: admit, interval decays additively (4 → 3); the
        // next refusal doubles the decayed interval (3 → 6).
        assert_eq!(c.decide(6, 0, 7), Admission::Admit);
        assert_eq!(c.decide(7, 0, 8), Admission::Retry { at: 13 });
    }

    #[test]
    fn adaptive_interval_is_capped_and_floored() {
        let p = AdmissionPolicy::Adaptive { target_backlog: 1, gain: 1_000 };
        let mut c = AdmissionController::new(p);
        let mut at = 0;
        for _ in 0..20 {
            match c.decide(at, at, 5) {
                Admission::Retry { at: next } => {
                    assert!(next - at <= INTERVAL_CAP, "interval exceeded the cap");
                    at = next;
                }
                other => panic!("expected retry, got {other:?}"),
            }
        }
        // A huge gain floors the interval at 1, it never hits 0.
        assert_eq!(c.decide(at, at, 0), Admission::Admit);
        assert_eq!(c.decide(at + 1, at + 1, 5), Admission::Retry { at: at + 3 });
    }

    #[test]
    fn adaptive_ages_out() {
        let p = AdmissionPolicy::Adaptive { target_backlog: 1, gain: 1 };
        let mut c = AdmissionController::new(p);
        assert_eq!(c.decide(AGE_LIMIT + 7, 7, 99), Admission::Admit);
    }

    #[test]
    fn zero_parameters_are_clamped_live() {
        // bound 0 with DelayRetry and target 0 with Adaptive clamp to 1
        // (an unclamped 0 would defer forever even on an empty system).
        let mut d = AdmissionController::new(AdmissionPolicy::DelayRetry { bound: 0, backoff: 0 });
        assert_eq!(d.decide(0, 0, 0), Admission::Admit);
        assert_eq!(d.decide(0, 0, 1), Admission::Retry { at: 1 });
        let mut a =
            AdmissionController::new(AdmissionPolicy::Adaptive { target_backlog: 0, gain: 0 });
        assert_eq!(a.decide(0, 0, 0), Admission::Admit);
        // DropTail keeps bound 0 literal: it means "shed everything".
        let mut t = AdmissionController::new(AdmissionPolicy::DropTail { bound: 0 });
        assert_eq!(t.decide(0, 0, 0), Admission::Drop);
    }

    #[test]
    fn pre_due_arrivals_are_deferred_to_their_due_round() {
        // Regression: `now.saturating_sub(first_due)` used to clamp a
        // future-scheduled arrival's age to 0, so the aging paths treated
        // it as freshly due and deferred it by `backoff`/`interval` from
        // `now` — or DropTail shed it — before the schedule released it.
        let mut d = AdmissionController::new(AdmissionPolicy::DelayRetry { bound: 1, backoff: 7 });
        assert_eq!(d.decide(5, 10, 99), Admission::Retry { at: 10 });
        let mut a =
            AdmissionController::new(AdmissionPolicy::Adaptive { target_backlog: 1, gain: 1 });
        assert_eq!(a.decide(5, 10, 99), Admission::Retry { at: 10 });
        // No AIMD state moved for a pre-due arrival.
        assert_eq!(a.interval(), 1);
        let mut t = AdmissionController::new(AdmissionPolicy::DropTail { bound: 0 });
        assert_eq!(t.decide(5, 10, 99), Admission::Retry { at: 10 });
        // Open stays open: nothing to defer against.
        let mut o = AdmissionController::new(AdmissionPolicy::Open);
        assert_eq!(o.decide(5, 10, 99), Admission::Admit);
    }

    #[test]
    fn aging_admits_exactly_at_the_age_limit() {
        let p = AdmissionPolicy::DelayRetry { bound: 1, backoff: 3 };
        let mut c = AdmissionController::new(p);
        // One round short of the bound: still deferred.
        let last_deferred = 10 + AGE_LIMIT - 1;
        assert_eq!(c.decide(last_deferred, 10, 99), Admission::Retry { at: last_deferred + 3 });
        // Exactly at the bound: admitted unconditionally.
        assert_eq!(c.decide(10 + AGE_LIMIT, 10, 99), Admission::Admit);
        let mut a =
            AdmissionController::new(AdmissionPolicy::Adaptive { target_backlog: 1, gain: 1 });
        assert_eq!(
            a.decide(10 + AGE_LIMIT - 1, 10, 99),
            Admission::Retry { at: 10 + AGE_LIMIT + 1 }
        );
        assert_eq!(a.decide(10 + AGE_LIMIT, 10, 99), Admission::Admit);
    }

    #[test]
    fn pernode_sheds_on_the_shard_backlog_not_the_global_one() {
        let p = AdmissionPolicy::PerNode { bound: 4, protect: 1 };
        let mut c = AdmissionController::new(p);
        // Global backlog huge, shard under budget: admit.
        assert_eq!(c.decide_scoped(0, 0, 1_000_000, 3, 1), Admission::Admit);
        // Shard at budget: unprotected class shed, protected class admitted.
        assert_eq!(c.decide_scoped(0, 0, 0, 4, 1), Admission::Drop);
        assert_eq!(c.decide_scoped(0, 0, 0, 4, 0), Admission::Admit);
        // Pre-due arrivals defer like the other active policies.
        assert_eq!(c.decide_scoped(2, 9, 0, 99, 1), Admission::Retry { at: 9 });
        assert!(p.is_active());
        assert!(p.is_shard_scoped());
        assert!(!AdmissionPolicy::DropTail { bound: 6 }.is_shard_scoped());
    }

    #[test]
    fn decide_is_the_global_scope_of_decide_scoped() {
        // The 3-arg entry point feeds the global backlog in as the shard
        // backlog, so PerNode degrades to droptail-at-bound, class 0.
        let mut c = AdmissionController::new(AdmissionPolicy::PerNode { bound: 2, protect: 0 });
        assert_eq!(c.decide(0, 0, 1), Admission::Admit);
        assert_eq!(c.decide(0, 0, 2), Admission::Drop);
    }

    #[test]
    fn names_render() {
        assert_eq!(AdmissionPolicy::Open.name(), "open");
        assert_eq!(AdmissionPolicy::DropTail { bound: 64 }.name(), "droptail(bound=64)");
        assert_eq!(
            AdmissionPolicy::DelayRetry { bound: 8, backoff: 4 }.name(),
            "delayretry(bound=8,backoff=4)"
        );
        assert_eq!(
            AdmissionPolicy::Adaptive { target_backlog: 32, gain: 2 }.name(),
            "adaptive(target=32,gain=2)"
        );
        assert_eq!(
            AdmissionPolicy::PerNode { bound: 16, protect: 1 }.name(),
            "pernode(bound=16,protect=1)"
        );
    }
}
