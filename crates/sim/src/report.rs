//! Simulation configuration and results.

use crate::probe::{Checkpoint, NodeDigest, PhaseTimings, ProbeSpec};
use crate::trace::TraceEvent;
use crate::Round;
use ccq_graph::NodeId;
use serde::Serialize;

/// Deterministic splitmix64-style mix used for link delays (and by
/// [`crate::arrival`] for arrival sampling): three inputs, one well-mixed
/// 64-bit output. Stable across runs, platforms and thread counts.
pub(crate) fn mix64(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-link message delivery delay policy.
///
/// The paper's base model has unit-delay wires: a message transmitted at
/// round `t` arrives at round `t + 1`. `LinkDelay` generalizes that rule
/// while keeping every directed link a reliable FIFO channel (the regime
/// under which the paper's lower bounds still apply):
///
/// * [`LinkDelay::Unit`] — the paper's synchronous model, delay 1;
/// * [`LinkDelay::Fixed`] — every link takes the same constant `delay`;
/// * [`LinkDelay::PerLink`] — each directed link draws a constant delay in
///   `1..=max` (deterministic hash of the endpoints under `seed`):
///   heterogeneous wires, still trivially FIFO;
/// * [`LinkDelay::Jitter`] — each *message* takes `1 + U[0, max]` rounds
///   (deterministic per-message hash), clamped so no message overtakes an
///   earlier one on the same directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LinkDelay {
    /// Every transmission takes exactly one round (the paper's model).
    #[default]
    Unit,
    /// Every transmission takes `delay` rounds (`delay ≥ 1`).
    Fixed {
        /// Rounds per hop on every link.
        delay: Round,
    },
    /// Each directed link has a constant delay drawn from `1..=max` by a
    /// deterministic hash of its endpoints under `seed`.
    PerLink {
        /// Largest per-link delay (`≥ 1`).
        max: Round,
        /// Seed for the per-link draw.
        seed: u64,
    },
    /// Each message takes `1 + U[0, max]` rounds, FIFO-clamped per link.
    Jitter {
        /// Maximum extra per-message delay.
        max: Round,
        /// Seed for the per-message hash.
        seed: u64,
    },
}

impl LinkDelay {
    /// Delay (≥ 1) of the `msg_idx`-th transmission over `src → dst`.
    pub fn delay_of(&self, src: NodeId, dst: NodeId, msg_idx: u64) -> Round {
        match *self {
            LinkDelay::Unit => 1,
            LinkDelay::Fixed { delay } => delay.max(1),
            LinkDelay::PerLink { max, seed } => {
                if max <= 1 {
                    1
                } else {
                    1 + mix64(seed, src as u64, dst as u64, 0) % max
                }
            }
            LinkDelay::Jitter { max, seed } => {
                // saturating_add keeps `max = u64::MAX` from wrapping the
                // modulus to zero.
                1 + mix64(seed, src as u64, dst as u64, msg_idx) % max.saturating_add(1).max(1)
            }
        }
    }

    /// Whether delays vary per message on one link, requiring the engine's
    /// FIFO clamp (constant-per-link policies are FIFO by construction).
    pub fn varies_per_message(&self) -> bool {
        matches!(self, LinkDelay::Jitter { max, .. } if *max > 0)
    }

    /// Display name, used by sweeps and the CLI.
    pub fn name(&self) -> String {
        match *self {
            LinkDelay::Unit => "unit".into(),
            LinkDelay::Fixed { delay } => format!("fixed(d={delay})"),
            LinkDelay::PerLink { max, seed } => format!("perlink(max={max},seed={seed})"),
            LinkDelay::Jitter { max, seed } => format!("jitter(max={max},seed={seed})"),
        }
    }
}

/// One injected crash: `node` is down for rounds `at ..< recover`.
///
/// "Down" is fail-pause at round granularity: while down the node neither
/// delivers from its in-port nor transmits from its outbox — both queues
/// freeze in place — and open-system arrivals scheduled at it are deferred
/// to the recovery round. Wires addressed to it still mature and enqueue
/// (reliable FIFO links: neighbours keep buffering), so nothing is lost;
/// on recovery the node drains the accumulated state and the protocol's
/// rank/ancestor structure re-stabilizes through ordinary message
/// processing, with no re-initialization step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashFault {
    /// Processor that crashes.
    pub node: NodeId,
    /// First round the node is down (`≥ 1`: round 0 issues the one-shot
    /// wave and must precede any crash).
    pub at: Round,
    /// First round the node is back up (strictly after `at`).
    pub recover: Round,
}

/// The crash/recover schedule of a run, a pure function of the plan —
/// every executor sees the same node down for the same rounds, which is
/// why fault injection composes with byte-identity and the probe layer
/// without any special casing. A run borrows it
/// ([`crate::Simulator::with_faults`]); the empty plan allocates nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled crashes, in insertion order.
    pub crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// The empty plan (no faults — the default).
    pub const fn none() -> Self {
        FaultPlan { crashes: Vec::new() }
    }

    /// Builder-style: crash `node` at round `at`, recovering at `recover`.
    pub fn crash(mut self, node: NodeId, at: Round, recover: Round) -> Self {
        self.crashes.push(CrashFault { node, at, recover });
        self
    }

    /// Whether any crash is scheduled.
    pub fn is_active(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Short display name (used by sweeps and the CLI).
    pub fn name(&self) -> String {
        if self.crashes.is_empty() {
            return "none".into();
        }
        self.crashes
            .iter()
            .map(|c| format!("crash(node={},at={},recover={})", c.node, c.at, c.recover))
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Whether `node` is down at `round` (down for `at ..< recover`).
    #[inline]
    pub fn is_down(&self, node: NodeId, round: Round) -> bool {
        self.down_until(node, round).is_some()
    }

    /// If `node` is down at `round`, the round it comes back up (the
    /// `recover` of the crash window covering `round`; a valid plan's
    /// windows on one node are disjoint).
    #[inline]
    pub fn down_until(&self, node: NodeId, round: Round) -> Option<Round> {
        self.crashes
            .iter()
            .find(|c| c.node == node && c.at <= round && round < c.recover)
            .map(|c| c.recover)
    }

    /// Refuse two crash windows on one node whose `[at, recover)`
    /// intersect: the node would crash while down and recover while still
    /// down, so the events the run logs would not be the ones it had.
    pub fn check_disjoint(&self) -> Result<(), String> {
        for (i, a) in self.crashes.iter().enumerate() {
            let overlap =
                |b: &&CrashFault| a.node == b.node && a.at < b.recover && b.at < a.recover;
            if let Some(b) = self.crashes[i + 1..].iter().find(overlap) {
                return Err(format!(
                    "fault crash windows [{}, {}) and [{}, {}) on node {} overlap; a node's \
                     windows must be disjoint",
                    a.at, a.recover, b.at, b.recover, a.node
                ));
            }
        }
        Ok(())
    }

    /// Validate the plan against a run of `n` processors: every crash
    /// names a real node, starts at round ≥ 1 and recovers strictly
    /// after it starts, and no two windows on one node overlap.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for c in &self.crashes {
            if c.node >= n {
                return Err(format!(
                    "fault crash names node {} but the topology has {n} nodes",
                    c.node
                ));
            }
            if c.at == 0 {
                return Err(format!(
                    "fault crash at node {} starts at round 0; crashes start at round >= 1 \
                     (round 0 issues the one-shot wave)",
                    c.node
                ));
            }
            if c.recover <= c.at {
                return Err(format!(
                    "fault crash at node {} recovers at round {} which is not after its \
                     crash round {}",
                    c.node, c.recover, c.at
                ));
            }
        }
        self.check_disjoint()
    }

    /// The crash/recover events that fired by the end of a `rounds`-round
    /// run, sorted by `(round, node)` — derived purely from the plan, so
    /// identical across executors by construction.
    pub(crate) fn events_until(&self, rounds: Round) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for c in &self.crashes {
            if c.at <= rounds {
                events.push(FaultEvent { node: c.node, round: c.at, kind: FaultKind::Crash });
            }
            if c.recover <= rounds {
                events.push(FaultEvent {
                    node: c.node,
                    round: c.recover,
                    kind: FaultKind::Recover,
                });
            }
        }
        events.sort_by_key(|e| (e.round, e.node, e.kind as u8));
        events
    }
}

/// What happened to a node at a fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The node went down.
    Crash,
    /// The node came back up.
    Recover,
}

/// One crash or recovery that fired during a run (see
/// [`SimReport::fault_events`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Processor affected.
    pub node: NodeId,
    /// Round the event fired.
    pub round: Round,
    /// Crash or recovery.
    pub kind: FaultKind,
}

impl Serialize for FaultEvent {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"node\":");
        self.node.serialize_json(out);
        out.push_str(",\"round\":");
        self.round.serialize_json(out);
        out.push_str(",\"kind\":\"");
        out.push_str(match self.kind {
            FaultKind::Crash => "crash",
            FaultKind::Recover => "recover",
        });
        out.push_str("\"}");
    }
}

/// The §2.1 model's scalars, each stated once, and accounting options.
/// The run's lists are borrowed, not held: the graph, the shard cut
/// ([`crate::Simulator::with_cut`]) and the fault plan
/// ([`crate::Simulator::with_faults`]).
///
/// * [`SimConfig::strict`] is the paper's base model (§2.1): one send and
///   one receive per processor per time step.
/// * [`SimConfig::expanded`] is the paper's constant-factor reduction: a
///   processor handles up to `c` messages per "expanded" step, and reported
///   delays are scaled by `c` (simulating each powerful step by `c` base
///   steps), so complexities remain comparable with the strict model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// The step constant `c`: a processor transmits and dequeues up to
    /// `step` messages per round, and reported delays are scaled by it.
    pub step: usize,
    /// Abort if quiescence is not reached by this many rounds.
    pub max_rounds: Round,
    /// Record a full event trace in the report.
    pub trace: bool,
    /// Per-link delivery delay policy ([`LinkDelay::Unit`] = the paper's
    /// synchronous model; the other policies are the §2.1 "asynchronous"
    /// regime, under which the paper's lower bounds still apply).
    pub link_delay: LinkDelay,
    /// Walk every processor in the deliver and transmit phases (the
    /// pre-frontier dense reference scan) instead of only the dirty
    /// frontier. An execution strategy, not a model knob: runs are byte-identical either way
    /// (proven by the equivalence proptests); it exists as the reference
    /// implementation the sparse engine is checked against.
    pub dense_scan: bool,
    /// Execution probing: checkpoints, snapshot, per-phase timing and the
    /// perturbation knob (see [`crate::probe::ProbeSpec`]). The default is
    /// fully off and costs nothing.
    pub probe: ProbeSpec,
}

impl SimConfig {
    /// The strict model: 1 send + 1 receive per round.
    pub fn strict() -> Self {
        SimConfig {
            step: 1,
            max_rounds: 100_000_000,
            trace: false,
            link_delay: LinkDelay::Unit,
            dense_scan: false,
            probe: ProbeSpec::OFF,
        }
    }

    /// The expanded-step model for constant `c` (paper §2.1/§4): up to `c`
    /// messages each way per round, delays reported ×`c`. A `c` of 0 is
    /// not rejected here: the engine reports it as
    /// [`crate::SimError::InvalidConfig`] when the configuration is run.
    pub fn expanded(c: usize) -> Self {
        SimConfig { step: c, ..Self::strict() }
    }

    /// Builder-style: set the round limit.
    pub fn with_max_rounds(mut self, r: Round) -> Self {
        self.max_rounds = r;
        self
    }

    /// Builder-style: enable event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style: add asynchronous link jitter of up to `max` extra
    /// rounds per message (deterministic under `seed`). Shorthand for
    /// [`SimConfig::with_link_delay`] with [`LinkDelay::Jitter`].
    pub fn with_jitter(self, max: Round, seed: u64) -> Self {
        self.with_link_delay(LinkDelay::Jitter { max, seed })
    }

    /// Builder-style: set the per-link delivery delay policy.
    pub fn with_link_delay(mut self, delay: LinkDelay) -> Self {
        self.link_delay = delay;
        self
    }

    /// Builder-style: toggle the dense reference scan (see
    /// [`SimConfig::dense_scan`]).
    pub fn with_dense_scan(mut self, on: bool) -> Self {
        self.dense_scan = on;
        self
    }

    /// Builder-style: set the probe spec (checkpoints, snapshot, timing,
    /// perturbation — see [`crate::probe::ProbeSpec`]).
    pub fn with_probe(mut self, probe: ProbeSpec) -> Self {
        self.probe = probe;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::strict()
    }
}

/// One completed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Completion {
    /// Processor whose operation completed.
    pub node: NodeId,
    /// Protocol-defined result (a count, or an encoded predecessor id).
    pub value: u64,
    /// Round at which the operation completed (unscaled).
    pub round: Round,
}

/// One issued operation (recorded for each admitted arrival of a run's
/// [`crate::Arrivals`]; the one-shot batch records none — its operations
/// implicitly issue at round 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Issue {
    /// Processor that issued the operation.
    pub node: NodeId,
    /// Round at which it issued (unscaled).
    pub round: Round,
}

/// One shed arrival: a scheduled operation that admission control
/// ([`crate::admission::AdmissionPolicy::DropTail`]) refused. The
/// operation never issues and never completes; the protocol released
/// anything waiting on it via [`crate::Protocol::cancel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Dropped {
    /// Processor whose arrival was refused.
    pub node: NodeId,
    /// Round at which it was refused (unscaled).
    pub round: Round,
}

/// Result of a simulation run.
///
/// **Serialization contract.** The probe fields (`checkpoints`,
/// `node_digests`, `snapshot_state`, `snapshot_digest`, `phase_timing`)
/// are *excluded* from the JSON encoding — the hand-written [`Serialize`]
/// impl below emits exactly the pre-probe field set, so a probed run's
/// report serializes byte-identically to an unprobed one. Probe data
/// reaches JSON only through the sweep layer's explicitly opted-in
/// `CaseResult` fields.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Rounds executed until quiescence (unscaled).
    pub rounds: Round,
    /// Total messages transmitted over links (= message·hops).
    pub messages_sent: u64,
    /// Σ over delivered messages of rounds spent waiting in the receiver's
    /// port queue — the aggregate contention penalty.
    pub queue_wait_rounds: u64,
    /// Largest receive-queue depth observed at any processor.
    pub max_inport_depth: usize,
    /// Messages that crossed a shard boundary (sent under the inter-shard
    /// ferry's delay). 0 on an unsharded run.
    pub cross_shard_messages: u64,
    /// Largest send-queue (outbox) depth observed at any processor.
    pub max_outbox_depth: usize,
    /// Delay scale applied (the run's [`SimConfig::step`]).
    pub delay_scale: u64,
    /// All completions, in completion order.
    pub completions: Vec<Completion>,
    /// Messages delivered to each processor (length n) — the contention
    /// profile; on the star this is all hub.
    pub received_by_node: Vec<u64>,
    /// Operation issue events, in issue order (empty for one-shot runs:
    /// every operation then implicitly issues at round 0).
    pub issues: Vec<Issue>,
    /// Largest number of simultaneously open operations (issued, not yet
    /// completed) observed — the open-system backlog high-water mark.
    /// 0 for one-shot runs (no issue events are recorded).
    pub backlog_high_water: usize,
    /// Arrivals refused by admission control, in drop order (empty unless
    /// a shedding policy was active).
    pub dropped: Vec<Dropped>,
    /// Admission deferrals: how many times a delaying policy pushed an
    /// arrival to a later round (one arrival retried `r` times counts `r`).
    pub delayed_admissions: u64,
    /// Crash/recover fault events that fired during the run, sorted by
    /// `(round, node)` — derived purely from the run's [`FaultPlan`] and the
    /// final round count, so identical across executors by construction.
    /// Serialized as a `faults` section only when non-empty, keeping
    /// fault-free reports byte-identical to their pre-fault encoding.
    pub fault_events: Vec<FaultEvent>,
    /// Priority class per node (length n when the scenario declared
    /// priority classes; empty otherwise; class 0 is the highest).
    /// Attached by the sweep layer *after* the run for the per-class
    /// metric joins below — the engine never consults it and it is not
    /// serialized (like the probe fields), so classes cannot perturb
    /// byte-identity or probe hashes.
    pub node_class: Vec<u8>,
    /// Event trace (only when [`SimConfig::trace`] was set).
    pub trace: Vec<TraceEvent>,
    /// Per-phase state digests at the configured checkpoint cadence
    /// (empty unless [`crate::probe::ProbeSpec::checkpoint_every`] is set).
    /// Not serialized — see the struct docs.
    pub checkpoints: Vec<Checkpoint>,
    /// Per-node section digests at every checkpointed barrier (empty unless
    /// [`crate::probe::ProbeSpec::node_hashes`] is set). Not serialized.
    pub node_digests: Vec<NodeDigest>,
    /// Canonical state dump captured at the snapshot round's transmit
    /// barrier (`None` unless [`crate::probe::ProbeSpec::snapshot_at`] is
    /// set). Not serialized.
    pub snapshot_state: Option<String>,
    /// FNV-1a 64 of [`SimReport::snapshot_state`]. Not serialized.
    pub snapshot_digest: Option<u64>,
    /// Cumulative per-phase wall-clock (`None` unless
    /// [`crate::probe::ProbeSpec::timing`] is set). Not serialized.
    pub phase_timing: Option<PhaseTimings>,
}

// Hand-written to keep the JSON byte-identical to the pre-probe derive
// output: exactly the original fields, in declaration order, probe fields
// and `node_class` omitted, the `faults` section emitted only when a fault
// actually fired. Guarded by `serialize_skips_probe_fields` below.
impl Serialize for SimReport {
    fn serialize_json(&self, out: &mut String) {
        macro_rules! field {
            ($first:literal, $name:literal, $value:expr) => {
                out.push_str(if $first {
                    concat!("{\"", $name, "\":")
                } else {
                    concat!(",\"", $name, "\":")
                });
                $value.serialize_json(out);
            };
        }
        field!(true, "rounds", self.rounds);
        field!(false, "messages_sent", self.messages_sent);
        field!(false, "queue_wait_rounds", self.queue_wait_rounds);
        field!(false, "max_inport_depth", self.max_inport_depth);
        field!(false, "cross_shard_messages", self.cross_shard_messages);
        field!(false, "max_outbox_depth", self.max_outbox_depth);
        field!(false, "delay_scale", self.delay_scale);
        field!(false, "completions", self.completions);
        field!(false, "received_by_node", self.received_by_node);
        field!(false, "issues", self.issues);
        field!(false, "backlog_high_water", self.backlog_high_water);
        field!(false, "dropped", self.dropped);
        field!(false, "delayed_admissions", self.delayed_admissions);
        if !self.fault_events.is_empty() {
            field!(false, "faults", self.fault_events);
        }
        field!(false, "trace", self.trace);
        out.push('}');
    }
}

impl SimReport {
    /// Scaled delay of one completion.
    fn scaled(&self, c: &Completion) -> u64 {
        c.round * self.delay_scale
    }

    /// Total delay: Σ of scaled per-operation delays — the paper's
    /// *concurrent delay complexity* of this execution.
    pub fn total_delay(&self) -> u64 {
        self.completions.iter().map(|c| self.scaled(c)).sum()
    }

    /// Total delay in raw (unscaled) rounds — the quantity Theorem 4.1
    /// bounds when the expanded-step model is treated as one step per
    /// round, as in Herlihy–Tirthapura–Wattenhofer's analysis.
    pub fn total_delay_unscaled(&self) -> u64 {
        self.completions.iter().map(|c| c.round).sum()
    }

    /// Maximum scaled per-operation delay.
    pub fn max_delay(&self) -> u64 {
        self.completions.iter().map(|c| self.scaled(c)).max().unwrap_or(0)
    }

    /// Mean scaled per-operation delay (0 when there were no operations).
    pub fn mean_delay(&self) -> f64 {
        if self.completions.is_empty() {
            0.0
        } else {
            self.total_delay() as f64 / self.completions.len() as f64
        }
    }

    /// Number of completed operations.
    pub fn ops(&self) -> usize {
        self.completions.len()
    }

    /// Operations issued but not yet completed — the open-system backlog
    /// (0 for one-shot runs, which record no issues).
    pub(crate) fn open_operations(&self) -> usize {
        self.issues.len().saturating_sub(self.completions.len())
    }

    /// Scaled delay per node (`None` = node completed no operation).
    pub fn delay_by_node(&self, n: usize) -> Vec<Option<u64>> {
        let mut d = vec![None; n];
        for c in &self.completions {
            d[c.node] = Some(self.scaled(c));
        }
        d
    }

    /// The processor that received the most messages, with its count
    /// (`None` when nothing was delivered).
    pub fn busiest_node(&self) -> Option<(NodeId, u64)> {
        self.received_by_node
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .filter(|&(_, c)| c > 0)
    }

    /// Fraction of all deliveries that hit the busiest processor (0.0 when
    /// nothing was delivered).
    pub fn contention_concentration(&self) -> f64 {
        let total: u64 = self.received_by_node.iter().sum();
        match self.busiest_node() {
            Some((_, c)) if total > 0 => c as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// Result value per node (`None` = node completed no operation).
    pub fn value_by_node(&self, n: usize) -> Vec<Option<u64>> {
        let mut d = vec![None; n];
        for c in &self.completions {
            d[c.node] = Some(c.value);
        }
        d
    }

    /// Each issuing node's issue round, in a table over the issuers' id
    /// span (every node when all issue, 64 entries for a 64-node cluster,
    /// however large the ids): the table every metric joining completions
    /// to issues reads, a node without an issue event reading 0 — the
    /// one-shot convention. A node that issued twice reads its last issue.
    pub fn issue_rounds(&self) -> IssueRounds {
        let first = self.issues.iter().map(|i| i.node).min().unwrap_or(0);
        let span = self.issues.iter().map(|i| i.node - first + 1).max().unwrap_or(0);
        let mut rounds = vec![0; span];
        for i in &self.issues {
            rounds[i.node - first] = i.round;
        }
        IssueRounds { first, rounds }
    }

    /// Scaled completion latency of each completed operation, in completion
    /// order: `(completion round − issue round) × delay_scale`. For
    /// one-shot runs (no issue events) this equals the per-operation delay.
    pub fn latencies(&self) -> Vec<u64> {
        let issue = self.issue_rounds();
        self.completions.iter().map(|c| (c.round - issue.at(c.node)) * self.delay_scale).collect()
    }

    /// Nearest-rank percentile of the scaled completion latencies — of the
    /// operations the system served: a shed arrival never issues, so it is
    /// excluded by construction. `q` is clamped into `[0, 1]` (a NaN
    /// quantile reads as 0); 0 when no operation completed — a metric read
    /// never panics, whatever the run or the caller produced.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        nearest_rank(&sorted(self.latencies()), q)
    }

    /// The priority class of `node` (0 — the highest — when no class map
    /// was attached or the node is out of range, so every per-class read
    /// is total).
    pub fn class_of(&self, node: NodeId) -> u8 {
        self.node_class.get(node).copied().unwrap_or(0)
    }

    /// The distinct priority classes present in the attached class map,
    /// ascending (empty when no map was attached).
    pub fn classes(&self) -> Vec<u8> {
        let mut c = self.node_class.clone();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Scaled completion latencies of the operations completed by nodes of
    /// `class`, in completion order (everything when no class map was
    /// attached and `class` is 0; empty for a class nothing completed in).
    pub fn class_latencies(&self, class: u8) -> Vec<u64> {
        self.completions
            .iter()
            .zip(self.latencies())
            .filter(|(c, _)| self.class_of(c.node) == class)
            .map(|(_, l)| l)
            .collect()
    }

    /// Nearest-rank percentile of one class's scaled completion latencies,
    /// with the same total-read guarantees as
    /// [`SimReport::latency_percentile`]: 0 for a class nothing completed
    /// in (all-shed classes, unknown classes, zero-retained runs), NaN and
    /// out-of-range quantiles clamped — never a division by zero or panic.
    pub fn class_latency_percentile(&self, class: u8, q: f64) -> u64 {
        nearest_rank(&sorted(self.class_latencies(class)), q)
    }

    /// Per-class accounting: `(issued, completed, dropped)` for `class`.
    /// One-shot runs record no issue events, so `issued` is 0 there by the
    /// same convention as [`SimReport::issues`].
    pub fn class_counts(&self, class: u8) -> (u64, u64, u64) {
        let issued = self.issues.iter().filter(|i| self.class_of(i.node) == class).count();
        let completed = self.completions.iter().filter(|c| self.class_of(c.node) == class).count();
        let dropped = self.dropped.iter().filter(|d| self.class_of(d.node) == class).count();
        (issued as u64, completed as u64, dropped as u64)
    }

    /// Completed operations per (unscaled) round over the whole execution
    /// (`rounds + 1` counts round 0, saturating so a run at the round-count
    /// ceiling cannot overflow) — the steady-state throughput measure.
    /// 0 for an empty run; never NaN or infinite.
    pub fn throughput(&self) -> f64 {
        self.completions.len() as f64 / (self.rounds.saturating_add(1)) as f64
    }

    /// The nodes whose arrivals were shed, sorted ascending.
    pub fn dropped_nodes(&self) -> Vec<NodeId> {
        let mut d: Vec<NodeId> = self.dropped.iter().map(|e| e.node).collect();
        d.sort_unstable();
        d
    }

    /// Useful work per round: [`SimReport::throughput`] discounted by the
    /// shed fraction of the offered load,
    /// `throughput × completed / (completed + dropped)`. Always
    /// `≤ throughput()`, with equality when nothing was shed — the
    /// backpressure trade-off measure (a policy that sheds half the
    /// offered arrivals halves the goodput even if the survivors fly).
    pub fn goodput(&self) -> f64 {
        let completed = self.completions.len();
        let offered = completed + self.dropped.len();
        if offered == 0 {
            return self.throughput();
        }
        self.throughput() * completed as f64 / offered as f64
    }

    /// Per-completion QQC rank displacements of a verified output order
    /// against the canonical linearization of issue order. The canonical
    /// order of each priority class is that class's output subsequence
    /// stably sorted by issue round (ties — including the whole one-shot
    /// case, where every issue is round 0 — displace nothing), and
    /// displacements are measured *within* the class subsequence, so
    /// relaxed-priority reordering across classes is not charged as
    /// consistency debt. Computed purely from the trace events every
    /// executor records identically, so the values are byte-identical
    /// across monolith / sharded / dense-scan paths.
    /// Total on degenerate inputs: an empty `output_order` (all-shed or
    /// zero-completion runs) yields an empty sample, and issue rounds are
    /// only compared, never subtracted, so `Round::MAX` cannot overflow.
    pub fn qqc_displacements(&self, output_order: &[NodeId]) -> Vec<u64> {
        let issue = self.issue_rounds();
        let mut classes: Vec<u8> = output_order.iter().map(|&v| self.class_of(v)).collect();
        classes.sort_unstable();
        classes.dedup();
        let mut out = Vec::with_capacity(output_order.len());
        for class in classes {
            out.extend(self.class_displacements(class, output_order, &issue));
        }
        out
    }

    /// The displacements of `class`'s subsequence of `output_order`,
    /// against the issue table `issue`.
    fn class_displacements(
        &self,
        class: u8,
        output_order: &[NodeId],
        issue: &IssueRounds,
    ) -> Vec<u64> {
        let sub: Vec<NodeId> =
            output_order.iter().copied().filter(|&v| self.class_of(v) == class).collect();
        displacements_of(&sub, |v| issue.at(v))
    }

    /// Aggregate [`SimReport::qqc_displacements`] into a [`Lateness`]
    /// distribution — all zeros for an empty output order.
    pub fn qqc_lateness(&self, output_order: &[NodeId]) -> Lateness {
        Lateness::of(self.qqc_displacements(output_order))
    }

    /// [`SimReport::qqc_lateness`] restricted to the completions of one
    /// priority class — all zeros for a class nothing completed in, with
    /// the same total-read guarantees as every other per-class metric.
    pub fn class_qqc_lateness(&self, class: u8, output_order: &[NodeId]) -> Lateness {
        Lateness::of(self.class_displacements(class, output_order, &self.issue_rounds()))
    }

    /// Derive [`SimReport::fault_events`] from the run's fault plan and
    /// final round count — called once by every executor after its round
    /// loop, so the section is executor-independent by construction.
    pub(crate) fn record_fault_events(&mut self, faults: &FaultPlan) {
        if faults.is_active() {
            self.fault_events = faults.events_until(self.rounds);
        }
    }
}

/// One run's quantitative-quiescent-consistency lateness distribution:
/// aggregates of the per-completion rank displacements computed by
/// [`SimReport::qqc_displacements`] (Jagadeesan–Riely's *lateness* — how
/// far each output position drifts from a canonical linearization of
/// issue order). Every field is total on degenerate inputs: an empty
/// displacement set (all-shed and zero-completion runs) reads as all
/// zeros, never a panic or a NaN.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Lateness {
    /// Largest single displacement.
    pub max: u64,
    /// Mean displacement (0.0 for an empty sample).
    pub mean: f64,
    /// Median displacement (nearest rank).
    pub p50: u64,
    /// 95th-percentile displacement.
    pub p95: u64,
    /// 99th-percentile displacement.
    pub p99: u64,
}

impl Lateness {
    /// Aggregate a displacement sample; all zeros when it is empty.
    pub fn of(displacements: Vec<u64>) -> Self {
        if displacements.is_empty() {
            return Self::default();
        }
        let d = sorted(displacements);
        Lateness {
            max: d[d.len() - 1],
            mean: d.iter().sum::<u64>() as f64 / d.len() as f64,
            p50: nearest_rank(&d, 0.50),
            p95: nearest_rank(&d, 0.95),
            p99: nearest_rank(&d, 0.99),
        }
    }
}

/// Rank displacements of one output subsequence against its canonical
/// linearization: the same nodes *stably* sorted by issue round. The
/// stable sort keeps same-round nodes in their output order, so ties
/// displace nothing — a one-shot run (every issue at round 0) reads as
/// displacement 0 at every position, for every protocol.
fn displacements_of(sub: &[NodeId], round_of: impl Fn(NodeId) -> Round) -> Vec<u64> {
    let mut canon: Vec<usize> = (0..sub.len()).collect();
    canon.sort_by_key(|&i| round_of(sub[i]));
    let mut canon_pos = vec![0usize; sub.len()];
    for (rank, &i) in canon.iter().enumerate() {
        canon_pos[i] = rank;
    }
    canon_pos.iter().enumerate().map(|(i, &c)| (i as i64 - c as i64).unsigned_abs()).collect()
}

/// Nearest-rank percentile of a sample sorted ascending: NaN quantiles
/// read as 0, anything outside `[0, 1]` clamps, an empty sample reads as
/// 0 — the one total-read core of every percentile metric.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Each issuer's last issue round ([`SimReport::issue_rounds`]):
/// `rounds[v - first]` for the ids `first..first + rounds.len()`.
#[derive(Clone, Debug)]
pub struct IssueRounds {
    first: NodeId,
    rounds: Vec<Round>,
}

impl IssueRounds {
    /// `node`'s issue round; 0 for a node that issued nothing.
    pub fn at(&self, node: NodeId) -> Round {
        node.checked_sub(self.first).and_then(|i| self.rounds.get(i)).copied().unwrap_or(0)
    }
}

fn sorted(mut sample: Vec<u64>) -> Vec<u64> {
    sample.sort_unstable();
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        let s = SimConfig::strict();
        assert_eq!(s.step, 1);
        assert!(!s.dense_scan);
        assert_eq!(SimConfig::expanded(3).step, 3);
    }

    #[test]
    fn report_aggregates() {
        let rep = SimReport {
            delay_scale: 2,
            completions: vec![
                Completion { node: 0, value: 1, round: 3 },
                Completion { node: 2, value: 2, round: 5 },
            ],
            ..Default::default()
        };
        assert_eq!(rep.total_delay(), 16);
        assert_eq!(rep.max_delay(), 10);
        assert_eq!(rep.mean_delay(), 8.0);
        assert_eq!(rep.ops(), 2);
        assert_eq!(rep.delay_by_node(3), vec![Some(6), None, Some(10)]);
        assert_eq!(rep.value_by_node(3), vec![Some(1), None, Some(2)]);
    }

    #[test]
    fn empty_report() {
        let rep = SimReport { delay_scale: 1, ..Default::default() };
        assert_eq!(rep.total_delay(), 0);
        assert_eq!(rep.max_delay(), 0);
        assert_eq!(rep.mean_delay(), 0.0);
        assert_eq!(rep.latency_percentile(0.99), 0);
        assert_eq!(rep.throughput(), 0.0);
    }

    /// Metric reads are total: zero-completion, zero-round and
    /// pathological-quantile inputs yield finite, defined values instead
    /// of NaN, division blow-ups or panics.
    #[test]
    fn metrics_survive_empty_and_degenerate_runs() {
        // Zero rounds, zero completions: everything is exactly 0.
        let empty = SimReport { delay_scale: 1, ..Default::default() };
        assert_eq!(empty.throughput(), 0.0);
        assert_eq!(empty.goodput(), 0.0);
        assert_eq!(empty.latency_percentile(0.5), 0);
        // Degenerate quantiles no longer panic: NaN reads as 0, anything
        // outside [0, 1] clamps to the nearest bound.
        assert_eq!(empty.latency_percentile(f64::NAN), 0);
        assert_eq!(empty.latency_percentile(-3.0), 0);
        assert_eq!(empty.latency_percentile(7.5), 0);
        let one = SimReport {
            delay_scale: 1,
            completions: vec![Completion { node: 0, value: 1, round: 4 }],
            ..Default::default()
        };
        assert_eq!(one.latency_percentile(f64::NAN), 4);
        assert_eq!(one.latency_percentile(-1.0), 4);
        assert_eq!(one.latency_percentile(2.0), 4);

        // A run pinned at the round-count ceiling: `rounds + 1` saturates
        // instead of overflowing, and the ratio stays finite.
        let ceiling = SimReport {
            delay_scale: 1,
            rounds: Round::MAX,
            completions: vec![Completion { node: 0, value: 1, round: 0 }],
            ..Default::default()
        };
        assert!(ceiling.throughput().is_finite());
        assert!(ceiling.goodput().is_finite());

        // All offered arrivals shed: goodput collapses to 0 while
        // throughput stays defined.
        let shed = SimReport {
            delay_scale: 1,
            rounds: 9,
            dropped: vec![Dropped { node: 3, round: 1 }],
            ..Default::default()
        };
        assert_eq!(shed.throughput(), 0.0);
        assert_eq!(shed.goodput(), 0.0);
        assert!(shed.goodput() <= shed.throughput());
    }

    #[test]
    fn qqc_lateness_survives_degenerate_runs() {
        // Empty output order (all-shed / zero-completion): all zeros.
        let empty = SimReport { delay_scale: 1, ..Default::default() };
        assert_eq!(empty.qqc_displacements(&[]), Vec::<u64>::new());
        assert_eq!(empty.qqc_lateness(&[]), Lateness::default());
        assert_eq!(empty.class_qqc_lateness(0, &[]), Lateness::default());
        assert_eq!(empty.class_qqc_lateness(200, &[]), Lateness::default());

        // A single completion displaces nothing, whatever its issue round.
        let one = SimReport {
            delay_scale: 1,
            issues: vec![Issue { node: 3, round: 7 }],
            completions: vec![Completion { node: 3, value: 1, round: 9 }],
            ..Default::default()
        };
        assert_eq!(one.qqc_displacements(&[3]), vec![0]);
        assert_eq!(one.qqc_lateness(&[3]), Lateness::of(vec![0]));

        // Issue rounds at the ceiling are compared, never subtracted —
        // `Round::MAX` cannot overflow a displacement.
        let ceiling = SimReport {
            delay_scale: 1,
            issues: vec![Issue { node: 0, round: Round::MAX }, Issue { node: 1, round: 0 }],
            completions: vec![
                Completion { node: 0, value: 1, round: Round::MAX },
                Completion { node: 1, value: 2, round: Round::MAX },
            ],
            rounds: Round::MAX,
            ..Default::default()
        };
        // Output [0, 1] vs canonical [1, 0]: both positions displace by 1.
        assert_eq!(ceiling.qqc_displacements(&[0, 1]), vec![1, 1]);
        let l = ceiling.qqc_lateness(&[0, 1]);
        assert_eq!((l.max, l.p50, l.p99), (1, 1, 1));
        assert_eq!(l.mean, 1.0);
    }

    #[test]
    fn qqc_lateness_ranks_against_issue_order_per_class() {
        // One-shot convention: no issue events means every node reads as
        // issue round 0, the stable sort preserves the output order, and
        // lateness is exactly 0 at every position.
        let oneshot = SimReport { delay_scale: 1, ..Default::default() };
        assert_eq!(oneshot.qqc_displacements(&[4, 2, 0, 3, 1]), vec![0; 5]);
        assert_eq!(oneshot.qqc_lateness(&[4, 2, 0, 3, 1]), Lateness::default());

        // Staggered issues, reversed output: maximal displacement at the
        // ends, zero in the middle.
        let rep = SimReport {
            delay_scale: 1,
            issues: (0..5).map(|n| Issue { node: n, round: n as Round }).collect(),
            completions: (0..5)
                .map(|n| Completion { node: n, value: n as u64 + 1, round: 10 })
                .collect(),
            ..Default::default()
        };
        assert_eq!(rep.qqc_displacements(&[4, 3, 2, 1, 0]), vec![4, 2, 0, 2, 4]);
        let l = rep.qqc_lateness(&[4, 3, 2, 1, 0]);
        assert_eq!((l.max, l.p50, l.p95, l.p99), (4, 2, 4, 4));
        assert_eq!(l.mean, 2.4);

        // With a class map, displacement is measured within each class
        // subsequence — cross-class reordering is not consistency debt.
        let classed = SimReport {
            delay_scale: 1,
            node_class: vec![0, 1, 0, 1],
            issues: (0..4).map(|n| Issue { node: n, round: n as Round }).collect(),
            completions: (0..4)
                .map(|n| Completion { node: n, value: n as u64 + 1, round: 10 })
                .collect(),
            ..Default::default()
        };
        // Output interleaves the classes out of global issue order, but
        // each class subsequence ([0, 2] and [1, 3]) is in issue order.
        assert_eq!(classed.qqc_displacements(&[1, 0, 3, 2]), vec![0; 4]);
        // Reversing one class charges only that class.
        assert_eq!(classed.qqc_displacements(&[3, 0, 1, 2]), vec![0, 0, 1, 1]);
        assert_eq!(classed.class_qqc_lateness(0, &[3, 0, 1, 2]), Lateness::default());
        let c1 = classed.class_qqc_lateness(1, &[3, 0, 1, 2]);
        assert_eq!((c1.max, c1.p50), (1, 1));
        // A class with no completions reads as all zeros.
        assert_eq!(classed.class_qqc_lateness(9, &[3, 0, 1, 2]), Lateness::default());
    }

    #[test]
    fn link_delay_policies() {
        assert_eq!(LinkDelay::Unit.delay_of(0, 1, 7), 1);
        assert_eq!(LinkDelay::Fixed { delay: 3 }.delay_of(5, 6, 1), 3);
        assert_eq!(LinkDelay::Fixed { delay: 0 }.delay_of(5, 6, 1), 1);
        let pl = LinkDelay::PerLink { max: 4, seed: 9 };
        for (a, b) in [(0, 1), (1, 0), (3, 7)] {
            let d = pl.delay_of(a, b, 0);
            assert!((1..=4).contains(&d));
            // Constant per link: independent of the message index.
            assert_eq!(d, pl.delay_of(a, b, 99));
        }
        let j = LinkDelay::Jitter { max: 5, seed: 2 };
        for i in 0..20 {
            assert!((1..=6).contains(&j.delay_of(0, 1, i)));
        }
        assert!(j.varies_per_message());
        assert!(!LinkDelay::Jitter { max: 0, seed: 2 }.varies_per_message());
        assert!(!pl.varies_per_message());
        assert!(!LinkDelay::Unit.varies_per_message());
        assert_eq!(LinkDelay::Unit.name(), "unit");
        assert_eq!(LinkDelay::Fixed { delay: 2 }.name(), "fixed(d=2)");
        assert_eq!(pl.name(), "perlink(max=4,seed=9)");
        assert_eq!(j.name(), "jitter(max=5,seed=2)");
    }

    #[test]
    fn latency_uses_issue_rounds() {
        let rep = SimReport {
            delay_scale: 2,
            completions: vec![
                Completion { node: 0, value: 1, round: 10 },
                Completion { node: 1, value: 2, round: 12 },
                Completion { node: 2, value: 3, round: 30 },
            ],
            issues: vec![
                Issue { node: 0, round: 4 },
                Issue { node: 1, round: 10 },
                Issue { node: 2, round: 10 },
            ],
            rounds: 30,
            ..Default::default()
        };
        // Latencies: (10−4)·2 = 12, (12−10)·2 = 4, (30−10)·2 = 40.
        assert_eq!(rep.latencies(), vec![12, 4, 40]);
        assert_eq!(rep.latency_percentile(0.5), 12);
        assert_eq!(rep.latency_percentile(0.99), 40);
        let issue = rep.issue_rounds();
        assert_eq!(issue.at(1), 10);
        assert_eq!(issue.at(9), 0);
        // The table spans the issuers' ids, whatever they are; a second
        // issue replaces the first.
        let cluster = SimReport {
            issues: vec![
                Issue { node: 70_001, round: 3 },
                Issue { node: 70_000, round: 1 },
                Issue { node: 70_001, round: 8 },
            ],
            ..Default::default()
        };
        let issue = cluster.issue_rounds();
        assert_eq!((issue.first, issue.rounds.len()), (70_000, 2));
        let at = [69_999, 70_000, 70_001, 70_002].map(|v| issue.at(v));
        assert_eq!(at, [0, 1, 8, 0]);
        assert!((rep.throughput() - 3.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn serialize_skips_probe_fields() {
        let mut rep = SimReport {
            rounds: 3,
            messages_sent: 5,
            completions: vec![Completion { node: 1, value: 2, round: 3 }],
            ..Default::default()
        };
        let mut before = String::new();
        rep.serialize_json(&mut before);
        // Populate every probe field; the JSON must not move a byte.
        rep.checkpoints.push(crate::probe::Checkpoint { round: 0, ..Default::default() });
        rep.node_digests.push(crate::probe::NodeDigest {
            round: 0,
            phase: crate::probe::Phase::Arrivals,
            node: 0,
            digest: 7,
        });
        rep.snapshot_state = Some("state".into());
        rep.snapshot_digest = Some(9);
        rep.phase_timing = Some(crate::probe::PhaseTimings::default());
        let mut after = String::new();
        rep.serialize_json(&mut after);
        assert_eq!(before, after);
        assert!(after.starts_with("{\"rounds\":3,\"messages_sent\":5,"));
        assert!(after.ends_with(",\"trace\":[]}"));
        assert!(!after.contains("checkpoint") && !after.contains("snapshot"));
    }

    #[test]
    fn fault_plan_schedules_and_validates() {
        assert!(!FaultPlan::none().is_active());
        let plan = FaultPlan::none().crash(2, 3, 7);
        assert!(plan.is_active());
        assert!(!plan.is_down(2, 2));
        assert!(plan.is_down(2, 3));
        assert!(plan.is_down(2, 6));
        assert!(!plan.is_down(2, 7));
        assert!(!plan.is_down(1, 4));
        assert!(plan.validate(3).is_ok());
        // Node out of range, crash at round 0, recover ≤ at: all named.
        assert!(plan.validate(2).unwrap_err().contains("node 2"));
        let zero = FaultPlan::none().crash(0, 0, 5);
        assert!(zero.validate(4).unwrap_err().contains("round 0"));
        let rev = FaultPlan::none().crash(0, 5, 5);
        assert!(rev.validate(4).unwrap_err().contains("not after"));
        // The plan holds any number of disjoint windows on one node.
        let many = (0..6).fold(FaultPlan::none(), |p, i| p.crash(1, 1 + 3 * i, 3 + 3 * i));
        assert_eq!(many.crashes.len(), 6);
        assert!(many.validate(2).is_ok());
        assert_eq!(many.down_until(1, 7), Some(9));
        assert_eq!(many.down_until(1, 9), None);
        assert_eq!(many.events_until(20).len(), 12);
        // Events stop at the final round.
        assert_eq!(plan.events_until(2), vec![]);
        let mid = plan.events_until(4);
        assert_eq!(mid.len(), 1);
        assert_eq!((mid[0].node, mid[0].round, mid[0].kind), (2, 3, FaultKind::Crash));
        let all = plan.events_until(10);
        assert_eq!(all.len(), 2);
        assert_eq!((all[1].node, all[1].round, all[1].kind), (2, 7, FaultKind::Recover));
    }

    #[test]
    fn overlapping_crash_windows_on_one_node_are_refused() {
        // [1, 5) and [3, 9) on node 1: the node would crash at 3 while
        // down and recover at 5 while still down. Both windows are named,
        // in either insertion order.
        for plan in [
            FaultPlan::none().crash(1, 1, 5).crash(3, 2, 4).crash(1, 3, 9),
            FaultPlan::none().crash(1, 3, 9).crash(1, 1, 5),
        ] {
            let err = plan.validate(6).unwrap_err();
            assert!(err.contains("[1, 5)") && err.contains("[3, 9)"), "{err}");
            assert!(err.contains("node 1") && err.contains("overlap"), "{err}");
        }
        // Nested windows overlap too; touching ones and other nodes' do not.
        assert!(FaultPlan::none().crash(2, 1, 9).crash(2, 3, 4).validate(4).is_err());
        let touching = FaultPlan::none().crash(2, 1, 4).crash(2, 4, 6).crash(3, 2, 5);
        assert_eq!(touching.validate(4), Ok(()));
        assert_eq!(touching.down_until(2, 3), Some(4));
        assert_eq!(touching.down_until(2, 4), Some(6));
    }

    #[test]
    fn fault_section_serializes_only_when_a_fault_fired() {
        let mut rep = SimReport { rounds: 9, ..Default::default() };
        let mut clean = String::new();
        rep.serialize_json(&mut clean);
        assert!(!clean.contains("faults"));
        rep.record_fault_events(&FaultPlan::none().crash(1, 2, 4));
        let mut faulty = String::new();
        rep.serialize_json(&mut faulty);
        assert!(faulty.contains(
            "\"faults\":[{\"node\":1,\"round\":2,\"kind\":\"crash\"},\
             {\"node\":1,\"round\":4,\"kind\":\"recover\"}]"
        ));
        assert!(faulty.ends_with(",\"trace\":[]}"));
    }

    #[test]
    fn per_class_metrics_join_on_the_class_map() {
        let rep = SimReport {
            delay_scale: 1,
            rounds: 20,
            node_class: vec![0, 1, 0, 1],
            completions: vec![
                Completion { node: 0, value: 1, round: 5 },
                Completion { node: 1, value: 2, round: 15 },
            ],
            issues: vec![
                Issue { node: 0, round: 2 },
                Issue { node: 1, round: 2 },
                Issue { node: 3, round: 4 },
            ],
            dropped: vec![Dropped { node: 3, round: 4 }],
            ..Default::default()
        };
        assert_eq!(rep.classes(), vec![0, 1]);
        assert_eq!(rep.class_latencies(0), vec![3]);
        assert_eq!(rep.class_latencies(1), vec![13]);
        assert_eq!(rep.class_latency_percentile(0, 0.99), 3);
        assert_eq!(rep.class_latency_percentile(1, 0.99), 13);
        assert_eq!(rep.class_counts(0), (1, 1, 0));
        assert_eq!(rep.class_counts(1), (2, 1, 1));
    }

    /// Satellite hardening: per-class reads are total on degenerate runs —
    /// all-shed classes, unknown classes, zero-retained runs, no class map.
    #[test]
    fn per_class_metrics_survive_degenerate_runs() {
        // No class map: everything is class 0, other classes read empty.
        let bare = SimReport { delay_scale: 1, ..Default::default() };
        assert_eq!(bare.classes(), vec![]);
        assert_eq!(bare.class_latency_percentile(0, 0.99), 0);
        assert_eq!(bare.class_latency_percentile(7, 0.5), 0);
        // All arrivals of class 1 shed: its percentile is 0, not a panic,
        // and its counts still conserve (0 issued+completed, 1 dropped).
        let shed = SimReport {
            delay_scale: 1,
            rounds: 9,
            node_class: vec![0, 1],
            dropped: vec![Dropped { node: 1, round: 2 }],
            ..Default::default()
        };
        assert_eq!(shed.class_latency_percentile(1, 0.99), 0);
        assert_eq!(shed.class_latency_percentile(1, f64::NAN), 0);
        assert_eq!(shed.class_counts(1), (0, 0, 1));
        assert_eq!(shed.goodput(), 0.0);
        // Out-of-range node in a completion record reads as class 0.
        let stray = SimReport {
            delay_scale: 1,
            node_class: vec![0],
            completions: vec![Completion { node: 5, value: 1, round: 2 }],
            ..Default::default()
        };
        assert_eq!(stray.class_latency_percentile(0, 1.0), 2);
    }

    #[test]
    fn one_shot_latency_equals_delay() {
        let rep = SimReport {
            delay_scale: 1,
            completions: vec![
                Completion { node: 0, value: 1, round: 3 },
                Completion { node: 1, value: 2, round: 7 },
            ],
            ..Default::default()
        };
        assert_eq!(rep.latencies(), vec![3, 7]);
        assert_eq!(rep.latency_percentile(1.0), rep.max_delay());
    }
}
