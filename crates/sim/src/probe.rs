//! Execution probing: per-phase state hashes, checkpoints, snapshots,
//! per-phase wall-clock timing and the transmit perturbation knob.
//!
//! The record/replay layer (`ccq-replay` and the `ccq record/replay/bisect`
//! subcommands) is built on one primitive: a **canonical rendering** of the
//! complete engine state — every in-port, every outbox, every in-flight
//! wire, the report's deterministic counters and the run's arrivals token
//! (its schedule cursor, retries and admission state) — digested with
//! FNV-1a 64. The rendering depends on the state,
//! never on its layout:
//!
//! * per-node sections are emitted only for occupied nodes, in ascending
//!   id order, so the store's size and the history of its slabs are
//!   invisible;
//! * in-flight wires are rendered in `(arrival, seq)` order — the order
//!   [`crate::transport::Transport::drain_due`] matures them in — whatever
//!   delay policy each took;
//! * the per-link FIFO clamp's `link_last` map is *excluded*: it is a
//!   `HashMap` (nondeterministic iteration) and is derived state — its
//!   effect is already visible in the scheduled arrival rounds.
//!
//! Hashes are taken at the **four phase barriers** of one scheduler round
//! (after arrivals, after maturation, after delivery, after transmission).
//! At a barrier the run-global sequence numbering makes the state a pure
//! function of the transmission history, which is what lets `ccq bisect`
//! run two configurations in hash-lockstep and name the exact first
//! divergent `(round, phase, node)`.

use crate::report::SimReport;
use crate::state::NodeStore;
use crate::transport::Transport;
use crate::Round;
use ccq_graph::NodeId;
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string — the probe layer's digest. Stable across
/// runs, platforms and thread counts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The four observable phases of one scheduler round, in execution order.
/// Hashes are taken *after* each phase completes — at the phase barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Phase {
    /// Open-system arrivals admitted / deferred / shed for this round.
    Arrivals,
    /// In-flight wires due this round moved to destination in-ports.
    Mature,
    /// In-port messages handed to protocol handlers (budget-limited).
    Deliver,
    /// Outbox messages placed on the wire (budget-limited).
    Transmit,
}

impl Phase {
    /// Lower-case label, used by `ccq bisect` output and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Arrivals => "arrivals",
            Phase::Mature => "mature",
            Phase::Deliver => "deliver",
            Phase::Transmit => "transmit",
        }
    }
}

/// Per-round digest record: one FNV-1a 64 of the canonical engine state at
/// each of the four phase barriers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Checkpoint {
    /// Round these digests were taken in.
    pub round: Round,
    /// Digest after the arrivals phase.
    pub arrivals: u64,
    /// Digest after the maturation phase.
    pub mature: u64,
    /// Digest after the delivery phase.
    pub deliver: u64,
    /// Digest after the transmission phase.
    pub transmit: u64,
}

impl Checkpoint {
    /// The digest taken at `phase`.
    pub fn digest(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Arrivals => self.arrivals,
            Phase::Mature => self.mature,
            Phase::Deliver => self.deliver,
            Phase::Transmit => self.transmit,
        }
    }
}

/// Digest of one node's canonical section (in-port + outbox) at one phase
/// barrier — recorded only for nodes with non-empty queues, only when
/// [`ProbeSpec::node_hashes`] is set. The bisector uses these to localize
/// a checkpoint divergence to the first differing node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct NodeDigest {
    /// Round the digest was taken in.
    pub round: Round,
    /// Phase barrier it was taken at.
    pub phase: Phase,
    /// The node whose section was digested.
    pub node: NodeId,
    /// FNV-1a 64 of the node's canonical section.
    pub digest: u64,
}

/// Cumulative wall-clock spent in each scheduler phase, in microseconds.
/// Handler time is counted under `deliver_micros`. The laps are summed in
/// nanoseconds and converted once, at the end of the run, so the phases
/// of a run's many sub-microsecond rounds are counted, not truncated away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct PhaseTimings {
    /// Total microseconds in the arrivals phase.
    pub arrivals_micros: u64,
    /// Total microseconds maturing wires into in-ports.
    pub mature_micros: u64,
    /// Total microseconds in the delivery phase, handler time included.
    pub deliver_micros: u64,
    /// Always 0: no executor applies handlers outside the deliver phase
    /// any more. Kept, and serialized, so consumers of the field still
    /// read it.
    pub apply_micros: u64,
    /// Total microseconds in the transmission phase.
    pub transmit_micros: u64,
    /// Largest single-round total, the per-round high-water mark.
    pub max_round_micros: u64,
}

/// Probe configuration, embedded in [`crate::SimConfig`]. The default is
/// fully off: no hashing, no snapshot, no timing, no perturbation — and
/// the engine does no probe work at all in that state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Take a [`Checkpoint`] every this many rounds (round 0 included);
    /// `None` disables checkpointing.
    pub checkpoint_every: Option<Round>,
    /// Capture a full canonical state dump + digest at the transmit
    /// barrier of this round; `None` disables the snapshot.
    pub snapshot_at: Option<Round>,
    /// Also record per-node [`NodeDigest`]s at every checkpointed barrier.
    pub node_hashes: bool,
    /// `(round, node)`: skip `node`'s transmit phase at `round` (its staged
    /// sends wait one extra round) — the deliberate single-node fault the
    /// bisector smoke tests plant; `None` disables the perturbation.
    pub perturb: Option<(Round, NodeId)>,
    /// Record cumulative per-phase wall-clock in the report.
    pub timing: bool,
}

/// The fully-off probe (also the `Default`).
impl ProbeSpec {
    /// No probing at all.
    pub const OFF: ProbeSpec = ProbeSpec {
        checkpoint_every: None,
        snapshot_at: None,
        node_hashes: false,
        perturb: None,
        timing: false,
    };

    /// Builder-style: checkpoint every `every` rounds (`every` is clamped
    /// to ≥ 1).
    pub fn with_checkpoint_every(mut self, every: Round) -> Self {
        self.checkpoint_every = Some(every.max(1));
        self
    }

    /// Builder-style: capture the canonical snapshot at `round`.
    pub fn with_snapshot_at(mut self, round: Round) -> Self {
        self.snapshot_at = Some(round);
        self
    }

    /// Builder-style: toggle per-node digests.
    pub fn with_node_hashes(mut self, on: bool) -> Self {
        self.node_hashes = on;
        self
    }

    /// Builder-style: plant the single-node transmit perturbation.
    pub fn with_perturbation(mut self, round: Round, node: NodeId) -> Self {
        self.perturb = Some((round, node));
        self
    }

    /// Builder-style: toggle per-phase timing.
    pub fn with_timing(mut self, on: bool) -> Self {
        self.timing = on;
        self
    }

    /// Whether a checkpoint is due at `round`.
    #[inline]
    fn wants_checkpoint(&self, round: Round) -> bool {
        self.checkpoint_every.is_some_and(|every| round.is_multiple_of(every))
    }

    /// Whether the snapshot is due at `round`.
    #[inline]
    fn wants_snapshot(&self, round: Round) -> bool {
        self.snapshot_at == Some(round)
    }

    /// Whether any state rendering happens at `round` — the cheap gate the
    /// executors check before paying for canonicalization.
    #[inline]
    pub fn observes(&self, round: Round) -> bool {
        self.wants_checkpoint(round) || self.wants_snapshot(round)
    }

    /// Validate the spec against a run of `n` processors: a planted
    /// perturbation names a real node. One at a node that does not exist
    /// can never fire — the fault a bisection was asked to plant would
    /// silently not be.
    pub(crate) fn validate(&self, n: usize) -> Result<(), String> {
        match self.perturb {
            Some((_, node)) if node >= n => {
                Err(format!("perturbation names node {node} but the topology has {n} nodes"))
            }
            _ => Ok(()),
        }
    }

    /// Whether the transmit phase of `node` is perturbed away at `round`
    /// (the probe half of the scheduler's transmit gate).
    pub(crate) fn skips_transmit(&self, round: Round, node: NodeId) -> bool {
        self.perturb == Some((round, node))
    }
}

impl Default for ProbeSpec {
    fn default() -> Self {
        ProbeSpec::OFF
    }
}

/// The per-phase wall clock behind [`ProbeSpec::timing`]: each lap closes
/// one phase of the current round and accrues to that phase and to the
/// round, in nanoseconds, so no lap shorter than a microsecond is lost;
/// [`Stopwatch::timings`] converts the totals to [`PhaseTimings`]'
/// microseconds once, at the end of the run. A disabled stopwatch never
/// touches the clock, and the scheduler does not lap it at all.
pub(crate) struct Stopwatch {
    enabled: bool,
    last: Option<Instant>,
    /// Nanoseconds per phase, indexed by [`Phase`].
    phase_nanos: [u64; 4],
    /// Nanoseconds lapped so far in the current round.
    round_nanos: u64,
    /// Largest single-round total.
    max_round_nanos: u64,
}

impl Stopwatch {
    /// A stopped stopwatch; it times nothing unless `enabled`.
    pub(crate) fn new(enabled: bool) -> Self {
        Stopwatch { enabled, last: None, phase_nanos: [0; 4], round_nanos: 0, max_round_nanos: 0 }
    }

    /// Whether the run is timed.
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.enabled
    }

    /// Open a round: its total starts at 0 and the lap clock restarts.
    #[inline]
    pub(crate) fn start_round(&mut self) {
        if self.enabled {
            self.round_nanos = 0;
            self.last = Some(Instant::now());
        }
    }

    /// Restart the lap clock without accruing the time since the last lap
    /// (the probe's own work at an observed barrier).
    pub(crate) fn restart(&mut self) {
        if self.enabled {
            self.last = Some(Instant::now());
        }
    }

    /// Close `phase`'s lap: the time since the previous lap (or restart)
    /// accrues to the phase and to the round.
    #[inline]
    pub(crate) fn lap(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let nanos = self.last.map_or(0, |t| now.duration_since(t).as_nanos() as u64);
        self.last = Some(now);
        self.phase_nanos[phase as usize] += nanos;
        self.round_nanos += nanos;
    }

    /// Close the round: fold its total into the per-round high-water mark.
    #[inline]
    pub(crate) fn end_round(&mut self) {
        if self.enabled {
            self.max_round_nanos = self.max_round_nanos.max(self.round_nanos);
        }
    }

    /// The run's totals in microseconds, if it was timed.
    pub(crate) fn timings(&self) -> Option<PhaseTimings> {
        let micros = |nanos: u64| nanos / 1_000;
        let [arrivals, mature, deliver, transmit] = self.phase_nanos.map(micros);
        self.enabled.then_some(PhaseTimings {
            arrivals_micros: arrivals,
            mature_micros: mature,
            deliver_micros: deliver,
            apply_micros: 0,
            transmit_micros: transmit,
            max_round_micros: micros(self.max_round_nanos),
        })
    }
}

/// Render the canonical engine state: node sections (occupied nodes only,
/// ascending), the in-flight wires in `(arrival, seq)` order, the report's
/// deterministic counters and the arrivals token. Returns the canonical
/// string plus the per-node section digests (one per occupied node).
pub(crate) fn canonical_state<M: std::fmt::Debug>(
    store: &NodeStore<M>,
    wheel: &Transport,
    report: &SimReport,
    token: &str,
) -> (String, Vec<(NodeId, u64)>) {
    // Empty processors render nothing, so walking the occupied ones emits
    // exactly the bytes a dense `0..n` scan would, in O(occupied + wires)
    // rendering work.
    let mut buf = String::new();
    let mut nodes = Vec::new();
    for v in store.occupied_nodes() {
        let start = buf.len();
        let _ = write!(buf, "n{v}:in[");
        for m in store.inport_of(v) {
            let _ = write!(buf, "{}@{}:{:?};", m.src(), m.arrival(), m.msg());
        }
        buf.push_str("]out[");
        for m in store.outbox_of(v) {
            let _ = write!(buf, "{}:{:?};", m.dst(), m.msg());
        }
        buf.push(']');
        nodes.push((v, fnv1a(&buf.as_bytes()[start..])));
    }
    buf.push_str("w[");
    for w in wheel.wires(store) {
        let _ = write!(buf, "{}>{}@{}#{}:{:?};", w.src(), w.dst(), w.arrival(), w.seq(), w.msg());
    }
    buf.push(']');
    let _ = write!(
        buf,
        "c[ms={},qw={},ip={},ob={},bh={},da={},cp={:?},is={:?},dr={:?},rb={:?}]",
        report.messages_sent,
        report.queue_wait_rounds,
        report.max_inport_depth,
        report.max_outbox_depth,
        report.backlog_high_water,
        report.delayed_admissions,
        report.completions,
        report.issues,
        report.dropped,
        report.received_by_node,
    );
    if !token.is_empty() {
        let _ = write!(buf, "p[{token}]");
    }
    (buf, nodes)
}

/// Record one phase-barrier observation into `report`: fold the digest into
/// this round's [`Checkpoint`] (creating it at the first phase), record
/// [`NodeDigest`]s when requested, and capture the snapshot at the transmit
/// barrier of the snapshot round. Call only when
/// [`ProbeSpec::observes`]`(round)` — the caller gates the canonicalization
/// cost.
pub(crate) fn observe_phase<M: std::fmt::Debug>(
    probe: &ProbeSpec,
    round: Round,
    phase: Phase,
    store: &NodeStore<M>,
    wheel: &Transport,
    token: &str,
    report: &mut SimReport,
) {
    let (canon, nodes) = canonical_state(store, wheel, &*report, token);
    let digest = fnv1a(canon.as_bytes());
    if probe.wants_checkpoint(round) {
        let cp = match report.checkpoints.last_mut() {
            Some(cp) if cp.round == round => cp,
            _ => {
                report.checkpoints.push(Checkpoint { round, ..Checkpoint::default() });
                report.checkpoints.last_mut().expect("just pushed")
            }
        };
        match phase {
            Phase::Arrivals => cp.arrivals = digest,
            Phase::Mature => cp.mature = digest,
            Phase::Deliver => cp.deliver = digest,
            Phase::Transmit => cp.transmit = digest,
        }
        if probe.node_hashes {
            for (node, d) in &nodes {
                report.node_digests.push(NodeDigest { round, phase, node: *node, digest: *d });
            }
        }
    }
    if phase == Phase::Transmit && probe.wants_snapshot(round) {
        report.snapshot_digest = Some(digest);
        report.snapshot_state = Some(canon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LinkDelay;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn off_spec_observes_nothing() {
        let p = ProbeSpec::OFF;
        assert_eq!(p, ProbeSpec::default());
        for r in [0, 1, 63, 64, 1_000_000] {
            assert!(!p.observes(r));
            assert!(!p.skips_transmit(r, 0));
        }
    }

    #[test]
    fn a_rounds_laps_sum_to_its_wall_time_to_the_nanosecond() {
        let mut watch = Stopwatch::new(true);
        watch.start_round();
        let start = watch.last.expect("a timed round reads the clock");
        for phase in [Phase::Arrivals, Phase::Mature, Phase::Deliver, Phase::Transmit] {
            // Sub-microsecond phases, each long enough to read non-zero.
            let from = Instant::now();
            while from.elapsed().as_nanos() < 200 {
                std::hint::spin_loop();
            }
            watch.lap(phase);
        }
        watch.end_round();
        let elapsed = watch.last.unwrap().duration_since(start).as_nanos() as u64;
        assert!(watch.phase_nanos.iter().all(|&nanos| nanos > 0), "{:?}", watch.phase_nanos);
        assert_eq!(watch.phase_nanos.iter().sum::<u64>(), elapsed);
        assert_eq!((watch.round_nanos, watch.max_round_nanos), (elapsed, elapsed));
        let timings = watch.timings().expect("a timed run reports");
        assert_eq!(timings.max_round_micros, elapsed / 1_000);
        // Off, the clock is never read and nothing is reported.
        let mut off = Stopwatch::new(false);
        off.start_round();
        off.lap(Phase::Deliver);
        off.end_round();
        assert!(off.last.is_none() && off.timings().is_none());
    }

    #[test]
    fn checkpoint_cadence_includes_round_zero() {
        let p = ProbeSpec::OFF.with_checkpoint_every(64);
        assert!(p.wants_checkpoint(0));
        assert!(!p.wants_checkpoint(63));
        assert!(p.wants_checkpoint(64));
        assert!(p.wants_checkpoint(128));
        // every = 0 clamps to 1 rather than dividing by zero.
        let q = ProbeSpec::OFF.with_checkpoint_every(0);
        assert!(q.wants_checkpoint(7));
    }

    #[test]
    fn snapshot_and_perturbation_sentinels() {
        let p = ProbeSpec::OFF.with_snapshot_at(10).with_perturbation(5, 3);
        assert!(p.wants_snapshot(10) && !p.wants_snapshot(9));
        assert!(p.observes(10));
        assert!(p.skips_transmit(5, 3));
        assert!(!p.skips_transmit(5, 2) && !p.skips_transmit(6, 3));
    }

    #[test]
    fn canonical_state_ignores_store_layout() {
        // Only occupied nodes render, in ascending id order: a store of 4
        // and one of 400 holding the same queues render identical bytes,
        // whatever order the queues were filled in.
        let rep = SimReport::default();
        let wheel = Transport::default();
        let mut small: NodeStore<u32> = NodeStore::new(4);
        small.stage(1, 2, 7);
        small.enqueue(3, 0, 2, 9);
        let mut large: NodeStore<u32> = NodeStore::new(400);
        large.enqueue(3, 0, 2, 9);
        large.stage(1, 2, 7);
        let (one, nodes1) = canonical_state(&small, &wheel, &rep, "");
        let (two, nodes2) = canonical_state(&large, &wheel, &rep, "");
        assert_eq!(one, two);
        assert_eq!(nodes1, nodes2);
        assert_eq!(nodes1.iter().map(|&(v, _)| v).collect::<Vec<_>>(), [1, 3]);
        assert!(one.starts_with("n1:in[]out[2:7;]n3:in[0@2:9;]out[]w[]"), "{one}");
    }

    #[test]
    fn canonical_state_orders_wires_across_transports() {
        // One wheel holds a cut wire on a slow ferry and a later intra wire
        // on a unit link: the later wire arrives first and renders first.
        let rep = SimReport::default();
        let mut store: NodeStore<u32> = NodeStore::new(3);
        let mut wheel = Transport::default();
        // Arrives at 3 with seq 1, then arrives at 1 with seq 2.
        for (src, msg, seq, delay) in
            [(0, 10, 1, LinkDelay::Fixed { delay: 3 }), (1, 11, 2, LinkDelay::Unit)]
        {
            store.stage(src, src + 1, msg);
            let (e, _) = store.pop_outbox(src).expect("just staged");
            wheel.transmit(&mut store, e, 0, seq, delay);
        }
        let (canon, _) = canonical_state(&store, &wheel, &rep, "");
        assert!(
            canon.contains("w[1>2@1#2:11;0>1@3#1:10;]"),
            "wires must sort by (arrival, seq): {canon}"
        );
    }

    #[test]
    fn observe_phase_accumulates_one_checkpoint_per_round() {
        let probe = ProbeSpec::OFF.with_checkpoint_every(1).with_node_hashes(true);
        let mut rep = SimReport::default();
        let mut store: NodeStore<u32> = NodeStore::new(2);
        store.stage(0, 1, 5);
        let t = Transport::default();
        for phase in [Phase::Arrivals, Phase::Mature, Phase::Deliver, Phase::Transmit] {
            observe_phase(&probe, 3, phase, &store, &t, "tok", &mut rep);
        }
        assert_eq!(rep.checkpoints.len(), 1);
        let cp = rep.checkpoints[0];
        assert_eq!(cp.round, 3);
        // State did not change between phases, so all four digests agree.
        assert_eq!(cp.arrivals, cp.transmit);
        assert_ne!(cp.arrivals, 0);
        assert_eq!(rep.node_digests.len(), 4); // node 0, once per phase
        assert!(rep.node_digests.iter().all(|d| d.node == 0 && d.round == 3));
    }

    #[test]
    fn snapshot_captured_at_transmit_barrier_only() {
        let probe = ProbeSpec::OFF.with_snapshot_at(2);
        let mut rep = SimReport::default();
        let store: NodeStore<u32> = NodeStore::new(1);
        let t = Transport::default();
        observe_phase(&probe, 2, Phase::Deliver, &store, &t, "", &mut rep);
        assert!(rep.snapshot_digest.is_none());
        observe_phase(&probe, 2, Phase::Transmit, &store, &t, "", &mut rep);
        let digest = rep.snapshot_digest.expect("snapshot at transmit");
        assert_eq!(digest, fnv1a(rep.snapshot_state.as_ref().unwrap().as_bytes()));
        // No checkpoint cadence was configured: snapshot does not imply one.
        assert!(rep.checkpoints.is_empty());
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(Phase::Arrivals.label(), "arrivals");
        assert_eq!(Phase::Transmit.label(), "transmit");
        let cp = Checkpoint { round: 1, arrivals: 10, mature: 20, deliver: 30, transmit: 40 };
        assert_eq!(cp.digest(Phase::Mature), 20);
        assert_eq!(cp.digest(Phase::Deliver), 30);
    }
}
