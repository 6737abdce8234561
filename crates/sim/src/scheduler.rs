//! The round scheduler: the §2.1 round, written once, over the state and
//! transport layers.
//!
//! One round `t` of the synchronous model executes phases in this fixed
//! order, each owned by a layer below:
//!
//! 1. **arrivals** — [`crate::Protocol::on_round`] runs (open-system
//!    pacing injects operations due at `t`) against the write-through
//!    [`crate::SimApi`]: each send lands in its sender's outbox, each
//!    issue, completion and drop in the report, during the call;
//! 2. **mature** — the [`crate::transport::Transport`] releases every wire
//!    due at `t` into its destination's in-port
//!    ([`crate::state::NodeStore`]), in (arrival, sequence) order;
//! 3. **deliver (apply)** — each processor with pending in-port work (the
//!    dirty frontier, ascending id; under [`crate::SimConfig::dense_scan`]
//!    the store's whole membership) dequeues up to `recv_budget` in-port
//!    messages and hands each to [`crate::Protocol::on_message`] on its
//!    slice through a [`crate::SliceApi`] over the store and slot it just
//!    popped from; every deliver walk keeps the per-message order
//!    `Ledger::note_delivery`, then the handler, whose sends are validated
//!    and staged straight into the node's outbox and whose completions are
//!    recorded, in call order, as it makes them;
//! 4. **transmit** — each processor with staged sends (again the frontier,
//!    ascending id) dequeues up to `send_budget` outbox messages; each
//!    receives the next global sequence number and is scheduled on the
//!    transport;
//! 5. **quiescence / wakeup** — when every queue and wheel is empty
//!    (an O(1) counter check) the run either ends or fast-forwards to
//!    [`crate::Protocol::next_active_round`].
//!
//! **One skeleton.** `run` is the only round loop and `lockstep_round`
//! the only round body: validation, the time-0 start, the `round > 0`
//! gates, the four barriers with their probe observations and timing laps,
//! the quiescence / wakeup decision and the finish live here only. An
//! executor implements `Phases` (statically dispatched) for what differs:
//! the monolith below over one `Lane` (a store and a timing wheel), the
//! sharded fabric ([`crate::shard`]) over K lanes plus the ferry. Maturity
//! is the lane's one walk; deliver and transmit differ only in their
//! frontier: the fabric's walk the global one (its lanes' merged) instead
//! of one lane's, and the monolith's are their oracle. The `Ledger` lent
//! to every hook holds the report, the backlog counts, the error slot and
//! the phase clock; every [`crate::SimApi`] is a view over it.
//!
//! The invariant this layer owns is the *delivery rule*: a message handled
//! at round `t` can be answered no earlier than round `t + 1` (handler
//! sends enter the outbox, transmit in phase 4, and mature at `t + d`,
//! `d ≥ 1`). The layers below own FIFO; the scheduler owns *when* each
//! FIFO advances. Transmissions carry one run-global sequence numbering on
//! every executor, which is why a sharded execution is operationally
//! identical to the monolith's whenever the inter-shard delay policy
//! matches the intra-shard one.

use crate::probe::{self, Phase, PhaseTimings, Stopwatch};
use crate::protocol::{Backlog, Protocol, SimApi};
use crate::report::{LinkDelay, SimConfig, SimReport};
use crate::state::{Inbound, NodeStore};
use crate::trace::{TraceEvent, TraceKind};
use crate::transport::{Transport, Wire};
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId};

/// Reject configurations the engine cannot execute on `n` processors,
/// constructively — checked by [`run`] before round 0.
fn validate_config(cfg: &SimConfig, n: usize) -> Result<(), SimError> {
    if cfg.send_budget < 1 {
        return Err(SimError::invalid_config("send_budget must be ≥ 1"));
    }
    if cfg.recv_budget < 1 {
        return Err(SimError::invalid_config("recv_budget must be ≥ 1"));
    }
    if cfg.delay_scale < 1 {
        return Err(SimError::invalid_config("delay_scale must be ≥ 1"));
    }
    cfg.faults.validate(n).map_err(SimError::invalid_config)?;
    cfg.probe.validate(n).map_err(SimError::invalid_config)
}

/// Reject a protocol whose [`Protocol::split`] does not cover the `n`
/// processors. Every apply site indexes `slices[v]`, and a short vector on
/// the sharded executor would silently starve the uncovered members (their
/// in-ports never drain and the run spins to `max_rounds`).
fn validate_slices<P: Protocol>(protocol: &mut P, n: usize) -> Result<(), SimError> {
    if protocol.split().1.len() != n {
        return Err(SimError::invalid_config(
            "Protocol::split() must yield exactly one slice per processor",
        ));
    }
    Ok(())
}

/// What every executor's round shares, owned by [`run`] and lent to each
/// [`Phases`] hook: the run's borrowed inputs, the report, the backlog
/// counts, the error slot every [`SimApi`] writes its first invalid send
/// to, and the phase clock.
pub(crate) struct Ledger<'a> {
    graph: &'a Graph,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) report: SimReport,
    backlog: Backlog,
    error: Option<SimError>,
    pub(crate) timing: PhaseTimings,
    watch: Stopwatch,
    /// Microseconds lapped so far in the current round.
    round_micros: u64,
}

impl Ledger<'_> {
    /// The write-through [`SimApi`] at `round`, staging sends through
    /// `stage` (which returns the new outbox depth).
    pub(crate) fn api<'s, M>(
        &'s mut self,
        round: Round,
        stage: &'s mut dyn FnMut(NodeId, NodeId, M) -> usize,
    ) -> SimApi<'s, M> {
        let (report, backlog, error) = (&mut self.report, &mut self.backlog, &mut self.error);
        SimApi::new(round, self.graph, self.cfg.trace, report, backlog, error, stage)
    }

    /// End a callback: the first invalid send it made, if any.
    pub(crate) fn settle(&mut self) -> Result<(), SimError> {
        self.error.take().map_or(Ok(()), Err)
    }

    /// Receive-side bookkeeping of one delivery, shared by both deliver
    /// walks: the per-node receive counter and the optional `Deliver` trace
    /// event. Called immediately before the handler runs, so traces
    /// interleave identically on either executor.
    pub(crate) fn note_delivery(&mut self, round: Round, node: NodeId, src: NodeId) {
        self.report.received_by_node[node] += 1;
        if self.cfg.trace {
            self.report.trace.push(TraceEvent { round, kind: TraceKind::Deliver, node, peer: src });
        }
    }

    /// Sender-side bookkeeping of one lockstep transmission, shared by
    /// both transmit walks: claim the next run-global sequence number and
    /// trace the send; returns the number.
    pub(crate) fn note_transmit(&mut self, round: Round, node: NodeId, peer: NodeId) -> u64 {
        self.report.messages_sent += 1;
        if self.cfg.trace {
            self.report.trace.push(TraceEvent { round, kind: TraceKind::Transmit, node, peer });
        }
        self.report.messages_sent
    }

    /// Close the current stopwatch lap: add it to this round's total and
    /// return it for the caller's phase counter.
    pub(crate) fn lap(&mut self) -> u64 {
        let micros = self.watch.lap();
        self.round_micros += micros;
        micros
    }
}

/// The frontier choice: append the nodes of `store` that may hold work in
/// the queues `take` lists, unsorted — that dirty list (members off it have
/// empty queues), or under the dense reference scan the store's own member
/// list.
pub(crate) fn frontier_into<M>(
    store: &mut NodeStore<M>,
    cfg: &SimConfig,
    take: impl FnOnce(&mut NodeStore<M>, &mut Vec<NodeId>),
    out: &mut Vec<NodeId>,
) {
    if cfg.dense_scan {
        out.extend(store.members());
    } else {
        take(store, out);
    }
}

/// One fabric's state: a store and a timing wheel. The monolith holds one
/// lane, the sharded fabric one per shard plus the ferry; the maturity walk
/// below is the only copy of what it does.
pub(crate) struct Lane<M> {
    pub(crate) store: NodeStore<M>,
    pub(crate) transport: Transport<M>,
}

impl<M> Lane<M> {
    pub(crate) fn new(store: NodeStore<M>, delay: LinkDelay) -> Self {
        Lane { store, transport: Transport::new(delay) }
    }

    /// Maturity: move every wire of the lane's wheel due at `round`, merged
    /// with the due ferry wires `ferry_due` in (arrival, sequence) order,
    /// into the in-ports; returns the deepest in-port observed. The wheel
    /// drains in that order already, so wires are collected and sorted only
    /// when ferry wires are actually merged in. `ferry_due` is drained in
    /// place and keeps its storage for the next round.
    pub(crate) fn mature(&mut self, round: Round, ferry_due: &mut Vec<Wire<M>>) -> usize {
        let store = &mut self.store;
        let mut max_depth = 0usize;
        let mut enqueue = |w: Wire<M>| {
            let inbound = Inbound { src: w.src, arrival: w.arrival, msg: w.msg };
            max_depth = max_depth.max(store.enqueue(w.dst, inbound));
        };
        if ferry_due.is_empty() {
            let mut last = (0, 0);
            self.transport.drain_due(round, |w| {
                debug_assert!((w.arrival, w.seq) > last, "wheel drained out of order");
                last = (w.arrival, w.seq);
                enqueue(w);
            });
        } else {
            self.transport.drain_due(round, |w| ferry_due.push(w));
            ferry_due.sort_unstable_by_key(|w| (w.arrival, w.seq));
            ferry_due.drain(..).for_each(enqueue);
        }
        max_depth
    }

    /// Whether the lane's queues and wheel are all empty.
    pub(crate) fn is_idle(&self) -> bool {
        self.store.is_idle() && self.transport.is_idle()
    }
}

/// The parts of the round in which the executors differ, implemented by
/// the monolith and the sharded fabric. [`lockstep_round`] calls the four
/// phase hooks between its barriers; [`run`] asks [`Phases::idle`] after
/// every round.
pub(crate) trait Phases<P: Protocol> {
    /// Stage a send of a serialized phase (the time-0 start, the arrivals
    /// phase) in `from`'s outbox; returns the new outbox depth.
    fn stage(&mut self, from: NodeId, to: NodeId, msg: P::Msg) -> usize;

    /// Move every wire due at `round` into its destination's in-port.
    fn mature(&mut self, led: &mut Ledger<'_>, round: Round);

    /// Deliver up to `recv_budget` messages per live node and run their
    /// handlers, in ascending node order.
    fn deliver(
        &mut self,
        led: &mut Ledger<'_>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(), SimError>;

    /// Number and put on the wire up to `send_budget` staged sends per
    /// node, in ascending node order.
    fn transmit(&mut self, led: &mut Ledger<'_>, round: Round);

    /// Hash the state at one phase barrier of an observed round.
    fn observe(&mut self, led: &mut Ledger<'_>, round: Round, phase: Phase, token: &str);

    /// Whether every queue and wheel is empty.
    fn idle(&self) -> bool;
}

/// One lockstep round — arrivals through transmit, each phase closed by
/// its barrier. The first three phases are vacuous at round 0, whose
/// barriers still observe, so every executor checkpoints round 0 alike.
pub(crate) fn lockstep_round<P: Protocol, E: Phases<P>>(
    exec: &mut E,
    led: &mut Ledger<'_>,
    protocol: &mut P,
    round: Round,
) -> Result<(), SimError> {
    let observe = led.cfg.probe.observes(round);
    led.watch.reset();
    led.round_micros = 0;
    if round > 0 {
        serialized(exec, led, round, |api| protocol.on_round(api, round))?;
    }
    barrier(exec, led, protocol, round, Phase::Arrivals, observe);
    if round > 0 {
        exec.mature(led, round);
    }
    barrier(exec, led, protocol, round, Phase::Mature, observe);
    if round > 0 {
        exec.deliver(led, protocol, round)?;
    }
    barrier(exec, led, protocol, round, Phase::Deliver, observe);
    exec.transmit(led, round);
    barrier(exec, led, protocol, round, Phase::Transmit, observe);
    led.timing.max_round_micros = led.timing.max_round_micros.max(led.round_micros);
    Ok(())
}

/// Run a serialized phase's callback (the time-0 start, the arrivals
/// phase) against the write-through [`SimApi`], its sends staged through
/// [`Phases::stage`]; then fold the open-system backlog (issued but not
/// completed — 0 for one-shot runs, which record no issues) into its
/// high-water mark. Handlers cannot issue, so the backlog only falls
/// within a deliver phase and this is the only place it can peak.
fn serialized<P: Protocol, E: Phases<P>>(
    exec: &mut E,
    led: &mut Ledger<'_>,
    round: Round,
    f: impl FnOnce(&mut SimApi<P::Msg>),
) -> Result<(), SimError> {
    f(&mut led.api(round, &mut |from, to, msg| exec.stage(from, to, msg)));
    let report = &mut led.report;
    let open = report.issues.len().saturating_sub(report.completions.len());
    report.backlog_high_water = report.backlog_high_water.max(open);
    led.settle()
}

/// The barrier after `phase`: close its timing lap and, in an observed
/// round, hash the state there.
fn barrier<P: Protocol, E: Phases<P>>(
    exec: &mut E,
    led: &mut Ledger<'_>,
    protocol: &P,
    round: Round,
    phase: Phase,
    observe: bool,
) {
    let micros = led.lap();
    *led.timing.of(phase) += micros;
    if observe {
        exec.observe(led, round, phase, &protocol.state_token());
        led.watch.reset();
    }
}

/// The quiescence / wakeup phase: given whether every queue and wheel is
/// idle, decide the next round — `None` ends the run, otherwise the clock
/// advances by one or fast-forwards to the protocol's next scheduled
/// wakeup. The `max_rounds` guard applies to both kinds of advance.
fn advance_round<P: Protocol>(
    protocol: &P,
    idle: bool,
    round: Round,
    max_rounds: Round,
) -> Result<Option<Round>, SimError> {
    let next = if idle {
        match protocol.next_active_round() {
            Some(r) if r > round => r,
            _ => return Ok(None),
        }
    } else {
        round + 1
    };
    if next > max_rounds {
        return Err(SimError::MaxRoundsExceeded { limit: max_rounds });
    }
    Ok(Some(next))
}

/// Run `protocol` on `graph` to quiescence on the executor `build` makes —
/// the one round loop of both [`crate::Simulator`] and
/// [`crate::ShardedSimulator`]. `build` runs after the shared validation
/// and may reject what its executor cannot honour.
pub(crate) fn run<P: Protocol, E: Phases<P>>(
    graph: &Graph,
    cfg: &SimConfig,
    mut protocol: P,
    build: impl FnOnce() -> Result<E, SimError>,
) -> Result<(SimReport, P), SimError> {
    let n = graph.n();
    validate_config(cfg, n)?;
    validate_slices(&mut protocol, n)?;
    let mut exec = build()?;
    let mut led = Ledger {
        graph,
        cfg,
        report: SimReport {
            delay_scale: cfg.delay_scale,
            received_by_node: vec![0; n],
            ..Default::default()
        },
        backlog: Backlog::default(),
        error: None,
        timing: PhaseTimings::default(),
        watch: Stopwatch::new(cfg.probe.timing),
        round_micros: 0,
    };

    // Time 0: every requester issues its operation.
    serialized(&mut exec, &mut led, 0, |api| protocol.on_start(api))?;

    let mut round: Round = 0;
    let last = loop {
        lockstep_round(&mut exec, &mut led, &mut protocol, round)?;
        match advance_round(&protocol, exec.idle(), round, cfg.max_rounds)? {
            Some(next) => round = next,
            None => break round,
        }
    };
    let mut report = led.report;
    report.rounds = last;
    report.record_fault_events(&cfg.faults);
    if cfg.probe.timing {
        report.phase_timing = Some(led.timing);
    }
    Ok((report, protocol))
}

/// The single-fabric executor: every processor in one [`Lane`].
pub(crate) struct Monolith<M> {
    lane: Lane<M>,
    /// Reusable frontier scratch of both walks (capacity retained across
    /// rounds, so steady state allocates nothing here).
    frontier: Vec<NodeId>,
}

impl<M> Monolith<M> {
    /// One full-range lane.
    pub(crate) fn new(n: usize, cfg: &SimConfig) -> Self {
        Monolith { lane: Lane::new(NodeStore::new(n), cfg.link_delay), frontier: Vec::new() }
    }
}

impl<P: Protocol> Phases<P> for Monolith<P::Msg> {
    fn stage(&mut self, from: NodeId, to: NodeId, msg: P::Msg) -> usize {
        self.lane.store.stage(from, to, msg)
    }

    fn mature(&mut self, led: &mut Ledger<'_>, round: Round) {
        let depth = self.lane.mature(round, &mut Vec::new());
        led.report.max_inport_depth = led.report.max_inport_depth.max(depth);
    }

    /// The receive walk: visit the in-port frontier in ascending node
    /// order, skip (and re-list) a crashed node, pop up to `recv_budget`
    /// messages per live node and run the handler on each, its sends
    /// staged in the store it popped from.
    fn deliver(
        &mut self,
        led: &mut Ledger<'_>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(), SimError> {
        let cfg = led.cfg;
        let (shared, slices) = protocol.split();
        let Monolith { lane: Lane { store, .. }, frontier } = self;
        frontier.clear();
        frontier_into(store, cfg, NodeStore::take_inport_frontier, frontier);
        frontier.sort_unstable();
        for &v in frontier.iter() {
            if cfg.faults.is_down(v, round) {
                // Crashed: the in-port freezes in place (neighbours keep
                // buffering over reliable FIFO wires) — re-list so the
                // pending work survives to the recovery round.
                store.relist_inport(v);
                continue;
            }
            for _ in 0..cfg.recv_budget {
                let Some(inb) = store.pop_inport(v) else { break };
                led.report.queue_wait_rounds += round - inb.arrival;
                led.note_delivery(round, v, inb.src);
                let mut stage = |from, to, msg| store.stage(from, to, msg);
                let api = &mut led.api(round, &mut stage);
                P::on_message(shared, &mut slices[v], &mut api.at(v), v, inb.src, inb.msg);
                led.settle()?;
            }
        }
        Ok(())
    }

    /// The lane's outbox walk: visit the outbox frontier in ascending node
    /// order; a node [`SimConfig::holds_transmit`] holds keeps its sends
    /// and is re-listed, any other pops up to `send_budget`, numbering
    /// every send onto the one wheel.
    fn transmit(&mut self, led: &mut Ledger<'_>, round: Round) {
        let cfg = led.cfg;
        let Monolith { lane: Lane { store, transport }, frontier } = self;
        frontier.clear();
        frontier_into(store, cfg, NodeStore::take_outbox_frontier, frontier);
        frontier.sort_unstable();
        for &v in frontier.iter() {
            if cfg.holds_transmit(round, v) {
                store.relist_outbox(v);
                continue;
            }
            for _ in 0..cfg.send_budget {
                let Some((dst, msg)) = store.pop_outbox(v) else { break };
                let seq = led.note_transmit(round, v, dst);
                transport.transmit(v, dst, msg, round, seq);
            }
        }
    }

    fn observe(&mut self, led: &mut Ledger<'_>, round: Round, phase: Phase, token: &str) {
        let Lane { store, transport, .. } = &self.lane;
        let report = &mut led.report;
        probe::observe_phase(&led.cfg.probe, round, phase, &[store], &[transport], token, report);
    }

    fn idle(&self) -> bool {
        self.lane.is_idle()
    }
}
