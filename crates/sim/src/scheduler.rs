//! The round scheduler: the §2.1 round, written once, over the state and
//! transport layers.
//!
//! One round `t` of the synchronous model executes phases in this fixed
//! order, each owned by a layer below:
//!
//! 1. **arrivals** — [`crate::Protocol::on_round`] runs (open-system
//!    pacing injects operations due at `t`); staged effects are drained;
//! 2. **mature** — the [`crate::transport::Transport`] releases every wire
//!    due at `t` into its destination's in-port
//!    ([`crate::state::NodeStore`]), in (arrival, sequence) order;
//! 3. **deliver (apply)** — each processor with pending in-port work (the
//!    dirty frontier, ascending id; under [`crate::SimConfig::dense_scan`]
//!    the store's whole membership) dequeues up to `recv_budget` in-port
//!    messages and hands each to [`crate::Protocol::on_message`] on its
//!    slice; every deliver walk keeps the per-message order
//!    `Ledger::note_delivery`, the handler, `Ledger::apply_effects` — the
//!    handler's effects in call order, each send validated and staged
//!    straight into its sender's outbox, each completion recorded;
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
//! to every hook holds the report, the staging API and the phase clock.
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
use crate::protocol::{Protocol, SimApi, SliceEffect};
use crate::report::{Completion, LinkDelay, SimConfig, SimReport};
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
/// [`Phases`] hook: the run's borrowed inputs, the report, the protocol's
/// staging API and the phase clock.
pub(crate) struct Ledger<'a, M> {
    graph: &'a Graph,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) report: SimReport,
    pub(crate) api: SimApi<M>,
    pub(crate) timing: PhaseTimings,
    watch: Stopwatch,
    /// Microseconds lapped so far in the current round.
    round_micros: u64,
}

/// Append one `kind` event at `node` to the report's trace, if tracing.
fn traced(report: &mut SimReport, on: bool, round: Round, kind: TraceKind, node: NodeId) {
    if on {
        report.trace.push(TraceEvent { round, kind, node, peer: node });
    }
}

impl<M> Ledger<'_, M> {
    /// Move what a serialized phase (the time-0 start, the arrivals phase)
    /// staged in the API buffers into the engine: sends are validated
    /// against the graph and pushed through `stage` (which returns the new
    /// outbox depth); completions, issues and drops are recorded in the
    /// report, and the backlog's high-water mark with them.
    pub(crate) fn drain(
        &mut self,
        round: Round,
        mut stage: impl FnMut(NodeId, NodeId, M) -> usize,
    ) -> Result<(), SimError> {
        let (graph, trace) = (self.graph, self.cfg.trace);
        let (api, report) = (&mut self.api, &mut self.report);
        for (from, to, msg) in api.outgoing.drain(..) {
            if from >= graph.n() || to >= graph.n() || !graph.has_edge(from, to) {
                return Err(SimError::InvalidSend { from, to, round });
            }
            let depth = stage(from, to, msg);
            report.max_outbox_depth = report.max_outbox_depth.max(depth);
        }
        // The three record kinds are `Copy`: read in place, then clear (which
        // keeps the storage). Measured cheaper than a `Drain` on the buffers
        // that are empty at most calls — every sparse round of an open-system
        // run comes through here at least once.
        for &i in &api.issued {
            debug_assert_eq!(i.round, round, "issue round mismatch");
            report.issues.push(i);
            traced(report, trace, round, TraceKind::Issue, i.node);
        }
        api.issued.clear();
        for &c in &api.completed {
            debug_assert_eq!(c.round, round, "completion round mismatch");
            report.completions.push(c);
            traced(report, trace, round, TraceKind::Complete, c.node);
        }
        api.completed.clear();
        // Admission-control accounting: shed arrivals and deferral counts
        // (recorded by `Paced` during the arrivals phase; empty under the
        // `Open` policy and for one-shot runs).
        for &d in &api.dropped {
            debug_assert_eq!(d.round, round, "drop round mismatch");
            report.dropped.push(d);
            traced(report, trace, round, TraceKind::Drop, d.node);
        }
        api.dropped.clear();
        report.delayed_admissions += std::mem::take(&mut api.delayed);
        // Open-system backlog: operations issued but not yet completed
        // (one-shot runs record no issues, so this stays 0 there).
        report.backlog_high_water = report
            .backlog_high_water
            .max(report.issues.len().saturating_sub(report.completions.len()));
        Ok(())
    }

    /// The one effect drain of every deliver walk: take the
    /// effects of the handler that ran at `node`, in call order. A send is
    /// validated against the graph ([`SimError::InvalidSend`]) and staged
    /// through `stage` (which returns the new outbox depth); a completion
    /// gets [`SimApi::complete`]'s bookkeeping and goes straight into the
    /// report. Handlers cannot issue, so the backlog only falls within a
    /// deliver phase and the arrivals drain has already recorded its
    /// high-water mark.
    pub(crate) fn apply_effects(
        &mut self,
        round: Round,
        node: NodeId,
        effects: impl IntoIterator<Item = SliceEffect<M>>,
        mut stage: impl FnMut(NodeId, NodeId, M) -> usize,
    ) -> Result<(), SimError> {
        let (graph, trace) = (self.graph, self.cfg.trace);
        let report = &mut self.report;
        for effect in effects {
            match effect {
                SliceEffect::Send { to, msg } => {
                    if to >= graph.n() || !graph.has_edge(node, to) {
                        return Err(SimError::InvalidSend { from: node, to, round });
                    }
                    let depth = stage(node, to, msg);
                    report.max_outbox_depth = report.max_outbox_depth.max(depth);
                }
                SliceEffect::Complete { node, value } => {
                    self.api.note_completion(node);
                    report.completions.push(Completion { node, value, round });
                    traced(report, trace, round, TraceKind::Complete, node);
                }
            }
        }
        Ok(())
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
    /// Take the effects staged in the arrivals phase (or the time-0 start)
    /// into the report and the senders' outboxes.
    fn arrivals(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) -> Result<(), SimError>;

    /// Move every wire due at `round` into its destination's in-port.
    fn mature(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round);

    /// Deliver up to `recv_budget` messages per live node and apply their
    /// handlers, draining effects in ascending node order.
    fn deliver(
        &mut self,
        led: &mut Ledger<'_, P::Msg>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(), SimError>;

    /// Number and put on the wire up to `send_budget` staged sends per
    /// node, in ascending node order.
    fn transmit(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round);

    /// Hash the state at one phase barrier of an observed round.
    fn observe(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round, phase: Phase, token: &str);

    /// Whether every queue and wheel is empty.
    fn idle(&self) -> bool;
}

/// One lockstep round — arrivals through transmit, each phase closed by
/// its barrier. The first three phases are vacuous at round 0, whose
/// barriers still observe, so every executor checkpoints round 0 alike.
pub(crate) fn lockstep_round<P: Protocol, E: Phases<P>>(
    exec: &mut E,
    led: &mut Ledger<'_, P::Msg>,
    protocol: &mut P,
    round: Round,
) -> Result<(), SimError> {
    let observe = led.cfg.probe.observes(round);
    led.watch.reset();
    led.round_micros = 0;
    if round > 0 {
        led.api.set_round(round);
        protocol.on_round(&mut led.api, round);
        exec.arrivals(led, round)?;
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

/// The barrier after `phase`: close its timing lap and, in an observed
/// round, hash the state there.
fn barrier<P: Protocol, E: Phases<P>>(
    exec: &mut E,
    led: &mut Ledger<'_, P::Msg>,
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
        api: SimApi::new(),
        timing: PhaseTimings::default(),
        watch: Stopwatch::new(cfg.probe.timing),
        round_micros: 0,
    };

    // Time 0: every requester issues its operation.
    protocol.on_start(&mut led.api);
    exec.arrivals(&mut led, 0)?;

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
    fn arrivals(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) -> Result<(), SimError> {
        let store = &mut self.lane.store;
        led.drain(round, |f, t, m| store.stage(f, t, m))
    }

    fn mature(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) {
        let depth = self.lane.mature(round, &mut Vec::new());
        led.report.max_inport_depth = led.report.max_inport_depth.max(depth);
    }

    /// The receive walk: visit the in-port frontier in ascending node
    /// order, skip (and re-list) a crashed node, pop up to `recv_budget`
    /// messages per live node and run the handler on each, its effects
    /// applied after every message.
    fn deliver(
        &mut self,
        led: &mut Ledger<'_, P::Msg>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(), SimError> {
        let cfg = led.cfg;
        let (shared, slices) = protocol.split();
        let Monolith { lane: Lane { store, .. }, frontier } = self;
        frontier.clear();
        frontier_into(store, cfg, NodeStore::take_inport_frontier, frontier);
        frontier.sort_unstable();
        let mut sapi = led.api.lend_slice_api(0);
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
                sapi.set_node(v);
                P::on_message(shared, &mut slices[v], &mut sapi, v, inb.src, inb.msg);
                let effects = sapi.effects.drain(..);
                led.apply_effects(round, v, effects, |f, t, m| store.stage(f, t, m))?;
            }
        }
        led.api.reclaim(sapi);
        Ok(())
    }

    /// The lane's outbox walk: visit the outbox frontier in ascending node
    /// order; a node [`SimConfig::holds_transmit`] holds keeps its sends
    /// and is re-listed, any other pops up to `send_budget`, numbering
    /// every send onto the one wheel.
    fn transmit(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) {
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

    fn observe(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round, phase: Phase, token: &str) {
        let Lane { store, transport, .. } = &self.lane;
        let report = &mut led.report;
        probe::observe_phase(&led.cfg.probe, round, phase, &[store], &[transport], token, report);
    }

    fn idle(&self) -> bool {
        self.lane.is_idle()
    }
}
