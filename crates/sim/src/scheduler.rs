//! The round scheduler: the §2.1 round, written once, over the state and
//! transport layers.
//!
//! One round `t` of the synchronous model executes phases in this fixed
//! order, each owned by a layer below:
//!
//! 1. **arrivals** — the operations due at `t` issue through
//!    [`crate::Protocol::issue`] against the write-through
//!    [`crate::SimApi`]: the one-shot batch ([`crate::Protocol::requests`])
//!    at round 0, or the run's [`crate::Arrivals`] at a round where an
//!    arrival or an admission retry is due, admission-gated; each send
//!    lands in its sender's outbox, each issue, completion and drop in the
//!    report, during the call;
//! 2. **mature** — the [`crate::transport::Transport`] releases every wire
//!    due at `t` into its destination's in-port
//!    ([`crate::state::NodeStore::mature`]), in (arrival, sequence) order,
//!    by relinking the message's slab entry — no payload moves;
//! 3. **deliver (apply)** — each processor with pending in-port work (the
//!    dirty frontier, in the ascending id order the store's bitset yields,
//!    unsorted; under [`crate::SimConfig::dense_scan`] every processor)
//!    dequeues up to [`crate::SimConfig::step`] in-port messages and
//!    hands each to [`crate::Protocol::on_message`] on its slice through a
//!    [`crate::SliceApi`] over the store it just popped from; the walk
//!    keeps the per-message order `Ledger::note_delivery`, then the
//!    handler, whose sends are validated and staged straight into the
//!    node's outbox and whose completions are recorded, in call order, as
//!    it makes them; with no in-port occupied the walk is skipped in O(1);
//! 4. **transmit** — each processor with staged sends (again the frontier,
//!    ascending id) dequeues up to `step` outbox messages; each
//!    receives the next global sequence number and its entry is linked
//!    onto the wheel under its link's delay (a send that cannot arrive by
//!    [`crate::SimConfig::max_rounds`] fails the run here); with no outbox
//!    occupied the walk is skipped in O(1);
//! 5. **quiescence / wakeup** — when every queue and the wheel are empty
//!    (O(1): the store's in-port and outbox counts are both 0) the run
//!    either ends or fast-forwards to the next round an arrival or a
//!    retry is due.
//!
//! **One executor.** `run` is the only round loop and `lockstep_round`
//! the only round body: validation, the time-0 start, the `round > 0`
//! gates, the four barriers with their probe observations and timing laps,
//! the quiescence / wakeup decision and the finish live here only, over one
//! `Executor` — one store of all `n` processors, whose one slab holds
//! every message of the run, and one timing wheel of lists of that slab's
//! entries — whether the run is sharded or not. A shard plan is a *cut*: a
//! [`ccq_graph::Partition`] and the ferry's [`LinkDelay`], applied at
//! transmit, where a send whose endpoints the partition separates takes
//! the ferry delay and counts in
//! [`crate::SimReport::cross_shard_messages`] (see [`crate::shard`]).
//! [`crate::Simulator`] is the only caller of `run`, with or without a cut.
//! The `Ledger` lent to every phase holds the run's inputs (the cut, the
//! fault plan and the arrivals among them), the report, the per-shard
//! open-operation counts, the error slot and the phase clock; every
//! [`crate::SimApi`] is a view over it.
//!
//! **A barrier nobody watches costs nothing.** A barrier does two things,
//! both optional: it laps the phase clock (`--timing`) and, in a round the
//! [`crate::ProbeSpec`] observes, hashes the state. The round decides once
//! whether anyone watches it; when no one does, its four barriers are not
//! entered at all — no clock read, no counter, no call — so a run with the
//! probe off pays for the barriers only the test of one flag and one
//! cadence per round.
//!
//! The invariant this layer owns is the *delivery rule*: a message handled
//! at round `t` can be answered no earlier than round `t + 1` (handler
//! sends enter the outbox, transmit in phase 4, and mature at `t + d`,
//! `d ≥ 1`). The layers below own FIFO; the scheduler owns *when* each
//! FIFO advances. Transmissions carry one run-global sequence numbering,
//! which orders simultaneous arrivals whatever delay each wire took.

use crate::arrival::{self, Arrivals};
use crate::probe::{self, Phase, Stopwatch};
use crate::protocol::{Protocol, SimApi};
use crate::report::{FaultPlan, LinkDelay, SimConfig, SimReport};
use crate::state::NodeStore;
use crate::trace::{TraceEvent, TraceKind};
use crate::transport::Transport;
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId, Partition};

/// Reject configurations the engine cannot execute on `n` processors,
/// constructively — checked by [`run`] before round 0.
fn validate_config(cfg: &SimConfig, faults: &FaultPlan, n: usize) -> Result<(), SimError> {
    if cfg.step < 1 {
        return Err(SimError::invalid_config("step must be ≥ 1"));
    }
    faults.validate(n).map_err(SimError::invalid_config)?;
    cfg.probe.validate(n).map_err(SimError::invalid_config)
}

/// What the round records, owned by [`run`] and lent to each phase: the
/// run's borrowed inputs (the shard cut and the fault plan among them),
/// its open schedule (`None`: the one-shot batch), the report, the
/// per-shard open-operation counts, the error slot every [`SimApi`] writes
/// its first invalid send to, and the phase clock.
struct Ledger<'a> {
    graph: &'a Graph,
    cfg: &'a SimConfig,
    cut: Option<(&'a Partition, LinkDelay)>,
    faults: &'a FaultPlan,
    arrivals: Option<Arrivals>,
    report: SimReport,
    /// Empty unless the arrivals enabled per-shard accounting
    /// ([`SimApi::enable_shard_accounting`]).
    shard_open: Vec<u64>,
    error: Option<SimError>,
    watch: Stopwatch,
}

impl Ledger<'_> {
    /// The write-through [`SimApi`] at `round`, staging sends in `store`.
    fn api<'s, M>(&'s mut self, round: Round, store: &'s mut NodeStore<M>) -> SimApi<'s, M> {
        let Ledger { graph, cfg, cut, faults, report, shard_open, error, .. } = self;
        let shards = cut.map(|(partition, _)| partition);
        SimApi { round, graph, cfg, shards, faults, report, shard_open, error, store }
    }

    /// The transmit gate, read by the transmit walk: whether `node`'s
    /// staged sends stay in its outbox through `round` — it is crashed
    /// (they freeze until the recovery round), or it is the planted
    /// perturbation (they wait one extra round, see
    /// [`crate::ProbeSpec::perturb`]). A held node is re-listed so its
    /// sends stay on the frontier; any other node pops up to `step`.
    #[inline]
    fn holds_transmit(&self, round: Round, node: NodeId) -> bool {
        self.faults.is_down(node, round) || self.cfg.probe.skips_transmit(round, node)
    }

    /// End a callback: the first invalid send it made, if any.
    fn settle(&mut self) -> Result<(), SimError> {
        self.error.take().map_or(Ok(()), Err)
    }

    /// Receive-side bookkeeping of one delivery: the per-node receive
    /// counter and the optional `Deliver` trace event. Called immediately
    /// before the handler runs, so a handler's events follow its delivery.
    fn note_delivery(&mut self, round: Round, node: NodeId, src: NodeId) {
        self.report.received_by_node[node] += 1;
        if self.cfg.trace {
            self.report.trace.push(TraceEvent { round, kind: TraceKind::Deliver, node, peer: src });
        }
    }

    /// Sender-side bookkeeping of one transmission: claim the next
    /// run-global sequence number and trace the send; returns the number.
    fn note_transmit(&mut self, round: Round, node: NodeId, peer: NodeId) -> u64 {
        self.report.messages_sent += 1;
        if self.cfg.trace {
            self.report.trace.push(TraceEvent { round, kind: TraceKind::Transmit, node, peer });
        }
        self.report.messages_sent
    }
}

/// One lockstep round — arrivals through transmit, each phase closed by
/// its barrier. Mature and deliver are vacuous at round 0, whose barriers
/// still observe, so every run checkpoints round 0. A round that
/// is neither timed nor observed enters no barrier.
fn lockstep_round<P: Protocol>(
    exec: &mut Executor<P::Msg>,
    led: &mut Ledger<'_>,
    protocol: &mut P,
    round: Round,
) -> Result<(), SimError> {
    let observe = led.cfg.probe.observes(round);
    let watched = observe || led.watch.is_on();
    led.watch.start_round();
    arrive(&mut exec.store, led, protocol, round)?;
    if watched {
        barrier(exec, led, round, Phase::Arrivals, observe);
    }
    if round > 0 {
        exec.mature(led, round);
    }
    if watched {
        barrier(exec, led, round, Phase::Mature, observe);
    }
    if round > 0 {
        exec.deliver(led, protocol, round)?;
    }
    if watched {
        barrier(exec, led, round, Phase::Deliver, observe);
    }
    exec.transmit(led, round)?;
    if watched {
        barrier(exec, led, round, Phase::Transmit, observe);
    }
    led.watch.end_round();
    Ok(())
}

/// The arrivals phase: issue the operations due at `round` — with no open
/// schedule, the one-shot batch ([`Protocol::requests`], in order) at
/// round 0; otherwise the schedule's arrivals and retries due now,
/// admission-gated. A round where nothing is due is not entered.
fn arrive<P: Protocol>(
    store: &mut NodeStore<P::Msg>,
    led: &mut Ledger<'_>,
    protocol: &mut P,
    round: Round,
) -> Result<(), SimError> {
    let due = match &led.arrivals {
        None => round == 0,
        Some(arrivals) => arrivals.next_due().is_some_and(|r| r <= round),
    };
    if !due {
        return Ok(());
    }
    // The schedule is lent out of the ledger for the phase and put back.
    let mut arrivals = led.arrivals.take();
    let settled = serialized(store, led, round, |api| match &mut arrivals {
        Some(arrivals) => arrivals.issue_due(protocol, api),
        None => {
            for i in 0..protocol.requests().len() {
                let v = protocol.requests()[i];
                arrival::inject(protocol, api, v);
            }
        }
    });
    led.arrivals = arrivals;
    settled
}

/// Run a serialized phase's callback (the time-0 start, the arrivals
/// phase) against the write-through [`SimApi`], its sends staged in the
/// sender's outbox; then fold the open-system backlog (issued but not
/// completed — 0 for one-shot runs, which record no issues) into its
/// high-water mark. Handlers cannot issue, so the backlog only falls
/// within a deliver phase and this is the only place it can peak.
fn serialized<M>(
    store: &mut NodeStore<M>,
    led: &mut Ledger<'_>,
    round: Round,
    f: impl FnOnce(&mut SimApi<M>),
) -> Result<(), SimError> {
    f(&mut led.api(round, store));
    let report = &mut led.report;
    report.backlog_high_water = report.backlog_high_water.max(report.open_operations());
    led.settle()
}

/// The barrier after `phase` of a watched round: close its timing lap and,
/// in an observed round, hash the state there — the run's arrivals render
/// their token into it (the hashing is left out of the next phase's lap).
fn barrier<M: std::fmt::Debug>(
    exec: &Executor<M>,
    led: &mut Ledger<'_>,
    round: Round,
    phase: Phase,
    observe: bool,
) {
    led.watch.lap(phase);
    if observe {
        let token = led.arrivals.as_ref().map_or_else(String::new, Arrivals::token);
        let (probe, token) = (&led.cfg.probe, &token);
        probe::observe_phase(probe, round, phase, &exec.store, &exec.wheel, token, &mut led.report);
        led.watch.restart();
    }
}

/// The quiescence / wakeup phase: decide the next round — `None` ends the
/// run, otherwise the clock advances by one or, with every queue and the
/// wheel idle, fast-forwards to the round the run's next arrival or retry
/// is due. The `max_rounds` guard applies to both kinds of advance.
fn advance_round<M>(
    exec: &Executor<M>,
    led: &Ledger<'_>,
    round: Round,
) -> Result<Option<Round>, SimError> {
    let max_rounds = led.cfg.max_rounds;
    let next = if exec.is_idle() {
        match led.arrivals.as_ref().and_then(Arrivals::next_due) {
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

/// Run `protocol` on `graph` to quiescence — the one round loop, reached
/// only through [`crate::Simulator`]. `cut` is a shard plan
/// ([`crate::Simulator::with_cut`]): the partition and the delay of the
/// links it separates. `arrivals` is the open schedule
/// ([`crate::Simulator::with_arrivals`]); with none, the run issues the
/// one-shot batch. The cut is checked to cover the graph after the
/// configuration, the fault plan ([`crate::Simulator::with_faults`]), the
/// slices and the schedule.
pub(crate) fn run<P: Protocol>(
    graph: &Graph,
    cfg: &SimConfig,
    cut: Option<(&Partition, LinkDelay)>,
    faults: &FaultPlan,
    arrivals: Option<Arrivals>,
    mut protocol: P,
) -> Result<(SimReport, P), SimError> {
    let n = graph.n();
    validate_config(cfg, faults, n)?;
    // Every handler call lends `at(v)`: a protocol built for another vertex
    // set would panic there mid-run, so it is refused before round 0.
    if protocol.nodes() != n {
        return Err(SimError::invalid_config("Protocol::at must lend one slice per processor"));
    }
    arrivals.as_ref().map_or(Ok(()), |a| a.validate(n))?;
    if cut.is_some_and(|(partition, _)| partition.n() != n) {
        return Err(SimError::invalid_config(
            "shard partition does not cover the graph's vertex set",
        ));
    }
    let mut exec = Executor {
        store: NodeStore::new(n),
        wheel: Transport::new(cfg.max_rounds),
        frontier: Vec::new(),
    };
    let mut led = Ledger {
        graph,
        cfg,
        cut,
        faults,
        arrivals,
        report: SimReport {
            delay_scale: cfg.step as u64,
            received_by_node: vec![0; n],
            ..Default::default()
        },
        shard_open: Vec::new(),
        error: None,
        watch: Stopwatch::new(cfg.probe.timing),
    };

    // Before round 0: the start, ahead of any operation.
    let scoped = led.arrivals.as_ref().is_some_and(Arrivals::is_shard_scoped);
    serialized(&mut exec.store, &mut led, 0, |api| {
        if scoped {
            api.enable_shard_accounting();
        }
        protocol.on_start(api);
    })?;

    let mut round: Round = 0;
    let last = loop {
        lockstep_round(&mut exec, &mut led, &mut protocol, round)?;
        match advance_round(&exec, &led, round)? {
            Some(next) => round = next,
            None => break round,
        }
    };
    let mut report = led.report;
    report.rounds = last;
    report.record_fault_events(faults);
    report.phase_timing = led.watch.timings();
    Ok((report, protocol))
}

/// The executor: every processor's queues in one store and every wire in
/// flight on one timing wheel, which holds no wire past `max_rounds`.
struct Executor<M> {
    store: NodeStore<M>,
    wheel: Transport,
    /// Reusable frontier scratch of both walks (capacity retained across
    /// rounds, so steady state allocates nothing here).
    frontier: Vec<NodeId>,
}

impl<M> Executor<M> {
    /// Refill the frontier scratch with a walk's visit order, ascending:
    /// the ids `take` yields (any other processor has empty queues of that
    /// kind), or every processor under the dense reference scan.
    fn fill_frontier(&mut self, dense: bool, take: fn(&mut NodeStore<M>, &mut Vec<NodeId>)) {
        self.frontier.clear();
        if dense {
            self.frontier.extend(0..self.store.n());
        } else {
            take(&mut self.store, &mut self.frontier);
        }
    }

    /// Maturity: relink every wire due at `round` onto its destination's
    /// in-port, in the wheel's (arrival, sequence) order, and fold the
    /// deepest in-port into the report. No payload moves.
    fn mature(&mut self, led: &mut Ledger<'_>, round: Round) {
        let store = &mut self.store;
        let (mut depth, mut last) = (0, (0, 0));
        self.wheel.drain_due(round, |due| depth = depth.max(store.mature(due, &mut last)));
        led.report.max_inport_depth = led.report.max_inport_depth.max(depth);
    }

    /// The receive walk: visit the in-port frontier in ascending node
    /// order, skip (and re-list) a crashed node, pop up to `step`
    /// messages per live node and run the handler on each, its sends
    /// staged in the sender's outbox as it makes them. With every in-port
    /// empty the walk would pop nothing, so it is not made.
    fn deliver<P: Protocol<Msg = M>>(
        &mut self,
        led: &mut Ledger<'_>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(), SimError> {
        if self.store.occupied_inports() == 0 {
            return Ok(());
        }
        let cfg = led.cfg;
        self.fill_frontier(cfg.dense_scan, NodeStore::take_inport_frontier);
        let Executor { store, frontier, .. } = self;
        for &v in frontier.iter() {
            if led.faults.is_down(v, round) {
                // Crashed: the in-port freezes in place (neighbours keep
                // buffering over reliable FIFO wires) — re-list so the
                // pending work survives to the recovery round.
                store.relist_inport(v);
                continue;
            }
            for _ in 0..cfg.step {
                let Some(inb) = store.pop_inport(v) else { break };
                led.report.queue_wait_rounds += round - inb.arrival;
                led.note_delivery(round, v, inb.src);
                let (shared, slice) = protocol.at(v);
                let api = &mut led.api(round, store);
                P::on_message(shared, slice, &mut api.at(v), v, inb.src, inb.msg);
                led.settle()?;
            }
        }
        Ok(())
    }

    /// The outbox walk: visit the outbox frontier in ascending node order;
    /// a node `Ledger::holds_transmit` holds keeps its sends and is
    /// re-listed, any other pops up to `step`, numbering every send
    /// onto the wheel under its link's delay — the cut's ferry delay when
    /// the partition separates the endpoints, the run's otherwise. A send
    /// the wheel refused (due after `max_rounds`) fails the run once the
    /// walk ends, which keeps the error path out of the per-send loop.
    /// With every outbox empty the walk is not made.
    fn transmit(&mut self, led: &mut Ledger<'_>, round: Round) -> Result<(), SimError> {
        if self.store.occupied_outboxes() == 0 {
            return Ok(());
        }
        let cfg = led.cfg;
        self.fill_frontier(cfg.dense_scan, NodeStore::take_outbox_frontier);
        let Executor { store, wheel, frontier } = self;
        for &v in frontier.iter() {
            if led.holds_transmit(round, v) {
                store.relist_outbox(v);
                continue;
            }
            for _ in 0..cfg.step {
                let Some((e, dst)) = store.pop_outbox(v) else { break };
                let seq = led.note_transmit(round, v, dst);
                let delay = match led.cut {
                    Some((shards, ferry)) if shards.shard_of(v) != shards.shard_of(dst) => {
                        led.report.cross_shard_messages += 1;
                        ferry
                    }
                    _ => cfg.link_delay,
                };
                wheel.transmit(store, e, round, seq, delay);
            }
        }
        if wheel.overdue {
            return Err(SimError::MaxRoundsExceeded { limit: cfg.max_rounds });
        }
        Ok(())
    }

    /// Whether every queue and the wheel are empty.
    fn is_idle(&self) -> bool {
        self.store.is_idle() && self.wheel.is_idle()
    }
}
