//! The round scheduler: phase ordering over the state and transport layers.
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
//!    dirty frontier, walked in ascending id order; under
//!    [`crate::SimConfig::dense_scan`] the reference executor walks every
//!    processor) dequeues up to `recv_budget` in-port messages and hands
//!    each to [`crate::Protocol::on_message`] on that processor's slice;
//!    handler effects drain after every message. Every apply site calls
//!    the handler the same way and keeps the same per-message order
//!    (`note_delivery`, the handler's effects, `drain_api`): the
//!    serialized global-order walk below and the sharded executor's
//!    barrier walk call it directly, while its parallel path runs the
//!    handlers inside each shard's task and replays their staged effects
//!    here-equivalently at the round barrier;
//! 4. **transmit** — each processor with staged sends (again the frontier,
//!    ascending id) dequeues up to `send_budget` outbox messages; each
//!    receives the next global sequence number and is scheduled on the
//!    transport;
//! 5. **quiescence / wakeup** — when every queue and wheel is empty
//!    (an O(1) counter check) the run either ends or fast-forwards to
//!    [`crate::Protocol::next_active_round`].
//!
//! The invariant this layer owns is the *delivery rule*: a message handled
//! at round `t` can be answered no earlier than round `t + 1` (handler
//! sends enter the outbox, transmit in phase 4, and mature at `t + d`,
//! `d ≥ 1`). The layers below own FIFO; the scheduler owns *when* each
//! FIFO advances. The sharded executor ([`crate::shard`]) reuses these
//! phases with per-shard state/transport instances and the same global
//! sequence numbering, which is why its executions are operationally
//! identical to this single-fabric loop whenever the inter-shard delay
//! policy matches the intra-shard one.

use crate::probe::{self, Phase, PhaseTimings, Stopwatch};
use crate::protocol::{Protocol, SimApi};
use crate::report::{SimConfig, SimReport};
use crate::state::NodeStore;
use crate::trace::{TraceEvent, TraceKind};
use crate::transport::Transport;
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId};

/// Reject configurations the engine cannot execute on `n` processors,
/// constructively — the one check both executors run before round 0.
pub(crate) fn validate_config(cfg: &SimConfig, n: usize) -> Result<(), SimError> {
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
pub(crate) fn validate_slices<P: Protocol>(protocol: &mut P, n: usize) -> Result<(), SimError> {
    if protocol.split().1.len() != n {
        return Err(SimError::invalid_config(
            "Protocol::split() must yield exactly one slice per processor",
        ));
    }
    Ok(())
}

/// Move staged sends/completions/issues from the API buffers into the
/// engine: sends are validated against the graph and pushed through
/// `stage` (which returns the new outbox depth), completions and issues
/// are recorded in the report.
pub(crate) fn drain_api<M>(
    graph: &Graph,
    api: &mut SimApi<M>,
    report: &mut SimReport,
    round: Round,
    trace: bool,
    mut stage: impl FnMut(NodeId, NodeId, M) -> usize,
) -> Result<(), SimError> {
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
        if trace {
            report.trace.push(TraceEvent {
                round,
                kind: TraceKind::Issue,
                node: i.node,
                peer: i.node,
            });
        }
    }
    api.issued.clear();
    for &c in &api.completed {
        debug_assert_eq!(c.round, round, "completion round mismatch");
        report.completions.push(c);
        if trace {
            report.trace.push(TraceEvent {
                round,
                kind: TraceKind::Complete,
                node: c.node,
                peer: c.node,
            });
        }
    }
    api.completed.clear();
    // Admission-control accounting: shed arrivals and deferral counts
    // (recorded by `Paced` during the arrivals phase; empty under the
    // `Open` policy and for one-shot runs).
    for &d in &api.dropped {
        debug_assert_eq!(d.round, round, "drop round mismatch");
        report.dropped.push(d);
        if trace {
            report.trace.push(TraceEvent {
                round,
                kind: TraceKind::Drop,
                node: d.node,
                peer: d.node,
            });
        }
    }
    api.dropped.clear();
    report.delayed_admissions += std::mem::take(&mut api.delayed);
    // Open-system backlog: operations issued but not yet completed
    // (one-shot runs record no issues, so this stays 0 there).
    report.backlog_high_water =
        report.backlog_high_water.max(report.issues.len().saturating_sub(report.completions.len()));
    Ok(())
}

/// Receive-side bookkeeping of one delivery, shared by every apply path:
/// the per-node receive counter and the optional `Deliver` trace event.
/// Called immediately before the handler's effects (direct call or replay)
/// drain, so traces interleave identically on either path.
pub(crate) fn note_delivery(
    report: &mut SimReport,
    round: Round,
    trace: bool,
    node: NodeId,
    src: NodeId,
) {
    report.received_by_node[node] += 1;
    if trace {
        report.trace.push(TraceEvent { round, kind: TraceKind::Deliver, node, peer: src });
    }
}

/// The quiescence / wakeup phase, shared by both executors: given whether
/// every queue and wheel is idle, decide the next round — `None` ends the
/// run, otherwise the clock advances by one or fast-forwards to the
/// protocol's next scheduled wakeup. The `max_rounds` guard applies to
/// both kinds of advance.
pub(crate) fn advance_round<P: Protocol>(
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

/// Run `protocol` on `graph` to quiescence over a single state store and a
/// single transport — the monolithic executor behind [`crate::Simulator`].
pub(crate) fn run_single<P: Protocol>(
    graph: &Graph,
    mut protocol: P,
    cfg: SimConfig,
) -> Result<(SimReport, P), SimError> {
    let n = graph.n();
    validate_config(&cfg, n)?;
    validate_slices(&mut protocol, n)?;
    if cfg.parallel_apply {
        // No silent fallback: the single-fabric executor applies handlers
        // in serialized global order by construction.
        return Err(SimError::invalid_config(
            "parallel_apply requires the sharded executor (ShardedSimulator::run); \
             the single-fabric Simulator cannot honour it",
        ));
    }
    if cfg.wavefront_lag > 0 {
        // Likewise no silent fallback: a wavefront needs per-shard round
        // clocks, which the single fabric does not have.
        return Err(SimError::invalid_config(
            "wavefront pipelining requires the sharded executor (ShardedSimulator::run); \
             the single-fabric Simulator cannot honour it",
        ));
    }
    let mut report = SimReport {
        delay_scale: cfg.delay_scale,
        received_by_node: vec![0; n],
        ..Default::default()
    };
    let mut store: NodeStore<P::Msg> = NodeStore::new(n);
    let mut transport: Transport<P::Msg> = Transport::new(cfg.link_delay);
    let mut api: SimApi<P::Msg> = SimApi::new();
    // Reusable frontier scratch: the deliver and transmit phases visit
    // only the nodes with pending work (or all of `0..n` under the dense
    // reference scan); the buffer's capacity is retained across rounds so
    // steady state allocates nothing here.
    let mut frontier: Vec<NodeId> = Vec::new();

    let mut timing = PhaseTimings::default();
    let mut watch = Stopwatch::new(cfg.probe.timing);

    // Time 0: every requester issues its operation.
    protocol.on_start(&mut api);
    drain_api(graph, &mut api, &mut report, 0, cfg.trace, |f, t, m| store.stage(f, t, m))?;

    let mut round: Round = 0;
    loop {
        // Probe observations happen at every phase barrier of an observed
        // round, outside the `round > 0` gate, so round 0 (whose first
        // three phases are vacuous) still checkpoints consistently on
        // every executor.
        let observe = cfg.probe.observes(round);
        watch.reset();
        let mut round_micros = 0u64;
        if round > 0 {
            // Arrivals phase.
            api.set_round(round);
            protocol.on_round(&mut api, round);
            drain_api(graph, &mut api, &mut report, round, cfg.trace, |f, t, m| {
                store.stage(f, t, m)
            })?;
        }
        round_micros += lap_into(&mut watch, &mut timing.arrivals_micros);
        if observe {
            probe::observe_phase(
                &cfg.probe,
                round,
                Phase::Arrivals,
                &[&store],
                &[&transport],
                &protocol.state_token(),
                &mut report,
            );
            watch.reset();
        }
        if round > 0 {
            // Maturity phase: due wires move into in-port FIFOs.
            transport.drain_due(round, |w| {
                let inbound = crate::state::Inbound { src: w.src, arrival: w.arrival, msg: w.msg };
                let depth = store.enqueue(w.dst, inbound);
                report.max_inport_depth = report.max_inport_depth.max(depth);
            });
        }
        round_micros += lap_into(&mut watch, &mut timing.mature_micros);
        if observe {
            probe::observe_phase(
                &cfg.probe,
                round,
                Phase::Mature,
                &[&store],
                &[&transport],
                &protocol.state_token(),
                &mut report,
            );
            watch.reset();
        }
        if round > 0 {
            // Delivery phase: visit the in-port frontier in ascending node
            // order — byte-identical to the dense scan because every node
            // off the frontier has an empty in-port and would pop nothing.
            frontier.clear();
            if cfg.dense_scan {
                frontier.extend(0..n);
            } else {
                store.take_inport_frontier(&mut frontier);
                frontier.sort_unstable();
            }
            let (shared, slices) = protocol.split();
            let mut sapi = api.lend_slice_api(0);
            for &v in &frontier {
                if cfg.faults.is_down(v, round) {
                    // Crashed: the in-port freezes in place (neighbours
                    // keep buffering over reliable FIFO wires) — re-list
                    // so the pending work survives to the recovery round.
                    store.relist_inport(v);
                    continue;
                }
                sapi.set_node(v);
                for _ in 0..cfg.recv_budget {
                    let Some(inb) = store.pop_inport(v) else { break };
                    report.queue_wait_rounds += round - inb.arrival;
                    note_delivery(&mut report, round, cfg.trace, v, inb.src);
                    P::on_message(shared, &mut slices[v], &mut sapi, v, inb.src, inb.msg);
                    sapi.replay_into(&mut api);
                    drain_api(graph, &mut api, &mut report, round, cfg.trace, |f, t, m| {
                        store.stage(f, t, m)
                    })?;
                }
            }
            api.reclaim(sapi);
        }
        round_micros += lap_into(&mut watch, &mut timing.deliver_micros);
        if observe {
            probe::observe_phase(
                &cfg.probe,
                round,
                Phase::Deliver,
                &[&store],
                &[&transport],
                &protocol.state_token(),
                &mut report,
            );
            watch.reset();
        }

        // Transmit phase: visit the outbox frontier in ascending node
        // order, so the run-global sequence numbers are assigned exactly
        // as the dense scan would.
        frontier.clear();
        if cfg.dense_scan {
            frontier.extend(0..n);
        } else {
            store.take_outbox_frontier(&mut frontier);
            frontier.sort_unstable();
        }
        for &v in &frontier {
            if cfg.holds_transmit(round, v) {
                store.relist_outbox(v);
                continue;
            }
            for _ in 0..cfg.send_budget {
                let Some((dst, msg)) = store.pop_outbox(v) else { break };
                report.messages_sent += 1;
                if cfg.trace {
                    report.trace.push(TraceEvent {
                        round,
                        kind: TraceKind::Transmit,
                        node: v,
                        peer: dst,
                    });
                }
                transport.transmit(v, dst, msg, round, report.messages_sent);
            }
        }
        round_micros += lap_into(&mut watch, &mut timing.transmit_micros);
        timing.max_round_micros = timing.max_round_micros.max(round_micros);
        if observe {
            probe::observe_phase(
                &cfg.probe,
                round,
                Phase::Transmit,
                &[&store],
                &[&transport],
                &protocol.state_token(),
                &mut report,
            );
        }

        // Quiescence / wakeup phase.
        let idle = store.is_idle() && transport.is_idle();
        match advance_round(&protocol, idle, round, cfg.max_rounds)? {
            Some(next) => round = next,
            None => break,
        }
    }
    report.rounds = round;
    report.record_fault_events(&cfg.faults);
    if cfg.probe.timing {
        report.phase_timing = Some(timing);
    }
    Ok((report, protocol))
}

/// Advance `watch` one lap, accumulating into the phase counter and
/// returning the lap for the per-round total (shared with [`crate::shard`]).
pub(crate) fn lap_into(watch: &mut Stopwatch, counter: &mut u64) -> u64 {
    let micros = watch.lap();
    *counter += micros;
    micros
}
