//! The round-based simulation engine: the [`Simulator`] façade and
//! [`SimError`].
//!
//! The engine is composed of three layers, each owning one set of
//! invariants (see the module docs of each):
//!
//! * [`crate::state`] — per-processor FIFO in-ports and outboxes
//!   ([`crate::state::NodeStore`]);
//! * [`crate::transport`] — wire scheduling: [`crate::LinkDelay`]
//!   policies, the per-link FIFO clamp and the timing wheel
//!   ([`crate::transport::Transport`]);
//! * [`crate::scheduler`] — the phase ordering of one round (arrivals →
//!   mature → deliver → transmit → quiescence/wakeup) and the generalized
//!   delivery rule.
//!
//! **Generalized delivery rule.** Under [`crate::LinkDelay::Unit`] (the
//! paper's model) `d = 1`: a message handled at round `t` can be answered
//! by a message that arrives at round `t + 1`, so information travels one
//! hop per round (Theorem 3.6's latency argument). `Fixed` and `PerLink`
//! stretch `d` to a per-link constant — heterogeneous wires that remain
//! FIFO by construction. `Jitter` draws `d` per message and the transport
//! clamps each arrival to be no earlier than the previous arrival scheduled
//! on the same directed link, so every wire stays a reliable FIFO channel
//! (the §2.1 asynchronous regime, under which the paper's lower bounds
//! still apply). Messages exceeding a budget wait in FIFO order — that
//! waiting is the measured contention, and the engine records the deepest
//! in-port/outbox queues plus the open-operation backlog high-water mark.
//!
//! [`crate::shard::ShardedSimulator`] runs the same scheduler phases over
//! per-shard state/transport instances. It requires [`crate::NodeSliced`]
//! of its protocols, which lets it run their delivery-phase handlers
//! shard-parallel ([`SimConfig::parallel_apply`]) with byte-identical
//! results — see [`crate::shard`] for the replay argument; a sliced
//! protocol runs unmodified on this single-fabric executor too.

use crate::protocol::Protocol;
use crate::report::{SimConfig, SimReport};
use crate::scheduler;
use crate::Round;
use ccq_graph::{Graph, NodeId};

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A protocol staged a message between non-adjacent processors.
    InvalidSend { from: NodeId, to: NodeId, round: Round },
    /// Quiescence was not reached within [`SimConfig::max_rounds`].
    MaxRoundsExceeded { limit: Round },
    /// The configuration (budgets, scale, shard plan, apply path) cannot
    /// be executed. The message is owned so callers can name the offending
    /// values — e.g. a wavefront lag beyond the ferry's minimum delay.
    InvalidConfig { what: String },
}

impl SimError {
    /// Construct an [`SimError::InvalidConfig`] from any message.
    pub fn invalid_config(what: impl Into<String>) -> Self {
        SimError::InvalidConfig { what: what.into() }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidSend { from, to, round } => {
                write!(f, "round {round}: send {from} → {to} is not a graph edge")
            }
            SimError::MaxRoundsExceeded { limit } => {
                write!(f, "no quiescence within {limit} rounds")
            }
            SimError::InvalidConfig { what } => {
                write!(f, "invalid simulation config: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// An executable simulation: graph + protocol + configuration.
pub struct Simulator<'g, P: Protocol> {
    graph: &'g Graph,
    protocol: P,
    config: SimConfig,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Create a simulator. Configuration is validated at run time:
    /// `config.send_budget`/`recv_budget` of 0 make the run return
    /// [`SimError::InvalidConfig`] instead of executing.
    pub fn new(graph: &'g Graph, protocol: P, config: SimConfig) -> Self {
        Simulator { graph, protocol, config }
    }

    /// Run to quiescence (no queued or in-flight messages), returning the
    /// report and the final protocol state.
    pub fn run_with_state(self) -> Result<(SimReport, P), SimError> {
        scheduler::run_single(self.graph, self.protocol, self.config)
    }

    /// Run to quiescence, returning only the report.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_with_state().map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SimApi;
    use crate::report::SimConfig;
    use ccq_graph::topology;

    /// Flood protocol: node 0 starts a token that walks the path 0→1→…→n−1;
    /// each node completes when it sees the token.
    struct Walk {
        n: usize,
    }

    impl Protocol for Walk {
        type Msg = ();

        fn on_start(&mut self, api: &mut SimApi<()>) {
            api.complete(0, 0);
            if self.n > 1 {
                api.send(0, 1, ());
            }
        }

        fn on_message(&mut self, api: &mut SimApi<()>, node: NodeId, _from: NodeId, _msg: ()) {
            api.complete(node, node as u64);
            if node + 1 < self.n {
                api.send(node, node + 1, ());
            }
        }
    }

    #[test]
    fn token_walk_delays_equal_distance() {
        let g = topology::path(6);
        let rep = crate::run_protocol(&g, Walk { n: 6 }, SimConfig::strict()).unwrap();
        assert_eq!(rep.ops(), 6);
        let d = rep.delay_by_node(6);
        for (v, delay) in d.iter().enumerate() {
            assert_eq!(*delay, Some(v as u64), "node {v}");
        }
        assert_eq!(rep.rounds, 5);
        assert_eq!(rep.messages_sent, 5);
        assert_eq!(rep.queue_wait_rounds, 0);
        assert_eq!(rep.total_delay(), 15);
    }

    /// All leaves of a star send to the hub simultaneously; the hub can
    /// receive only one message per round → serialization.
    struct Converge {
        n: usize,
        received: u64,
    }

    impl Protocol for Converge {
        type Msg = ();

        fn on_start(&mut self, api: &mut SimApi<()>) {
            for v in 1..self.n {
                api.send(v, 0, ());
            }
        }

        fn on_message(&mut self, api: &mut SimApi<()>, node: NodeId, from: NodeId, _msg: ()) {
            assert_eq!(node, 0);
            self.received += 1;
            api.complete(from, self.received);
        }
    }

    #[test]
    fn star_contention_serializes() {
        let n = 10;
        let g = topology::star(n);
        let rep =
            crate::run_protocol(&g, Converge { n, received: 0 }, SimConfig::strict()).unwrap();
        assert_eq!(rep.ops(), n - 1);
        // The hub receives one message per round: completions at rounds 1..=9.
        let mut rounds: Vec<u64> = rep.completions.iter().map(|c| c.round).collect();
        rounds.sort_unstable();
        assert_eq!(rounds, (1..=9).collect::<Vec<u64>>());
        // Σ 1..9 = 45 — the quadratic star behaviour in miniature.
        assert_eq!(rep.total_delay(), 45);
        assert!(rep.queue_wait_rounds > 0);
        assert!(rep.max_inport_depth >= 8);
    }

    #[test]
    fn expanded_budget_removes_contention() {
        let n = 10;
        let g = topology::star(n);
        let rep =
            crate::run_protocol(&g, Converge { n, received: 0 }, SimConfig::expanded(n)).unwrap();
        // All 9 messages delivered in round 1; delays scaled by n.
        assert!(rep.completions.iter().all(|c| c.round == 1));
        assert_eq!(rep.total_delay(), 9 * n as u64);
    }

    #[test]
    fn invalid_send_detected() {
        struct Bad;
        impl Protocol for Bad {
            type Msg = ();
            fn on_start(&mut self, api: &mut SimApi<()>) {
                api.send(0, 2, ()); // not adjacent in a path of 3
            }
            fn on_message(&mut self, _: &mut SimApi<()>, _: NodeId, _: NodeId, _: ()) {}
        }
        let g = topology::path(3);
        let err = crate::run_protocol(&g, Bad, SimConfig::strict()).unwrap_err();
        assert_eq!(err, SimError::InvalidSend { from: 0, to: 2, round: 0 });
    }

    #[test]
    fn invalid_budgets_are_reported_not_panicked() {
        let g = topology::path(3);
        for cfg in [
            SimConfig { send_budget: 0, ..SimConfig::strict() },
            SimConfig { recv_budget: 0, ..SimConfig::strict() },
            SimConfig { delay_scale: 0, ..SimConfig::strict() },
        ] {
            let err = crate::run_protocol(&g, Walk { n: 3 }, cfg).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { .. }),
                "expected InvalidConfig, got {err}"
            );
            // The message names the offending field.
            assert!(err.to_string().contains("must be ≥ 1"), "{err}");
        }
    }

    #[test]
    fn max_rounds_detected() {
        /// Two nodes ping-pong forever.
        struct PingPong;
        impl Protocol for PingPong {
            type Msg = ();
            fn on_start(&mut self, api: &mut SimApi<()>) {
                api.send(0, 1, ());
            }
            fn on_message(&mut self, api: &mut SimApi<()>, node: NodeId, from: NodeId, _: ()) {
                api.send(node, from, ());
            }
        }
        let g = topology::path(2);
        let cfg = SimConfig::strict().with_max_rounds(50);
        let err = crate::run_protocol(&g, PingPong, cfg).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 50 });
    }

    #[test]
    fn empty_protocol_quiesces_immediately() {
        struct Idle;
        impl Protocol for Idle {
            type Msg = ();
            fn on_start(&mut self, _: &mut SimApi<()>) {}
            fn on_message(&mut self, _: &mut SimApi<()>, _: NodeId, _: NodeId, _: ()) {}
        }
        let g = topology::complete(4);
        let rep = crate::run_protocol(&g, Idle, SimConfig::strict()).unwrap();
        assert_eq!(rep.rounds, 0);
        assert_eq!(rep.messages_sent, 0);
    }

    #[test]
    fn send_budget_serializes_sender() {
        /// Node 0 stages n−1 messages to distinct neighbours at time 0.
        struct Fanout {
            n: usize,
        }
        impl Protocol for Fanout {
            type Msg = ();
            fn on_start(&mut self, api: &mut SimApi<()>) {
                for v in 1..self.n {
                    api.send(0, v, ());
                }
            }
            fn on_message(&mut self, api: &mut SimApi<()>, node: NodeId, _: NodeId, _: ()) {
                api.complete(node, 0);
            }
        }
        let n = 8;
        let g = topology::star(n);
        let rep = crate::run_protocol(&g, Fanout { n }, SimConfig::strict()).unwrap();
        // One transmission per round: arrivals at rounds 1..=7.
        let mut rounds: Vec<u64> = rep.completions.iter().map(|c| c.round).collect();
        rounds.sort_unstable();
        assert_eq!(rounds, (1..=7).collect::<Vec<u64>>());
        assert!(rep.max_outbox_depth >= 7);
    }

    #[test]
    fn fifo_links_preserve_order() {
        /// 0 sends two numbered messages to 1; 1 records arrival order.
        struct Fifo {
            seen: Vec<u64>,
        }
        impl Protocol for Fifo {
            type Msg = u64;
            fn on_start(&mut self, api: &mut SimApi<u64>) {
                api.send(0, 1, 1);
                api.send(0, 1, 2);
            }
            fn on_message(&mut self, api: &mut SimApi<u64>, node: NodeId, _: NodeId, m: u64) {
                self.seen.push(m);
                api.complete(node, m);
            }
        }
        let g = topology::path(2);
        let (rep, p) = Simulator::new(&g, Fifo { seen: vec![] }, SimConfig::strict())
            .run_with_state()
            .unwrap();
        assert_eq!(p.seen, vec![1, 2]);
        assert_eq!(rep.completions.len(), 2);
        // Second message transmitted one round later.
        assert_eq!(rep.completions[0].round, 1);
        assert_eq!(rep.completions[1].round, 2);
    }

    #[test]
    fn trace_records_events() {
        let g = topology::path(3);
        let cfg = SimConfig::strict().with_trace();
        let rep = crate::run_protocol(&g, Walk { n: 3 }, cfg).unwrap();
        assert!(rep.trace.iter().any(|e| e.kind == crate::TraceKind::Transmit));
        assert!(rep.trace.iter().any(|e| e.kind == crate::TraceKind::Deliver));
        assert!(rep.trace.iter().any(|e| e.kind == crate::TraceKind::Complete));
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use crate::protocol::{Protocol, SimApi};
    use crate::report::SimConfig;
    use ccq_graph::topology;

    /// Token walks the path; completion per hop.
    struct Walk {
        n: usize,
    }

    impl Protocol for Walk {
        type Msg = ();
        fn on_start(&mut self, api: &mut SimApi<()>) {
            api.complete(0, 0);
            if self.n > 1 {
                api.send(0, 1, ());
            }
        }
        fn on_message(&mut self, api: &mut SimApi<()>, node: NodeId, _: NodeId, _: ()) {
            api.complete(node, node as u64);
            if node + 1 < self.n {
                api.send(node, node + 1, ());
            }
        }
    }

    #[test]
    fn jitter_zero_matches_synchronous_model() {
        let g = topology::path(6);
        let a = crate::run_protocol(&g, Walk { n: 6 }, SimConfig::strict()).unwrap();
        let b =
            crate::run_protocol(&g, Walk { n: 6 }, SimConfig::strict().with_jitter(0, 9)).unwrap();
        assert_eq!(a.total_delay(), b.total_delay());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn jitter_only_slows_things_down() {
        let g = topology::path(12);
        let base = crate::run_protocol(&g, Walk { n: 12 }, SimConfig::strict()).unwrap();
        for seed in 0..5 {
            let j =
                crate::run_protocol(&g, Walk { n: 12 }, SimConfig::strict().with_jitter(3, seed))
                    .unwrap();
            assert!(j.total_delay() >= base.total_delay(), "seed {seed}");
            assert_eq!(j.ops(), base.ops());
        }
    }

    #[test]
    fn per_link_fifo_preserved_under_jitter() {
        /// 0 fires five numbered messages at 1; arrival order must stay 1..5.
        struct Burst {
            seen: Vec<u64>,
        }
        impl Protocol for Burst {
            type Msg = u64;
            fn on_start(&mut self, api: &mut SimApi<u64>) {
                for i in 1..=5 {
                    api.send(0, 1, i);
                }
            }
            fn on_message(&mut self, api: &mut SimApi<u64>, node: NodeId, _: NodeId, m: u64) {
                self.seen.push(m);
                api.complete(node, m);
            }
        }
        let g = topology::path(2);
        for seed in 0..20 {
            let (_, p) = Simulator::new(
                &g,
                Burst { seen: vec![] },
                SimConfig::strict().with_jitter(5, seed),
            )
            .run_with_state()
            .unwrap();
            assert_eq!(p.seen, vec![1, 2, 3, 4, 5], "seed {seed}");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let g = topology::path(9);
        let cfg = SimConfig::strict().with_jitter(4, 1234);
        let a = crate::run_protocol(&g, Walk { n: 9 }, cfg).unwrap();
        let b = crate::run_protocol(&g, Walk { n: 9 }, cfg).unwrap();
        assert_eq!(a.total_delay(), b.total_delay());
        assert_eq!(a.rounds, b.rounds);
        // A different seed (usually) lands on a different schedule.
        let c =
            crate::run_protocol(&g, Walk { n: 9 }, SimConfig::strict().with_jitter(4, 77)).unwrap();
        let _ = c; // schedules may coincide; correctness checked above.
    }
}
