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
//! * [`crate::scheduler`] — the one round loop and round body over the
//!   phase ordering (arrivals → mature → deliver → transmit →
//!   quiescence/wakeup), the generalized delivery rule, and the one
//!   executor (one store, one wheel) behind [`Simulator`], sharded or not.
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
//! [`Simulator`] is the one way into that loop. [`Simulator::with_cut`]
//! adds a shard plan: sends across the cut take the ferry's delay and are
//! counted — with results byte-identical to the unsharded run's whenever
//! the ferry's delay equals the run's; see [`crate::shard`].
//! [`Simulator::with_faults`] lends the run a crash/recover schedule, and
//! [`Simulator::with_arrivals`] gives it an open schedule in place of the
//! one-shot batch.

use crate::arrival::Arrivals;
use crate::protocol::Protocol;
use crate::report::{FaultPlan, LinkDelay, SimConfig, SimReport};
use crate::scheduler;
use crate::Round;
use ccq_graph::{Graph, NodeId, Partition};

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A protocol staged a message between non-adjacent processors.
    InvalidSend { from: NodeId, to: NodeId, round: Round },
    /// Quiescence was not reached within [`SimConfig::max_rounds`] (or a
    /// wire was sent that could not arrive by then).
    MaxRoundsExceeded { limit: Round },
    /// The configuration (step, shard plan, fault plan, schedule, probe)
    /// cannot be executed. The message is owned so callers can name the offending
    /// values — e.g. a shard partition that does not cover the graph.
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

/// The plan of a run no one lent one: no crash.
static NO_FAULTS: FaultPlan = FaultPlan::none();

/// An executable simulation: graph + protocol + configuration, and
/// optionally a shard cut ([`Simulator::with_cut`]), a fault plan
/// ([`Simulator::with_faults`]) and an open schedule
/// ([`Simulator::with_arrivals`]).
pub struct Simulator<'g, P: Protocol> {
    graph: &'g Graph,
    protocol: P,
    config: SimConfig,
    cut: Option<(&'g Partition, LinkDelay)>,
    faults: &'g FaultPlan,
    arrivals: Option<Arrivals>,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Create a simulator. Configuration is validated at run time: a
    /// `config.step` of 0 makes the run return
    /// [`SimError::InvalidConfig`] instead of executing.
    pub fn new(graph: &'g Graph, protocol: P, config: SimConfig) -> Self {
        Simulator { graph, protocol, config, cut: None, faults: &NO_FAULTS, arrivals: None }
    }

    /// Builder-style: cut the run by a shard plan — a send whose endpoints
    /// `partition` separates takes the `ferry` delay and counts in
    /// [`SimReport::cross_shard_messages`] (see [`crate::shard`]). The
    /// partition must cover the graph, or the run returns
    /// [`SimError::InvalidConfig`].
    pub fn with_cut(mut self, partition: &'g Partition, ferry: LinkDelay) -> Self {
        self.cut = Some((partition, ferry));
        self
    }

    /// Builder-style: run under the crash/recover schedule `faults` (see
    /// [`FaultPlan`]). Every crash must name a node of the graph, start at
    /// round ≥ 1 and recover after it starts, or the run returns
    /// [`SimError::InvalidConfig`].
    pub fn with_faults(mut self, faults: &'g FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: issue the protocol's operations from the open
    /// schedule `arrivals` instead of as the one-shot batch (every
    /// [`Protocol::requests`] at round 0). A node scheduled twice, or not a
    /// node of the graph, makes the run return [`SimError::InvalidConfig`].
    pub fn with_arrivals(mut self, arrivals: Arrivals) -> Self {
        self.arrivals = Some(arrivals);
        self
    }

    /// Run to quiescence (no queued or in-flight messages and no arrival
    /// still due), returning the report and the final protocol state.
    pub fn run_with_state(self) -> Result<(SimReport, P), SimError> {
        let Simulator { graph, protocol, config: cfg, cut, faults, arrivals } = self;
        scheduler::run(graph, &cfg, cut, faults, arrivals, protocol)
    }

    /// Run to quiescence, returning only the report.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_with_state().map(|(r, _)| r)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{SimApi, SliceApi};
    use crate::report::SimConfig;
    use ccq_graph::topology;

    /// The executor table: the unsharded run, then the sharded run on one
    /// and on three (striped) shards. `check` sees every executor's
    /// outcome under `cfg` and must find the same model behaviour on all
    /// of them.
    pub(super) fn on_every_executor<P: Protocol>(
        g: &Graph,
        make: impl Fn() -> P,
        cfg: SimConfig,
        check: impl Fn(Result<(SimReport, P), SimError>, &str),
    ) {
        on_every_executor_of(g, || Simulator::new(g, make(), cfg), cfg.link_delay, check);
    }

    /// [`on_every_executor`] over a simulator `sim` builds (with its
    /// schedule or faults attached), cut by a `ferry`-delay shard plan.
    pub(super) fn on_every_executor_of<'g, P: Protocol>(
        g: &Graph,
        sim: impl Fn() -> Simulator<'g, P>,
        ferry: LinkDelay,
        check: impl Fn(Result<(SimReport, P), SimError>, &str),
    ) {
        check(sim().run_with_state(), "monolith");
        for k in [1, 3] {
            let part = Partition::striped(g.n(), k);
            check(sim().with_cut(&part, ferry).run_with_state(), &format!("{k} shard(s)"));
        }
    }

    /// Token walk along the path 0→1→…→n−1, started by node 0's operation
    /// and completing at each hop: shared state is the path length, a
    /// node's slice counts its visits. The one toy protocol of this
    /// module's tests and [`crate::shard`]'s.
    pub(crate) struct Walk {
        n: usize,
        pub(crate) visits: Vec<u64>,
    }

    impl Walk {
        pub(crate) fn new(n: usize) -> Self {
            Walk { n, visits: vec![0; n] }
        }
    }

    impl Protocol for Walk {
        type Msg = ();
        type Slice<'s> = &'s mut u64;
        type Shared = usize;

        fn nodes(&self) -> usize {
            self.visits.len()
        }

        fn at(&mut self, v: NodeId) -> (&usize, &mut u64) {
            (&self.n, &mut self.visits[v])
        }

        fn requests(&self) -> &[NodeId] {
            &[0]
        }

        fn issue(n: &usize, visits: &mut u64, api: &mut SliceApi<()>, node: NodeId) {
            *visits += 1;
            api.complete(node, 0);
            if *n > 1 {
                api.send(1, ());
            }
        }

        fn on_message(
            n: &usize,
            visits: &mut u64,
            api: &mut SliceApi<()>,
            node: NodeId,
            _: NodeId,
            _: (),
        ) {
            *visits += 1;
            api.complete(node, node as u64);
            if node + 1 < *n {
                api.send(node + 1, ());
            }
        }
    }

    #[test]
    fn token_walk_delays_equal_distance() {
        let g = topology::path(6);
        on_every_executor(
            &g,
            || Walk::new(6),
            SimConfig::strict(),
            |out, on| {
                let (rep, _) = out.unwrap();
                assert_eq!(rep.ops(), 6, "{on}");
                let d = rep.delay_by_node(6);
                for (v, delay) in d.iter().enumerate() {
                    assert_eq!(*delay, Some(v as u64), "node {v}, {on}");
                }
                assert_eq!(rep.rounds, 5, "{on}");
                assert_eq!(rep.messages_sent, 5, "{on}");
                assert_eq!(rep.queue_wait_rounds, 0, "{on}");
                assert_eq!(rep.total_delay(), 15, "{on}");
            },
        );
    }

    /// Node `v`'s state is `v % 3` cells of one arena, each tagged with its
    /// owner (every third node holds none, as a combining leaf holds no
    /// child summary): the shape of a protocol whose node state varies in
    /// size. Every node's operation sends a token once round the cycle,
    /// and every handler call checks its lend and bumps each cell in it.
    struct Arena {
        n: usize,
        off: Vec<usize>,
        cells: Vec<(NodeId, u64)>,
        requests: Vec<NodeId>,
    }

    impl Arena {
        fn new(n: usize) -> Self {
            let (mut off, mut cells) = (vec![0], Vec::new());
            for v in 0..n {
                cells.extend(std::iter::repeat_n((v, 0), v % 3));
                off.push(cells.len());
            }
            Arena { n, off, cells, requests: (0..n).collect() }
        }

        /// One handler call at `node`: its lend is exactly `node`'s cells.
        fn touch(lent: &mut [(NodeId, u64)], node: NodeId) {
            assert_eq!(lent.len(), node % 3, "node {node} lent a range of the wrong size");
            for (owner, calls) in lent {
                assert_eq!(*owner, node, "node {node} lent a cell of node {owner}");
                *calls += 1;
            }
        }
    }

    impl Protocol for Arena {
        type Msg = usize;
        type Slice<'s> = &'s mut [(NodeId, u64)];
        type Shared = usize;

        fn nodes(&self) -> usize {
            self.off.len() - 1
        }

        fn at(&mut self, v: NodeId) -> (&usize, &mut [(NodeId, u64)]) {
            (&self.n, &mut self.cells[self.off[v]..self.off[v + 1]])
        }

        fn requests(&self) -> &[NodeId] {
            &self.requests
        }

        fn on_start(&mut self, _: &mut SimApi<usize>) {
            for v in 0..self.n {
                Self::touch(self.at(v).1, v);
            }
        }

        fn issue(n: &usize, lent: &mut [(NodeId, u64)], api: &mut SliceApi<usize>, node: NodeId) {
            Self::touch(lent, node);
            api.send((node + 1) % n, 1);
        }

        fn on_message(
            n: &usize,
            lent: &mut [(NodeId, u64)],
            api: &mut SliceApi<usize>,
            node: NodeId,
            _: NodeId,
            hop: usize,
        ) {
            Self::touch(lent, node);
            if hop == *n {
                api.complete(node, hop as u64);
            } else {
                api.send((node + 1) % n, hop + 1);
            }
        }
    }

    /// Every handler call — the start, each issue, each delivery — is lent
    /// its own node's range of the arena and no other, and the ranges tile
    /// the arena: each cell ends bumped once per call at its owner. Unsharded,
    /// on striped shards and under the dense scan.
    #[test]
    fn every_call_is_lent_its_own_range_of_one_arena() {
        let g = topology::cycle(12);
        for cfg in [SimConfig::strict(), SimConfig::strict().with_dense_scan(true)] {
            on_every_executor(
                &g,
                || Arena::new(12),
                cfg,
                |out, on| {
                    let (rep, arena) = out.unwrap();
                    assert_eq!((rep.ops(), rep.messages_sent), (12, 144), "{on}");
                    let tiles = arena.off.windows(2).map(|w| w[1] - w[0]).sum::<usize>();
                    assert_eq!((arena.off[0], tiles), (0, arena.cells.len()), "{on}");
                    for v in 0..12 {
                        let calls = 2 + rep.received_by_node[v];
                        for &cell in &arena.cells[arena.off[v]..arena.off[v + 1]] {
                            assert_eq!(cell, (v, calls), "node {v}, {on}");
                        }
                    }
                },
            );
        }
    }

    /// All leaves of a star issue a send to the hub simultaneously; the
    /// hub can receive only one message per round → serialization. A
    /// node's slice counts what it received.
    struct Converge {
        leaves: Vec<NodeId>,
        received: Vec<u64>,
    }

    impl Converge {
        fn new(n: usize) -> Self {
            Converge { leaves: (1..n).collect(), received: vec![0; n] }
        }
    }

    impl Protocol for Converge {
        type Msg = ();
        type Slice<'s> = &'s mut u64;
        type Shared = ();

        fn nodes(&self) -> usize {
            self.received.len()
        }

        fn at(&mut self, v: NodeId) -> (&(), &mut u64) {
            (&(), &mut self.received[v])
        }

        fn requests(&self) -> &[NodeId] {
            &self.leaves
        }

        fn issue(_: &(), _: &mut u64, api: &mut SliceApi<()>, _: NodeId) {
            api.send(0, ());
        }

        fn on_message(
            _: &(),
            received: &mut u64,
            api: &mut SliceApi<()>,
            node: NodeId,
            from: NodeId,
            _: (),
        ) {
            assert_eq!(node, 0);
            *received += 1;
            api.complete(from, *received);
        }
    }

    #[test]
    fn star_contention_serializes() {
        let n = 10;
        let g = topology::star(n);
        on_every_executor(
            &g,
            || Converge::new(n),
            SimConfig::strict(),
            |out, on| {
                let (rep, _) = out.unwrap();
                assert_eq!(rep.ops(), n - 1, "{on}");
                // The hub receives one message per round: completions at rounds 1..=9.
                let mut rounds: Vec<u64> = rep.completions.iter().map(|c| c.round).collect();
                rounds.sort_unstable();
                assert_eq!(rounds, (1..=9).collect::<Vec<u64>>(), "{on}");
                // Σ 1..9 = 45 — the quadratic star behaviour in miniature.
                assert_eq!(rep.total_delay(), 45, "{on}");
                assert!(rep.queue_wait_rounds > 0, "{on}");
                assert!(rep.max_inport_depth >= 8, "{on}");
            },
        );
    }

    #[test]
    fn expanded_budget_removes_contention() {
        let n = 10;
        let g = topology::star(n);
        on_every_executor(
            &g,
            || Converge::new(n),
            SimConfig::expanded(n),
            |out, on| {
                let (rep, _) = out.unwrap();
                // All 9 messages delivered in round 1; delays scaled by n.
                assert!(rep.completions.iter().all(|c| c.round == 1), "{on}");
                assert_eq!(rep.total_delay(), 9 * n as u64, "{on}");
            },
        );
    }

    #[test]
    fn invalid_send_detected() {
        /// Which callback makes the non-edge send on the path 0–1–2–3: the
        /// start, a handler, or an arrival's issue.
        #[derive(Clone, Copy, Debug)]
        enum Route {
            Start,
            Handler,
            Round,
        }
        struct Bad(Route, [(); 4]);
        impl Protocol for Bad {
            type Msg = ();
            type Slice<'s> = &'s mut ();
            type Shared = Route;
            fn nodes(&self) -> usize {
                self.1.len()
            }
            fn at(&mut self, v: NodeId) -> (&Route, &mut ()) {
                (&self.0, &mut self.1[v])
            }
            fn requests(&self) -> &[NodeId] {
                &[0]
            }
            fn on_start(&mut self, api: &mut SimApi<()>) {
                if let Route::Start = self.0 {
                    api.send(0, 2, ());
                }
            }
            fn issue(route: &Route, _: &mut (), api: &mut SliceApi<()>, _: NodeId) {
                match route {
                    Route::Round => api.send(0, ()), // node 3's arrival at 1
                    Route::Start | Route::Handler => api.send(1, ()), // node 0 at 0
                }
            }
            fn on_message(
                route: &Route,
                _: &mut (),
                api: &mut SliceApi<()>,
                _: NodeId,
                _: NodeId,
                _: (),
            ) {
                if let Route::Handler = route {
                    api.send(3, ()); // the handler runs at 1
                }
            }
        }
        let g = topology::path(4);
        for (route, from, to, round) in [(Route::Start, 0, 2, 0), (Route::Handler, 1, 3, 1)] {
            on_every_executor(
                &g,
                || Bad(route, [(); 4]),
                SimConfig::strict(),
                |out, on| {
                    let err = out.err().expect(on);
                    assert_eq!(err, SimError::InvalidSend { from, to, round }, "{route:?}, {on}");
                },
            );
        }
        // The arrivals route: node 3's scheduled arrival at round 1.
        let cfg = SimConfig::strict();
        let bad = || {
            let sim = Simulator::new(&g, Bad(Route::Round, [(); 4]), cfg);
            sim.with_arrivals(Arrivals::new(vec![(1, 3)]))
        };
        on_every_executor_of(&g, bad, cfg.link_delay, |out, on| {
            let err = out.err().expect(on);
            assert_eq!(err, SimError::InvalidSend { from: 3, to: 0, round: 1 }, "{on}");
        });
    }

    #[test]
    fn invalid_budgets_are_reported_not_panicked() {
        let g = topology::path(3);
        for cfg in [SimConfig { step: 0, ..SimConfig::strict() }, SimConfig::expanded(0)] {
            on_every_executor(
                &g,
                || Walk::new(3),
                cfg,
                |out, on| {
                    let err = out.err().expect(on);
                    assert!(
                        matches!(err, SimError::InvalidConfig { .. }),
                        "expected InvalidConfig, got {err} ({on})"
                    );
                    // The message names the offending field.
                    assert!(err.to_string().contains("step must be ≥ 1"), "{err} ({on})");
                },
            );
        }
    }

    #[test]
    fn max_rounds_detected() {
        /// Two nodes ping-pong forever.
        struct PingPong([(); 2]);
        impl Protocol for PingPong {
            type Msg = ();
            type Slice<'s> = &'s mut ();
            type Shared = ();
            fn nodes(&self) -> usize {
                self.0.len()
            }
            fn at(&mut self, v: NodeId) -> (&(), &mut ()) {
                (&(), &mut self.0[v])
            }
            fn requests(&self) -> &[NodeId] {
                &[0]
            }
            fn issue(_: &(), _: &mut (), api: &mut SliceApi<()>, _: NodeId) {
                api.send(1, ());
            }
            fn on_message(
                _: &(),
                _: &mut (),
                api: &mut SliceApi<()>,
                _: NodeId,
                from: NodeId,
                _: (),
            ) {
                api.send(from, ());
            }
        }
        let g = topology::path(2);
        let cfg = SimConfig::strict().with_max_rounds(50);
        on_every_executor(
            &g,
            || PingPong([(); 2]),
            cfg,
            |out, on| {
                let err = out.err().expect(on);
                assert_eq!(err, SimError::MaxRoundsExceeded { limit: 50 }, "{on}");
            },
        );
    }

    /// A wire that cannot arrive by `max_rounds` fails the run when it is
    /// transmitted — under the run's delay and under the ferry alike —
    /// instead of wrapping its arrival round or sizing the wheel to it.
    #[test]
    fn a_wire_past_max_rounds_fails_the_run() {
        let g = topology::path(4);
        // The walk crosses the cut on its second hop, 1 → 2.
        let part = Partition::contiguous(4, 2);
        let cfg = SimConfig::strict();
        for far in [
            LinkDelay::Fixed { delay: u64::MAX },
            LinkDelay::Fixed { delay: 1 << 40 },
            LinkDelay::Jitter { max: u64::MAX, seed: 1 },
        ] {
            let run = Simulator::new(&g, Walk::new(4), cfg.with_link_delay(far));
            let ferry = Simulator::new(&g, Walk::new(4), cfg).with_cut(&part, far);
            for (sim, on) in [(run, "run delay"), (ferry, "ferry")] {
                let err = sim.run().expect_err(on);
                let limit = cfg.max_rounds;
                assert_eq!(err, SimError::MaxRoundsExceeded { limit }, "{} as {on}", far.name());
            }
        }
        // A wire due at `max_rounds` itself still arrives.
        let cfg = cfg.with_link_delay(LinkDelay::Fixed { delay: 10 });
        let g = topology::path(2);
        let one_hop =
            |max_rounds| Simulator::new(&g, Walk::new(2), cfg.with_max_rounds(max_rounds));
        assert_eq!(one_hop(10).run().map(|r| r.rounds), Ok(10));
        assert_eq!(one_hop(9).run().unwrap_err(), SimError::MaxRoundsExceeded { limit: 9 });
    }

    #[test]
    fn empty_protocol_quiesces_immediately() {
        struct Idle([(); 4]);
        impl Protocol for Idle {
            type Msg = ();
            type Slice<'s> = &'s mut ();
            type Shared = ();
            fn nodes(&self) -> usize {
                self.0.len()
            }
            fn at(&mut self, v: NodeId) -> (&(), &mut ()) {
                (&(), &mut self.0[v])
            }
            fn requests(&self) -> &[NodeId] {
                &[]
            }
            fn issue(_: &(), _: &mut (), _: &mut SliceApi<()>, _: NodeId) {}
            fn on_message(_: &(), _: &mut (), _: &mut SliceApi<()>, _: NodeId, _: NodeId, _: ()) {}
        }
        let g = topology::complete(4);
        on_every_executor(
            &g,
            || Idle([(); 4]),
            SimConfig::strict(),
            |out, on| {
                let (rep, _) = out.unwrap();
                assert_eq!(rep.rounds, 0, "{on}");
                assert_eq!(rep.messages_sent, 0, "{on}");
            },
        );
    }

    #[test]
    fn send_budget_serializes_sender() {
        /// Node 0's operation stages n−1 messages to distinct neighbours
        /// at time 0.
        struct Fanout {
            n: usize,
            units: Vec<()>,
        }
        impl Protocol for Fanout {
            type Msg = ();
            type Slice<'s> = &'s mut ();
            type Shared = usize;
            fn nodes(&self) -> usize {
                self.units.len()
            }
            fn at(&mut self, v: NodeId) -> (&usize, &mut ()) {
                (&self.n, &mut self.units[v])
            }
            fn requests(&self) -> &[NodeId] {
                &[0]
            }
            fn issue(n: &usize, _: &mut (), api: &mut SliceApi<()>, _: NodeId) {
                for v in 1..*n {
                    api.send(v, ());
                }
            }
            fn on_message(
                _: &usize,
                _: &mut (),
                api: &mut SliceApi<()>,
                node: NodeId,
                _: NodeId,
                _: (),
            ) {
                api.complete(node, 0);
            }
        }
        let n = 8;
        let g = topology::star(n);
        on_every_executor(
            &g,
            || Fanout { n, units: vec![(); n] },
            SimConfig::strict(),
            |out, on| {
                let (rep, _) = out.unwrap();
                // One transmission per round: arrivals at rounds 1..=7.
                let mut rounds: Vec<u64> = rep.completions.iter().map(|c| c.round).collect();
                rounds.sort_unstable();
                assert_eq!(rounds, (1..=7).collect::<Vec<u64>>(), "{on}");
                assert!(rep.max_outbox_depth >= 7, "{on}");
            },
        );
    }

    /// 0's operation fires `burst` numbered messages at 1; a node's slice
    /// records what it received, in arrival order.
    pub(super) struct Fifo {
        burst: u64,
        pub(super) seen: [Vec<u64>; 2],
    }

    impl Fifo {
        pub(super) fn new(burst: u64) -> Self {
            Fifo { burst, seen: [vec![], vec![]] }
        }
    }

    impl Protocol for Fifo {
        type Msg = u64;
        type Slice<'s> = &'s mut Vec<u64>;
        type Shared = u64;
        fn nodes(&self) -> usize {
            self.seen.len()
        }
        fn at(&mut self, v: NodeId) -> (&u64, &mut Vec<u64>) {
            (&self.burst, &mut self.seen[v])
        }
        fn requests(&self) -> &[NodeId] {
            &[0]
        }
        fn issue(burst: &u64, _: &mut Vec<u64>, api: &mut SliceApi<u64>, _: NodeId) {
            for i in 1..=*burst {
                api.send(1, i);
            }
        }
        fn on_message(
            _: &u64,
            seen: &mut Vec<u64>,
            api: &mut SliceApi<u64>,
            node: NodeId,
            _: NodeId,
            m: u64,
        ) {
            seen.push(m);
            api.complete(node, m);
        }
    }

    #[test]
    fn fifo_links_preserve_order() {
        let g = topology::path(2);
        on_every_executor(
            &g,
            || Fifo::new(2),
            SimConfig::strict(),
            |out, on| {
                let (rep, p) = out.unwrap();
                assert_eq!(p.seen[1], vec![1, 2], "{on}");
                assert_eq!(rep.completions.len(), 2, "{on}");
                // Second message transmitted one round later.
                assert_eq!(rep.completions[0].round, 1, "{on}");
                assert_eq!(rep.completions[1].round, 2, "{on}");
            },
        );
    }

    #[test]
    fn trace_records_events() {
        let g = topology::path(3);
        let cfg = SimConfig::strict().with_trace();
        on_every_executor(
            &g,
            || Walk::new(3),
            cfg,
            |out, on| {
                let (rep, _) = out.unwrap();
                assert!(rep.trace.iter().any(|e| e.kind == crate::TraceKind::Transmit), "{on}");
                assert!(rep.trace.iter().any(|e| e.kind == crate::TraceKind::Deliver), "{on}");
                assert!(rep.trace.iter().any(|e| e.kind == crate::TraceKind::Complete), "{on}");
            },
        );
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::tests::{on_every_executor, Fifo, Walk};
    use crate::report::SimConfig;
    use ccq_graph::topology;

    #[test]
    fn jitter_zero_matches_synchronous_model() {
        let g = topology::path(6);
        let a = crate::run_protocol(&g, Walk::new(6), SimConfig::strict()).unwrap();
        on_every_executor(
            &g,
            || Walk::new(6),
            SimConfig::strict().with_jitter(0, 9),
            |out, on| {
                let (b, _) = out.unwrap();
                assert_eq!(a.total_delay(), b.total_delay(), "{on}");
                assert_eq!(a.rounds, b.rounds, "{on}");
            },
        );
    }

    #[test]
    fn jitter_only_slows_things_down() {
        let g = topology::path(12);
        let base = crate::run_protocol(&g, Walk::new(12), SimConfig::strict()).unwrap();
        for seed in 0..5 {
            let cfg = SimConfig::strict().with_jitter(3, seed);
            on_every_executor(
                &g,
                || Walk::new(12),
                cfg,
                |out, on| {
                    let (j, _) = out.unwrap();
                    assert!(j.total_delay() >= base.total_delay(), "seed {seed}, {on}");
                    assert_eq!(j.ops(), base.ops(), "seed {seed}, {on}");
                },
            );
        }
    }

    #[test]
    fn per_link_fifo_preserved_under_jitter() {
        // 0 fires five numbered messages at 1; arrival order must stay 1..5.
        let g = topology::path(2);
        for seed in 0..20 {
            let cfg = SimConfig::strict().with_jitter(5, seed);
            on_every_executor(
                &g,
                || Fifo::new(5),
                cfg,
                |out, on| {
                    let (_, p) = out.unwrap();
                    assert_eq!(p.seen[1], vec![1, 2, 3, 4, 5], "seed {seed}, {on}");
                },
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let g = topology::path(9);
        let cfg = SimConfig::strict().with_jitter(4, 1234);
        let a = crate::run_protocol(&g, Walk::new(9), cfg).unwrap();
        on_every_executor(
            &g,
            || Walk::new(9),
            cfg,
            |out, on| {
                let (b, _) = out.unwrap();
                assert_eq!(a.total_delay(), b.total_delay(), "{on}");
                assert_eq!(a.rounds, b.rounds, "{on}");
            },
        );
        // A different seed (usually) lands on a different schedule.
        let c =
            crate::run_protocol(&g, Walk::new(9), SimConfig::strict().with_jitter(4, 77)).unwrap();
        let _ = c; // schedules may coincide; correctness checked above.
    }
}
