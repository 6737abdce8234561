//! The [`Protocol`] trait and the two callback interfaces it is written
//! against: [`SimApi`] for the serialized phases, [`SliceApi`] for message
//! handlers.
//!
//! [`Protocol`] models the whole distributed system as one value that
//! splits into a read-only [`Protocol::Shared`] view plus one disjoint
//! [`Protocol::Slice`] per processor. A message handler at `node` is an
//! associated function over `shared` and `node`'s slice alone (through a
//! [`SliceApi`]) — the paper's "a processor touches its own state and its
//! own links", stated in the type. The scheduler's one receive walk calls
//! the handler in ascending node order, sharded run or not
//! ([`crate::shard`]).
//!
//! Both interfaces write through: an effect lands in the engine during the
//! call that makes it, as a §2.1 send enters the sender's outbox the moment
//! the processor performs it. A send is checked against the graph and
//! staged in its sender's outbox; a completion, issue or drop is written
//! into the report (and the trace) in call order. [`SliceApi`] is a
//! [`SimApi`] scoped to the handling node.

use crate::report::{Completion, Dropped, Issue, SimReport};
use crate::trace::{TraceEvent, TraceKind};
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId};

/// A distributed protocol executed by the simulator.
///
/// One `Protocol` value holds the state of *all* processors, decomposed
/// into disjoint per-processor slices. The contract (and the reason every
/// executor produces the same bytes):
///
/// * [`Protocol::split`] partitions the state into an immutable
///   [`Protocol::Shared`] view (routing tables, tree shape, mode flags)
///   and one [`Protocol::Slice`] per processor, indexed by [`NodeId`];
/// * [`Protocol::on_message`] handles a message at `node` reading only
///   `shared` and mutating only `node`'s slice — it has no `self`, so it
///   cannot do otherwise.
///
/// The serialized phases ([`Protocol::on_start`], [`Protocol::on_round`])
/// keep `&mut self` and the full [`SimApi`]; they reach a slice through
/// [`with_slice`].
pub trait Protocol {
    /// Message payload carried between processors.
    type Msg: Clone + std::fmt::Debug;

    /// One processor's private state.
    type Slice;

    /// Read-only state shared by every handler.
    type Shared;

    /// Split into the shared view and the per-node slices (`slices[v]` is
    /// processor `v`'s state; the returned slice has one entry per
    /// processor — the executors reject anything else as
    /// [`crate::SimError::InvalidConfig`]).
    fn split(&mut self) -> (&Self::Shared, &mut [Self::Slice]);

    /// Called once before round 0. All operations are issued here (the
    /// paper's one-shot scenario: every requester starts at time 0; see
    /// [`crate::arrival::issue_all`]). Sends staged here are transmitted
    /// during round 0 and arrive at round 1; operations completing without
    /// communication may call [`SimApi::complete`] with delay 0.
    fn on_start(&mut self, api: &mut SimApi<Self::Msg>);

    /// Called when `node` dequeues (receives) a message from `from`:
    /// handle it touching only `node`'s slice.
    fn on_message(
        shared: &Self::Shared,
        slice: &mut Self::Slice,
        api: &mut SliceApi<Self::Msg>,
        node: NodeId,
        from: NodeId,
        msg: Self::Msg,
    );

    /// Called at the start of every round while the system is live
    /// (messages queued or in flight). Default: no-op.
    fn on_round(&mut self, _api: &mut SimApi<Self::Msg>, _round: Round) {}

    /// The earliest future round at which [`Protocol::on_round`] would do
    /// anything observable (stage effects, mutate scheduling state).
    /// `None` means `on_round` is a pure no-op at every remaining round —
    /// the default, correct for every protocol that does not override
    /// `on_round`; [`crate::arrival::Paced`] reports its next scheduled
    /// arrival or admission retry. A quiescent engine fast-forwards to
    /// this round instead of terminating, so returning a too-late round
    /// would silently skip the rounds in between.
    fn next_active_round(&self) -> Option<Round> {
        None
    }

    /// Canonical rendering of protocol-internal *scheduling* state for the
    /// probe layer's state hashes (see [`crate::probe`]): anything that
    /// determines future behaviour but is not visible in queues, wires or
    /// report counters. The default (empty) is correct for one-shot
    /// protocols, whose entire evolution is driven by the message state the
    /// probe already renders; [`crate::arrival::Paced`] overrides it with
    /// its arrival cursor, pending retries and admission-controller state.
    fn state_token(&self) -> String {
        String::new()
    }
}

/// The run's open-operation counts: issues and completions over the whole
/// run, and optionally the open operations per shard. Owned by the
/// scheduler's `Ledger`, so the counts outlive every callback that moves
/// them; admission ([`crate::admission`]) reads them through [`SimApi`].
#[derive(Debug, Default)]
pub(crate) struct Backlog {
    issued: u64,
    completed: u64,
    /// Shard id per node — empty unless per-shard accounting was enabled
    /// (see [`SimApi::enable_shard_accounting`]).
    shard_of: Vec<u32>,
    /// Open operations (issued − completed) per shard.
    shard_open: Vec<u64>,
}

/// Callback interface of the serialized phases ([`Protocol::on_start`],
/// [`Protocol::on_round`]): a write-through view of the engine at one
/// round. Every call lands before it returns: a send in its sender's
/// outbox, a record in the report. The first invalid send is kept and
/// returned by the round loop once the callback returns.
pub struct SimApi<'a, M> {
    round: Round,
    graph: &'a Graph,
    trace: bool,
    report: &'a mut SimReport,
    backlog: &'a mut Backlog,
    /// The first [`SimError::InvalidSend`] of the callback, if any.
    error: &'a mut Option<SimError>,
    /// Stages one send in its sender's outbox, returning the new depth.
    stage: &'a mut dyn FnMut(NodeId, NodeId, M) -> usize,
}

impl<'a, M> SimApi<'a, M> {
    /// A view at `round` over the engine's report, backlog and error slot,
    /// staging sends through `stage`.
    pub(crate) fn new(
        round: Round,
        graph: &'a Graph,
        trace: bool,
        report: &'a mut SimReport,
        backlog: &'a mut Backlog,
        error: &'a mut Option<SimError>,
        stage: &'a mut dyn FnMut(NodeId, NodeId, M) -> usize,
    ) -> Self {
        SimApi { round, graph, trace, report, backlog, error, stage }
    }

    /// The current round (0 during [`Protocol::on_start`]).
    #[inline]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Send a message from `from` to its neighbour `to`. The message enters
    /// `from`'s outbox now; it is transmitted when the per-round send
    /// budget allows and arrives one round after transmission. A send
    /// between non-adjacent processors stages nothing and fails the run
    /// with [`SimError::InvalidSend`] when the callback returns.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let n = self.graph.n();
        if from >= n || to >= n || !self.graph.has_edge(from, to) {
            self.error.get_or_insert(SimError::InvalidSend { from, to, round: self.round });
            return;
        }
        let depth = (self.stage)(from, to, msg);
        self.report.max_outbox_depth = self.report.max_outbox_depth.max(depth);
    }

    /// Record that `node`'s operation completed now with result `value`.
    /// The delay recorded is the current round.
    pub fn complete(&mut self, node: NodeId, value: u64) {
        let b = &mut *self.backlog;
        b.completed += 1;
        if let Some(&s) = b.shard_of.get(node) {
            b.shard_open[s as usize] = b.shard_open[s as usize].saturating_sub(1);
        }
        self.report.completions.push(Completion { node, value, round: self.round });
        self.traced(TraceKind::Complete, node);
    }

    /// Record that `node` issued its operation now (open-system runs:
    /// called by [`crate::arrival::Paced`] alongside
    /// [`crate::arrival::OnlineProtocol::issue`]). Feeds the report's
    /// completion-latency and backlog metrics; one-shot protocols never
    /// call this and their operations implicitly issue at round 0.
    pub fn issue(&mut self, node: NodeId) {
        let b = &mut *self.backlog;
        b.issued += 1;
        if let Some(&s) = b.shard_of.get(node) {
            b.shard_open[s as usize] += 1;
        }
        self.report.issues.push(Issue { node, round: self.round });
        self.traced(TraceKind::Issue, node);
    }

    /// The live global backlog: operations issued but not yet completed,
    /// over the whole run so far. This is the quantity admission control
    /// ([`crate::admission`]) gates on — it is one run-wide counter, so the
    /// sharded executor admits against the *global* backlog, not a
    /// per-shard view. 0 for one-shot runs (which record no issues).
    #[inline]
    pub fn backlog(&self) -> usize {
        self.backlog.issued.saturating_sub(self.backlog.completed) as usize
    }

    /// Enable per-shard open-operation accounting: `shard_of[v]` is the
    /// shard node `v` lives on. Installed by [`crate::arrival::Paced`]
    /// during `on_start` when a shard-scoped admission policy
    /// ([`crate::AdmissionPolicy::PerNode`]) is active. Every executor
    /// funnels issues and completions through this one API — the serialized
    /// phases directly, every deliver walk through its [`SliceApi`] — so
    /// the per-shard counters are executor-independent by construction.
    pub fn enable_shard_accounting(&mut self, shard_of: Vec<u32>) {
        let shards = shard_of.iter().copied().max().map_or(0, |m| m as usize + 1);
        self.backlog.shard_open = vec![0; shards];
        self.backlog.shard_of = shard_of;
    }

    /// The live backlog of the shard `node` lives on — the quantity
    /// [`crate::AdmissionPolicy::PerNode`] gates on. Falls back to the
    /// global backlog when per-shard accounting is disabled (or the node
    /// is out of the installed map's range), so scoped policies degrade
    /// to their global meaning on unsharded runs.
    #[inline]
    pub fn shard_backlog(&self, node: NodeId) -> usize {
        match self.backlog.shard_of.get(node) {
            Some(&s) => self.backlog.shard_open[s as usize] as usize,
            None => self.backlog(),
        }
    }

    /// Record that `node`'s scheduled arrival was refused admission (the
    /// operation will never issue). Called by [`crate::arrival::Paced`]
    /// alongside [`crate::arrival::OnlineProtocol::cancel`].
    pub(crate) fn shed(&mut self, node: NodeId) {
        self.report.dropped.push(Dropped { node, round: self.round });
        self.traced(TraceKind::Drop, node);
    }

    /// Record that an arrival's admission was deferred to a later round.
    pub(crate) fn note_delayed(&mut self) {
        self.report.delayed_admissions += 1;
    }

    /// This view scoped to the processor `node`: the [`SliceApi`] a
    /// handler-style callback at `node` writes through.
    pub(crate) fn at(&mut self, node: NodeId) -> SliceApi<'_, M> {
        let api = SimApi {
            round: self.round,
            graph: self.graph,
            trace: self.trace,
            report: self.report,
            backlog: self.backlog,
            error: self.error,
            stage: self.stage,
        };
        SliceApi { api, node }
    }

    /// Append one `kind` event at `node` to the trace, if tracing.
    fn traced(&mut self, kind: TraceKind, node: NodeId) {
        if self.trace {
            self.report.trace.push(TraceEvent { round: self.round, kind, node, peer: node });
        }
    }
}

/// Callback interface of [`Protocol::on_message`]: a [`SimApi`] scoped to
/// one processor.
///
/// Unlike [`SimApi`], sends carry no explicit sender — they always leave
/// the handling node, which keeps every effect of a handler inside that
/// node's outbox. Effects land during the call, in call order, so every
/// executor produces the same execution.
pub struct SliceApi<'a, M> {
    api: SimApi<'a, M>,
    node: NodeId,
}

impl<M> SliceApi<'_, M> {
    /// The current round.
    #[inline]
    pub fn round(&self) -> Round {
        self.api.round
    }

    /// The processor whose slice this handler owns.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send a message from the handling node to its neighbour `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.api.send(self.node, to, msg);
    }

    /// Record that `node`'s operation completed now with result `value`.
    pub fn complete(&mut self, node: NodeId, value: u64) {
        self.api.complete(node, value);
    }
}

/// Run a closure against `node`'s slice through the [`SliceApi`] at `node`
/// — how the serialized phases (the time-0 start, the arrivals phase's
/// issue and cancel) reach one processor's state under the same discipline
/// as a message handler.
pub fn with_slice<P: Protocol>(
    p: &mut P,
    api: &mut SimApi<P::Msg>,
    node: NodeId,
    f: impl FnOnce(&P::Shared, &mut P::Slice, &mut SliceApi<P::Msg>),
) {
    let (shared, slices) = p.split();
    f(shared, &mut slices[node], &mut api.at(node));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NodeStore;
    use ccq_graph::topology;

    /// What the scheduler's `Ledger` lends a callback, plus one store for
    /// its sends.
    struct Engine {
        report: SimReport,
        backlog: Backlog,
        error: Option<SimError>,
        store: NodeStore<u8>,
    }

    impl Engine {
        fn new(n: usize) -> Self {
            let (report, backlog, store) =
                (SimReport::default(), Backlog::default(), NodeStore::new(n));
            Engine { report, backlog, error: None, store }
        }

        /// Run one traced callback at `round` on `g`, as the round loop does.
        fn call(&mut self, g: &Graph, round: Round, f: impl FnOnce(&mut SimApi<u8>)) {
            let Engine { report, backlog, error, store } = self;
            let mut stage = |from, to, msg| store.stage(from, to, msg);
            f(&mut SimApi::new(round, g, true, report, backlog, error, &mut stage));
        }

        fn outbox(&self, v: NodeId) -> Vec<(NodeId, u8)> {
            self.store.outbox_of(v).copied().collect()
        }
    }

    #[test]
    fn api_staging() {
        let g = topology::path(3);
        let mut e = Engine::new(3);
        e.call(&g, 3, |api| {
            assert_eq!(api.round(), 3);
            api.send(0, 1, 42);
            api.send(0, 1, 43);
            api.complete(2, 7);
        });
        // Landed during the call: the outbox, its depth, the report.
        assert_eq!(e.outbox(0), vec![(1, 42), (1, 43)]);
        assert_eq!(e.report.max_outbox_depth, 2);
        assert_eq!(e.report.completions, vec![Completion { node: 2, value: 7, round: 3 }]);
        assert_eq!(e.error, None);
        // A non-edge send stages nothing and fills the error slot; the
        // first one is kept.
        e.call(&g, 4, |api| {
            api.send(0, 2, 1);
            api.send(2, 9, 2);
        });
        assert_eq!(e.error, Some(SimError::InvalidSend { from: 0, to: 2, round: 4 }));
        assert_eq!(e.outbox(0), vec![(1, 42), (1, 43)]);
        assert_eq!(e.outbox(2), vec![]);
        assert_eq!(e.report.max_outbox_depth, 2);
    }

    #[test]
    fn shard_accounting_tracks_per_shard_backlogs() {
        let g = topology::path(4);
        // Disabled: the shard view is the global backlog.
        let mut e = Engine::new(4);
        e.call(&g, 0, |api| api.issue(0));
        e.call(&g, 1, |api| {
            assert_eq!(api.shard_backlog(0), 1);
            assert_eq!(api.shard_backlog(0), api.backlog());
        });
        // Enabled: nodes 0,1 on shard 0; nodes 2,3 on shard 1. The counts
        // live in the engine, so they outlive the callback that set them.
        let mut e = Engine::new(4);
        e.call(&g, 0, |api| {
            api.enable_shard_accounting(vec![0, 0, 1, 1]);
            api.issue(0);
            api.issue(2);
            api.issue(3);
        });
        e.call(&g, 1, |api| {
            assert_eq!(api.backlog(), 3);
            assert_eq!(api.shard_backlog(1), 1);
            assert_eq!(api.shard_backlog(2), 2);
            api.at(2).complete(2, 7);
        });
        e.call(&g, 2, |api| {
            assert_eq!(api.shard_backlog(2), 1);
            assert_eq!(api.shard_backlog(0), 1);
            // Out-of-map nodes fall back to the global count; stray
            // completions saturate instead of underflowing.
            assert_eq!(api.shard_backlog(9), api.backlog());
            api.complete(3, 1);
            api.complete(3, 1);
            assert_eq!(api.shard_backlog(3), 0);
        });
    }

    #[test]
    fn slice_api_replays_in_call_order() {
        let g = topology::path(8);
        let mut e = Engine::new(8);
        e.call(&g, 5, |api| {
            api.issue(3);
            let mut sapi = api.at(3);
            assert_eq!((sapi.round(), sapi.node()), (5, 3));
            sapi.send(4, 9);
            sapi.complete(7, 2);
            api.shed(1);
            api.at(3).send(2, 8);
            api.complete(3, 1);
        });
        // Sends leave the handling node, in call order; completions keep
        // their target.
        assert_eq!(e.outbox(3), vec![(4, 9), (2, 8)]);
        let done: Vec<NodeId> = e.report.completions.iter().map(|c| c.node).collect();
        assert_eq!(done, vec![7, 3]);
        assert!(e.report.completions.iter().all(|c| c.round == 5));
        assert_eq!(e.report.issues, vec![Issue { node: 3, round: 5 }]);
        assert_eq!(e.report.dropped, vec![Dropped { node: 1, round: 5 }]);
        // The trace interleaves the kinds exactly as they were called.
        let trace: Vec<(TraceKind, NodeId)> =
            e.report.trace.iter().map(|t| (t.kind, t.node)).collect();
        assert_eq!(
            trace,
            vec![
                (TraceKind::Issue, 3),
                (TraceKind::Complete, 7),
                (TraceKind::Drop, 1),
                (TraceKind::Complete, 3),
            ]
        );
    }
}
