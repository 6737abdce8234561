//! The [`Protocol`] trait and the two callback interfaces it is written
//! against: [`SimApi`] for the serialized phases, [`SliceApi`] for message
//! handlers.
//!
//! [`Protocol`] models the whole distributed system as one value that
//! lends a read-only [`Protocol::Shared`] view together with one
//! processor's [`Protocol::Slice`] at a time ([`Protocol::at`]). A message
//! handler at `node` is an associated function over `shared` and `node`'s
//! slice alone (through a [`SliceApi`]) — the paper's "a processor touches
//! its own state and its own links", stated in the type. The scheduler's
//! one receive walk calls the handler in ascending node order, sharded run
//! or not ([`crate::shard`]).
//!
//! Both interfaces write through: an effect lands in the engine during the
//! call that makes it, as a §2.1 send enters the sender's outbox the moment
//! the processor performs it. A send is checked against the graph and
//! staged straight into its sender's outbox in the run's one
//! [`crate::state::NodeStore`], which [`SimApi`] borrows (no closure
//! stands in between); a completion, issue or drop is written into the
//! report (and the trace) in call order. [`SliceApi`] is a [`SimApi`]
//! scoped to the handling node. Neither keeps a copy of a run
//! fact: [`SimApi`] reads the fault plan the run borrows
//! ([`crate::Simulator::with_faults`]), the shard map from the run's cut
//! and the backlog from the report.

use crate::report::{Completion, Dropped, FaultPlan, Issue, SimConfig, SimReport};
use crate::state::NodeStore;
use crate::trace::{TraceEvent, TraceKind};
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId, Partition};

/// A distributed protocol executed by the simulator.
///
/// One `Protocol` value holds the state of *all* processors and lends it
/// one processor at a time. The contract (and the reason every executor
/// produces the same bytes):
///
/// * [`Protocol::at`] lends an immutable [`Protocol::Shared`] view
///   (routing tables, tree shape, mode flags) and `node`'s
///   [`Protocol::Slice`], which no other processor's lend overlaps;
/// * [`Protocol::on_message`], [`Protocol::issue`] and
///   [`Protocol::cancel`] act at one `node`, reading only `shared` and
///   mutating only `node`'s slice — they have no `self`, so they cannot
///   do otherwise.
///
/// A slice is `&'s mut` one fixed-size record, or a node's range of one
/// run-wide array where states vary in size: no heap object per node.
///
/// A run starts one way. [`Protocol::on_start`] runs once before round 0;
/// then the scheduler's arrivals phase issues every operation through
/// [`Protocol::issue`]: [`Protocol::requests`] at round 0, in that order
/// (the paper's one-shot batch), or the open schedule the run was given
/// ([`crate::Simulator::with_arrivals`]), admission-gated and at the
/// rounds it names.
pub trait Protocol {
    /// Message payload carried between processors.
    type Msg: Clone + std::fmt::Debug;

    /// One processor's private state, as lent for `'s`.
    type Slice<'s>
    where
        Self: 's;

    /// Read-only state shared by every handler.
    type Shared;

    /// How many processors the protocol holds state for: the executors
    /// reject any count but the graph's as [`crate::SimError::InvalidConfig`].
    fn nodes(&self) -> usize;

    /// Lend the shared view and processor `node`'s slice.
    fn at(&mut self, node: NodeId) -> (&Self::Shared, Self::Slice<'_>);

    /// The request set the protocol was built with: the operations the
    /// one-shot batch issues at round 0, in this order.
    fn requests(&self) -> &[NodeId];

    /// Called once before round 0, before any operation issues. A
    /// per-request protocol has nothing to do until an operation arrives,
    /// so the default does nothing; a single-wave combining protocol opens
    /// its wave here (the processors that request nothing and wait on no
    /// child report at once). Sends staged here are transmitted during
    /// round 0 and arrive at round 1.
    fn on_start(&mut self, _api: &mut SimApi<Self::Msg>) {}

    /// Inject `node`'s operation now, touching only `node`'s slice. `node`
    /// belongs to the request set the protocol was built with and issues
    /// at most once. An operation completing without communication may
    /// call [`SliceApi::complete`] at once.
    fn issue(
        shared: &Self::Shared,
        slice: Self::Slice<'_>,
        api: &mut SliceApi<Self::Msg>,
        node: NodeId,
    );

    /// `node`'s scheduled operation was refused admission and will never
    /// issue: release anything the protocol holds waiting on it. A
    /// per-request protocol holds nothing, so the default does nothing; a
    /// single-wave combining protocol **must** strike the requester from
    /// its wave, or the wave never closes. Called at most once per node,
    /// and never after `issue`.
    fn cancel(
        _shared: &Self::Shared,
        _slice: Self::Slice<'_>,
        _api: &mut SliceApi<Self::Msg>,
        _node: NodeId,
    ) {
    }

    /// Called when `node` dequeues (receives) a message from `from`:
    /// handle it touching only `node`'s slice.
    fn on_message(
        shared: &Self::Shared,
        slice: Self::Slice<'_>,
        api: &mut SliceApi<Self::Msg>,
        node: NodeId,
        from: NodeId,
        msg: Self::Msg,
    );
}

/// Callback interface of the serialized phases (the start and the
/// arrivals phase): a write-through view of the engine at one round. Every call lands before it returns: a send in its sender's
/// outbox, a record in the report. The first invalid send is kept and
/// returned by the round loop once the callback returns.
pub struct SimApi<'a, M> {
    pub(crate) round: Round,
    pub(crate) graph: &'a Graph,
    pub(crate) cfg: &'a SimConfig,
    /// The shard cut's partition, if the run has one.
    pub(crate) shards: Option<&'a Partition>,
    /// The run's crash/recover schedule.
    pub(crate) faults: &'a FaultPlan,
    pub(crate) report: &'a mut SimReport,
    /// Open operations (issued − completed) per shard of `shards` — empty
    /// until [`SimApi::enable_shard_accounting`]. Owned by the scheduler's
    /// `Ledger`, so the counts outlive every callback that moves them.
    pub(crate) shard_open: &'a mut Vec<u64>,
    /// The first [`SimError::InvalidSend`] of the callback, if any.
    pub(crate) error: &'a mut Option<SimError>,
    /// The run's one store: a send lands in its sender's outbox here.
    pub(crate) store: &'a mut NodeStore<M>,
}

impl<M> SimApi<'_, M> {
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
        let depth = self.store.stage(from, to, msg);
        self.report.max_outbox_depth = self.report.max_outbox_depth.max(depth);
    }

    /// Record that `node`'s operation completed now with result `value`.
    /// The delay recorded is the current round.
    pub fn complete(&mut self, node: NodeId, value: u64) {
        if let Some(s) = self.counted_shard(node) {
            self.shard_open[s] = self.shard_open[s].saturating_sub(1);
        }
        self.report.completions.push(Completion { node, value, round: self.round });
        self.traced(TraceKind::Complete, node);
    }

    /// Record that `node` issued its operation now (an open schedule's
    /// admitted arrival, alongside [`Protocol::issue`]). Feeds the report's
    /// completion-latency and backlog metrics; the one-shot batch records
    /// none, and its operations implicitly issue at round 0.
    pub(crate) fn issue(&mut self, node: NodeId) {
        if let Some(s) = self.counted_shard(node) {
            self.shard_open[s] += 1;
        }
        self.report.issues.push(Issue { node, round: self.round });
        self.traced(TraceKind::Issue, node);
    }

    /// The live global backlog: operations issued but not yet completed,
    /// over the whole run so far. This is the quantity admission control
    /// ([`crate::admission`]) gates on — read from the report's issue and
    /// completion lists, one run-wide count, so a sharded run admits
    /// against the *global* backlog, not a per-shard view. 0 for one-shot
    /// runs (which record no issues).
    #[inline]
    pub(crate) fn backlog(&self) -> usize {
        self.report.open_operations()
    }

    /// Count open operations per shard of the run's cut from now on (a
    /// no-op on an unsharded run). Enabled before round 0 when the run's
    /// arrivals gate on a shard-scoped policy
    /// ([`crate::AdmissionPolicy::PerNode`]). Issues and completions reach
    /// the counts through this one API — the serialized phases directly,
    /// the deliver walk through its [`SliceApi`].
    pub(crate) fn enable_shard_accounting(&mut self) {
        if let Some(shards) = self.shards {
            *self.shard_open = vec![0; shards.k()];
        }
    }

    /// The live backlog of the shard `node` lives on — the quantity
    /// [`crate::AdmissionPolicy::PerNode`] gates on. Falls back to the
    /// global backlog when per-shard accounting is off, so scoped policies
    /// degrade to their global meaning on unsharded runs.
    #[inline]
    pub(crate) fn shard_backlog(&self, node: NodeId) -> usize {
        self.counted_shard(node).map_or_else(|| self.backlog(), |s| self.shard_open[s] as usize)
    }

    /// If `node` is down now under the run's fault plan
    /// ([`crate::Simulator::with_faults`]), the round it recovers.
    #[inline]
    pub fn down_until(&self, node: NodeId) -> Option<Round> {
        self.faults.down_until(node, self.round)
    }

    /// `node`'s shard, while per-shard accounting is on.
    fn counted_shard(&self, node: NodeId) -> Option<usize> {
        let shards = self.shards.filter(|_| !self.shard_open.is_empty())?;
        Some(shards.shard_of(node))
    }

    /// Record that `node`'s scheduled arrival was refused admission (the
    /// operation will never issue), alongside [`Protocol::cancel`].
    pub(crate) fn shed(&mut self, node: NodeId) {
        self.report.dropped.push(Dropped { node, round: self.round });
        self.traced(TraceKind::Drop, node);
    }

    /// Record that an arrival's admission was deferred to a later round.
    pub(crate) fn note_delayed(&mut self) {
        self.report.delayed_admissions += 1;
    }

    /// This view scoped to the processor `node`: the [`SliceApi`] a handler
    /// called from a serialized phase writes through, next to [`Protocol::at`].
    pub fn at(&mut self, node: NodeId) -> SliceApi<'_, M> {
        let api = SimApi {
            round: self.round,
            graph: self.graph,
            cfg: self.cfg,
            shards: self.shards,
            faults: self.faults,
            report: self.report,
            shard_open: self.shard_open,
            error: self.error,
            store: self.store,
        };
        SliceApi { api, node }
    }

    /// Append one `kind` event at `node` to the trace, if tracing.
    fn traced(&mut self, kind: TraceKind, node: NodeId) {
        if self.cfg.trace {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ccq_graph::topology;

    /// What the scheduler's `Ledger` lends a callback — a traced config,
    /// the cut's partition, the fault plan, the report, the per-shard
    /// counts and the error slot — plus one store for its sends.
    pub(crate) struct Engine<M> {
        pub(crate) cfg: SimConfig,
        shards: Option<Partition>,
        pub(crate) faults: FaultPlan,
        pub(crate) report: SimReport,
        shard_open: Vec<u64>,
        pub(crate) error: Option<SimError>,
        store: NodeStore<M>,
    }

    impl<M: Copy> Engine<M> {
        pub(crate) fn new(n: usize, shards: Option<Partition>) -> Self {
            let (report, store) = (SimReport::default(), NodeStore::new(n));
            let cfg = SimConfig::strict().with_trace();
            let faults = FaultPlan::none();
            Engine { cfg, shards, faults, report, shard_open: Vec::new(), error: None, store }
        }

        /// Run one callback at `round` on `g`, as the round loop does.
        pub(crate) fn call(&mut self, g: &Graph, round: Round, f: impl FnOnce(&mut SimApi<M>)) {
            let Engine { cfg, shards, faults, report, shard_open, error, store } = self;
            let (graph, shards) = (g, shards.as_ref());
            f(&mut SimApi { round, graph, cfg, shards, faults, report, shard_open, error, store });
        }

        pub(crate) fn outbox(&self, v: NodeId) -> Vec<(NodeId, M)> {
            self.store.outbox_of(v).map(|m| (m.dst(), *m.msg())).collect()
        }
    }

    #[test]
    fn api_staging() {
        let g = topology::path(3);
        let mut e = Engine::<u8>::new(3, None);
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
        // The run's cut: nodes 0, 1 on shard 0; nodes 2, 3 on shard 1.
        let cut = || Some(Partition::contiguous(4, 2));
        // Off — a cut but never enabled, or enabled on a run with no cut:
        // the shard view is the global backlog.
        for (shards, enable) in [(cut(), false), (None, true)] {
            let mut e = Engine::<u8>::new(4, shards);
            e.call(&g, 0, |api| {
                if enable {
                    api.enable_shard_accounting();
                }
                api.issue(0);
            });
            e.call(&g, 1, |api| {
                assert_eq!(api.shard_backlog(0), 1);
                assert_eq!(api.shard_backlog(2), api.backlog());
            });
            assert!(e.shard_open.is_empty());
        }
        // Enabled on the cut. The counts live in the engine, so they
        // outlive the callback that set them.
        let mut e = Engine::<u8>::new(4, cut());
        e.call(&g, 0, |api| {
            api.enable_shard_accounting();
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
            // Stray completions saturate instead of underflowing.
            api.complete(3, 1);
            api.complete(3, 1);
            assert_eq!(api.shard_backlog(3), 0);
            assert_eq!(api.backlog(), 0);
        });
        assert_eq!(e.shard_open, [1, 0]);
    }

    #[test]
    fn slice_api_replays_in_call_order() {
        let g = topology::path(8);
        let mut e = Engine::<u8>::new(8, None);
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
