//! The [`Protocol`] trait and the two callback interfaces it is written
//! against: [`SimApi`] for the serialized phases, [`SliceApi`] for message
//! handlers.
//!
//! [`Protocol`] models the whole distributed system as one value that
//! splits into a read-only [`Protocol::Shared`] view plus one disjoint
//! [`Protocol::Slice`] per processor. A message handler at `node` is an
//! associated function over `shared` and `node`'s slice alone (through a
//! [`SliceApi`]) — the paper's "a processor touches its own state and its
//! own links", stated in the type. Every executor calls the one handler the
//! same way — the monolith from its receive walk, the sharded fabric
//! ([`crate::shard`]) from one walk of its lanes' merged in-port frontier,
//! both in ascending node order — which is why their runs are
//! byte-identical.

use crate::report::{Completion, Dropped, Issue};
use crate::Round;
use ccq_graph::NodeId;

/// Initial capacity of each [`SimApi`] staging buffer: comfortably above
/// the per-phase event count of every bundled protocol, so the buffers
/// never grow in practice (growth is still correct, just amortized).
const STAGE_CAPACITY: usize = 64;

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

/// Callback interface: staging area for sends and operation completions.
/// The per-kind buffers are preallocated, filled by a phase and emptied
/// whole at its end (`drain(..)` and `clear()` keep their storage), so
/// staging effects allocates nothing in steady state.
#[derive(Debug)]
pub struct SimApi<M> {
    round: Round,
    pub(crate) outgoing: Vec<(NodeId, NodeId, M)>,
    pub(crate) completed: Vec<Completion>,
    pub(crate) issued: Vec<Issue>,
    pub(crate) dropped: Vec<Dropped>,
    pub(crate) delayed: u64,
    /// Cumulative issue count over the whole run (never drained).
    issued_total: u64,
    /// Cumulative completion count over the whole run (never drained).
    completed_total: u64,
    /// Shard id per node — empty unless per-shard accounting was enabled
    /// (see [`SimApi::enable_shard_accounting`]).
    shard_of: Vec<u32>,
    /// Open operations (issued − completed) per shard; maintained by
    /// [`SimApi::issue`] / [`SimApi::complete`] when accounting is on.
    shard_open: Vec<u64>,
    /// Capacity-retaining effect buffer of the run's one serialized-side
    /// [`SliceApi`] ([`SimApi::lend_slice_api`]), so handing a handler its
    /// API never allocates in steady state.
    slice_scratch: Vec<SliceEffect<M>>,
}

impl<M> SimApi<M> {
    pub(crate) fn new() -> Self {
        SimApi {
            round: 0,
            outgoing: Vec::with_capacity(STAGE_CAPACITY),
            completed: Vec::with_capacity(STAGE_CAPACITY),
            issued: Vec::with_capacity(STAGE_CAPACITY),
            dropped: Vec::with_capacity(STAGE_CAPACITY),
            delayed: 0,
            issued_total: 0,
            completed_total: 0,
            shard_of: Vec::new(),
            shard_open: Vec::new(),
            slice_scratch: Vec::new(),
        }
    }

    pub(crate) fn set_round(&mut self, r: Round) {
        self.round = r;
    }

    /// The current round (0 during [`Protocol::on_start`]).
    #[inline]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Stage a message from `from` to its neighbour `to`. The message enters
    /// `from`'s outbox; it is transmitted when the per-round send budget
    /// allows and arrives one round after transmission.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.outgoing.push((from, to, msg));
    }

    /// Record that `node`'s operation completed now with result `value`.
    /// The delay recorded is the current round.
    pub fn complete(&mut self, node: NodeId, value: u64) {
        self.note_completion(node);
        self.completed.push(Completion { node, value, round: self.round });
    }

    /// The backlog bookkeeping of one completion at `node` — everything
    /// [`SimApi::complete`] does but staging the record, which the deliver
    /// walks' effect drain writes straight into the report.
    pub(crate) fn note_completion(&mut self, node: NodeId) {
        self.completed_total += 1;
        if let Some(&s) = self.shard_of.get(node) {
            self.shard_open[s as usize] = self.shard_open[s as usize].saturating_sub(1);
        }
    }

    /// Record that `node` issued its operation now (open-system runs:
    /// called by [`crate::arrival::Paced`] alongside
    /// [`crate::arrival::OnlineProtocol::issue`]). Feeds the report's
    /// completion-latency and backlog metrics; one-shot protocols never
    /// call this and their operations implicitly issue at round 0.
    pub fn issue(&mut self, node: NodeId) {
        self.issued_total += 1;
        if let Some(&s) = self.shard_of.get(node) {
            self.shard_open[s as usize] += 1;
        }
        self.issued.push(Issue { node, round: self.round });
    }

    /// The live global backlog: operations issued but not yet completed,
    /// over the whole run so far. This is the quantity admission control
    /// ([`crate::admission`]) gates on — it is one run-wide counter, so the
    /// sharded executor admits against the *global* backlog, not a
    /// per-shard view. 0 for one-shot runs (which record no issues).
    #[inline]
    pub fn backlog(&self) -> usize {
        self.issued_total.saturating_sub(self.completed_total) as usize
    }

    /// Enable per-shard open-operation accounting: `shard_of[v]` is the
    /// shard node `v` lives on. Installed by [`crate::arrival::Paced`]
    /// during `on_start` when a shard-scoped admission policy
    /// ([`crate::AdmissionPolicy::PerNode`]) is active. Every executor
    /// funnels issues and completions through this one API — the serialized
    /// phases call [`SimApi::complete`], and every deliver walk its
    /// bookkeeping half — so the per-shard counters are
    /// executor-independent by construction.
    pub fn enable_shard_accounting(&mut self, shard_of: Vec<u32>) {
        let shards = shard_of.iter().copied().max().map_or(0, |m| m as usize + 1);
        self.shard_open = vec![0; shards];
        self.shard_of = shard_of;
    }

    /// The live backlog of the shard `node` lives on — the quantity
    /// [`crate::AdmissionPolicy::PerNode`] gates on. Falls back to the
    /// global backlog when per-shard accounting is disabled (or the node
    /// is out of the installed map's range), so scoped policies degrade
    /// to their global meaning on unsharded runs.
    #[inline]
    pub fn shard_backlog(&self, node: NodeId) -> usize {
        match self.shard_of.get(node) {
            Some(&s) => self.shard_open[s as usize] as usize,
            None => self.backlog(),
        }
    }

    /// Record that `node`'s scheduled arrival was refused admission (the
    /// operation will never issue). Called by [`crate::arrival::Paced`]
    /// alongside [`crate::arrival::OnlineProtocol::cancel`].
    pub(crate) fn shed(&mut self, node: NodeId) {
        self.dropped.push(Dropped { node, round: self.round });
    }

    /// Record that an arrival's admission was deferred to a later round.
    pub(crate) fn note_delayed(&mut self) {
        self.delayed += 1;
    }

    /// Lend the scratch buffer out as a [`SliceApi`] at `node` for the
    /// current round. The borrower drains it after every handler call —
    /// [`with_slice`] back into this API with [`SliceApi::replay_into`],
    /// the deliver walks straight into the engine with
    /// `Ledger::apply_effects` — and hands it back through
    /// [`SimApi::reclaim`]: per call for [`with_slice`], per deliver phase
    /// for the walks.
    pub(crate) fn lend_slice_api(&mut self, node: NodeId) -> SliceApi<M> {
        SliceApi { round: self.round, node, effects: std::mem::take(&mut self.slice_scratch) }
    }

    /// Take the lent buffer back (drained, capacity intact).
    pub(crate) fn reclaim(&mut self, sapi: SliceApi<M>) {
        debug_assert!(sapi.effects.is_empty(), "scratch buffer must come back drained");
        self.slice_scratch = sapi.effects;
    }
}

/// One staged effect of a handler ([`SliceApi`]): the same operations
/// [`SimApi`] offers, recorded in call order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SliceEffect<M> {
    /// A message from the handling node to a neighbour.
    Send {
        /// Receiver (the sender is always the handling node).
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// An operation completion.
    Complete {
        /// Processor whose operation completed (usually, but not
        /// necessarily, the handling node — e.g. the arrow protocol
        /// completes the *origin*'s operation where the pairing forms).
        node: NodeId,
        /// Protocol-defined result.
        value: u64,
    },
}

/// Callback interface of [`Protocol::on_message`]: a staging area scoped to
/// one processor.
///
/// Unlike [`SimApi`], sends carry no explicit sender — they always leave
/// the handling node, which keeps every effect of a handler inside that
/// node's outbox. Effects are recorded in call order and applied to the
/// engine right after the handler returns, so every executor produces the
/// same execution.
#[derive(Debug)]
pub struct SliceApi<M> {
    round: Round,
    node: NodeId,
    /// Staged effects in call order, drained after every handler call.
    pub(crate) effects: Vec<SliceEffect<M>>,
}

impl<M> SliceApi<M> {
    /// Re-point the API at another processor (every apply site reuses one
    /// `SliceApi` across the nodes it visits, so there are no per-node
    /// buffers).
    pub(crate) fn set_node(&mut self, node: NodeId) {
        self.node = node;
    }

    /// The current round.
    #[inline]
    pub fn round(&self) -> Round {
        self.round
    }

    /// The processor whose slice this handler owns.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Stage a message from the handling node to its neighbour `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(SliceEffect::Send { to, msg });
    }

    /// Record that `node`'s operation completed now with result `value`.
    pub fn complete(&mut self, node: NodeId, value: u64) {
        self.effects.push(SliceEffect::Complete { node, value });
    }

    /// Drain every staged effect into the full [`SimApi`], in call order
    /// (the buffer keeps its capacity for reuse) — [`with_slice`]'s half;
    /// the deliver phase's handlers skip the `SimApi` buffers.
    pub(crate) fn replay_into(&mut self, api: &mut SimApi<M>) {
        let node = self.node;
        for effect in self.effects.drain(..) {
            match effect {
                SliceEffect::Send { to, msg } => api.send(node, to, msg),
                SliceEffect::Complete { node, value } => api.complete(node, value),
            }
        }
    }
}

/// Run a closure against `node`'s slice through a scoped [`SliceApi`] and
/// replay its effects into the full [`SimApi`] — how the serialized phases
/// (the time-0 start, the arrivals phase's issue and cancel) reach one
/// processor's state under the same discipline as a message handler.
pub fn with_slice<P: Protocol>(
    p: &mut P,
    api: &mut SimApi<P::Msg>,
    node: NodeId,
    f: impl FnOnce(&P::Shared, &mut P::Slice, &mut SliceApi<P::Msg>),
) {
    let mut sapi = api.lend_slice_api(node);
    let (shared, slices) = p.split();
    f(shared, &mut slices[node], &mut sapi);
    sapi.replay_into(api);
    api.reclaim(sapi);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_staging() {
        let mut api: SimApi<u8> = SimApi::new();
        api.set_round(3);
        assert_eq!(api.round(), 3);
        api.send(0, 1, 42);
        api.complete(2, 7);
        assert_eq!(api.outgoing, vec![(0, 1, 42)]);
        assert_eq!(api.completed.len(), 1);
        assert_eq!(api.completed[0].round, 3);
        assert_eq!(api.completed[0].value, 7);
        // The steady-state-allocation contract: a phase fills a staging
        // buffer past its preallocation, the drain hands everything out
        // FIFO and releases no storage, and a refill reuses it.
        for x in 0..100 {
            api.send(0, 1, x);
        }
        let cap = api.outgoing.capacity();
        let sent: Vec<u8> = api.outgoing.drain(..).map(|(_, _, m)| m).collect();
        assert_eq!(sent, std::iter::once(42).chain(0..100).collect::<Vec<u8>>());
        assert_eq!(api.outgoing.capacity(), cap, "drain must not release storage");
        api.send(0, 1, 7);
        api.send(0, 1, 8);
        assert_eq!(api.outgoing, vec![(0, 1, 7), (0, 1, 8)]);
        assert_eq!(api.outgoing.capacity(), cap);
    }

    #[test]
    fn shard_accounting_tracks_per_shard_backlogs() {
        let mut api: SimApi<u8> = SimApi::new();
        // Disabled: the shard view is the global backlog.
        api.issue(0);
        assert_eq!(api.shard_backlog(0), 1);
        assert_eq!(api.shard_backlog(0), api.backlog());
        // Enabled: nodes 0,1 on shard 0; nodes 2,3 on shard 1.
        let mut api: SimApi<u8> = SimApi::new();
        api.enable_shard_accounting(vec![0, 0, 1, 1]);
        api.issue(0);
        api.issue(2);
        api.issue(3);
        assert_eq!(api.backlog(), 3);
        assert_eq!(api.shard_backlog(1), 1);
        assert_eq!(api.shard_backlog(2), 2);
        api.complete(2, 7);
        assert_eq!(api.shard_backlog(2), 1);
        assert_eq!(api.shard_backlog(0), 1);
        // Out-of-map nodes fall back to the global count; stray
        // completions saturate instead of underflowing.
        assert_eq!(api.shard_backlog(9), api.backlog());
        api.complete(3, 1);
        api.complete(3, 1);
        assert_eq!(api.shard_backlog(3), 0);
    }

    #[test]
    fn slice_api_replays_in_call_order() {
        let mut api: SimApi<u8> = SimApi::new();
        api.set_round(5);
        let mut sapi = api.lend_slice_api(3);
        assert_eq!(sapi.round(), 5);
        assert_eq!(sapi.node(), 3);
        sapi.send(4, 9);
        sapi.complete(7, 2);
        assert_eq!(sapi.effects.len(), 2);
        sapi.replay_into(&mut api);
        // Sends leave the handling node; completions keep their target.
        assert_eq!(api.outgoing, vec![(3, 4, 9)]);
        assert_eq!(api.completed.len(), 1);
        assert_eq!(api.completed[0].node, 7);
        assert_eq!(api.completed[0].round, 5);
        api.reclaim(sapi);
    }
}
