//! Per-processor queue state: FIFO in-ports and outboxes.
//!
//! [`NodeStore`] owns the two budget-limited queues of every processor and
//! nothing else — no wire scheduling (that is [`crate::transport`]) and no
//! phase ordering (that is [`crate::scheduler`]). The invariants this layer
//! owns:
//!
//! * **outbox FIFO** — sends staged by a protocol leave the processor in
//!   staging order, at most `send_budget` per round;
//! * **in-port FIFO** — matured messages are handed to the protocol in the
//!   order the transport enqueued them, at most `recv_budget` per round;
//! * messages beyond a budget *wait in place*; that waiting is the measured
//!   contention ([`crate::SimReport::queue_wait_rounds`] and the depth
//!   high-water marks);
//! * **frontier coverage** — every processor with a nonempty queue is on
//!   the corresponding dirty list ([`NodeStore::take_inport_frontier`] /
//!   [`NodeStore::take_outbox_frontier`]), so a round loop that visits only
//!   the frontier visits every processor the dense `0..n` scan would have
//!   done any work at. Stale frontier entries (listed but since drained)
//!   are permitted: visiting them pops nothing and has no observable
//!   effect, which is why frontier-driven execution is byte-identical to
//!   the dense scan.
//!
//! A store is sized either to the full processor range
//! ([`NodeStore::new`], the monolithic executor) or to an explicit shard
//! membership ([`NodeStore::with_members`]): queues live in
//! membership-indexed slots behind an id → slot map, so a shard of a
//! million-node topology allocates queues for its members only.
//! [`NodeStore::n`] always reports the *global* processor count and reads
//! of non-member queues yield empty, which keeps the probe layer's
//! canonical rendering independent of how processors are stored.

use crate::Round;
use ccq_graph::NodeId;
use std::collections::{HashMap, VecDeque};

/// A message sitting in a destination's in-port, ready for delivery.
#[derive(Debug)]
pub struct Inbound<M> {
    /// Sender.
    pub src: NodeId,
    /// Round at which it reached the in-port (for queue-wait accounting).
    pub arrival: Round,
    /// Payload.
    pub msg: M,
}

/// Global id → queue slot map: identity for full-range stores,
/// an index map for membership-sized ones.
#[derive(Debug)]
enum Slots {
    /// Slot `v` holds processor `v`; every processor is a member.
    Dense,
    /// Membership-sized: `ids[slot]` is the global id, `index` inverts it.
    Mapped { ids: Vec<NodeId>, index: HashMap<NodeId, usize> },
}

/// In-ports and outboxes for the processors a store is responsible for.
#[derive(Debug)]
pub struct NodeStore<M> {
    /// Global processor count (not the member count).
    n: usize,
    slots: Slots,
    outbox: Vec<VecDeque<(NodeId, M)>>,
    inport: Vec<VecDeque<Inbound<M>>>,
    /// Dirty frontiers: global ids of members whose queue went nonempty
    /// since the list was last taken. `listed` flags (per slot) keep each
    /// member on a list at most once.
    outbox_dirty: Vec<NodeId>,
    inport_dirty: Vec<NodeId>,
    outbox_listed: Vec<bool>,
    inport_listed: Vec<bool>,
    /// Count of nonempty queues (both kinds) — O(1) idle detection.
    nonempty: usize,
}

impl<M> NodeStore<M> {
    /// Empty queues for all `n` processors (the monolithic executor).
    pub fn new(n: usize) -> Self {
        NodeStore {
            n,
            slots: Slots::Dense,
            outbox: (0..n).map(|_| VecDeque::new()).collect(),
            inport: (0..n).map(|_| VecDeque::new()).collect(),
            outbox_dirty: Vec::new(),
            inport_dirty: Vec::new(),
            outbox_listed: vec![false; n],
            inport_listed: vec![false; n],
            nonempty: 0,
        }
    }

    /// Empty queues for the `members` of an `n`-processor topology only
    /// (shard-local stores). Reads of non-member queues yield empty;
    /// staging or enqueuing at a non-member is a caller bug and panics.
    pub fn with_members(n: usize, members: &[NodeId]) -> Self {
        let m = members.len();
        let index: HashMap<NodeId, usize> =
            members.iter().enumerate().map(|(slot, &v)| (v, slot)).collect();
        debug_assert_eq!(index.len(), m, "duplicate member ids");
        NodeStore {
            n,
            slots: Slots::Mapped { ids: members.to_vec(), index },
            outbox: (0..m).map(|_| VecDeque::new()).collect(),
            inport: (0..m).map(|_| VecDeque::new()).collect(),
            outbox_dirty: Vec::new(),
            inport_dirty: Vec::new(),
            outbox_listed: vec![false; m],
            inport_listed: vec![false; m],
            nonempty: 0,
        }
    }

    /// Queue slot of processor `v`, if `v` is a member of this store.
    fn slot(&self, v: NodeId) -> Option<usize> {
        match &self.slots {
            Slots::Dense => (v < self.outbox.len()).then_some(v),
            Slots::Mapped { index, .. } => index.get(&v).copied(),
        }
    }

    /// Global id held by queue slot `s`.
    fn global_of(&self, s: usize) -> NodeId {
        match &self.slots {
            Slots::Dense => s,
            Slots::Mapped { ids, .. } => ids[s],
        }
    }

    /// Stage a send in `from`'s outbox; returns the new outbox depth.
    pub fn stage(&mut self, from: NodeId, to: NodeId, msg: M) -> usize {
        let s = self.slot(from).expect("staged a send at a non-member processor");
        self.outbox[s].push_back((to, msg));
        if self.outbox[s].len() == 1 {
            self.nonempty += 1;
        }
        if !self.outbox_listed[s] {
            self.outbox_listed[s] = true;
            self.outbox_dirty.push(from);
        }
        self.outbox[s].len()
    }

    /// Enqueue a matured message at `dst`'s in-port; returns the new depth.
    pub fn enqueue(&mut self, dst: NodeId, inbound: Inbound<M>) -> usize {
        let s = self.slot(dst).expect("enqueued a wire at a non-member processor");
        self.inport[s].push_back(inbound);
        if self.inport[s].len() == 1 {
            self.nonempty += 1;
        }
        if !self.inport_listed[s] {
            self.inport_listed[s] = true;
            self.inport_dirty.push(dst);
        }
        self.inport[s].len()
    }

    /// Dequeue the oldest in-port message of `v`, if any. A member whose
    /// in-port is still nonempty after the pop is re-listed on the dirty
    /// frontier, so budget-limited leftovers carry to the next round.
    pub fn pop_inport(&mut self, v: NodeId) -> Option<Inbound<M>> {
        let s = self.slot(v)?;
        let popped = self.inport[s].pop_front()?;
        if self.inport[s].is_empty() {
            self.nonempty -= 1;
        } else if !self.inport_listed[s] {
            self.inport_listed[s] = true;
            self.inport_dirty.push(v);
        }
        Some(popped)
    }

    /// Dequeue the oldest staged send of `v`, if any. Re-lists leftovers
    /// like [`NodeStore::pop_inport`].
    pub fn pop_outbox(&mut self, v: NodeId) -> Option<(NodeId, M)> {
        let s = self.slot(v)?;
        let popped = self.outbox[s].pop_front()?;
        if self.outbox[s].is_empty() {
            self.nonempty -= 1;
        } else if !self.outbox_listed[s] {
            self.outbox_listed[s] = true;
            self.outbox_dirty.push(v);
        }
        Some(popped)
    }

    /// Drain the in-port frontier into `out` (global ids, unsorted; a
    /// member appears at most once). Every member with a nonempty in-port
    /// is included; members drained since listing may also appear and pop
    /// nothing.
    pub fn take_inport_frontier(&mut self, out: &mut Vec<NodeId>) {
        let mut dirty = std::mem::take(&mut self.inport_dirty);
        for &v in &dirty {
            let s = self.slot(v).expect("frontier entries are members");
            self.inport_listed[s] = false;
        }
        out.append(&mut dirty);
        self.inport_dirty = dirty;
    }

    /// Drain the outbox frontier into `out`; see
    /// [`NodeStore::take_inport_frontier`].
    pub fn take_outbox_frontier(&mut self, out: &mut Vec<NodeId>) {
        let mut dirty = std::mem::take(&mut self.outbox_dirty);
        for &v in &dirty {
            let s = self.slot(v).expect("frontier entries are members");
            self.outbox_listed[s] = false;
        }
        out.append(&mut dirty);
        self.outbox_dirty = dirty;
    }

    /// Put `v` back on the outbox frontier if it still has staged sends
    /// (used when the transmit phase visits a frontier node but skips it —
    /// the probe layer's planted perturbation).
    pub fn relist_outbox(&mut self, v: NodeId) {
        if let Some(s) = self.slot(v) {
            if !self.outbox[s].is_empty() && !self.outbox_listed[s] {
                self.outbox_listed[s] = true;
                self.outbox_dirty.push(v);
            }
        }
    }

    /// Put `v` back on the in-port frontier if it still has pending
    /// deliveries (used when the deliver phase visits a frontier node but
    /// skips it — a crashed node's in-port freezes in place until its
    /// recovery round).
    pub fn relist_inport(&mut self, v: NodeId) {
        if let Some(s) = self.slot(v) {
            if !self.inport[s].is_empty() && !self.inport_listed[s] {
                self.inport_listed[s] = true;
                self.inport_dirty.push(v);
            }
        }
    }

    /// Whether every queue (in-port and outbox) is empty — O(1) via the
    /// nonempty-queue counter.
    pub fn is_idle(&self) -> bool {
        self.nonempty == 0
    }

    /// Number of processors in the topology this store belongs to (the
    /// *global* count, even for membership-sized stores).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Members with at least one nonempty queue, as global ids (unordered
    /// for membership-sized stores; callers sort). The probe layer's
    /// canonical renderer uses this to visit occupied processors instead
    /// of scanning `0..n`.
    pub fn occupied_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.inport.len()).filter_map(move |s| {
            if self.inport[s].is_empty() && self.outbox[s].is_empty() {
                None
            } else {
                Some(self.global_of(s))
            }
        })
    }

    /// Read-only view of `v`'s in-port, oldest first (the probe layer's
    /// canonical-state renderer; delivery still goes through
    /// [`NodeStore::pop_inport`]). Empty for non-members.
    pub fn inport_of(&self, v: NodeId) -> impl Iterator<Item = &Inbound<M>> {
        self.slot(v).map(|s| self.inport[s].iter()).into_iter().flatten()
    }

    /// Read-only view of `v`'s outbox, oldest first. Empty for non-members.
    pub fn outbox_of(&self, v: NodeId) -> impl Iterator<Item = &(NodeId, M)> {
        self.slot(v).map(|s| self.outbox[s].iter()).into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queues_are_fifo_and_idle_tracks_both_sides() {
        let mut s: NodeStore<u32> = NodeStore::new(3);
        assert!(s.is_idle());
        assert_eq!(s.stage(0, 1, 10), 1);
        assert_eq!(s.stage(0, 2, 20), 2);
        assert!(!s.is_idle());
        assert_eq!(s.pop_outbox(0), Some((1, 10)));
        assert_eq!(s.pop_outbox(0), Some((2, 20)));
        assert_eq!(s.pop_outbox(0), None);
        assert!(s.is_idle());

        assert_eq!(s.enqueue(2, Inbound { src: 0, arrival: 4, msg: 7 }), 1);
        assert_eq!(s.enqueue(2, Inbound { src: 1, arrival: 5, msg: 8 }), 2);
        assert!(!s.is_idle());
        assert_eq!(s.pop_inport(2).unwrap().msg, 7);
        assert_eq!(s.pop_inport(2).unwrap().msg, 8);
        assert!(s.pop_inport(2).is_none());
        assert!(s.is_idle());
    }

    /// The O(1) idle counter agrees with a full queue scan through an
    /// arbitrary interleaving of stage/enqueue/pop, and the frontier lists
    /// cover every nonempty queue (the invariant the round loop relies on).
    #[test]
    fn idle_counter_and_frontier_match_a_full_scan() {
        let mut s: NodeStore<u64> = NodeStore::new(8);
        // Deterministic pseudo-random walk over operations.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..200u64 {
            match step() % 4 {
                0 => {
                    let v = (step() % 8) as NodeId;
                    s.stage(v, (step() % 8) as NodeId, round);
                }
                1 => {
                    let v = (step() % 8) as NodeId;
                    s.enqueue(v, Inbound { src: 0, arrival: round, msg: round });
                }
                2 => {
                    let _ = s.pop_outbox((step() % 8) as NodeId);
                }
                _ => {
                    let _ = s.pop_inport((step() % 8) as NodeId);
                }
            }
            // The counter must agree with a scan of every queue.
            let scan_idle =
                (0..8).all(|v| s.inport_of(v).next().is_none() && s.outbox_of(v).next().is_none());
            assert_eq!(s.is_idle(), scan_idle, "idle counter diverged at step {round}");
            // Every nonempty queue is on its dirty frontier.
            for v in 0..8 {
                if s.inport_of(v).next().is_some() {
                    assert!(
                        s.inport_dirty.contains(&v),
                        "nonempty in-port {v} missing from frontier"
                    );
                }
                if s.outbox_of(v).next().is_some() {
                    assert!(
                        s.outbox_dirty.contains(&v),
                        "nonempty outbox {v} missing from frontier"
                    );
                }
            }
        }
    }

    /// Membership-sized stores behave like full-range stores on their
    /// members and render empty everywhere else.
    #[test]
    fn membership_store_matches_dense_on_members() {
        let members = [2usize, 5, 7];
        let mut sparse: NodeStore<u32> = NodeStore::with_members(9, &members);
        assert_eq!(sparse.n(), 9);
        assert!(sparse.is_idle());
        assert_eq!(sparse.stage(5, 0, 50), 1);
        assert_eq!(sparse.enqueue(7, Inbound { src: 1, arrival: 2, msg: 70 }), 1);
        // Non-member reads yield empty; pops yield None.
        assert!(sparse.inport_of(0).next().is_none());
        assert!(sparse.outbox_of(8).next().is_none());
        assert!(sparse.pop_inport(3).is_none());
        assert!(sparse.pop_outbox(4).is_none());
        // Occupied set reports global ids.
        let mut occ: Vec<NodeId> = sparse.occupied_nodes().collect();
        occ.sort_unstable();
        assert_eq!(occ, vec![5, 7]);
        // Frontiers report global ids.
        let mut front = Vec::new();
        sparse.take_outbox_frontier(&mut front);
        assert_eq!(front, vec![5]);
        front.clear();
        sparse.take_inport_frontier(&mut front);
        assert_eq!(front, vec![7]);
        assert_eq!(sparse.pop_outbox(5), Some((0, 50)));
        assert_eq!(sparse.pop_inport(7).unwrap().msg, 70);
        assert!(sparse.is_idle());
    }

    /// A transmit-phase skip re-lists the node so its staged sends are not
    /// lost from the frontier.
    #[test]
    fn relist_after_skip_keeps_staged_sends_on_the_frontier() {
        let mut s: NodeStore<u32> = NodeStore::new(4);
        s.stage(1, 2, 9);
        let mut front = Vec::new();
        s.take_outbox_frontier(&mut front);
        assert_eq!(front, vec![1]);
        // Simulate the perturbation: visited but skipped.
        s.relist_outbox(1);
        front.clear();
        s.take_outbox_frontier(&mut front);
        assert_eq!(front, vec![1], "skipped node must reappear next round");
        assert_eq!(s.pop_outbox(1), Some((2, 9)));
        // Re-listing an empty outbox is a no-op.
        s.relist_outbox(1);
        front.clear();
        s.take_outbox_frontier(&mut front);
        assert!(front.is_empty());
    }

    /// A deliver-phase skip (crashed node) re-lists the node so its frozen
    /// in-port stays on the frontier until recovery.
    #[test]
    fn relist_inport_keeps_a_frozen_port_on_the_frontier() {
        let mut s: NodeStore<u32> = NodeStore::new(4);
        s.enqueue(2, Inbound { src: 0, arrival: 1, msg: 7 });
        let mut front = Vec::new();
        s.take_inport_frontier(&mut front);
        assert_eq!(front, vec![2]);
        // Crashed: visited but skipped, must reappear next round.
        s.relist_inport(2);
        front.clear();
        s.take_inport_frontier(&mut front);
        assert_eq!(front, vec![2]);
        assert!(!s.is_idle(), "a frozen port keeps the store non-idle");
        assert!(s.pop_inport(2).is_some());
        // Re-listing an empty in-port is a no-op.
        s.relist_inport(2);
        front.clear();
        s.take_inport_frontier(&mut front);
        assert!(front.is_empty());
        // Non-members are ignored, like relist_outbox.
        s.relist_inport(99);
    }
}
