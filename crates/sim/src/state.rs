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
//! Both kinds of queue are **slab-backed**: a store holds two `Fifos`, each
//! one `Vec` of linked entries shared by all of its queues plus three `u32`
//! words (`head`, `tail`, `len`) per processor. A push takes an entry off
//! the free list (growing the slab only when it is empty), a pop puts its
//! entry back, so a store is a constant number of allocations whatever `n`
//! is and its memory follows the messages queued at once, not the
//! processors ever touched. None of the invariants above depends on where
//! an entry lives: FIFO order is the link order of one queue, a budget is
//! the number of pops a round loop makes, and the dirty lists are kept by
//! [`NodeStore`] from the lengths alone.
//!
//! A store is sized either to the full processor range
//! ([`NodeStore::new`], the monolithic executor) or to one shard of a
//! [`Partition`] ([`NodeStore::of_shard`]): queues live in
//! membership-indexed slots, numbered by rank in the sorted member list, so
//! a shard of a million-node topology allocates queues for its members
//! only. An id finds its slot in O(1), by one read of the partition's
//! place table (shard, rank), which the stores of every shard share — K
//! lanes over `n` processors hold one `n`-entry table, not K of them.
//! [`NodeStore::n`] always reports the *global* processor count and reads
//! of non-member queues yield empty, which keeps the probe layer's
//! canonical rendering independent of how processors are stored.

use crate::Round;
use ccq_graph::{NodeId, Partition, Place};
use std::sync::Arc;

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

/// "No entry": the link after a queue's last entry, the ends of an empty
/// queue, the end of the free list.
const NIL: u32 = u32::MAX;

/// One queue of a [`Fifos`]: its first and last entry and its length.
#[derive(Clone, Copy, Debug)]
struct Ends {
    head: u32,
    tail: u32,
    len: u32,
}

/// A slab entry: a queued item and the entry behind it, or — on the free
/// list — no item and the next free entry.
#[derive(Debug)]
struct Entry<T> {
    next: u32,
    item: Option<T>,
}

/// A fixed set of FIFO queues whose entries live in one shared slab.
#[derive(Debug)]
struct Fifos<T> {
    ends: Vec<Ends>,
    entries: Vec<Entry<T>>,
    /// First free entry (popped entries, most recent first).
    free: u32,
}

impl<T> Fifos<T> {
    /// `queues` empty queues; no entry is allocated until the first push.
    fn new(queues: usize) -> Self {
        Fifos {
            ends: vec![Ends { head: NIL, tail: NIL, len: 0 }; queues],
            entries: Vec::new(),
            free: NIL,
        }
    }

    fn is_empty(&self, q: usize) -> bool {
        self.ends[q].len == 0
    }

    /// Append `item` to queue `q`; returns the new length.
    fn push(&mut self, q: usize, item: T) -> usize {
        let entry = Entry { next: NIL, item: Some(item) };
        let e = match self.free {
            NIL => {
                assert!(self.entries.len() < NIL as usize, "queue slab exceeds u32 links");
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
            e => {
                self.free = std::mem::replace(&mut self.entries[e as usize], entry).next;
                e
            }
        };
        let ends = &mut self.ends[q];
        if ends.len == 0 {
            ends.head = e;
        } else {
            self.entries[ends.tail as usize].next = e;
        }
        ends.tail = e;
        ends.len += 1;
        ends.len as usize
    }

    /// Remove the oldest item of queue `q`; its entry goes back on the
    /// free list.
    fn pop(&mut self, q: usize) -> Option<T> {
        let ends = &mut self.ends[q];
        if ends.len == 0 {
            return None;
        }
        let e = ends.head;
        let entry = &mut self.entries[e as usize];
        ends.head = entry.next;
        ends.len -= 1;
        entry.next = self.free;
        self.free = e;
        entry.item.take()
    }

    /// The items of queue `q`, oldest first.
    fn iter(&self, q: usize) -> impl Iterator<Item = &T> {
        let Ends { head, len, .. } = self.ends[q];
        let mut at = head;
        (0..len).map(move |_| {
            let entry = &self.entries[at as usize];
            at = entry.next;
            entry.item.as_ref().expect("a linked entry holds an item")
        })
    }
}

/// Global id → queue slot map: identity for full-range stores, the rank
/// among the sorted members for membership-sized ones.
#[derive(Debug)]
enum Slots {
    /// Slot `v` holds processor `v`; every processor is a member.
    Dense,
    /// Membership-sized: `ids[slot]` is the global id, ascending, and
    /// `places` (the partition's table, shared by every shard's store)
    /// inverts it — `v` is a member iff its place names `shard`, and its
    /// slot is its rank there.
    Mapped { ids: Vec<NodeId>, places: Arc<[Place]>, shard: usize },
}

/// In-ports and outboxes for the processors a store is responsible for.
#[derive(Debug)]
pub struct NodeStore<M> {
    /// Global processor count (not the member count).
    n: usize,
    slots: Slots,
    outbox: Fifos<(NodeId, M)>,
    inport: Fifos<Inbound<M>>,
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
            outbox: Fifos::new(n),
            inport: Fifos::new(n),
            outbox_dirty: Vec::new(),
            inport_dirty: Vec::new(),
            outbox_listed: vec![false; n],
            inport_listed: vec![false; n],
            nonempty: 0,
        }
    }

    /// Empty queues for the members of `partition`'s shard `shard` only (a
    /// fabric lane). The store keeps its own member list but shares the
    /// partition's place table. Reads of non-member queues yield empty;
    /// staging or enqueuing at a non-member is a caller bug and panics.
    pub fn of_shard(partition: &Partition, shard: usize) -> Self {
        let ids = partition.members(shard).to_vec();
        let m = ids.len();
        NodeStore {
            n: partition.n(),
            slots: Slots::Mapped { ids, places: Arc::clone(partition.places()), shard },
            outbox: Fifos::new(m),
            inport: Fifos::new(m),
            outbox_dirty: Vec::new(),
            inport_dirty: Vec::new(),
            outbox_listed: vec![false; m],
            inport_listed: vec![false; m],
            nonempty: 0,
        }
    }

    /// Empty queues for the `members` (any order) of an `n`-processor
    /// topology only: [`NodeStore::of_shard`] on a two-shard partition
    /// whose shard 0 is `members`, so this store's place table is its own.
    ///
    /// # Panics
    /// Panics if a member is listed twice or is not below `n`.
    pub fn with_members(n: usize, members: &[NodeId]) -> Self {
        let mut shard = vec![1; n];
        for &v in members {
            assert!(v < n, "member {v} of a {n}-processor store");
            assert!(shard[v] == 1, "duplicate member {v}");
            shard[v] = 0;
        }
        Self::of_shard(&Partition::from_assignment(2, shard), 0)
    }

    /// Queue slot of processor `v`, if `v` is a member of this store. A
    /// membership-sized store numbers its slots in ascending id order, so
    /// this is also `v`'s rank among the members. Forced inline: it sits
    /// under every queue operation, the monolith's identity arm included.
    #[inline(always)]
    pub(crate) fn slot(&self, v: NodeId) -> Option<usize> {
        match &self.slots {
            Slots::Dense => (v < self.n).then_some(v),
            Slots::Mapped { places, shard, .. } => match places.get(v) {
                Some(p) if p.shard() == *shard => Some(p.rank()),
                _ => None,
            },
        }
    }

    /// Global id held by queue slot `s`.
    fn global_of(&self, s: usize) -> NodeId {
        match &self.slots {
            Slots::Dense => s,
            Slots::Mapped { ids, .. } => ids[s],
        }
    }

    /// The store's members as global ids, in slot order (ascending) — the
    /// dense reference scan's frontier.
    pub(crate) fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.inport_listed.len()).map(|s| self.global_of(s))
    }

    /// Stage a send in `from`'s outbox; returns the new outbox depth.
    pub fn stage(&mut self, from: NodeId, to: NodeId, msg: M) -> usize {
        let s = self.slot(from).expect("staged a send at a non-member processor");
        self.stage_at(s, from, to, msg)
    }

    /// [`NodeStore::stage`] at `from`'s slot `s`, which the caller read
    /// from the partition's place table together with `from`'s shard.
    pub(crate) fn stage_at(&mut self, s: usize, from: NodeId, to: NodeId, msg: M) -> usize {
        debug_assert_eq!(self.slot(from), Some(s), "slot of {from}");
        let depth = self.outbox.push(s, (to, msg));
        if depth == 1 {
            self.nonempty += 1;
        }
        if !self.outbox_listed[s] {
            self.outbox_listed[s] = true;
            self.outbox_dirty.push(from);
        }
        depth
    }

    /// Enqueue a matured message at `dst`'s in-port; returns the new depth.
    pub fn enqueue(&mut self, dst: NodeId, inbound: Inbound<M>) -> usize {
        let s = self.slot(dst).expect("enqueued a wire at a non-member processor");
        let depth = self.inport.push(s, inbound);
        if depth == 1 {
            self.nonempty += 1;
        }
        if !self.inport_listed[s] {
            self.inport_listed[s] = true;
            self.inport_dirty.push(dst);
        }
        depth
    }

    /// Dequeue the oldest in-port message of `v`, if any. A member whose
    /// in-port is still nonempty after the pop is re-listed on the dirty
    /// frontier, so budget-limited leftovers carry to the next round.
    pub fn pop_inport(&mut self, v: NodeId) -> Option<Inbound<M>> {
        self.pop_inport_at(self.slot(v)?, v)
    }

    /// [`NodeStore::pop_inport`] at `v`'s slot `s` (see
    /// [`NodeStore::stage_at`]).
    pub(crate) fn pop_inport_at(&mut self, s: usize, v: NodeId) -> Option<Inbound<M>> {
        debug_assert_eq!(self.slot(v), Some(s), "slot of {v}");
        let popped = self.inport.pop(s)?;
        if self.inport.is_empty(s) {
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
        self.pop_outbox_at(self.slot(v)?, v)
    }

    /// [`NodeStore::pop_outbox`] at `v`'s slot `s` (see
    /// [`NodeStore::stage_at`]).
    pub(crate) fn pop_outbox_at(&mut self, s: usize, v: NodeId) -> Option<(NodeId, M)> {
        debug_assert_eq!(self.slot(v), Some(s), "slot of {v}");
        let popped = self.outbox.pop(s)?;
        if self.outbox.is_empty(s) {
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
            if !self.outbox.is_empty(s) && !self.outbox_listed[s] {
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
            if !self.inport.is_empty(s) && !self.inport_listed[s] {
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
        (0..self.inport_listed.len()).filter_map(move |s| {
            if self.inport.is_empty(s) && self.outbox.is_empty(s) {
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
        self.slot(v).map(|s| self.inport.iter(s)).into_iter().flatten()
    }

    /// Read-only view of `v`'s outbox, oldest first. Empty for non-members.
    pub fn outbox_of(&self, v: NodeId) -> impl Iterator<Item = &(NodeId, M)> {
        self.slot(v).map(|s| self.outbox.iter(s)).into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

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

    /// Through an arbitrary interleaving of stage/enqueue/pop, on a
    /// full-range and on a membership-sized store: every queue agrees with a
    /// `VecDeque` per processor (depths returned, items popped, the views'
    /// order, the occupied set), the O(1) idle counter agrees with a full
    /// queue scan, and the frontier lists cover every nonempty queue (the
    /// invariant the round loop relies on).
    #[test]
    fn idle_counter_and_frontier_match_a_full_scan() {
        let members = [1usize, 2, 4, 7];
        for mut s in [NodeStore::<u64>::new(8), NodeStore::with_members(8, &members)] {
            let dense = matches!(s.slots, Slots::Dense);
            let member = |v: NodeId| dense || members.contains(&v);
            let mut outbox: Vec<VecDeque<(NodeId, u64)>> = vec![VecDeque::new(); 8];
            let mut inport: Vec<VecDeque<u64>> = vec![VecDeque::new(); 8];
            // Deterministic pseudo-random walk over operations.
            let mut x: u64 = 0x9e3779b97f4a7c15;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for round in 0..400u64 {
                let v = (step() % 8) as NodeId;
                match step() % 4 {
                    0 if member(v) => {
                        let to = (step() % 8) as NodeId;
                        outbox[v].push_back((to, round));
                        assert_eq!(s.stage(v, to, round), outbox[v].len());
                    }
                    1 if member(v) => {
                        inport[v].push_back(round);
                        let depth = s.enqueue(v, Inbound { src: 0, arrival: round, msg: round });
                        assert_eq!(depth, inport[v].len());
                    }
                    2 => assert_eq!(s.pop_outbox(v), outbox[v].pop_front()),
                    3 => assert_eq!(s.pop_inport(v).map(|m| m.msg), inport[v].pop_front()),
                    _ => {}
                }
                for v in 0..8 {
                    assert!(s.outbox_of(v).eq(outbox[v].iter()), "outbox {v} at step {round}");
                    assert!(s.inport_of(v).map(|m| &m.msg).eq(inport[v].iter()), "in-port {v}");
                    // Every nonempty queue is on its dirty frontier.
                    assert!(inport[v].is_empty() || s.inport_dirty.contains(&v), "in-port {v}");
                    assert!(outbox[v].is_empty() || s.outbox_dirty.contains(&v), "outbox {v}");
                }
                let mut occupied: Vec<NodeId> = s.occupied_nodes().collect();
                occupied.sort_unstable();
                let want: Vec<NodeId> =
                    (0..8).filter(|&v| !inport[v].is_empty() || !outbox[v].is_empty()).collect();
                assert_eq!(occupied, want, "occupied set diverged at step {round}");
                assert_eq!(s.is_idle(), want.is_empty(), "idle counter diverged at step {round}");
            }
        }
    }

    /// Memory follows the messages queued at once, not the messages ever
    /// sent: a pop recycles its entry, so 1 000 push/pop cycles that never
    /// hold more than four items leave a slab of at most four entries.
    #[test]
    fn popped_entries_are_reused() {
        let mut q: Fifos<u64> = Fifos::new(3);
        let mut next = 0u64;
        for cycle in 0..1000usize {
            let held = 1 + cycle % 4;
            for i in 0..held {
                assert_eq!(q.push((cycle + i) % 3, next), 1 + i / 3);
                next += 1;
            }
            for i in 0..held {
                assert_eq!(q.pop((cycle + i) % 3), Some(next - (held - i) as u64));
            }
            assert!((0..3).all(|k| q.is_empty(k) && q.pop(k).is_none()));
        }
        assert!(q.entries.len() <= 4, "{} entries for a depth of 4", q.entries.len());
    }

    /// Membership-sized stores behave like full-range stores on their
    /// members and render empty everywhere else, whatever order the member
    /// list comes in: slots always number the members in ascending order.
    #[test]
    fn membership_store_matches_dense_on_members() {
        for members in [[2usize, 5, 7], [7, 2, 5]] {
            let mut sparse: NodeStore<u32> = NodeStore::with_members(9, &members);
            assert_eq!(sparse.n(), 9);
            assert!(sparse.is_idle());
            assert_eq!(sparse.members().collect::<Vec<_>>(), [2, 5, 7], "{members:?}");
            assert_eq!([2, 5, 7, 3].map(|v| sparse.slot(v)), [Some(0), Some(1), Some(2), None]);
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
    }

    /// The O(1) slot map against the lookup it replaced, a binary search of
    /// the sorted members: every shard of the three strategies and of a
    /// random assignment, and random member sets handed over in any order,
    /// from one processor to a few thousand — for every id below `n` and
    /// the ids just above it. A shard's store reads its partition's table
    /// itself, not a copy.
    #[test]
    fn slots_are_the_binary_search_ranks() {
        use ccq_graph::topology;
        let mut x: u64 = 0x2545f4914f6cdd1d;
        let mut below = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        let check = |store: &NodeStore<()>, members: &[NodeId]| {
            let mut sorted = members.to_vec();
            sorted.sort_unstable();
            assert!(store.members().eq(sorted.iter().copied()));
            for v in 0..store.n() + 3 {
                let want = sorted.binary_search(&v).ok();
                assert_eq!(store.slot(v), want, "id {v} of {}", store.n());
            }
        };
        for side in [1, 2, 7, 16, 50] {
            let g = topology::mesh(&[side, side]);
            let n = g.n();
            for k in [1, 2, 3, 16] {
                let random = Partition::from_assignment(k, (0..n).map(|_| below(k)));
                let strategies = [
                    Partition::contiguous(n, k),
                    Partition::striped(n, k),
                    Partition::greedy_edge_cut(&g, k),
                    random,
                ];
                for p in &strategies {
                    for shard in 0..k {
                        let store = NodeStore::of_shard(p, shard);
                        let Slots::Mapped { places, .. } = &store.slots else { unreachable!() };
                        assert!(Arc::ptr_eq(places, p.places()), "shard {shard} copied the table");
                        check(&store, p.members(shard));
                    }
                }
                let mut members: Vec<NodeId> = (0..n).filter(|_| below(k + 1) == 0).collect();
                let half = members.len() / 2;
                members.rotate_left(half);
                check(&NodeStore::with_members(n, &members), &members);
            }
        }
    }

    /// A member listed twice would give one id two slots; the constructor
    /// refuses it in every build, not only in debug ones.
    #[test]
    #[should_panic(expected = "duplicate member 5")]
    fn a_duplicate_member_is_rejected() {
        NodeStore::<()>::with_members(9, &[2, 5, 7, 5]);
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
