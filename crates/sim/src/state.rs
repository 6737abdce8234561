//! Per-processor queue state: FIFO in-ports and outboxes, and the one slab
//! every message of a run lives in.
//!
//! [`NodeStore`] owns the two budget-limited queues of every processor and
//! the slab their entries live in — no wire scheduling (that is
//! [`crate::transport`]) and no phase ordering (that is
//! [`crate::scheduler`]). The invariants this layer owns:
//!
//! * **outbox FIFO** — sends staged by a protocol leave the processor in
//!   staging order, at most [`crate::SimConfig::step`] per round;
//! * **in-port FIFO** — matured messages are handed to the protocol in the
//!   order the transport matured them, at most `step` per round;
//! * messages beyond a budget *wait in place*; that waiting is the measured
//!   contention ([`crate::SimReport::queue_wait_rounds`] and the depth
//!   high-water marks);
//! * **frontier coverage** — every processor with a nonempty queue is on
//!   the corresponding dirty frontier, and a take
//!   ([`NodeStore::take_inport_frontier`] /
//!   [`NodeStore::take_outbox_frontier`]) yields the frontier in ascending
//!   id order, each id once, so a round loop that visits only the frontier
//!   visits every processor the dense `0..n` scan would have done any work
//!   at, in the same order. Stale frontier entries (listed but since
//!   drained) are permitted: visiting them pops nothing and has no
//!   observable effect, which is why frontier-driven execution is
//!   byte-identical to the dense scan.
//!
//! Each frontier is a two-level bitset (`Frontier`): one bit per processor
//! and one summary bit per word of 64. Listing sets two bits; a take walks
//! the set summary bits, then the set bits of the words they mark, which
//! is ascending order by construction, no sort needed, and costs `n / 4096`
//! summary words plus one word per 64-id block holding an id. Next to it,
//! each kind of queue counts its nonempty queues (`occupied_inports` /
//! `occupied_outboxes`), so a round loop can skip a walk with nothing to
//! pop, and [`NodeStore::is_idle`] is O(1).
//!
//! **One slab, one life per message.** A message of the §2.1 round model
//! waits in its sender's outbox, crosses its link, then waits in its
//! receiver's in-port. The store keeps that whole life in one [`Entry`] of
//! one slab (`Slab`): [`NodeStore::stage`] writes the entry once, and from
//! then on only its id moves — off the outbox by [`NodeStore::pop_outbox`],
//! onto a wheel slot by [`crate::transport::Transport::transmit`] (which
//! stamps the arrival round and sequence number), onto the in-port by
//! [`NodeStore::mature`] — until [`NodeStore::pop_inport`] moves the
//! payload out and frees the entry. Every queue, outbox, in-port or wheel
//! slot, is a [`List`]: three `u32` words (`head`, `tail`, `len`) of a FIFO
//! threaded through the entries' `next` links. A new entry comes off the
//! free list (the slab grows only when it is empty), so a store is a
//! constant number of allocations whatever `n` is, and its memory follows
//! the messages alive at once — counted once across the three places — not
//! the processors ever touched. None of the invariants above depends on
//! where an entry lives: FIFO order is the link order of one list, a budget
//! is the number of pops a round loop makes, and the frontiers are kept
//! from the lengths alone.
//!
//! A store holds the queues of every processor of a run, sharded or not:
//! a shard plan changes which delay a wire takes, never where a queue
//! lives (see [`crate::shard`]). Reads of ids at or above
//! [`NodeStore::n`] yield empty, and relists of them are ignored.

use crate::Round;
use ccq_graph::NodeId;

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

/// "No entry": the link after a list's last entry, the ends of an empty
/// list, the end of the free list.
const NIL: u32 = u32::MAX;

/// One message, wherever it waits — its sender's outbox, a wheel slot, its
/// destination's in-port — and the entry behind it there; on the free list,
/// no message and the next free entry. The one view the probe layer
/// renders all three places through.
#[derive(Debug)]
pub struct Entry<M> {
    next: u32,
    src: u32,
    dst: u32,
    arrival: Round,
    seq: u64,
    msg: Option<M>,
}

impl<M> Entry<M> {
    /// Sender.
    pub fn src(&self) -> NodeId {
        self.src as NodeId
    }

    /// Destination.
    pub fn dst(&self) -> NodeId {
        self.dst as NodeId
    }

    /// Round at which it arrives at (or arrived in) the destination's
    /// in-port; 0 while it is staged.
    pub fn arrival(&self) -> Round {
        self.arrival
    }

    /// Global transmission sequence number (1-based; 0 while staged).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Payload.
    pub fn msg(&self) -> &M {
        self.msg.as_ref().expect("a linked entry holds a message")
    }
}

/// A FIFO list of slab entries — an outbox, an in-port or a wheel slot:
/// its first and last entry and its length. Neither `Copy` nor `Clone`: a
/// list handed on (a drained wheel slot to [`NodeStore::mature`]) is
/// moved, so its entries cannot be relinked twice.
#[derive(Debug)]
pub struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl List {
    /// The empty list.
    pub const EMPTY: List = List { head: NIL, tail: NIL, len: 0 };

    /// `n` empty lists.
    pub(crate) fn empties(n: usize) -> Vec<List> {
        std::iter::repeat_with(|| List::EMPTY).take(n).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The entries of every list of a store, and the free list through the
/// unused ones.
#[derive(Debug)]
struct Slab<M> {
    entries: Vec<Entry<M>>,
    /// First free entry (freed entries, most recent first).
    free: u32,
}

impl<M> Slab<M> {
    /// A new unlinked entry holding `msg`, off the free list if it has one.
    fn alloc(&mut self, src: NodeId, dst: NodeId, msg: M) -> u32 {
        let entry = Entry {
            next: NIL,
            src: src as u32,
            dst: dst as u32,
            arrival: 0,
            seq: 0,
            msg: Some(msg),
        };
        match self.free {
            NIL => {
                assert!(self.entries.len() < NIL as usize, "message slab exceeds u32 links");
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
            e => {
                self.free = std::mem::replace(&mut self.entries[e as usize], entry).next;
                e
            }
        }
    }

    /// Put the unlinked entry `e` on the free list; returns its message.
    fn free(&mut self, e: u32) -> Option<M> {
        let entry = &mut self.entries[e as usize];
        entry.next = self.free;
        self.free = e;
        entry.msg.take()
    }

    /// Append the unlinked entry `e` to `list`; returns the new length.
    fn push(&mut self, list: &mut List, e: u32) -> usize {
        self.entries[e as usize].next = NIL;
        if list.len == 0 {
            list.head = e;
        } else {
            self.entries[list.tail as usize].next = e;
        }
        list.tail = e;
        list.len += 1;
        list.len as usize
    }

    /// Unlink the first entry of `list`, if any; the entry stays allocated.
    fn pop(&mut self, list: &mut List) -> Option<u32> {
        if list.len == 0 {
            return None;
        }
        let e = list.head;
        list.head = self.entries[e as usize].next;
        list.len -= 1;
        Some(e)
    }

    /// The entries of `list`, first to last.
    fn iter(&self, list: &List) -> impl Iterator<Item = &Entry<M>> {
        let (mut at, len) = (list.head, list.len);
        (0..len).map(move |_| {
            let entry = &self.entries[at as usize];
            at = entry.next;
            entry
        })
    }
}

/// A set of processor ids as a two-level bitset: bit `v % 64` of
/// `words[v / 64]` marks `v`, bit `w % 64` of `summary[w / 64]` marks a
/// nonzero `words[w]`.
#[derive(Debug)]
struct Frontier {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl Frontier {
    /// The empty set over the ids `0..n`.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Frontier { words: vec![0; words], summary: vec![0; words.div_ceil(64)] }
    }

    /// Add `v` (already in: no change).
    fn insert(&mut self, v: NodeId) {
        let w = v / 64;
        self.words[w] |= 1 << (v % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Move every id into `out`, ascending, leaving the set empty.
    fn take(&mut self, out: &mut Vec<NodeId>) {
        for (s, summary) in self.summary.iter_mut().enumerate() {
            let mut marked = std::mem::take(summary);
            while marked != 0 {
                let w = s * 64 + marked.trailing_zeros() as usize;
                marked &= marked - 1;
                let mut word = std::mem::take(&mut self.words[w]);
                while word != 0 {
                    out.push(w * 64 + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
        }
    }
}

/// In-ports and outboxes of the processors `0..n`, slot `v` holding
/// processor `v`, and the slab every message of the run lives in.
#[derive(Debug)]
pub struct NodeStore<M> {
    slab: Slab<M>,
    outboxes: Vec<List>,
    inports: Vec<List>,
    /// Number of nonempty outboxes and of nonempty in-ports.
    occupied_outboxes: usize,
    occupied_inports: usize,
    /// Dirty frontiers: ids whose queue went nonempty since the frontier
    /// was last taken.
    outbox_frontier: Frontier,
    inport_frontier: Frontier,
}

impl<M> NodeStore<M> {
    /// Empty queues for all `n` processors; no entry is allocated until
    /// the first send.
    pub fn new(n: usize) -> Self {
        assert!(n < NIL as usize, "processor ids exceed u32");
        NodeStore {
            slab: Slab { entries: Vec::new(), free: NIL },
            outboxes: List::empties(n),
            inports: List::empties(n),
            occupied_outboxes: 0,
            occupied_inports: 0,
            outbox_frontier: Frontier::new(n),
            inport_frontier: Frontier::new(n),
        }
    }

    /// Stage a send in `from`'s outbox; returns the new outbox depth.
    pub fn stage(&mut self, from: NodeId, to: NodeId, msg: M) -> usize {
        let e = self.slab.alloc(from, to, msg);
        let depth = self.slab.push(&mut self.outboxes[from], e);
        self.occupied_outboxes += usize::from(depth == 1);
        self.outbox_frontier.insert(from);
        depth
    }

    /// Unlink the oldest staged send of `v`, if any: its entry id and its
    /// destination. The entry stays allocated for
    /// [`crate::transport::Transport::transmit`], which puts it on the wire
    /// (or frees it); an id never handed to it keeps its entry until the
    /// store is dropped. Re-lists leftovers like [`NodeStore::pop_inport`].
    pub fn pop_outbox(&mut self, v: NodeId) -> Option<(u32, NodeId)> {
        let outbox = self.outboxes.get_mut(v)?;
        let e = self.slab.pop(outbox)?;
        if outbox.len == 0 {
            self.occupied_outboxes -= 1;
        } else {
            self.outbox_frontier.insert(v);
        }
        Some((e, self.slab.entries[e as usize].dst()))
    }

    /// Maturity: move every entry of `wires` — a wheel slot's list — onto
    /// its destination's in-port, in list order; returns the deepest
    /// in-port any of them reached. `last` is the (arrival, sequence) of
    /// the entry matured just before — `(0, 0)` at the start of a drain —
    /// and is left at this list's last; debug builds check that every
    /// entry comes after it, so a wheel that drains out of order fails
    /// here.
    pub fn mature(&mut self, wires: List, last: &mut (Round, u64)) -> usize {
        let (mut depth, mut at) = (0, wires.head);
        for _ in 0..wires.len {
            let e = at;
            let entry = &self.slab.entries[e as usize];
            at = entry.next;
            let key = (entry.arrival, entry.seq);
            debug_assert!(key > *last, "wheel drained out of order");
            *last = key;
            depth = depth.max(self.land(e));
        }
        depth
    }

    /// Append the unlinked entry `e` to its destination's in-port; returns
    /// the new in-port depth.
    fn land(&mut self, e: u32) -> usize {
        let dst = self.slab.entries[e as usize].dst as NodeId;
        let depth = self.slab.push(&mut self.inports[dst], e);
        self.occupied_inports += usize::from(depth == 1);
        self.inport_frontier.insert(dst);
        depth
    }

    /// Dequeue the oldest in-port message of `v`, if any, moving its
    /// payload out and freeing its entry. A processor whose in-port is
    /// still nonempty after the pop is re-listed on the dirty frontier, so
    /// budget-limited leftovers carry to the next round.
    pub fn pop_inport(&mut self, v: NodeId) -> Option<Inbound<M>> {
        let inport = self.inports.get_mut(v)?;
        let e = self.slab.pop(inport)?;
        if inport.len == 0 {
            self.occupied_inports -= 1;
        } else {
            self.inport_frontier.insert(v);
        }
        let entry = &self.slab.entries[e as usize];
        let (src, arrival) = (entry.src(), entry.arrival);
        let msg = self.slab.free(e).expect("a linked entry holds a message");
        Some(Inbound { src, arrival, msg })
    }

    /// The entry `e`.
    pub(crate) fn entry(&self, e: u32) -> &Entry<M> {
        &self.slab.entries[e as usize]
    }

    /// Put the unlinked entry `e` on the wire: stamp its arrival round and
    /// sequence number and append it to `slot`, a wheel slot's list.
    pub(crate) fn send(&mut self, slot: &mut List, e: u32, arrival: Round, seq: u64) {
        let entry = &mut self.slab.entries[e as usize];
        entry.arrival = arrival;
        entry.seq = seq;
        self.slab.push(slot, e);
    }

    /// Free the unlinked entry `e`, dropping its message (a wire the wheel
    /// refused).
    pub(crate) fn discard(&mut self, e: u32) {
        self.slab.free(e);
    }

    /// The entries of `list`, first to last.
    pub(crate) fn list(&self, list: &List) -> impl Iterator<Item = &Entry<M>> {
        self.slab.iter(list)
    }

    /// Drain the in-port frontier into `out`, ascending, each id once.
    /// Every processor with a nonempty in-port is included; processors
    /// drained since listing may also appear and pop nothing.
    pub fn take_inport_frontier(&mut self, out: &mut Vec<NodeId>) {
        self.inport_frontier.take(out);
    }

    /// Drain the outbox frontier into `out`; see
    /// [`NodeStore::take_inport_frontier`].
    pub fn take_outbox_frontier(&mut self, out: &mut Vec<NodeId>) {
        self.outbox_frontier.take(out);
    }

    /// Put `v` back on the outbox frontier if it still has staged sends
    /// (used when the transmit phase visits a frontier node but skips it —
    /// a crashed node, or the probe layer's planted perturbation).
    pub fn relist_outbox(&mut self, v: NodeId) {
        if self.outboxes.get(v).is_some_and(|l| !l.is_empty()) {
            self.outbox_frontier.insert(v);
        }
    }

    /// Put `v` back on the in-port frontier if it still has pending
    /// deliveries (used when the deliver phase visits a frontier node but
    /// skips it — a crashed node's in-port freezes in place until its
    /// recovery round).
    pub fn relist_inport(&mut self, v: NodeId) {
        if self.inports.get(v).is_some_and(|l| !l.is_empty()) {
            self.inport_frontier.insert(v);
        }
    }

    /// Number of processors with a nonempty in-port — O(1).
    pub(crate) fn occupied_inports(&self) -> usize {
        self.occupied_inports
    }

    /// Number of processors with a nonempty outbox — O(1).
    pub(crate) fn occupied_outboxes(&self) -> usize {
        self.occupied_outboxes
    }

    /// Whether every queue (in-port and outbox) is empty — O(1) via the
    /// per-kind nonempty-queue counts.
    pub fn is_idle(&self) -> bool {
        self.occupied_inports == 0 && self.occupied_outboxes == 0
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.inports.len()
    }

    /// Processors with at least one nonempty queue, ascending. The probe
    /// layer's canonical renderer visits these, not every processor.
    pub fn occupied_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n()).filter(|&v| !self.inports[v].is_empty() || !self.outboxes[v].is_empty())
    }

    /// Read-only view of `v`'s in-port, oldest first (the probe layer's
    /// canonical-state renderer; delivery still goes through
    /// [`NodeStore::pop_inport`]).
    pub fn inport_of(&self, v: NodeId) -> impl Iterator<Item = &Entry<M>> {
        self.slab.iter(self.inports.get(v).unwrap_or(&List::EMPTY))
    }

    /// Read-only view of `v`'s outbox, oldest first.
    pub fn outbox_of(&self, v: NodeId) -> impl Iterator<Item = &Entry<M>> {
        self.slab.iter(self.outboxes.get(v).unwrap_or(&List::EMPTY))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    impl Frontier {
        /// Whether `v` is in the set.
        fn contains(&self, v: NodeId) -> bool {
            self.words.get(v / 64).is_some_and(|word| word & 1 << (v % 64) != 0)
        }
    }

    impl<M> NodeStore<M> {
        /// Put `msg` from `src` on `dst`'s in-port as a wire maturing at
        /// `arrival` would; returns the new in-port depth.
        pub(crate) fn enqueue(
            &mut self,
            dst: NodeId,
            src: NodeId,
            arrival: Round,
            msg: M,
        ) -> usize {
            let e = self.slab.alloc(src, dst, msg);
            self.slab.entries[e as usize].arrival = arrival;
            self.land(e)
        }

        /// Entries in use: the slab less its free list.
        pub(crate) fn live(&self) -> usize {
            let mut free = 0;
            let mut at = self.slab.free;
            while at != NIL {
                free += 1;
                at = self.slab.entries[at as usize].next;
            }
            self.slab.entries.len() - free
        }

        /// Pop the oldest staged send of `v` and free its entry: its
        /// destination and message.
        fn unstage(&mut self, v: NodeId) -> Option<(NodeId, M)> {
            let (e, dst) = self.pop_outbox(v)?;
            Some((dst, self.slab.free(e)?))
        }
    }

    #[test]
    fn queues_are_fifo_and_idle_tracks_both_sides() {
        let mut s: NodeStore<u32> = NodeStore::new(3);
        assert!(s.is_idle());
        assert_eq!(s.stage(0, 1, 10), 1);
        assert_eq!(s.stage(0, 2, 20), 2);
        assert!(!s.is_idle());
        assert_eq!(s.unstage(0), Some((1, 10)));
        assert_eq!(s.unstage(0), Some((2, 20)));
        assert_eq!(s.unstage(0), None);
        assert!(s.is_idle());

        assert_eq!(s.enqueue(2, 0, 4, 7), 1);
        assert_eq!(s.enqueue(2, 1, 5, 8), 2);
        assert!(!s.is_idle());
        assert_eq!(s.pop_inport(2).unwrap().msg, 7);
        assert_eq!(s.pop_inport(2).unwrap().msg, 8);
        assert!(s.pop_inport(2).is_none());
        assert!(s.is_idle());
        assert_eq!(s.live(), 0, "every pop freed its entry");
    }

    /// Through an arbitrary interleaving of stage/enqueue/pop: every queue
    /// agrees with a `VecDeque` per processor (depths returned, items
    /// popped, the views' order, the occupied set), the O(1) per-kind
    /// counts and idle check agree with a full queue scan, the frontiers
    /// cover every nonempty queue (the invariant the round loop relies
    /// on), and the slab holds exactly the queued entries.
    #[test]
    fn idle_counter_and_frontier_match_a_full_scan() {
        let mut s = NodeStore::<u64>::new(8);
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
                0 => {
                    let to = (step() % 8) as NodeId;
                    outbox[v].push_back((to, round));
                    assert_eq!(s.stage(v, to, round), outbox[v].len());
                }
                1 => {
                    inport[v].push_back(round);
                    assert_eq!(s.enqueue(v, 0, round, round), inport[v].len());
                }
                2 => assert_eq!(s.unstage(v), outbox[v].pop_front()),
                3 => assert_eq!(s.pop_inport(v).map(|m| m.msg), inport[v].pop_front()),
                _ => {}
            }
            for v in 0..8 {
                let staged = s.outbox_of(v).map(|m| (m.dst(), *m.msg()));
                assert!(staged.eq(outbox[v].iter().copied()), "outbox {v} at step {round}");
                assert!(s.inport_of(v).map(Entry::msg).eq(inport[v].iter()), "in-port {v}");
                // Every nonempty queue is on its dirty frontier.
                assert!(inport[v].is_empty() || s.inport_frontier.contains(v), "in-port {v}");
                assert!(outbox[v].is_empty() || s.outbox_frontier.contains(v), "outbox {v}");
            }
            let inports = inport.iter().filter(|q| !q.is_empty()).count();
            let outboxes = outbox.iter().filter(|q| !q.is_empty()).count();
            assert_eq!(s.occupied_inports(), inports, "in-port count at step {round}");
            assert_eq!(s.occupied_outboxes(), outboxes, "outbox count at step {round}");
            let occupied: Vec<NodeId> = s.occupied_nodes().collect();
            let want: Vec<NodeId> =
                (0..8).filter(|&v| !inport[v].is_empty() || !outbox[v].is_empty()).collect();
            assert_eq!(occupied, want, "occupied set diverged at step {round}");
            assert_eq!(s.is_idle(), want.is_empty(), "idle counter diverged at step {round}");
            let queued = outbox.iter().map(VecDeque::len).sum::<usize>()
                + inport.iter().map(VecDeque::len).sum::<usize>();
            assert_eq!(s.live(), queued, "live entries at step {round}");
        }
    }

    /// Both takes yield ascending ids, each once, whatever order the ids
    /// were listed in — across word (64) and summary-word (4 096)
    /// boundaries, and again after a relist.
    #[test]
    fn frontiers_come_out_ascending() {
        let listed = [4_199, 4_096, 4_095, 64, 63, 0];
        let mut s: NodeStore<u32> = NodeStore::new(4_200);
        for &v in &listed {
            for msg in 0..2 {
                s.stage(v, 0, msg);
                s.enqueue(v, 0, 1, msg);
            }
        }
        let mut ascending = listed.to_vec();
        ascending.sort_unstable();
        let takes = |s: &mut NodeStore<u32>| {
            let (mut inports, mut outboxes) = (Vec::new(), Vec::new());
            s.take_inport_frontier(&mut inports);
            s.take_outbox_frontier(&mut outboxes);
            (inports, outboxes)
        };
        assert_eq!(takes(&mut s), (ascending.clone(), ascending.clone()));
        assert_eq!(takes(&mut s), (vec![], vec![]), "a take empties the frontier");
        for &v in &listed {
            s.relist_inport(v);
            s.relist_outbox(v);
        }
        assert_eq!(takes(&mut s), (ascending.clone(), ascending));
    }

    /// Memory follows the messages alive at once, not the messages ever
    /// sent: a delivery frees its entry, so 1 000 cycles that never hold
    /// more than four messages leave a slab of at most four entries.
    #[test]
    fn popped_entries_are_reused() {
        let mut s: NodeStore<u64> = NodeStore::new(3);
        let mut next = 0u64;
        for cycle in 0..1000usize {
            let held = 1 + cycle % 4;
            for i in 0..held {
                assert_eq!(s.enqueue((cycle + i) % 3, 0, 1, next), 1 + i / 3);
                next += 1;
            }
            for i in 0..held {
                let popped = s.pop_inport((cycle + i) % 3).map(|m| m.msg);
                assert_eq!(popped, Some(next - (held - i) as u64));
            }
            assert!(s.is_idle() && (0..3).all(|v| s.pop_inport(v).is_none()));
        }
        let slab = s.slab.entries.len();
        assert!(slab <= 4, "{slab} entries for a depth of 4");
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
        assert_eq!(s.unstage(1), Some((2, 9)));
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
        s.enqueue(2, 0, 1, 7);
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
        // Ids past the store are ignored, like relist_outbox.
        s.relist_inport(99);
    }
}
