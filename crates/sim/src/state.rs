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
//! Both kinds of queue are **slab-backed**: a store holds two `Fifos`, each
//! one `Vec` of linked entries shared by all of its queues plus three `u32`
//! words (`head`, `tail`, `len`) per processor. A push takes an entry off
//! the free list (growing the slab only when it is empty), a pop puts its
//! entry back, so a store is a constant number of allocations whatever `n`
//! is and its memory follows the messages queued at once, not the
//! processors ever touched. None of the invariants above depends on where
//! an entry lives: FIFO order is the link order of one queue, a budget is
//! the number of pops a round loop makes, and the frontiers are kept by
//! [`NodeStore`] from the lengths alone.
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

/// The ends of an empty queue.
const EMPTY: Ends = Ends { head: NIL, tail: NIL, len: 0 };

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
    /// Number of nonempty queues.
    occupied: usize,
}

impl<T> Fifos<T> {
    /// `queues` empty queues; no entry is allocated until the first push.
    fn new(queues: usize) -> Self {
        Fifos { ends: vec![EMPTY; queues], entries: Vec::new(), free: NIL, occupied: 0 }
    }

    /// Whether queue `q` is empty (true for a `q` past the last queue).
    fn is_empty(&self, q: usize) -> bool {
        self.ends.get(q).is_none_or(|e| e.len == 0)
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
        self.occupied += usize::from(ends.len == 1);
        ends.len as usize
    }

    /// Remove the oldest item of queue `q`; its entry goes back on the
    /// free list. `None` for an empty queue or a `q` past the last one.
    fn pop(&mut self, q: usize) -> Option<T> {
        let ends = self.ends.get_mut(q)?;
        if ends.len == 0 {
            return None;
        }
        let e = ends.head;
        let entry = &mut self.entries[e as usize];
        ends.head = entry.next;
        ends.len -= 1;
        self.occupied -= usize::from(ends.len == 0);
        entry.next = self.free;
        self.free = e;
        entry.item.take()
    }

    /// The items of queue `q`, oldest first (none for a `q` past the last
    /// queue).
    fn iter(&self, q: usize) -> impl Iterator<Item = &T> {
        let Ends { head, len, .. } = self.ends.get(q).copied().unwrap_or(EMPTY);
        let mut at = head;
        (0..len).map(move |_| {
            let entry = &self.entries[at as usize];
            at = entry.next;
            entry.item.as_ref().expect("a linked entry holds an item")
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
/// processor `v`.
#[derive(Debug)]
pub struct NodeStore<M> {
    outbox: Fifos<(NodeId, M)>,
    inport: Fifos<Inbound<M>>,
    /// Dirty frontiers: ids whose queue went nonempty since the frontier
    /// was last taken.
    outbox_frontier: Frontier,
    inport_frontier: Frontier,
}

impl<M> NodeStore<M> {
    /// Empty queues for all `n` processors.
    pub fn new(n: usize) -> Self {
        NodeStore {
            outbox: Fifos::new(n),
            inport: Fifos::new(n),
            outbox_frontier: Frontier::new(n),
            inport_frontier: Frontier::new(n),
        }
    }

    /// Stage a send in `from`'s outbox; returns the new outbox depth.
    pub fn stage(&mut self, from: NodeId, to: NodeId, msg: M) -> usize {
        self.outbox_frontier.insert(from);
        self.outbox.push(from, (to, msg))
    }

    /// Enqueue a matured message at `dst`'s in-port; returns the new depth.
    pub fn enqueue(&mut self, dst: NodeId, inbound: Inbound<M>) -> usize {
        self.inport_frontier.insert(dst);
        self.inport.push(dst, inbound)
    }

    /// Dequeue the oldest in-port message of `v`, if any. A processor whose
    /// in-port is still nonempty after the pop is re-listed on the dirty
    /// frontier, so budget-limited leftovers carry to the next round.
    pub fn pop_inport(&mut self, v: NodeId) -> Option<Inbound<M>> {
        let popped = self.inport.pop(v)?;
        self.relist_inport(v);
        Some(popped)
    }

    /// Dequeue the oldest staged send of `v`, if any. Re-lists leftovers
    /// like [`NodeStore::pop_inport`].
    pub fn pop_outbox(&mut self, v: NodeId) -> Option<(NodeId, M)> {
        let popped = self.outbox.pop(v)?;
        self.relist_outbox(v);
        Some(popped)
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
        if !self.outbox.is_empty(v) {
            self.outbox_frontier.insert(v);
        }
    }

    /// Put `v` back on the in-port frontier if it still has pending
    /// deliveries (used when the deliver phase visits a frontier node but
    /// skips it — a crashed node's in-port freezes in place until its
    /// recovery round).
    pub fn relist_inport(&mut self, v: NodeId) {
        if !self.inport.is_empty(v) {
            self.inport_frontier.insert(v);
        }
    }

    /// Number of processors with a nonempty in-port — O(1).
    pub(crate) fn occupied_inports(&self) -> usize {
        self.inport.occupied
    }

    /// Number of processors with a nonempty outbox — O(1).
    pub(crate) fn occupied_outboxes(&self) -> usize {
        self.outbox.occupied
    }

    /// Whether every queue (in-port and outbox) is empty — O(1) via the
    /// per-kind nonempty-queue counts.
    pub fn is_idle(&self) -> bool {
        self.inport.occupied == 0 && self.outbox.occupied == 0
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.inport.ends.len()
    }

    /// Processors with at least one nonempty queue, ascending. The probe
    /// layer's canonical renderer visits these, not every processor.
    pub fn occupied_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n()).filter(|&v| !self.inport.is_empty(v) || !self.outbox.is_empty(v))
    }

    /// Read-only view of `v`'s in-port, oldest first (the probe layer's
    /// canonical-state renderer; delivery still goes through
    /// [`NodeStore::pop_inport`]).
    pub fn inport_of(&self, v: NodeId) -> impl Iterator<Item = &Inbound<M>> {
        self.inport.iter(v)
    }

    /// Read-only view of `v`'s outbox, oldest first.
    pub fn outbox_of(&self, v: NodeId) -> impl Iterator<Item = &(NodeId, M)> {
        self.outbox.iter(v)
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

    /// Through an arbitrary interleaving of stage/enqueue/pop: every queue
    /// agrees with a `VecDeque` per processor (depths returned, items
    /// popped, the views' order, the occupied set), the O(1) per-kind
    /// counts and idle check agree with a full queue scan, and the
    /// frontiers cover every nonempty queue (the invariant the round loop
    /// relies on).
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
                s.enqueue(v, Inbound { src: 0, arrival: 1, msg });
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
        // Ids past the store are ignored, like relist_outbox.
        s.relist_inport(99);
    }
}
