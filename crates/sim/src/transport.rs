//! Wire scheduling: the timing wheel, delay policies and FIFO clamp.
//!
//! A [`Transport`] owns everything between "a message left its sender" and
//! "the message reached its destination's in-port": it applies the
//! [`LinkDelay`] policy each transmission names, enforces per-link FIFO,
//! and holds in-flight messages in a timing wheel — a power-of-two ring of
//! slot lists, the wires due at round `r` in slot `r & mask`, in
//! transmission order. A wire is the message's entry in the store's slab
//! ([`crate::state`]): a slot is a [`List`] of entry ids threaded through
//! that slab, so transmitting relinks an id and maturing hands a slot's
//! list to [`NodeStore::mature`], and no payload moves. Every wire in
//! flight arrives within one ring length after the last drained round, so
//! no two pending rounds share a slot; the ring grows (re-bucketing each
//! slot list whole, by its first entry's arrival) to the smallest power of
//! two above the longest delay it has scheduled — 2 slots under unit
//! delay, 8 under `jitter:max=3` or a ferry of 6 rounds, at most 2^20
//! under the CLI's delay cap. A wire due after the wheel's horizon (the
//! run's `max_rounds`) is refused and its entry freed, so no delay sizes
//! the ring past the run. A slot is three words, so a warm wheel
//! allocates nothing. The invariants this layer owns:
//!
//! * **delay ≥ 1** — a message transmitted at round `t` arrives no earlier
//!   than `t + 1` (information travels at most one hop per round under the
//!   paper's unit-delay model; other policies only stretch this);
//! * **per-link FIFO** — no message overtakes an earlier message on the
//!   same directed link. Constant-per-link policies are FIFO by
//!   construction; per-message policies ([`LinkDelay::Jitter`]) are clamped
//!   so each arrival is no earlier than the previous arrival scheduled on
//!   that link. A run gives each link one policy for its whole life (a
//!   shard plan's ferry delay on the links its cut separates, the run's
//!   delay on every other), so one wheel serves both without the clamps
//!   ever mixing them;
//! * **deterministic maturity order** — [`Transport::drain_due`] yields
//!   slot lists in arrival order, each in transmission order, so wires
//!   mature in (arrival round, transmission sequence) order and delivery
//!   order is a pure function of the transmission history. The sequence
//!   number is assigned by the scheduler, one run-global numbering in
//!   transmission order.

use crate::report::LinkDelay;
use crate::state::{Entry, List, NodeStore};
use crate::Round;
use ccq_graph::NodeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for the link map. Its keys are pairs of
/// processor ids this program made — never outside input — and the map is
/// never iterated, so SipHash's collision resistance buys nothing there
/// and was the whole cost of a lookup per message under jitter.
#[derive(Debug, Default)]
struct LinkHasher(u64);

impl Hasher for LinkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, id: usize) {
        self.0 = (self.0.rotate_left(5) ^ id as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Scheduler of in-flight messages, each under the delay policy its
/// transmission names.
#[derive(Debug)]
pub struct Transport {
    /// The timing wheel: slot `r & (len − 1)` lists the wires arriving at
    /// round `r`, in transmission (= sequence) order. Every pending arrival
    /// lies in `drained + 1 .. drained + len`. Empty until the first
    /// transmission.
    ring: Vec<List>,
    /// Every round up to and including this one has been drained.
    drained: Round,
    /// Wires in flight (the ring's total length).
    wires: usize,
    /// Per-directed-link last scheduled arrival (FIFO clamp under jitter).
    link_last: HashMap<(NodeId, NodeId), Round, BuildHasherDefault<LinkHasher>>,
    /// The last round a wire may arrive at.
    horizon: Round,
    /// Whether a wire was refused for arriving after the horizon.
    pub(crate) overdue: bool,
}

impl Default for Transport {
    /// An idle transport with no horizon short of `Round::MAX`.
    fn default() -> Self {
        Transport::new(Round::MAX)
    }
}

impl Transport {
    /// An idle transport that refuses every wire due after `horizon`.
    pub(crate) fn new(horizon: Round) -> Self {
        let (ring, link_last) = (Vec::new(), HashMap::default());
        Transport { ring, drained: 0, wires: 0, link_last, horizon, overdue: false }
    }

    /// Put `store`'s entry `e` — a send just popped off its sender's
    /// outbox ([`NodeStore::pop_outbox`]) — on the wire at `round` under
    /// `delay`, its link's policy. `seq` is the run-global transmission
    /// sequence number: it indexes per-message delay draws and orders
    /// simultaneous arrivals. The arrival must lie after the last drained
    /// round, which a transmission at or after that round always does. The
    /// ring spans from that round, so a transmission long after the last
    /// drain widens it by the gap; the scheduler drains the wheel every
    /// round. A wire due after the horizon, or past the last round a
    /// [`Round`] can name, is refused: its entry is freed and the transport
    /// marked overdue.
    pub fn transmit<M>(
        &mut self,
        store: &mut NodeStore<M>,
        e: u32,
        round: Round,
        seq: u64,
        delay: LinkDelay,
    ) {
        let entry = store.entry(e);
        let (src, dst) = (entry.src(), entry.dst());
        let due = round.checked_add(delay.delay_of(src, dst, seq));
        let Some(mut arrival) = due.filter(|&a| a <= self.horizon) else {
            self.overdue = true;
            store.discard(e);
            return;
        };
        if delay.varies_per_message() {
            // FIFO per directed link: never overtake an earlier message.
            let slot = self.link_last.entry((src, dst)).or_insert(0);
            arrival = arrival.max(*slot);
            *slot = arrival;
        }
        debug_assert!(arrival > self.drained, "wire scheduled into a drained round");
        if arrival - self.drained >= self.ring.len() as Round {
            self.grow(store, arrival - self.drained);
        }
        let slot = self.slot(arrival);
        store.send(&mut self.ring[slot], e, arrival, seq);
        self.wires += 1;
    }

    /// Grow the ring to the smallest power of two above `span`, the
    /// distance from the last drained round to a new arrival, each slot
    /// list moving whole to the slot of its first entry's arrival.
    #[cold]
    fn grow<M>(&mut self, store: &NodeStore<M>, span: Round) {
        let len = usize::try_from(span)
            .ok()
            .and_then(|span| span.checked_add(1)?.checked_next_power_of_two())
            .expect("delay span exceeds the address space");
        let mut ring = List::empties(len);
        for list in self.ring.drain(..) {
            if let Some(arrival) = store.list(&list).next().map(Entry::arrival) {
                ring[arrival as usize & (len - 1)] = list;
            }
        }
        self.ring = ring;
    }

    /// The ring slot of round `r`.
    fn slot(&self, r: Round) -> usize {
        r as usize & (self.ring.len() - 1)
    }

    /// Unlink and yield every slot list due at or before `round`, in
    /// arrival order — each list in sequence order, so its entries come
    /// out in (arrival round, sequence) order. The lists' entries stay in
    /// the store for the sink to move on ([`NodeStore::mature`]). An empty
    /// slot on the way costs one length check.
    pub fn drain_due(&mut self, round: Round, mut sink: impl FnMut(List)) {
        while self.wires > 0 && self.drained < round {
            self.drained += 1;
            let slot = self.slot(self.drained);
            let list = std::mem::replace(&mut self.ring[slot], List::EMPTY);
            if !list.is_empty() {
                self.wires -= list.len();
                sink(list);
            }
        }
        self.drained = self.drained.max(round);
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.wires == 0
    }

    /// Read-only view of every in-flight wire of `store`, in (arrival
    /// round, insertion) order — the ring is walked from the first
    /// undrained round and slot lists are in transmission order, which
    /// under the run-global numbering is (arrival, sequence) order, the
    /// order [`Transport::drain_due`] matures them in.
    pub fn wires<'s, M>(&'s self, store: &'s NodeStore<M>) -> impl Iterator<Item = &'s Entry<M>> {
        let (from, len) = (self.drained, self.ring.len());
        (1..len as Round)
            .flat_map(move |k| store.list(&self.ring[from.wrapping_add(k) as usize & (len - 1)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, VecDeque};

    /// (src, dst, arrival, seq, msg) of a wire.
    type Seen = (NodeId, NodeId, Round, u64, u32);

    fn seen(w: &Entry<u32>) -> Seen {
        (w.src(), w.dst(), w.arrival(), w.seq(), *w.msg())
    }

    /// A wheel and the store its entries live in.
    struct Wheel {
        t: Transport,
        s: NodeStore<u32>,
    }

    impl Wheel {
        fn new() -> Self {
            Wheel { t: Transport::default(), s: NodeStore::new(16) }
        }

        /// Stage `msg` on the link `src → dst` and put it on the wire at
        /// `round`, as the scheduler's transmit walk does.
        fn send(
            &mut self,
            src: NodeId,
            dst: NodeId,
            msg: u32,
            round: Round,
            seq: u64,
            delay: LinkDelay,
        ) {
            self.s.stage(src, dst, msg);
            let (e, _) = self.s.pop_outbox(src).expect("just staged");
            self.t.transmit(&mut self.s, e, round, seq, delay);
        }

        /// Mature every wire due at or before `round` and empty the
        /// in-ports: the wires in maturity order.
        fn drain(&mut self, round: Round) -> Vec<Seen> {
            let (t, s) = (&mut self.t, &mut self.s);
            let (mut out, mut last) = (Vec::new(), (0, 0));
            t.drain_due(round, |due| {
                out.extend(s.list(&due).map(seen));
                s.mature(due, &mut last);
            });
            for v in 0..s.n() {
                while s.pop_inport(v).is_some() {}
            }
            out
        }

        fn wires(&self) -> Vec<Seen> {
            self.t.wires(&self.s).map(seen).collect()
        }
    }

    #[test]
    fn unit_delay_schedules_next_round() {
        let mut w = Wheel::new();
        w.send(0, 1, 7, 3, 1, LinkDelay::Unit);
        assert_eq!(w.drain(3), [], "not due at transmit round");
        assert_eq!(w.drain(4), [(0, 1, 4, 1, 7)]);
        assert!(w.t.is_idle());
        assert_eq!(w.s.live(), 0, "a delivered wire frees its entry");
    }

    #[test]
    fn drain_is_arrival_then_sequence_ordered() {
        let delay = LinkDelay::Fixed { delay: 2 };
        let mut w = Wheel::new();
        w.send(0, 1, 10, 0, 1, delay); // arrives at 2
        w.send(0, 2, 11, 1, 2, delay); // arrives at 3
        w.send(1, 2, 12, 0, 3, delay); // arrives at 2 — later seq, same round
        assert_eq!(w.drain(3), [(0, 1, 2, 1, 10), (1, 2, 2, 3, 12), (0, 2, 3, 2, 11)]);
    }

    #[test]
    fn jitter_clamp_preserves_link_fifo() {
        let mut w = Wheel::new();
        for seq in 1..=20 {
            w.send(0, 1, seq as u32, seq, seq, LinkDelay::Jitter { max: 9, seed: 3 });
        }
        let seen: Vec<u32> = w.drain(Round::MAX - 1).iter().map(|w| w.4).collect();
        assert_eq!(seen, (1..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn ring_is_the_smallest_power_of_two_above_the_longest_delay() {
        for (delay, slots) in [
            (LinkDelay::Unit, 2),
            (LinkDelay::Fixed { delay: 6 }, 8),
            (LinkDelay::Fixed { delay: 8 }, 16),
            (LinkDelay::Jitter { max: 3, seed: 1 }, 8),
        ] {
            let mut w = Wheel::new();
            assert!(w.t.ring.is_empty(), "an unused wheel holds no ring");
            for round in 0..64 {
                w.drain(round);
                for (seq, src) in (round * 4 + 1..).zip(0..4) {
                    w.send(src, src + 1, 0, round, seq, delay);
                }
            }
            assert_eq!(w.t.ring.len(), slots, "{}", delay.name());
        }
    }

    /// Splitmix64: the property tests' deterministic case generator.
    struct Cases(u64);

    impl Cases {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        }
    }

    /// The reference wheel: batches in a `BTreeMap` keyed by arrival
    /// round, its own horizon and FIFO clamp, and every drain a split of
    /// the map's due prefix.
    struct Oracle {
        delay: LinkDelay,
        horizon: Round,
        inflight: BTreeMap<Round, Vec<Seen>>,
        link_last: BTreeMap<(NodeId, NodeId), Round>,
    }

    impl Oracle {
        fn new(delay: LinkDelay, horizon: Round) -> Self {
            Oracle { delay, horizon, inflight: BTreeMap::new(), link_last: BTreeMap::new() }
        }

        /// Schedule a wire; false if it is due after the horizon.
        fn transmit(&mut self, src: NodeId, dst: NodeId, msg: u32, round: Round, seq: u64) -> bool {
            let mut arrival = round + self.delay.delay_of(src, dst, seq);
            if arrival > self.horizon {
                return false;
            }
            if self.delay.varies_per_message() {
                let last = self.link_last.entry((src, dst)).or_insert(0);
                arrival = arrival.max(*last);
                *last = arrival;
            }
            self.inflight.entry(arrival).or_default().push((src, dst, arrival, seq, msg));
            true
        }

        fn drain_due(&mut self, round: Round) -> Vec<Seen> {
            let later = self.inflight.split_off(&(round + 1));
            std::mem::replace(&mut self.inflight, later).into_values().flatten().collect()
        }

        fn wires(&self) -> Vec<Seen> {
            self.inflight.values().flatten().copied().collect()
        }
    }

    const POLICIES: [LinkDelay; 4] = [
        LinkDelay::Unit,
        LinkDelay::Fixed { delay: 3 },
        LinkDelay::PerLink { max: 12, seed: 5 },
        LinkDelay::Jitter { max: 6, seed: 9 },
    ];

    #[test]
    fn ring_matches_the_btreemap_wheel_under_every_policy() {
        let mut grew_in_flight = 0;
        for delay in POLICIES {
            for case in 0..40 {
                let mut gen = Cases(case);
                let mut ring = Wheel::new();
                let mut oracle = Oracle::new(delay, Round::MAX);
                let (mut round, mut seq) = (0, 0);
                for step in 0..300 {
                    // Mostly one round at a time, sometimes an idle jump
                    // (past every pending arrival or into the middle of
                    // them), with a drain at every stop.
                    round += match gen.below(10) {
                        0 => 1 + gen.below(25),
                        _ => 1,
                    };
                    assert_eq!(
                        ring.drain(round),
                        oracle.drain_due(round),
                        "{} case {case}",
                        delay.name()
                    );
                    for _ in 0..gen.below(5) {
                        let (src, dst) = (gen.below(4) as NodeId, gen.below(4) as NodeId);
                        seq += 1;
                        let (before, busy) = (ring.t.ring.len(), !ring.t.is_idle());
                        ring.send(src, dst, step, round, seq, delay);
                        oracle.transmit(src, dst, step, round, seq);
                        grew_in_flight += usize::from(busy && ring.t.ring.len() > before);
                    }
                    assert_eq!(ring.wires(), oracle.wires(), "{} case {case}", delay.name());
                    assert_eq!(ring.t.is_idle(), oracle.inflight.is_empty());
                    assert_eq!(ring.s.live(), ring.t.wires, "only wires hold entries");
                }
            }
        }
        assert!(grew_in_flight > 0, "no case grew the ring with wires in flight");
    }

    /// One slab behind every queue: random stages, transmits (some due
    /// after the horizon and refused), drains and in-port pops agree with
    /// a `VecDeque` per outbox and in-port plus the `BTreeMap` wheel —
    /// every view, every pop, the refusals — and the slab holds exactly the
    /// messages alive: outbox, wire and in-port lengths summed.
    #[test]
    fn the_slab_matches_per_queue_deques_and_the_btreemap_wheel() {
        const N: u64 = 4;
        let mut refused = 0;
        for delay in POLICIES {
            for case in 0..30 {
                let mut gen = Cases(1_000 + case);
                let horizon = 60;
                let (mut t, mut s) = (Transport::new(horizon), NodeStore::<u32>::new(N as usize));
                let mut oracle = Oracle::new(delay, horizon);
                let mut outbox = vec![VecDeque::new(); N as usize];
                let mut inport = vec![VecDeque::new(); N as usize];
                let (mut round, mut seq, mut last) = (0, 0, (0, 0));
                for step in 0..400 {
                    let v = gen.below(N) as NodeId;
                    match gen.below(8) {
                        0..=2 => {
                            let to = gen.below(N) as NodeId;
                            outbox[v].push_back((to, step));
                            assert_eq!(s.stage(v, to, step), outbox[v].len());
                        }
                        3 | 4 => {
                            let Some((e, dst)) = s.pop_outbox(v) else {
                                assert!(outbox[v].is_empty(), "outbox {v} lost a send");
                                continue;
                            };
                            let (want, msg) = outbox[v].pop_front().expect("a staged send");
                            assert_eq!(dst, want);
                            seq += 1;
                            t.transmit(&mut s, e, round, seq, delay);
                            if !oracle.transmit(v, dst, msg, round, seq) {
                                refused += 1;
                                assert!(t.overdue, "a wire past the horizon was taken");
                            }
                        }
                        5 => {
                            round += 1 + gen.below(2);
                            t.drain_due(round, |due| {
                                s.mature(due, &mut last);
                            });
                            for (src, dst, arrival, _, msg) in oracle.drain_due(round) {
                                inport[dst].push_back((src, arrival, msg));
                            }
                        }
                        _ => {
                            let popped = s.pop_inport(v).map(|m| (m.src, m.arrival, m.msg));
                            assert_eq!(popped, inport[v].pop_front(), "in-port {v} at step {step}");
                        }
                    }
                    for v in 0..N as NodeId {
                        let staged = s.outbox_of(v).map(|m| (m.dst(), *m.msg()));
                        assert!(staged.eq(outbox[v].iter().copied()), "outbox {v} at step {step}");
                        let ported = s.inport_of(v).map(|m| (m.src(), m.arrival(), *m.msg()));
                        assert!(ported.eq(inport[v].iter().copied()), "in-port {v} at step {step}");
                    }
                    let wires: Vec<Seen> = t.wires(&s).map(seen).collect();
                    assert_eq!(wires, oracle.wires(), "{} case {case} step {step}", delay.name());
                    let queued: usize = outbox.iter().map(VecDeque::len).sum::<usize>()
                        + inport.iter().map(VecDeque::len).sum::<usize>()
                        + wires.len();
                    assert_eq!(
                        s.live(),
                        queued,
                        "{} case {case} step {step}: live entries",
                        delay.name()
                    );
                }
            }
        }
        assert!(refused > 0, "no case refused a wire past the horizon");
    }

    #[test]
    fn growth_keeps_in_flight_batches_in_order() {
        // A one-round link, then a link of more than two: the first
        // transmission builds a 2-slot ring, the second grows it while the
        // first wire is still in flight.
        let delay = LinkDelay::PerLink { max: 12, seed: 5 };
        let links = || (0..8).flat_map(|a| (0..8).map(move |b| (a, b)));
        let short = links().find(|&(a, b)| delay.delay_of(a, b, 0) == 1).unwrap();
        let far = links().find(|&(a, b)| delay.delay_of(a, b, 0) > 2).unwrap();
        let long = delay.delay_of(far.0, far.1, 0);
        let mut w = Wheel::new();
        w.send(short.0, short.1, 10, 0, 1, delay);
        assert_eq!(w.t.ring.len(), 2);
        w.send(far.0, far.1, 11, 0, 2, delay);
        assert_eq!(w.t.ring.len(), (long as usize + 1).next_power_of_two());
        let wires: Vec<u32> = w.wires().iter().map(|w| w.4).collect();
        assert_eq!(wires, [10, 11]);
        let drained: Vec<(NodeId, u64, u32)> =
            w.drain(long).iter().map(|w| (w.1, w.3, w.4)).collect();
        assert_eq!(drained, [(short.1, 1, 10), (far.1, 2, 11)]);
    }
}
