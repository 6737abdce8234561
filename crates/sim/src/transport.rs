//! Wire scheduling: the timing wheel, delay policies and FIFO clamp.
//!
//! A [`Transport`] owns everything between "a message left its sender" and
//! "the message reached its destination's in-port": it applies the
//! [`LinkDelay`] policy each transmission names, enforces per-link FIFO,
//! and holds in-flight messages in a timing wheel — a power-of-two ring of
//! batches, the wires due at round `r` in slot `r & mask`, in transmission
//! order. Every wire in flight arrives within one ring length after the
//! last drained round, so no two pending rounds share a slot; the ring
//! grows (re-bucketing each batch whole, in order) to the smallest power of
//! two above the longest delay it has scheduled — 2 slots under unit delay,
//! 8 under `jitter:max=3` or a ferry of 6 rounds, at most 2^20 under the
//! CLI's delay cap. A wire due after the wheel's horizon (the run's
//! `max_rounds`) is refused, so no delay sizes the ring past the run. A
//! drained slot's storage is handed to the next slot that starts filling,
//! so steady state cycles one set of buffers and allocates nothing. The
//! invariants this layer owns:
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
//!   wires in (arrival round, transmission sequence) order, so delivery
//!   order is a pure function of the transmission history. The sequence
//!   number is assigned by the scheduler, one run-global numbering in
//!   transmission order.

use crate::report::LinkDelay;
use crate::Round;
use ccq_graph::NodeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A message in flight.
#[derive(Debug)]
pub struct Wire<M> {
    /// Sender.
    pub src: NodeId,
    /// Destination.
    pub dst: NodeId,
    /// Round at which it arrives at the destination's in-port.
    pub arrival: Round,
    /// Global transmission sequence number (1-based; merge/jitter key).
    pub seq: u64,
    /// Payload.
    pub msg: M,
}

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
pub struct Transport<M> {
    /// The timing wheel: slot `r & (len − 1)` holds the wires arriving at
    /// round `r`, in transmission (= sequence) order. Every pending arrival
    /// lies in `drained + 1 .. drained + len`. Empty until the first
    /// transmission.
    ring: Vec<Vec<Wire<M>>>,
    /// Every round up to and including this one has been drained.
    drained: Round,
    /// Wires in flight (the ring's total length).
    wires: usize,
    /// Storage of the last drained slot, handed to the next slot that
    /// starts filling.
    handoff: Vec<Wire<M>>,
    /// Per-directed-link last scheduled arrival (FIFO clamp under jitter).
    link_last: HashMap<(NodeId, NodeId), Round, BuildHasherDefault<LinkHasher>>,
    /// The last round a wire may arrive at.
    horizon: Round,
    /// Whether a wire was refused for arriving after the horizon.
    pub(crate) overdue: bool,
}

impl<M> Default for Transport<M> {
    /// An idle transport with no horizon short of `Round::MAX`.
    fn default() -> Self {
        Transport::new(Round::MAX)
    }
}

impl<M> Transport<M> {
    /// An idle transport that refuses every wire due after `horizon`.
    pub(crate) fn new(horizon: Round) -> Self {
        let (ring, handoff, link_last) = (Vec::new(), Vec::new(), HashMap::default());
        Transport { ring, drained: 0, wires: 0, handoff, link_last, horizon, overdue: false }
    }

    /// Place a message on the wire at `round` under `delay`, its link's
    /// policy. `seq` is the run-global transmission sequence number: it
    /// indexes per-message delay draws and orders simultaneous arrivals.
    /// The arrival must lie after the last drained round, which a
    /// transmission at or after that round always does. The ring spans
    /// from that round, so a transmission long after the last drain widens
    /// it by the gap; the scheduler drains the wheel every round. A wire
    /// due after the horizon, or past the last round a [`Round`] can name,
    /// is dropped and marks the transport overdue.
    pub fn transmit(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: M,
        round: Round,
        seq: u64,
        delay: LinkDelay,
    ) {
        let due = round.checked_add(delay.delay_of(src, dst, seq));
        let Some(mut arrival) = due.filter(|&a| a <= self.horizon) else {
            self.overdue = true;
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
            self.grow(arrival - self.drained);
        }
        let slot = self.slot(arrival);
        let batch = &mut self.ring[slot];
        if batch.is_empty() && batch.capacity() < self.handoff.capacity() {
            std::mem::swap(batch, &mut self.handoff);
        }
        batch.push(Wire { src, dst, arrival, seq, msg });
        self.wires += 1;
    }

    /// Grow the ring to the smallest power of two above `span`, the
    /// distance from the last drained round to a new arrival, each batch
    /// moving whole to its new slot.
    #[cold]
    fn grow(&mut self, span: Round) {
        let len = usize::try_from(span)
            .ok()
            .and_then(|span| span.checked_add(1)?.checked_next_power_of_two())
            .expect("delay span exceeds the address space");
        let mut ring: Vec<Vec<Wire<M>>> = (0..len).map(|_| Vec::new()).collect();
        for batch in self.ring.drain(..) {
            if let Some(arrival) = batch.first().map(|w| w.arrival) {
                ring[arrival as usize & (len - 1)] = batch;
            }
        }
        self.ring = ring;
    }

    /// The ring slot of round `r`.
    fn slot(&self, r: Round) -> usize {
        r as usize & (self.ring.len() - 1)
    }

    /// Remove and yield every wire due at or before `round`, in
    /// (arrival round, sequence) order. An empty slot on the way costs one
    /// length check.
    pub fn drain_due(&mut self, round: Round, mut sink: impl FnMut(Wire<M>)) {
        while self.wires > 0 && self.drained < round {
            self.drained += 1;
            let slot = self.slot(self.drained);
            let batch = &mut self.ring[slot];
            if !batch.is_empty() {
                self.wires -= batch.len();
                batch.drain(..).for_each(&mut sink);
            }
            if batch.capacity() > self.handoff.capacity() {
                std::mem::swap(batch, &mut self.handoff);
            }
        }
        self.drained = self.drained.max(round);
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.wires == 0
    }

    /// Read-only view of every in-flight wire, in (arrival round, insertion)
    /// order — the ring is walked from the first undrained round and
    /// batches are in transmission order, which under the run-global
    /// numbering is (arrival, sequence) order, the order
    /// [`Transport::drain_due`] matures them in.
    pub fn wires(&self) -> impl Iterator<Item = &Wire<M>> {
        let (from, len) = (self.drained, self.ring.len());
        (1..len as Round).flat_map(move |k| &self.ring[from.wrapping_add(k) as usize & (len - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn arrivals(t: &mut Transport<u32>, round: Round) -> Vec<(NodeId, u64, u32)> {
        let mut out = Vec::new();
        t.drain_due(round, |w| out.push((w.dst, w.seq, w.msg)));
        out
    }

    #[test]
    fn unit_delay_schedules_next_round() {
        let mut t: Transport<u32> = Transport::default();
        t.transmit(0, 1, 7, 3, 1, LinkDelay::Unit);
        t.drain_due(3, |_| panic!("not due at transmit round"));
        assert_eq!(arrivals(&mut t, 4), vec![(1, 1, 7)]);
        assert!(t.is_idle());
    }

    #[test]
    fn drain_is_arrival_then_sequence_ordered() {
        let delay = LinkDelay::Fixed { delay: 2 };
        let mut t: Transport<u32> = Transport::default();
        t.transmit(0, 1, 10, 0, 1, delay); // arrives at 2
        t.transmit(0, 2, 11, 1, 2, delay); // arrives at 3
        t.transmit(1, 2, 12, 0, 3, delay); // arrives at 2 — later seq, same round
        assert_eq!(arrivals(&mut t, 3), vec![(1, 1, 10), (2, 3, 12), (2, 2, 11)]);
    }

    #[test]
    fn jitter_clamp_preserves_link_fifo() {
        let mut t: Transport<u32> = Transport::default();
        for seq in 1..=20 {
            t.transmit(0, 1, seq as u32, seq, seq, LinkDelay::Jitter { max: 9, seed: 3 });
        }
        let mut seen = Vec::new();
        t.drain_due(Round::MAX - 1, |w| seen.push(w.msg));
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
            let mut t: Transport<u32> = Transport::default();
            assert!(t.ring.is_empty(), "an unused wheel holds no ring");
            for round in 0..64 {
                t.drain_due(round, drop);
                for (seq, src) in (round * 4 + 1..).zip(0..4) {
                    t.transmit(src, src + 1, 0, round, seq, delay);
                }
            }
            assert_eq!(t.ring.len(), slots, "{}", delay.name());
        }
    }

    /// Splitmix64: the property test's deterministic case generator.
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

    type Seen = (NodeId, NodeId, Round, u64, u32);

    /// The reference wheel: batches in a `BTreeMap` keyed by arrival
    /// round, its own FIFO clamp, and every drain a split of the map's due
    /// prefix.
    struct Oracle {
        delay: LinkDelay,
        inflight: BTreeMap<Round, Vec<Seen>>,
        link_last: BTreeMap<(NodeId, NodeId), Round>,
    }

    impl Oracle {
        fn transmit(&mut self, src: NodeId, dst: NodeId, msg: u32, round: Round, seq: u64) {
            let mut arrival = round + self.delay.delay_of(src, dst, seq);
            if self.delay.varies_per_message() {
                let last = self.link_last.entry((src, dst)).or_insert(0);
                arrival = arrival.max(*last);
                *last = arrival;
            }
            self.inflight.entry(arrival).or_default().push((src, dst, arrival, seq, msg));
        }

        fn drain_due(&mut self, round: Round) -> Vec<Seen> {
            let later = self.inflight.split_off(&(round + 1));
            std::mem::replace(&mut self.inflight, later).into_values().flatten().collect()
        }

        fn wires(&self) -> Vec<Seen> {
            self.inflight.values().flatten().copied().collect()
        }
    }

    fn seen(w: &Wire<u32>) -> Seen {
        (w.src, w.dst, w.arrival, w.seq, w.msg)
    }

    #[test]
    fn ring_matches_the_btreemap_wheel_under_every_policy() {
        let policies = [
            LinkDelay::Unit,
            LinkDelay::Fixed { delay: 3 },
            LinkDelay::PerLink { max: 12, seed: 5 },
            LinkDelay::Jitter { max: 6, seed: 9 },
        ];
        let mut grew_in_flight = 0;
        for delay in policies {
            for case in 0..40 {
                let mut gen = Cases(case);
                let mut ring: Transport<u32> = Transport::default();
                let mut oracle =
                    Oracle { delay, inflight: BTreeMap::new(), link_last: BTreeMap::new() };
                let (mut round, mut seq) = (0, 0);
                for step in 0..300 {
                    // Mostly one round at a time, sometimes an idle jump
                    // (past every pending arrival or into the middle of
                    // them), with a drain at every stop.
                    round += match gen.below(10) {
                        0 => 1 + gen.below(25),
                        _ => 1,
                    };
                    let mut got = Vec::new();
                    ring.drain_due(round, |w| got.push(seen(&w)));
                    assert_eq!(got, oracle.drain_due(round), "{} case {case}", delay.name());
                    for _ in 0..gen.below(5) {
                        let (src, dst) = (gen.below(4) as NodeId, gen.below(4) as NodeId);
                        seq += 1;
                        let (before, busy) = (ring.ring.len(), !ring.is_idle());
                        ring.transmit(src, dst, step, round, seq, delay);
                        oracle.transmit(src, dst, step, round, seq);
                        grew_in_flight += usize::from(busy && ring.ring.len() > before);
                    }
                    let wires: Vec<Seen> = ring.wires().map(seen).collect();
                    assert_eq!(wires, oracle.wires(), "{} case {case}", delay.name());
                    assert_eq!(ring.is_idle(), oracle.inflight.is_empty());
                }
            }
        }
        assert!(grew_in_flight > 0, "no case grew the ring with wires in flight");
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
        let mut t: Transport<u32> = Transport::default();
        t.transmit(short.0, short.1, 10, 0, 1, delay);
        assert_eq!(t.ring.len(), 2);
        t.transmit(far.0, far.1, 11, 0, 2, delay);
        assert_eq!(t.ring.len(), (long as usize + 1).next_power_of_two());
        let wires: Vec<u32> = t.wires().map(|w| w.msg).collect();
        assert_eq!(wires, [10, 11]);
        assert_eq!(arrivals(&mut t, long), vec![(short.1, 1, 10), (far.1, 2, 11)]);
    }
}
