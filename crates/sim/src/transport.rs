//! Wire scheduling: the timing wheel, delay policy and FIFO clamp.
//!
//! A [`Transport`] owns everything between "a message left its sender" and
//! "the message reached its destination's in-port": it applies the
//! [`LinkDelay`] policy, enforces per-link FIFO, and holds in-flight
//! messages in a timing wheel keyed by arrival round. The invariants this
//! layer owns:
//!
//! * **delay ≥ 1** — a message transmitted at round `t` arrives no earlier
//!   than `t + 1` (information travels at most one hop per round under the
//!   paper's unit-delay model; other policies only stretch this);
//! * **per-link FIFO** — no message overtakes an earlier message on the
//!   same directed link. Constant-per-link policies are FIFO by
//!   construction; per-message policies ([`LinkDelay::Jitter`]) are clamped
//!   so each arrival is no earlier than the previous arrival scheduled on
//!   that link;
//! * **deterministic maturity order** — [`Transport::drain_due`] yields
//!   wires in (arrival round, transmission sequence) order, so delivery
//!   order is a pure function of the transmission history. The sequence
//!   number is assigned by the scheduler (globally, across *all* transports
//!   of a run), which is what makes a sharded run with per-shard transports
//!   reproduce the single-transport execution exactly.

use crate::report::LinkDelay;
use crate::Round;
use ccq_graph::NodeId;
use std::collections::{BTreeMap, HashMap};
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

/// Batch `Vec`s kept around for reuse after their wires drained — bounds
/// the freelist so bursty rounds cannot pin arbitrary memory.
const SPARE_BATCHES: usize = 8;

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

/// Scheduler of in-flight messages under one delay policy.
#[derive(Debug)]
pub struct Transport<M> {
    delay: LinkDelay,
    /// Timing wheel: in-flight messages keyed by arrival round; each batch
    /// is in transmission (= sequence) order.
    inflight: BTreeMap<Round, Vec<Wire<M>>>,
    /// Per-directed-link last scheduled arrival (FIFO clamp under jitter).
    link_last: HashMap<(NodeId, NodeId), Round, BuildHasherDefault<LinkHasher>>,
    /// Recycled batch `Vec`s (drained, capacity retained): steady state
    /// moves batches between the wheel and this freelist without touching
    /// the allocator.
    spare: Vec<Vec<Wire<M>>>,
}

impl<M> Transport<M> {
    /// An idle transport under `delay`.
    pub fn new(delay: LinkDelay) -> Self {
        Transport {
            delay,
            inflight: BTreeMap::new(),
            link_last: HashMap::default(),
            spare: Vec::new(),
        }
    }

    /// Place a message on the wire at `round`. `seq` is the run-global
    /// transmission sequence number: it indexes per-message delay draws
    /// and orders simultaneous arrivals.
    pub fn transmit(&mut self, src: NodeId, dst: NodeId, msg: M, round: Round, seq: u64) {
        let mut arrival = round + self.delay.delay_of(src, dst, seq);
        if self.delay.varies_per_message() {
            // FIFO per directed link: never overtake an earlier message.
            let slot = self.link_last.entry((src, dst)).or_insert(0);
            arrival = arrival.max(*slot);
            *slot = arrival;
        }
        let wire = Wire { src, dst, arrival, seq, msg };
        match self.inflight.entry(arrival) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().push(wire),
            std::collections::btree_map::Entry::Vacant(e) => {
                let mut batch = self.spare.pop().unwrap_or_default();
                batch.push(wire);
                e.insert(batch);
            }
        }
    }

    /// Remove and yield every wire due at or before `round`, in
    /// (arrival round, sequence) order.
    pub fn drain_due(&mut self, round: Round, mut sink: impl FnMut(Wire<M>)) {
        while let Some((&r, _)) = self.inflight.first_key_value() {
            if r > round {
                break;
            }
            let mut batch = self.inflight.remove(&r).expect("checked key");
            for w in batch.drain(..) {
                sink(w);
            }
            if self.spare.len() < SPARE_BATCHES {
                self.spare.push(batch);
            }
        }
    }

    /// Rewrite the sequence number of every in-flight wire through `f`.
    /// The wavefront executor uses this at a wave commit to replace the
    /// provisional in-wave sequence keys with the true run-global numbers;
    /// the mapping must be order-preserving within each arrival batch
    /// (batches stay in transmission order and are never re-sorted).
    pub fn remap_seqs(&mut self, mut f: impl FnMut(u64) -> u64) {
        for batch in self.inflight.values_mut() {
            for w in batch.iter_mut() {
                w.seq = f(w.seq);
            }
        }
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Read-only view of every in-flight wire, in (arrival round, insertion)
    /// order — deterministic because the wheel is a `BTreeMap` and batches
    /// are in transmission order. The probe layer's canonical-state
    /// renderer merges and re-sorts wires across transports, so the
    /// per-transport order here only needs to be stable.
    pub fn wires(&self) -> impl Iterator<Item = &Wire<M>> {
        self.inflight.values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(t: &mut Transport<u32>, round: Round) -> Vec<(NodeId, u64, u32)> {
        let mut out = Vec::new();
        t.drain_due(round, |w| out.push((w.dst, w.seq, w.msg)));
        out
    }

    #[test]
    fn unit_delay_schedules_next_round() {
        let mut t: Transport<u32> = Transport::new(LinkDelay::Unit);
        t.transmit(0, 1, 7, 3, 1);
        t.drain_due(3, |_| panic!("not due at transmit round"));
        assert_eq!(arrivals(&mut t, 4), vec![(1, 1, 7)]);
        assert!(t.is_idle());
    }

    #[test]
    fn drain_is_arrival_then_sequence_ordered() {
        let mut t: Transport<u32> = Transport::new(LinkDelay::Fixed { delay: 2 });
        t.transmit(0, 1, 10, 0, 1); // arrives at 2
        t.transmit(0, 2, 11, 1, 2); // arrives at 3
        t.transmit(1, 2, 12, 0, 3); // arrives at 2 — later seq, same round
        assert_eq!(arrivals(&mut t, 3), vec![(1, 1, 10), (2, 3, 12), (2, 2, 11)]);
    }

    #[test]
    fn jitter_clamp_preserves_link_fifo() {
        let mut t: Transport<u32> = Transport::new(LinkDelay::Jitter { max: 9, seed: 3 });
        for seq in 1..=20 {
            t.transmit(0, 1, seq as u32, seq, seq);
        }
        let mut seen = Vec::new();
        t.drain_due(Round::MAX - 1, |w| seen.push(w.msg));
        assert_eq!(seen, (1..=20).collect::<Vec<u32>>());
    }
}
