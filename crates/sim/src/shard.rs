//! The multi-shard executor: K lanes, one protocol, one clock.
//!
//! [`ShardedSimulator`] partitions the interconnection graph into `K`
//! shards (a [`ccq_graph::Partition`]) and gives each shard its own `Lane`
//! — a membership-sized store and a timing wheel. Messages whose endpoints
//! live in different shards travel through an **inter-shard ferry
//! transport** with its own [`crate::LinkDelay`] policy — the knob that
//! models federated clusters where crossing a shard boundary is slower than
//! staying inside one.
//!
//! The fabric is one executor of [`crate::scheduler`]'s round skeleton and
//! implements only the phase hooks where K lanes differ from one. A
//! lockstep round forks only where handlers run concurrently: maturity is
//! a plain loop over the lanes' one `mature` (merging the due ferry
//! wires), and transmission is one serialized walk of the global outbox
//! frontier in ascending node order — the visit order *is* the run-global
//! sequence numbering, so the walk numbers each send exactly as the
//! monolith does and routes it to the owning lane's wheel or to the ferry.
//! Every shard-parallel stretch is one call of the one `fork`, which lends
//! each task its own lane in place and returns the results in shard order;
//! whatever the shards share (report, ferry, protocol value) is folded from
//! them at the phase barrier. The deliver phase has **two apply paths**,
//! selected by [`crate::SimConfig::parallel_apply`]; both call the one
//! [`Protocol::on_message`] on the delivered-to node's slice:
//!
//! * **serialized** (flag off; the reference) — the mirror of transmit:
//!   one walk of the global in-port frontier, each node popping from its
//!   own lane with the handler and the effect drain inline, so a
//!   serialized lockstep round forks not at all;
//! * **sliced** (flag on) — each lane's task pops *and applies* its own
//!   nodes' handlers against their disjoint state slices, staging effects
//!   in a [`crate::SliceApi`]; at the round barrier the staged effects are
//!   replayed in the serialized path's exact global order. Queuing
//!   hand-offs and counting updates thus execute concurrently across
//!   shards — the parallelism the paper's counting/queuing separation
//!   says is safe to exploit locally — while the replay step restores the
//!   global coherence the report needs.
//!
//! **Equivalence invariant.** Transmissions carry a run-global sequence
//! number and maturation merges local + ferry wires in (arrival, sequence)
//! order, so whenever the ferry's delay policy equals the intra-shard one,
//! a K-shard execution is operationally identical to the single-fabric
//! [`crate::Simulator`] — same completions, same rounds, same queue
//! statistics — for *every* delay policy including per-message jitter.
//! The only new observable is [`crate::SimReport::cross_shard_messages`].
//! The sliced apply path preserves the invariant *exactly* (a handler at
//! `v` touches only `v`'s slice, handler sends cannot be delivered before
//! round `t + 1`, and the barrier replay re-serializes effects in delivery
//! order), so parallel-apply reports are byte-identical to serialized
//! ones. A divergent ferry policy (e.g. `Fixed { delay: 8 }` between
//! shards) changes the execution — deliberately.
//!
//! **Wavefront pipelining** ([`SimConfig::wavefront_lag`] = `d` ≥ 1) is the
//! fabric's override of the skeleton's one-step hook: when the ferry's
//! minimum delay is at least `d`, a cross-shard message sent at round `t`
//! cannot arrive before `t + d`, so the lanes can run up to `d`
//! consecutive rounds in one task each — maturing, applying and
//! transmitting locally under *provisional* sequence keys — before meeting
//! at a single **wave commit** that claims the true sequence blocks, remaps
//! the in-flight keys, ferries the cross-shard sends and replays
//! completions in the lockstep order. Rounds with a global coupling point
//! (probe observations, scheduled arrivals per
//! [`Protocol::next_active_round`], tracing, round 0) run the skeleton's
//! lockstep round, so the wavefront execution is byte-identical to the
//! lockstep one; the argument is on `Fabric::wave_rounds` below.

use crate::probe::{self, Phase, Stopwatch};
use crate::protocol::{Protocol, SliceApi, SliceEffect};
use crate::report::{LinkDelay, SimConfig, SimReport};
use crate::scheduler::{self, frontier_into, lockstep_round, Lane, Ledger, Phases};
use crate::state::NodeStore;
use crate::transport::{Transport, Wire};
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId, Partition};
use rayon::prelude::*;
use std::collections::HashMap;

/// What a wave task needs beyond its own lane: the run's fixed inputs.
#[derive(Clone, Copy)]
struct Run<'a> {
    graph: &'a Graph,
    partition: &'a Partition,
    cfg: &'a SimConfig,
}

/// The executor's one fork/join, and the only place `ccq-sim` meets its
/// thread pool — called where handlers run shard-parallel (the sliced
/// apply and a wave), never by a serialized lockstep round: run `body`
/// once per lane, concurrently, **lending** every
/// task its own lane in place (no [`Lane`] moves after [`Fabric::new`])
/// together with that lane's entry of `inputs`, and return the tasks'
/// results in shard order. The tasks share nothing mutable; what the
/// shards have in common — the report, the ferry, the staging API — the
/// caller folds from the results after the join, at the phase barrier, in
/// an order no scheduling can change.
fn fork<M: Send, I: Send, O: Send>(
    lanes: &mut [Lane<M>],
    inputs: Vec<I>,
    body: impl Fn(usize, &mut Lane<M>, I) -> O + Sync,
) -> Vec<O> {
    debug_assert_eq!(inputs.len(), lanes.len(), "one input per lane");
    let lent: Vec<_> = lanes.iter_mut().zip(inputs).enumerate().collect();
    lent.into_par_iter().map(|(shard, (lane, input))| body(shard, lane, input)).collect()
}

impl<M> Lane<M> {
    /// Execute one shard's side of a wave: `width` rounds of mature →
    /// apply → transmit against the lane's own store, wheel and slices.
    /// Handler effects apply in-task (sends stage into the lane's own
    /// outboxes — a handler's sends always leave the handling node, which
    /// is local; completions are logged for the commit replay), and every
    /// transmission carries a provisional sequence key. The arrivals phase
    /// is skipped: [`wave_width`] only admits rounds where `on_round` is a
    /// no-op. `task` is the shard's member slices and its ferry bucket:
    /// the cross-shard wires due to it during the wave (pre-drained, in
    /// (arrival, sequence) order), which the wave empties in place.
    fn wave<P: Protocol<Msg = M>>(
        &mut self,
        shard: usize,
        run: Run<'_>,
        shared: &P::Shared,
        task: (Vec<&mut P::Slice>, &mut Vec<Wire<M>>),
        start: Round,
        width: Round,
    ) -> Result<WaveOutcome<M>, SimError> {
        let Run { graph, partition, cfg } = run;
        let (mut slices, ferry_due) = task;
        let mut due = Vec::new();
        let mut sapi: SliceApi<M> = SliceApi::new(start, 0);
        let mut watch = Stopwatch::new(cfg.probe.timing);
        let mut out = WaveOutcome {
            transmits: Vec::with_capacity(width as usize),
            ferry_out: Vec::new(),
            completions: Vec::with_capacity(width as usize),
            received: Vec::new(),
            queue_wait: 0,
            max_inport_depth: 0,
            max_outbox_depth: 0,
            idle_after: Vec::with_capacity(width as usize),
            mature_micros: 0,
            apply_micros: 0,
            transmit_micros: 0,
        };

        for offset in 0..width {
            let r = start + offset;
            watch.reset();
            // Maturity: own wheel plus the pre-drained ferry wires now due,
            // merged in (arrival, sequence) order — pre-wave wires carry
            // true numbers, in-wave wires provisional keys, and the key
            // layout makes the mixed sort equal the final numbering's order.
            let due_len = ferry_due.iter().take_while(|w| w.arrival <= r).count();
            due.extend(ferry_due.drain(..due_len));
            out.max_inport_depth = out.max_inport_depth.max(self.mature(r, &mut due));
            out.mature_micros += watch.lap();

            // Apply: the lane's receive walk, running the handlers and
            // draining their effects in-task.
            sapi.set_round(r);
            let mut round_completions = Vec::new();
            out.queue_wait += self.receive(r, cfg, |store, v, inb| {
                out.received.push(v);
                sapi.set_node(v);
                let slice = member_slice(partition, &mut slices, v);
                P::on_message(shared, slice, &mut sapi, v, inb.src, inb.msg);
                for effect in sapi.effects.drain(..) {
                    match effect {
                        SliceEffect::Send { to, msg } => {
                            if to >= graph.n() || !graph.has_edge(v, to) {
                                return Err(SimError::InvalidSend { from: v, to, round: r });
                            }
                            let depth = store.stage(v, to, msg);
                            out.max_outbox_depth = out.max_outbox_depth.max(depth);
                        }
                        SliceEffect::Complete { node, value } => {
                            round_completions.push((v, node, value));
                        }
                    }
                }
                Ok(())
            })?;
            out.completions.push(round_completions);
            out.apply_micros += watch.lap();

            // Transmit under provisional keys: the lane's outbox walk, in
            // ascending node order, so the per-transport call order stays
            // monotone in the eventual true numbering, as the timing
            // wheel's batch order requires.
            let mut round_transmits: Vec<(NodeId, u64)> = Vec::new();
            self.send_walk(cfg, r, |wheel, v, dst, msg| {
                let idx = match round_transmits.last_mut() {
                    Some((sender, count)) if *sender == v => {
                        *count += 1;
                        *count - 1
                    }
                    _ => {
                        round_transmits.push((v, 1));
                        0
                    }
                };
                if partition.shard_of(dst) == shard {
                    wheel.transmit(v, dst, msg, r, surrogate_seq(offset, v, idx));
                } else {
                    out.ferry_out.push((offset, v, idx, dst, msg));
                }
            });
            out.transmits.push(round_transmits);
            out.transmit_micros += watch.lap();

            out.idle_after.push(self.is_idle());
        }
        Ok(out)
    }
}

/// Distribute the disjoint `&mut` borrows of a protocol's slices to their
/// shards, each bucket sized to its shard up front. `iter_mut` yields
/// non-overlapping borrows and both `0..n` and `members(shard)` ascend, so
/// bucket `i` of a shard is exactly `members(shard)[i]`'s slice.
fn slice_buckets<'s, S>(partition: &Partition, slices: &'s mut [S]) -> Vec<Vec<&'s mut S>> {
    let mut buckets: Vec<Vec<&mut S>> =
        (0..partition.k()).map(|s| Vec::with_capacity(partition.members(s).len())).collect();
    for (v, slice) in slices.iter_mut().enumerate() {
        buckets[partition.shard_of(v)].push(slice);
    }
    buckets
}

/// The slice of `v` in its shard's bucket of [`slice_buckets`]: bucket
/// order is member order, so `v`'s index there is its rank.
fn member_slice<'b, S>(partition: &Partition, bucket: &'b mut [&mut S], v: NodeId) -> &'b mut S {
    &mut *bucket[partition.place(v).rank()]
}

/// What the sliced deliver phase hands from the lane tasks to the barrier
/// replay: one effect stream per lane (a single [`SliceApi`] reused
/// across the lane's nodes — one allocation per lane per round, not per
/// node) and one `(node, stream, src, effects-end)` record per delivered
/// message, sorted by node. Lanes process their members in ascending
/// order, so the replay consumes every stream strictly in order.
struct Applied<M> {
    streams: Vec<std::vec::IntoIter<SliceEffect<M>>>,
    deliveries: Vec<(NodeId, usize, NodeId, usize)>,
}

/// The sharded executor's own state: the partition it serves, one lane
/// per shard and the inter-shard ferry. The report, the staging API and
/// the phase clock are the scheduler's [`Ledger`], lent to every phase.
struct Fabric<'a, M> {
    partition: &'a Partition,
    lanes: Vec<Lane<M>>,
    ferry: Transport<M>,
    /// The due ferry wires per destination shard, filled by
    /// [`Fabric::ferry_buckets`] and emptied in place by the lanes'
    /// maturity (storage kept across rounds).
    ferry_due: Vec<Vec<Wire<M>>>,
    /// Reusable frontier scratch for the global deliver and transmit walks.
    scratch: Vec<NodeId>,
}

impl<'a, M: Send + std::fmt::Debug> Fabric<'a, M> {
    /// One lane per shard under the intra-shard `delay`, and the ferry
    /// under `inter_delay`.
    fn new(partition: &'a Partition, delay: LinkDelay, inter_delay: LinkDelay) -> Self {
        Fabric {
            partition,
            // Membership-sized: a shard of a large topology holds queues
            // for its own members only, in slots numbered by ascending id
            // (not n-wide Vecs), found through the partition's one table.
            lanes: (0..partition.k())
                .map(|s| Lane::new(NodeStore::of_shard(partition, s), delay))
                .collect(),
            ferry: Transport::new(inter_delay),
            ferry_due: (0..partition.k()).map(|_| Vec::new()).collect(),
            scratch: Vec::new(),
        }
    }

    /// Apply the effects of the handler that ran at `node` through the
    /// ledger's one effect drain, staging sends in `node`'s lane and slot
    /// (a handler's sends leave the node it ran at).
    fn apply(
        &mut self,
        led: &mut Ledger<'_, M>,
        round: Round,
        node: NodeId,
        effects: impl IntoIterator<Item = SliceEffect<M>>,
    ) -> Result<(), SimError> {
        let at = self.partition.place(node);
        let store = &mut self.lanes[at.shard()].store;
        led.apply_effects(round, node, effects, |f, t, m| store.stage_at(at.rank(), f, t, m))
    }

    /// Ferry maturity: bucket the cross-shard wires due by `round` into
    /// [`Fabric::ferry_due`] by their destination shard (sequentially —
    /// the ferry is shared).
    fn ferry_buckets(&mut self, round: Round) {
        let (partition, buckets) = (self.partition, &mut self.ferry_due);
        self.ferry.drain_due(round, |w| buckets[partition.shard_of(w.dst)].push(w));
    }

    /// The global frontier of the queues `take` lists: the lanes' disjoint
    /// frontiers, concatenated and sorted into ascending node order — the
    /// monolith's visit order. Returned in the fabric's reusable scratch;
    /// the caller hands it back.
    fn frontier(
        &mut self,
        cfg: &SimConfig,
        take: fn(&mut NodeStore<M>, &mut Vec<NodeId>),
    ) -> Vec<NodeId> {
        let mut frontier = std::mem::take(&mut self.scratch);
        frontier.clear();
        for lane in &mut self.lanes {
            frontier_into(&mut lane.store, cfg, take, &mut frontier);
        }
        frontier.sort_unstable();
        frontier
    }

    /// Sliced deliver, shard-parallel half: every lane pops its due
    /// in-port messages **and applies** them against its own members'
    /// slices, staging effects.
    fn apply_in_tasks<P: Protocol<Msg = M>>(
        &mut self,
        led: &mut Ledger<'_, M>,
        protocol: &mut P,
        round: Round,
    ) -> Result<Applied<M>, SimError> {
        let (cfg, partition) = (led.cfg, self.partition);
        let (shared, slices) = protocol.split();
        let buckets = slice_buckets(partition, slices);
        let done = fork(&mut self.lanes, buckets, |_, lane, mut slices| -> Result<_, SimError> {
            let mut sapi = SliceApi::new(round, 0);
            let mut deliveries = Vec::new();
            let queue_wait = lane.receive(round, cfg, |_, v, inb| {
                sapi.set_node(v);
                let slice = member_slice(partition, &mut slices, v);
                P::on_message(shared, slice, &mut sapi, v, inb.src, inb.msg);
                deliveries.push((v, inb.src, sapi.effects.len()));
                Ok(())
            })?;
            Ok((sapi, deliveries, queue_wait))
        });

        let mut applied =
            Applied { streams: Vec::with_capacity(done.len()), deliveries: Vec::new() };
        for outcome in done {
            let (sapi, deliveries, queue_wait) = outcome?;
            led.report.queue_wait_rounds += queue_wait;
            let s = applied.streams.len();
            applied.deliveries.extend(deliveries.into_iter().map(|(v, src, end)| (v, s, src, end)));
            applied.streams.push(sapi.into_effects().into_iter());
        }
        // Lanes hold disjoint nodes and recorded their deliveries in
        // ascending node order, so a stable sort by node id recovers the
        // monolith's global delivery order.
        applied.deliveries.sort_by_key(|&(v, _, _, _)| v);
        Ok(applied)
    }

    /// Sliced deliver, barrier half: per message, the delivery
    /// bookkeeping, then its effect segment through the same effect drain
    /// the serialized path applies — identical event sequence.
    fn replay(
        &mut self,
        led: &mut Ledger<'_, M>,
        applied: Applied<M>,
        round: Round,
    ) -> Result<(), SimError> {
        let Applied { mut streams, deliveries } = applied;
        let mut consumed = vec![0usize; streams.len()];
        for (v, s, src, end) in deliveries {
            led.note_delivery(round, v, src);
            let stream = &mut streams[s];
            let segment = (consumed[s]..end)
                .map(|_| stream.next().expect("delivery records cover every effect"));
            consumed[s] = end;
            self.apply(led, round, v, segment)?;
        }
        Ok(())
    }

    /// One wave of bounded-lag **wavefront pipelining**
    /// ([`SimConfig::wavefront_lag`] = `d` ≥ 1): the `width ≤ d` rounds
    /// from `round` on, which [`wave_width`] found provably free of global
    /// coupling — no probe observation, no scheduled protocol activity
    /// ([`Protocol::next_active_round`]), no tracing, not round 0. Every
    /// lane executes all of them in a single forked task: maturing its
    /// own wheel plus the pre-bucketed due ferry wires, applying its
    /// nodes' handlers against their slices, and transmitting under
    /// *provisional* sequence keys. The serialized **wave commit** then
    ///
    /// 1. claims the true per-node sequence blocks in global
    ///    (round, node) order — the lockstep assignment order — and
    ///    remaps every still-in-flight provisional key
    ///    ([`Transport::remap_seqs`]); the provisional keys pack
    ///    (round offset, node, index) above a tag bit, so they sort in
    ///    exactly the final numbering's order even while mixed with
    ///    pre-wave true sequence numbers;
    /// 2. ferries the cross-shard sends in true sequence order (the call
    ///    order the shared ferry's FIFO clamp and per-message delay draws
    ///    depend on);
    /// 3. replays completions round by round in ascending handler order,
    ///    through the same per-round drain as the lockstep path;
    /// 4. re-derives quiescence: the earliest wave round after which
    ///    every store, wheel and the ferry were empty is where the
    ///    lockstep run would have terminated or fast-forwarded, and any
    ///    wave rounds executed past it were provably no-ops.
    ///
    /// Safety rests on the ferry bound `d ≤` minimum inter-shard delay
    /// ([`validate_wavefront`]): a cross-shard wire sent during a wave
    /// cannot arrive within it, so lanes never observe each other
    /// mid-wave. Rounds that do couple run through the skeleton's
    /// [`lockstep_round`] ([`SimConfig::parallel_apply`] included), so the
    /// whole execution — reports, probe digests, recordings — is
    /// byte-identical to the lockstep one.
    ///
    /// Returns the round the quiescence / wakeup decision falls on and
    /// whether the fabric was idle there.
    fn wave_rounds<P: Protocol<Msg = M>>(
        &mut self,
        led: &mut Ledger<'_, M>,
        protocol: &mut P,
        round: Round,
        width: Round,
    ) -> Result<(Round, bool), SimError> {
        let run = Run { graph: led.graph, partition: self.partition, cfg: led.cfg };
        led.watch.reset();
        let last = round + width - 1;
        // Pre-bucket every ferry wire due during the wave; the lag
        // bound guarantees nothing transmitted *during* the wave
        // could join this set. Buckets inherit the ferry's
        // (arrival, sequence) drain order.
        self.ferry_buckets(last);
        let residual_ferry = !self.ferry.is_idle();
        let max_pending_arrival =
            self.ferry_due.iter().flatten().map(|w| w.arrival).max().unwrap_or(0);

        let done: Vec<WaveOutcome<M>> = {
            let (shared, slices) = protocol.split();
            let buckets = self.ferry_due.iter_mut();
            let tasks = slice_buckets(run.partition, slices).into_iter().zip(buckets).collect();
            fork(&mut self.lanes, tasks, |shard, lane, task| {
                lane.wave::<P>(shard, run, shared, task, round, width)
            })
            .into_iter()
            .collect::<Result<_, _>>()?
        };
        let parallel_micros = led.watch.lap();

        // ---- wave commit (serialized) ----
        // (1) True sequence blocks, claimed per round offset in
        // ascending node order — the lockstep assignment order.
        let mut bases: HashMap<(Round, NodeId), u64> = HashMap::new();
        for offset in 0..width {
            let mut per_round: Vec<(NodeId, u64)> = Vec::new();
            for out in &done {
                per_round.extend(out.transmits[offset as usize].iter().copied());
            }
            per_round.sort_unstable_by_key(|&(v, _)| v);
            for (v, count) in per_round {
                bases.insert((offset, v), led.report.messages_sent);
                led.report.messages_sent += count;
            }
        }

        let mut ferry_sends: Vec<(u64, Round, NodeId, NodeId, M)> = Vec::new();
        let mut min_ferry_out_round = Round::MAX;
        let mut all_completions: Vec<Vec<(NodeId, NodeId, u64)>> =
            (0..width).map(|_| Vec::new()).collect();
        let mut lane_idle: Vec<Vec<bool>> = Vec::with_capacity(done.len());
        let (mut wave_mature, mut wave_apply, mut wave_transmit) = (0u64, 0u64, 0u64);
        let report = &mut led.report;
        for (lane, out) in self.lanes.iter_mut().zip(done) {
            // (2a) Rewrite the provisional keys on this lane's
            // still-in-flight wires to the true numbers.
            lane.transport.remap_seqs(|seq| {
                if seq & SURROGATE_BIT == 0 {
                    return seq;
                }
                let (offset, node, idx) = decode_surrogate(seq);
                bases[&(offset, node)] + idx + 1
            });
            for (offset, src, idx, dst, msg) in out.ferry_out {
                let seq = bases[&(offset, src)] + idx + 1;
                min_ferry_out_round = min_ferry_out_round.min(round + offset);
                ferry_sends.push((seq, round + offset, src, dst, msg));
            }
            for (offset, events) in out.completions.into_iter().enumerate() {
                all_completions[offset].extend(events);
            }
            for v in out.received {
                report.received_by_node[v] += 1;
            }
            report.queue_wait_rounds += out.queue_wait;
            report.max_inport_depth = report.max_inport_depth.max(out.max_inport_depth);
            report.max_outbox_depth = report.max_outbox_depth.max(out.max_outbox_depth);
            lane_idle.push(out.idle_after);
            wave_mature = wave_mature.max(out.mature_micros);
            wave_apply = wave_apply.max(out.apply_micros);
            wave_transmit = wave_transmit.max(out.transmit_micros);
        }

        // (2b) Ferry the cross-shard sends in true sequence order —
        // the serialized call order the shared clamp state and
        // per-message draws depend on.
        ferry_sends.sort_unstable_by_key(|e| e.0);
        for (seq, send_round, src, dst, msg) in ferry_sends {
            report.cross_shard_messages += 1;
            self.ferry.transmit(src, dst, msg, send_round, seq);
        }

        // (3) Replay completions per round in ascending handler-node
        // order (lanes hold disjoint nodes, so the stable sort
        // recovers the lockstep delivery order), through the same
        // effect drain — round stamps and completion counters accrue
        // exactly as in lockstep.
        for (offset, events) in (0..).zip(&mut all_completions) {
            events.sort_by_key(|&(handler, _, _)| handler);
            for &(handler, node, value) in events.iter() {
                let complete = SliceEffect::Complete { node, value };
                self.apply(led, round + offset, handler, [complete])?;
            }
        }
        let commit_micros = led.watch.lap();

        if run.cfg.probe.timing {
            // Each phase accrues its cross-shard critical path (max
            // over the per-task laps); the serialized commit counts
            // as transmit work (it is the sequence/ferry half of the
            // transmit phase). The per-round maximum treats the wave
            // as `width` equal slices of its wall clock.
            let timing = &mut led.timing;
            timing.mature_micros += wave_mature;
            timing.apply_micros += wave_apply;
            timing.transmit_micros += wave_transmit + commit_micros;
            let per_round = (parallel_micros + commit_micros).div_ceil(width.max(1));
            timing.max_round_micros = timing.max_round_micros.max(per_round);
        }

        // (4) Quiescence, re-derived: global idle at wave round `r`
        // requires every lane idle after `r`, no ferry wire due
        // beyond the wave, every pre-drained ferry wire matured by
        // `r`, and no wave send ferried at or before `r` (its arrival
        // would be pending). Wave rounds past the first idle point
        // touched nothing (no arrivals in a wave, nothing left to
        // mature or deliver), so acting on it here reproduces the
        // lockstep termination or wakeup fast-forward exactly.
        let idle_at = (round..=last).find(|&r| {
            lane_idle.iter().all(|flags| flags[(r - round) as usize])
                && !residual_ferry
                && max_pending_arrival <= r
                && min_ferry_out_round > r
        });
        Ok(idle_at.map_or((last, false), |idle_round| (idle_round, true)))
    }
}

impl<P: Protocol> Phases<P> for Fabric<'_, P::Msg>
where
    P::Msg: Send,
{
    /// Serialized on every path: the protocol is one value, and admission
    /// reads the run-global backlog. Sends stage in the sender's lane.
    fn arrivals(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) -> Result<(), SimError> {
        let (partition, lanes) = (self.partition, &mut self.lanes);
        led.drain(round, |f, t, m| {
            let at = partition.place(f);
            lanes[at.shard()].store.stage_at(at.rank(), f, t, m)
        })
    }

    /// Bucket the due ferry wires, then mature lane by lane — the lanes
    /// hold disjoint nodes, so the order is immaterial — folding the
    /// deepest in-port into the report.
    fn mature(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) {
        self.ferry_buckets(round);
        for (lane, due) in self.lanes.iter_mut().zip(&mut self.ferry_due) {
            let depth = lane.mature(round, due);
            led.report.max_inport_depth = led.report.max_inport_depth.max(depth);
        }
    }

    /// One walk of the global in-port frontier, each node popping from its
    /// own lane with the handler and its effects applied inline, exactly as
    /// the monolith's receive walk; under [`SimConfig::parallel_apply`] the
    /// handlers run in the lane tasks instead and replay at the barrier.
    fn deliver(
        &mut self,
        led: &mut Ledger<'_, P::Msg>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(), SimError> {
        if led.cfg.parallel_apply {
            let applied = self.apply_in_tasks(led, protocol, round)?;
            let micros = led.lap();
            led.timing.apply_micros += micros;
            return self.replay(led, applied, round);
        }
        let cfg = led.cfg;
        let (shared, slices) = protocol.split();
        let frontier = self.frontier(cfg, NodeStore::take_inport_frontier);
        let mut sapi = led.api.lend_slice_api(0);
        for &v in &frontier {
            // One read of the place table: the lane to pop from and to
            // stage the handler's sends in, and `v`'s slot there.
            let at = self.partition.place(v);
            let store = &mut self.lanes[at.shard()].store;
            if cfg.faults.is_down(v, round) {
                store.relist_inport(v);
                continue;
            }
            for _ in 0..cfg.recv_budget {
                let Some(inb) = store.pop_inport_at(at.rank(), v) else { break };
                led.report.queue_wait_rounds += round - inb.arrival;
                led.note_delivery(round, v, inb.src);
                sapi.set_node(v);
                P::on_message(shared, &mut slices[v], &mut sapi, v, inb.src, inb.msg);
                let effects = sapi.effects.drain(..);
                led.apply_effects(round, v, effects, |f, t, m| store.stage_at(at.rank(), f, t, m))?;
            }
        }
        led.api.reclaim(sapi);
        self.scratch = frontier;
        Ok(())
    }

    /// One walk of the global outbox frontier, numbering sends exactly as
    /// the monolith's walk does; cross-shard messages ride the ferry, the
    /// rest the sending lane's own wheel.
    fn transmit(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) {
        let (partition, cfg) = (self.partition, led.cfg);
        let frontier = self.frontier(cfg, NodeStore::take_outbox_frontier);
        for &v in &frontier {
            let at = partition.place(v);
            let lane = &mut self.lanes[at.shard()];
            if cfg.holds_transmit(round, v) {
                lane.store.relist_outbox(v);
                continue;
            }
            for _ in 0..cfg.send_budget {
                let Some((dst, msg)) = lane.store.pop_outbox_at(at.rank(), v) else { break };
                let seq = led.note_transmit(round, v, dst);
                if partition.shard_of(dst) == at.shard() {
                    lane.transport.transmit(v, dst, msg, round, seq);
                } else {
                    led.report.cross_shard_messages += 1;
                    self.ferry.transmit(v, dst, msg, round, seq);
                }
            }
        }
        self.scratch = frontier;
    }

    /// Hand every lane's store and wheel plus the ferry to the canonical
    /// renderer, which hashes them layout-independently (see
    /// [`crate::probe`]) — so the digests match the monolith's whenever
    /// the executions are equivalent.
    fn observe(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round, phase: Phase, token: &str) {
        let stores: Vec<&NodeStore<P::Msg>> = self.lanes.iter().map(|l| &l.store).collect();
        let mut wheels: Vec<&Transport<P::Msg>> = self.lanes.iter().map(|l| &l.transport).collect();
        wheels.push(&self.ferry);
        let report = &mut led.report;
        probe::observe_phase(&led.cfg.probe, round, phase, &stores, &wheels, token, report);
    }

    fn idle(&self) -> bool {
        self.ferry.is_idle() && self.lanes.iter().all(Lane::is_idle)
    }

    /// One lockstep round, or — under [`SimConfig::wavefront_lag`] > 0,
    /// wherever [`wave_width`] finds room — one wave of pipelined rounds.
    fn step(
        &mut self,
        led: &mut Ledger<'_, P::Msg>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(Round, bool), SimError> {
        // A width of 1 is a coupled round (always, without a lag; under
        // one: round 0, observed, scheduled arrivals, tracing).
        let lag = led.cfg.wavefront_lag;
        let width = if lag == 0 { 1 } else { wave_width(protocol, led.cfg, round, lag) };
        if width > 1 {
            return self.wave_rounds(led, protocol, round, width);
        }
        lockstep_round(self, led, protocol, round)?;
        Ok((round, Phases::<P>::idle(self)))
    }
}

/// An executable sharded simulation: graph + partition + protocol + config.
/// Every apply path — the global in-port walk, the lane tasks of
/// [`SimConfig::parallel_apply`], the wavefront — calls the protocol's one
/// handler on the slices directly, so every [`SimConfig`] strategy flag can
/// be honoured for every protocol.
pub struct ShardedSimulator<'g, P: Protocol> {
    graph: &'g Graph,
    partition: Partition,
    protocol: P,
    config: SimConfig,
    inter_delay: LinkDelay,
}

impl<'g, P: Protocol> ShardedSimulator<'g, P>
where
    P::Msg: Send,
{
    /// Create a sharded simulator. The inter-shard ferry defaults to the
    /// intra-shard delay policy (`config.link_delay`), under which the
    /// execution reproduces the single-fabric [`crate::Simulator`] exactly.
    pub fn new(graph: &'g Graph, partition: Partition, protocol: P, config: SimConfig) -> Self {
        let inter_delay = config.link_delay;
        ShardedSimulator { graph, partition, protocol, config, inter_delay }
    }

    /// Builder-style: set the delay policy of the inter-shard ferry.
    pub fn with_inter_delay(mut self, delay: LinkDelay) -> Self {
        self.inter_delay = delay;
        self
    }

    /// Run to quiescence, returning the report and final protocol state:
    /// the scheduler's one loop over the fabric, whose deliver phase
    /// honours [`SimConfig::parallel_apply`] and whose step pipelines
    /// waves under [`SimConfig::wavefront_lag`] > 0. The report is
    /// byte-identical whichever strategy runs.
    pub fn run_with_state(self) -> Result<(SimReport, P), SimError> {
        let ShardedSimulator { graph, partition, protocol, config: cfg, inter_delay } = self;
        if cfg.wavefront_lag > 0 {
            validate_wavefront(graph, &cfg, inter_delay)?;
        }
        scheduler::run(graph, &cfg, protocol, || {
            if partition.n() != graph.n() {
                return Err(SimError::invalid_config(
                    "shard partition does not cover the graph's vertex set",
                ));
            }
            Ok(Fabric::new(&partition, cfg.link_delay, inter_delay))
        })
    }

    /// Run to quiescence, returning only the report.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_with_state().map(|(r, _)| r)
    }
}

/// What [`SimConfig::wavefront_lag`] > 0 needs of a run, checked
/// constructively before anything executes.
fn validate_wavefront(graph: &Graph, cfg: &SimConfig, ferry: LinkDelay) -> Result<(), SimError> {
    let lag = cfg.wavefront_lag;
    let ferry_floor = ferry.min_delay();
    if lag > ferry_floor {
        return Err(SimError::invalid_config(format!(
            "wavefront lag {lag} exceeds the inter-shard ferry's minimum delay \
             {ferry_floor} ({}): a shard could outrun a wire already in flight; \
             lower the lag or slow the ferry",
            ferry.name()
        )));
    }
    if cfg.link_delay.varies_per_message() {
        return Err(SimError::invalid_config(format!(
            "wavefront pipelining cannot run with per-message intra-shard delays \
             ({}): delay draws key off sequence numbers, which in-wave sends \
             receive only at the wave commit; use a constant-per-link policy or \
             drop the wavefront",
            cfg.link_delay.name()
        )));
    }
    if cfg.faults.is_active() {
        return Err(SimError::invalid_config(
            "wavefront pipelining cannot run with fault injection: a crash or \
             recovery round couples the shards (every shard must observe the \
             frozen node in lockstep, mid-wave a shard would run past it); drop \
             --wavefront or the --fault plan",
        ));
    }
    if cfg.send_budget as u64 >= 1 << SURROGATE_IDX_BITS {
        return Err(SimError::invalid_config(format!(
            "wavefront pipelining supports send budgets below {} (got {}): the \
             provisional sequence key reserves 23 bits for the per-node index",
            1u64 << SURROGATE_IDX_BITS,
            cfg.send_budget
        )));
    }
    if graph.n() as u64 > 1 << SURROGATE_NODE_BITS {
        return Err(SimError::invalid_config(format!(
            "wavefront pipelining supports up to {} processors (got {}): the \
             provisional sequence key reserves 32 bits for the node id",
            1u64 << SURROGATE_NODE_BITS,
            graph.n()
        )));
    }
    Ok(())
}

/// Tag bit of a provisional in-wave sequence key. True run-global
/// sequence numbers count transmissions and stay far below `2^63`, so the
/// tag also makes every provisional key sort *after* every true one —
/// matching the final numbering, where in-wave sends are newer than
/// anything already in flight.
const SURROGATE_BIT: u64 = 1 << 63;
/// Node-id bits of a provisional key (below the index bits).
const SURROGATE_NODE_BITS: u32 = 32;
/// Per-node message-index bits of a provisional key (lowest).
const SURROGATE_IDX_BITS: u32 = 23;
/// Widest wave the provisional key's 8 offset bits can express.
const MAX_WAVE_WIDTH: Round = 255;

/// Pack a provisional sequence key for the `idx`-th message node `node`
/// transmits in wave round `offset`. The field order (offset, node, idx)
/// is the order the wave commit assigns true numbers in, so provisional
/// keys compare exactly like the true numbers they will become.
fn surrogate_seq(offset: Round, node: NodeId, idx: u64) -> u64 {
    debug_assert!(offset <= MAX_WAVE_WIDTH);
    debug_assert!((node as u64) < 1 << SURROGATE_NODE_BITS);
    debug_assert!(idx < 1 << SURROGATE_IDX_BITS);
    SURROGATE_BIT
        | (offset << (SURROGATE_NODE_BITS + SURROGATE_IDX_BITS))
        | ((node as u64) << SURROGATE_IDX_BITS)
        | idx
}

/// Unpack a provisional sequence key into (wave offset, node, index).
fn decode_surrogate(seq: u64) -> (Round, NodeId, u64) {
    let body = seq & !SURROGATE_BIT;
    (
        body >> (SURROGATE_NODE_BITS + SURROGATE_IDX_BITS),
        ((body >> SURROGATE_IDX_BITS) & ((1 << SURROGATE_NODE_BITS) - 1)) as NodeId,
        body & ((1 << SURROGATE_IDX_BITS) - 1),
    )
}

/// Width of the wave starting at `round`: the longest stretch of at most
/// `lag` rounds free of global coupling. Round 0 (the serialized start
/// phase), traced runs, probe-observed rounds and rounds with scheduled
/// protocol activity ([`Protocol::next_active_round`]) all need the
/// global barrier; a width of 1 means "run a plain lockstep round".
fn wave_width<P: Protocol>(protocol: &P, cfg: &SimConfig, round: Round, lag: Round) -> Round {
    if round == 0 || cfg.trace {
        return 1;
    }
    let mut width = lag.min(MAX_WAVE_WIDTH).min(cfg.max_rounds - round + 1);
    if let Some(active) = protocol.next_active_round() {
        if active <= round {
            return 1;
        }
        width = width.min(active - round);
    }
    for offset in 0..width {
        if cfg.probe.observes(round + offset) {
            return offset.max(1);
        }
    }
    width.max(1)
}

/// What a shard's wave task hands back for the serialized wave commit.
struct WaveOutcome<M> {
    /// Per wave round: `(sender, transmitted count)` in ascending sender
    /// order — the block sizes the commit turns into true sequence bases.
    transmits: Vec<Vec<(NodeId, u64)>>,
    /// Cross-shard sends: `(wave offset, sender, per-sender index,
    /// destination, payload)`; true sequence numbers attach at commit.
    ferry_out: Vec<(Round, NodeId, u64, NodeId, M)>,
    /// Per wave round: `(handler, completing node, value)` in delivery
    /// order — replayed at commit in global handler order.
    completions: Vec<Vec<(NodeId, NodeId, u64)>>,
    /// The handling node of every delivery, for the receive profile.
    received: Vec<NodeId>,
    queue_wait: u64,
    max_inport_depth: usize,
    max_outbox_depth: usize,
    /// Whether this shard's queues and wheel were empty after each wave
    /// round (one flag per round offset).
    idle_after: Vec<bool>,
    mature_micros: u64,
    apply_micros: u64,
    transmit_micros: u64,
}

/// Convenience: run `protocol` on `graph` under `config`, sharded by
/// `partition` (ferry delay = the intra-shard policy).
pub fn run_protocol_sharded<P: Protocol>(
    graph: &Graph,
    partition: Partition,
    protocol: P,
    config: SimConfig,
) -> Result<SimReport, SimError>
where
    P::Msg: Send,
{
    ShardedSimulator::new(graph, partition, protocol, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::Walk;
    use crate::{SimApi, TraceKind};
    use ccq_graph::topology;

    /// Both apply paths of the one lockstep round.
    const APPLY_PATHS: [bool; 2] = [false, true];

    fn reports_equal_modulo_cross_shard(a: &SimReport, b: &SimReport) -> bool {
        let strip = |r: &SimReport| {
            let mut r = r.clone();
            r.cross_shard_messages = 0;
            serde_json::to_string(&r).unwrap()
        };
        strip(a) == strip(b)
    }

    #[test]
    fn fork_lends_every_shard_once_in_place_and_answers_in_shard_order() {
        use std::sync::Mutex;
        for k in [1, 3] {
            let part = Partition::contiguous(9, k);
            let mut fab: Fabric<()> = Fabric::new(&part, LinkDelay::Unit, LinkDelay::Unit);
            let lent = Mutex::new(Vec::new());
            let inputs: Vec<usize> = (0..k).map(|shard| 10 * shard).collect();
            let members = |lane: &Lane<()>| lane.store.members().collect::<Vec<_>>();
            let out = fork(&mut fab.lanes, inputs, |shard, lane, input| {
                lent.lock().unwrap().push(shard);
                // A mark left in the lent lane: it must still be there,
                // on the same lane, after the join.
                lane.frontier.push(shard);
                (shard, input, members(lane))
            });
            let want: Vec<_> =
                (0..k).map(|shard| (shard, 10 * shard, part.members(shard).to_vec())).collect();
            assert_eq!(out, want, "k = {k}: results in shard order, each with its own input");
            let mut lent = lent.into_inner().unwrap();
            lent.sort_unstable();
            assert_eq!(lent, (0..k).collect::<Vec<_>>(), "k = {k}: every lane lent exactly once");
            for (shard, lane) in fab.lanes.iter().enumerate() {
                assert_eq!(members(lane), part.members(shard), "k = {k}: lanes out of order");
                assert_eq!(lane.frontier, [shard], "k = {k}: the lane was not lent in place");
            }
        }
    }

    #[test]
    fn one_shard_reproduces_the_monolith_exactly() {
        let g = topology::path(9);
        let single = crate::run_protocol(&g, Walk::new(9), SimConfig::strict()).unwrap();
        for parallel in APPLY_PATHS {
            let cfg = SimConfig::strict().with_parallel_apply(parallel);
            let sharded =
                run_protocol_sharded(&g, Partition::contiguous(9, 1), Walk::new(9), cfg).unwrap();
            assert_eq!(sharded.cross_shard_messages, 0);
            assert!(reports_equal_modulo_cross_shard(&single, &sharded), "parallel = {parallel}");
        }
    }

    #[test]
    fn k_shards_match_the_monolith_and_count_crossings() {
        let g = topology::path(12);
        let single = crate::run_protocol(&g, Walk::new(12), SimConfig::strict()).unwrap();
        for k in [2, 3, 4] {
            for parallel in APPLY_PATHS {
                let part = Partition::contiguous(12, k);
                let cfg = SimConfig::strict().with_parallel_apply(parallel);
                let sharded = run_protocol_sharded(&g, part, Walk::new(12), cfg).unwrap();
                // The token crosses each of the k−1 shard boundaries once.
                assert_eq!(sharded.cross_shard_messages, k as u64 - 1);
                assert!(
                    reports_equal_modulo_cross_shard(&single, &sharded),
                    "k = {k}, parallel = {parallel} diverged from the single-fabric run"
                );
            }
        }
    }

    #[test]
    fn jitter_equivalence_holds_via_global_sequencing() {
        let g = topology::path(16);
        let cfg = SimConfig::strict().with_jitter(4, 99);
        let single = crate::run_protocol(&g, Walk::new(16), cfg).unwrap();
        for parallel in APPLY_PATHS {
            let sharded = run_protocol_sharded(
                &g,
                Partition::striped(16, 4),
                Walk::new(16),
                cfg.with_parallel_apply(parallel),
            )
            .unwrap();
            assert!(reports_equal_modulo_cross_shard(&single, &sharded), "parallel = {parallel}");
            assert!(sharded.cross_shard_messages > 0);
        }
    }

    #[test]
    fn slow_ferry_stretches_the_walk() {
        let g = topology::path(8);
        for parallel in APPLY_PATHS {
            let sim = || {
                ShardedSimulator::new(
                    &g,
                    Partition::contiguous(8, 2),
                    Walk::new(8),
                    SimConfig::strict().with_parallel_apply(parallel),
                )
            };
            let fast = sim().run().unwrap();
            let slow = sim().with_inter_delay(LinkDelay::Fixed { delay: 10 }).run().unwrap();
            // One boundary crossing at 10 rounds instead of 1.
            assert_eq!(slow.rounds, fast.rounds + 9);
            assert_eq!(slow.ops(), fast.ops());
        }
    }

    #[test]
    fn parallel_apply_is_byte_identical_and_updates_slices() {
        let g = topology::path(12);
        for delay in [LinkDelay::Unit, LinkDelay::Jitter { max: 3, seed: 5 }] {
            let cfg = SimConfig::strict().with_link_delay(delay).with_trace();
            let serial =
                run_protocol_sharded(&g, Partition::striped(12, 3), Walk::new(12), cfg).unwrap();
            let (sliced, proto) = ShardedSimulator::new(
                &g,
                Partition::striped(12, 3),
                Walk::new(12),
                cfg.with_parallel_apply(true),
            )
            .run_with_state()
            .unwrap();
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&sliced).unwrap(),
                "parallel apply diverged under {}",
                delay.name()
            );
            assert_eq!(proto.visits, vec![1; 12], "slices must see every delivery");
        }
    }

    #[test]
    fn short_slice_vector_is_invalid_config_not_a_hang() {
        /// Violates the `split` contract: fewer slices than processors.
        struct Short {
            n: usize,
            units: Vec<u64>,
        }
        impl Protocol for Short {
            type Msg = ();
            type Slice = u64;
            type Shared = usize;
            fn split(&mut self) -> (&usize, &mut [u64]) {
                (&self.n, &mut self.units)
            }
            fn on_start(&mut self, api: &mut SimApi<()>) {
                api.send(0, 1, ());
            }
            fn on_message(
                _: &usize,
                slice: &mut u64,
                api: &mut SliceApi<()>,
                node: NodeId,
                _: NodeId,
                _: (),
            ) {
                *slice += 1;
                api.complete(node, *slice);
            }
        }
        let g = topology::path(6);
        let short = || Short { n: 6, units: vec![0; 2] };
        let mut errs = vec![crate::run_protocol(&g, short(), SimConfig::strict()).unwrap_err()];
        for parallel in APPLY_PATHS {
            let cfg = SimConfig::strict().with_parallel_apply(parallel);
            errs.push(
                run_protocol_sharded(&g, Partition::contiguous(6, 2), short(), cfg).unwrap_err(),
            );
        }
        for err in errs {
            assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
            assert!(err.to_string().contains("one slice per processor"), "{err}");
        }
    }

    #[test]
    fn perturbation_at_a_missing_node_is_invalid_config_on_both_executors() {
        use crate::ProbeSpec;
        let g = topology::path(3);
        let cfg = SimConfig::strict().with_probe(ProbeSpec::OFF.with_perturbation(1, 99));
        for err in [
            crate::run_protocol(&g, Walk::new(3), cfg).unwrap_err(),
            run_protocol_sharded(&g, Partition::contiguous(3, 2), Walk::new(3), cfg).unwrap_err(),
        ] {
            let msg = err.to_string();
            assert!(matches!(err, SimError::InvalidConfig { .. }), "{msg}");
            assert!(msg.contains("node 99") && msg.contains("3 nodes"), "{msg}");
        }
        // The last real node is still a legal target.
        let cfg = SimConfig::strict().with_probe(ProbeSpec::OFF.with_perturbation(1, 2));
        crate::run_protocol(&g, Walk::new(3), cfg).unwrap();
    }

    #[test]
    fn sharded_numbering_and_transmit_trace_equal_the_monolith() {
        // Across delay policies (including per-message jitter, where the
        // sequence numbering drives the draws and the FIFO clamp) and with
        // tracing on, the fabric's transmit walk over four striped shards
        // must number and trace every send exactly as the monolith does.
        let g = topology::path(16);
        for delay in
            [LinkDelay::Unit, LinkDelay::Fixed { delay: 3 }, LinkDelay::Jitter { max: 4, seed: 7 }]
        {
            let cfg = SimConfig::strict().with_link_delay(delay).with_trace();
            let single = crate::run_protocol(&g, Walk::new(16), cfg).unwrap();
            assert!(single.trace.iter().any(|e| e.kind == TraceKind::Transmit));
            let sharded =
                run_protocol_sharded(&g, Partition::striped(16, 4), Walk::new(16), cfg).unwrap();
            assert!(
                reports_equal_modulo_cross_shard(&single, &sharded),
                "sharded transmit diverged from the monolith under {}",
                delay.name()
            );
        }
    }

    #[test]
    fn wavefront_is_byte_identical_to_lockstep_on_a_slow_ferry() {
        let g = topology::path(12);
        let part = || Partition::contiguous(12, 3);
        let run = |cfg: SimConfig| {
            ShardedSimulator::new(&g, part(), Walk::new(12), cfg)
                .with_inter_delay(LinkDelay::Fixed { delay: 6 })
                .run_with_state()
                .unwrap()
        };
        let (lockstep, _) = run(SimConfig::strict());
        let (wave, proto) = run(SimConfig::strict().with_wavefront(4));
        assert_eq!(
            serde_json::to_string(&lockstep).unwrap(),
            serde_json::to_string(&wave).unwrap(),
            "wavefront diverged from lockstep"
        );
        assert_eq!(proto.visits, vec![1; 12], "slices must see every delivery");
        assert!(wave.cross_shard_messages > 0, "the walk must cross shards");
    }

    #[test]
    fn wavefront_checkpoints_match_lockstep_between_observed_rounds() {
        use crate::ProbeSpec;
        // Sparse checkpoints force the wave width to adapt around observed
        // rounds; the digest streams must still agree exactly — whichever
        // apply path the coupled (observed) rounds take.
        let g = topology::path(12);
        let probe = ProbeSpec::OFF.with_checkpoint_every(3).with_node_hashes(true);
        let part = || Partition::contiguous(12, 2);
        let run = |cfg: SimConfig| {
            ShardedSimulator::new(&g, part(), Walk::new(12), cfg)
                .with_inter_delay(LinkDelay::Fixed { delay: 5 })
                .run()
                .unwrap()
        };
        let lockstep = run(SimConfig::strict().with_probe(probe));
        assert!(!lockstep.checkpoints.is_empty(), "probe must checkpoint");
        for parallel in APPLY_PATHS {
            let cfg = SimConfig::strict().with_probe(probe).with_parallel_apply(parallel);
            let wave = run(cfg.with_wavefront(5));
            assert_eq!(lockstep.checkpoints, wave.checkpoints, "parallel = {parallel}");
            assert_eq!(lockstep.node_digests, wave.node_digests, "parallel = {parallel}");
        }
    }

    #[test]
    fn wavefront_rejections_are_constructive() {
        let g = topology::path(8);
        // Lag beyond the ferry's minimum delay names both values.
        let err = ShardedSimulator::new(
            &g,
            Partition::contiguous(8, 2),
            Walk::new(8),
            SimConfig::strict().with_wavefront(4),
        )
        .with_inter_delay(LinkDelay::Fixed { delay: 2 })
        .run()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("lag 4") && msg.contains("minimum delay 2"), "{msg}");
        // Per-message intra-shard delays cannot be numbered mid-wave.
        let err = ShardedSimulator::new(
            &g,
            Partition::contiguous(8, 2),
            Walk::new(8),
            SimConfig::strict().with_jitter(3, 1).with_wavefront(2),
        )
        .with_inter_delay(LinkDelay::Fixed { delay: 6 })
        .run()
        .unwrap_err();
        assert!(err.to_string().contains("per-message"), "{err}");
        // The single-fabric executor has no shards to pipeline or to
        // apply in: it rejects both strategy flags by name.
        for (cfg, flag) in [
            (SimConfig::strict().with_wavefront(2), "wavefront"),
            (SimConfig::strict().with_parallel_apply(true), "parallel_apply"),
        ] {
            let err = crate::run_protocol(&g, Walk::new(8), cfg).unwrap_err();
            assert!(err.to_string().contains(flag), "{err}");
        }
    }

    #[test]
    fn probe_checkpoints_are_executor_independent() {
        use crate::ProbeSpec;
        let g = topology::path(12);
        let probe = ProbeSpec::OFF.with_checkpoint_every(1).with_node_hashes(true);
        let cfg = SimConfig::strict().with_probe(probe);
        let single = crate::run_protocol(&g, Walk::new(12), cfg).unwrap();
        assert!(!single.checkpoints.is_empty(), "probe must checkpoint");
        for parallel in APPLY_PATHS {
            let sharded = run_protocol_sharded(
                &g,
                Partition::striped(12, 3),
                Walk::new(12),
                cfg.with_parallel_apply(parallel),
            )
            .unwrap();
            assert_eq!(single.checkpoints, sharded.checkpoints, "parallel = {parallel}");
            assert_eq!(single.node_digests, sharded.node_digests, "parallel = {parallel}");
        }
    }

    #[test]
    fn perturbation_diverges_exactly_at_the_planted_transmit() {
        use crate::ProbeSpec;
        let g = topology::path(8);
        let probe = ProbeSpec::OFF.with_checkpoint_every(1);
        let part = || Partition::contiguous(8, 2);
        let base =
            run_protocol_sharded(&g, part(), Walk::new(8), SimConfig::strict().with_probe(probe))
                .unwrap();
        let pert = run_protocol_sharded(
            &g,
            part(),
            Walk::new(8),
            SimConfig::strict().with_probe(probe.with_perturbation(2, 2)),
        )
        .unwrap();
        // Identical through round 2's deliver barrier; the held transmit
        // first shows in round 2's transmit digest.
        for (b, p) in base.checkpoints.iter().zip(&pert.checkpoints) {
            assert_eq!(b.round, p.round);
            if b.round < 2 {
                assert_eq!(b, p, "diverged before the planted round");
            } else if b.round == 2 {
                assert_eq!(b.deliver, p.deliver, "deliver barrier must agree at round 2");
                assert_ne!(b.transmit, p.transmit, "perturbation must show at transmit");
            }
        }
        // The held message costs exactly one extra round on the walk.
        assert_eq!(pert.rounds, base.rounds + 1);
        assert_eq!(pert.ops(), base.ops());
    }

    #[test]
    fn partition_shape_mismatch_is_invalid_config() {
        let g = topology::path(5);
        let err = run_protocol_sharded(
            &g,
            Partition::contiguous(4, 2),
            Walk::new(5),
            SimConfig::strict(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }
}
