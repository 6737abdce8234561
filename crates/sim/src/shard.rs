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
//! implements only the phase hooks where K lanes differ from one, so it
//! runs one kind of round, the skeleton's lockstep round. That round forks
//! only where handlers run concurrently: maturity is a plain loop over the
//! lanes' one `mature` (merging the due ferry wires), and transmission is
//! one serialized walk of the global outbox frontier in ascending node
//! order — the visit order *is* the run-global sequence numbering, so the
//! walk numbers each send exactly as the monolith does and routes it to
//! the owning lane's wheel or to the ferry. The one shard-parallel stretch
//! is the sliced apply's call of `fork`, which lends each task its own
//! lane in place and returns the results in shard order; whatever the
//! shards share (report, ferry, protocol value) is folded from them at the
//! phase barrier. The deliver phase has **two apply paths**, selected by
//! [`crate::SimConfig::parallel_apply`]; both call the one
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

use crate::probe::{self, Phase};
use crate::protocol::{Protocol, SliceApi, SliceEffect};
use crate::report::{LinkDelay, SimConfig, SimReport};
use crate::scheduler::{self, frontier_into, Lane, Ledger, Phases};
use crate::state::NodeStore;
use crate::transport::{Transport, Wire};
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId, Partition};
use rayon::prelude::*;

/// The executor's one fork/join, and the only place `ccq-sim` meets its
/// thread pool — called where handlers run shard-parallel (the sliced
/// apply), never by a serialized lockstep round: run `body` once per lane,
/// concurrently, **lending** every task its own lane in place (no [`Lane`]
/// moves after [`Fabric::new`]) together with that lane's entry of
/// `inputs`, and return the tasks' results in shard order. The tasks share
/// nothing mutable; what the shards have in common — the report, the
/// ferry, the staging API — the caller folds from the results after the
/// join, at the phase barrier, in an order no scheduling can change.
fn fork<M: Send, I: Send, O: Send>(
    lanes: &mut [Lane<M>],
    inputs: Vec<I>,
    body: impl Fn(&mut Lane<M>, I) -> O + Sync,
) -> Vec<O> {
    debug_assert_eq!(inputs.len(), lanes.len(), "one input per lane");
    let lent: Vec<_> = lanes.iter_mut().zip(inputs).collect();
    lent.into_par_iter().map(|(lane, input)| body(lane, input)).collect()
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
    /// The due ferry wires per destination shard, filled and emptied in
    /// place by each round's maturity (storage kept across rounds).
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
        let done = fork(&mut self.lanes, buckets, |lane, mut slices| -> Result<_, SimError> {
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
    /// the serialized path applies — identical event sequence — staging
    /// sends in the handling node's lane and slot.
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
            let at = self.partition.place(v);
            let store = &mut self.lanes[at.shard()].store;
            led.apply_effects(round, v, segment, |f, t, m| store.stage_at(at.rank(), f, t, m))?;
        }
        Ok(())
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

    /// Bucket the due ferry wires by destination shard (sequentially —
    /// the ferry is shared), then mature lane by lane — the lanes hold
    /// disjoint nodes, so the order is immaterial — folding the deepest
    /// in-port into the report.
    fn mature(&mut self, led: &mut Ledger<'_, P::Msg>, round: Round) {
        let (partition, buckets) = (self.partition, &mut self.ferry_due);
        self.ferry.drain_due(round, |w| buckets[partition.shard_of(w.dst)].push(w));
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
}

/// An executable sharded simulation: graph + partition + protocol + config.
/// Both apply paths — the global in-port walk and the lane tasks of
/// [`SimConfig::parallel_apply`] — call the protocol's one handler on the
/// slices directly, so the strategy flag can be honoured for every
/// protocol.
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
    /// honours [`SimConfig::parallel_apply`]. The report is byte-identical
    /// whichever apply path runs.
    pub fn run_with_state(self) -> Result<(SimReport, P), SimError> {
        let ShardedSimulator { graph, partition, protocol, config: cfg, inter_delay } = self;
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
            // Each lane's input is its shard index.
            let inputs: Vec<usize> = (0..k).collect();
            let members = |lane: &Lane<()>| lane.store.members().collect::<Vec<_>>();
            let out = fork(&mut fab.lanes, inputs, |lane, shard| {
                lent.lock().unwrap().push(shard);
                // A mark left in the lent lane: it must still be there,
                // on the same lane, after the join.
                lane.frontier.push(shard);
                (shard, members(lane))
            });
            let want: Vec<_> = (0..k).map(|shard| (shard, part.members(shard).to_vec())).collect();
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
        // The single-fabric executor has no shards to apply in: it rejects
        // the flag by name rather than silently running serialized.
        let cfg = SimConfig::strict().with_parallel_apply(true);
        let err = crate::run_protocol(&g, Walk::new(9), cfg).unwrap_err();
        assert!(err.to_string().contains("parallel_apply"), "{err}");
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
