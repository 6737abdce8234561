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
//! runs one kind of round, the skeleton's lockstep round, on one thread:
//! maturity is a plain loop over the lanes' one `mature` (merging the due
//! ferry wires), and deliver and transmit are each one walk of a global
//! frontier in ascending node order. The deliver walk pops each node from
//! its own lane and calls the one [`Protocol::on_message`] on that node's
//! slice, its effects landing as it makes them, exactly as the monolith's
//! receive walk; the transmit walk's visit order *is* the run-global
//! sequence numbering, so it numbers each send exactly as the monolith
//! does and routes it to the owning lane's wheel or to the ferry.
//!
//! **Equivalence invariant.** Transmissions carry a run-global sequence
//! number and maturation merges local + ferry wires in (arrival, sequence)
//! order, so whenever the ferry's delay policy equals the intra-shard one,
//! a K-shard execution is operationally identical to the single-fabric
//! [`crate::Simulator`] — same completions, same rounds, same queue
//! statistics — for *every* delay policy including per-message jitter.
//! The only new observable is [`crate::SimReport::cross_shard_messages`].
//! A divergent ferry policy (e.g. `Fixed { delay: 8 }` between shards)
//! changes the execution — deliberately.

use crate::probe::{self, Phase};
use crate::protocol::Protocol;
use crate::report::{LinkDelay, SimConfig, SimReport};
use crate::scheduler::{self, frontier_into, Lane, Ledger, Phases};
use crate::state::NodeStore;
use crate::transport::{Transport, Wire};
use crate::{Round, SimError};
use ccq_graph::{Graph, NodeId, Partition};

/// The sharded executor's own state: the partition it serves, one lane
/// per shard and the inter-shard ferry. The report, the backlog and the
/// phase clock are the scheduler's [`Ledger`], lent to every phase.
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

impl<'a, M> Fabric<'a, M> {
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
}

impl<P: Protocol> Phases<P> for Fabric<'_, P::Msg> {
    /// A serialized send stages in the sender's lane, at the slot one read
    /// of the place table names.
    fn stage(&mut self, from: NodeId, to: NodeId, msg: P::Msg) -> usize {
        let at = self.partition.place(from);
        self.lanes[at.shard()].store.stage_at(at.rank(), from, to, msg)
    }

    /// Bucket the due ferry wires by destination shard (sequentially —
    /// the ferry is shared), then mature lane by lane — the lanes hold
    /// disjoint nodes, so the order is immaterial — folding the deepest
    /// in-port into the report.
    fn mature(&mut self, led: &mut Ledger<'_>, round: Round) {
        let (partition, buckets) = (self.partition, &mut self.ferry_due);
        self.ferry.drain_due(round, |w| buckets[partition.shard_of(w.dst)].push(w));
        for (lane, due) in self.lanes.iter_mut().zip(&mut self.ferry_due) {
            let depth = lane.mature(round, due);
            led.report.max_inport_depth = led.report.max_inport_depth.max(depth);
        }
    }

    /// One walk of the global in-port frontier, each node popping from its
    /// own lane and its handler staging sends at the same slot, exactly as
    /// the monolith's receive walk.
    fn deliver(
        &mut self,
        led: &mut Ledger<'_>,
        protocol: &mut P,
        round: Round,
    ) -> Result<(), SimError> {
        let cfg = led.cfg;
        let (shared, slices) = protocol.split();
        let frontier = self.frontier(cfg, NodeStore::take_inport_frontier);
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
                let mut stage = |from, to, msg| store.stage_at(at.rank(), from, to, msg);
                let api = &mut led.api(round, &mut stage);
                P::on_message(shared, &mut slices[v], &mut api.at(v), v, inb.src, inb.msg);
                led.settle()?;
            }
        }
        self.scratch = frontier;
        Ok(())
    }

    /// One walk of the global outbox frontier, numbering sends exactly as
    /// the monolith's walk does; cross-shard messages ride the ferry, the
    /// rest the sending lane's own wheel.
    fn transmit(&mut self, led: &mut Ledger<'_>, round: Round) {
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
    fn observe(&mut self, led: &mut Ledger<'_>, round: Round, phase: Phase, token: &str) {
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
pub struct ShardedSimulator<'g, P: Protocol> {
    graph: &'g Graph,
    partition: Partition,
    protocol: P,
    config: SimConfig,
    inter_delay: LinkDelay,
}

impl<'g, P: Protocol> ShardedSimulator<'g, P> {
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
    /// the scheduler's one loop over the fabric.
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
) -> Result<SimReport, SimError> {
    ShardedSimulator::new(graph, partition, protocol, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::Walk;
    use crate::{SimApi, SliceApi, TraceKind};
    use ccq_graph::topology;

    fn reports_equal_modulo_cross_shard(a: &SimReport, b: &SimReport) -> bool {
        let strip = |r: &SimReport| {
            let mut r = r.clone();
            r.cross_shard_messages = 0;
            serde_json::to_string(&r).unwrap()
        };
        strip(a) == strip(b)
    }

    #[test]
    fn one_shard_reproduces_the_monolith_exactly() {
        let g = topology::path(9);
        let single = crate::run_protocol(&g, Walk::new(9), SimConfig::strict()).unwrap();
        let sharded = run_protocol_sharded(
            &g,
            Partition::contiguous(9, 1),
            Walk::new(9),
            SimConfig::strict(),
        )
        .unwrap();
        assert_eq!(sharded.cross_shard_messages, 0);
        assert!(reports_equal_modulo_cross_shard(&single, &sharded));
    }

    #[test]
    fn k_shards_match_the_monolith_and_count_crossings() {
        let g = topology::path(12);
        let single = crate::run_protocol(&g, Walk::new(12), SimConfig::strict()).unwrap();
        for k in [2, 3, 4] {
            let part = Partition::contiguous(12, k);
            let sharded =
                run_protocol_sharded(&g, part, Walk::new(12), SimConfig::strict()).unwrap();
            // The token crosses each of the k−1 shard boundaries once.
            assert_eq!(sharded.cross_shard_messages, k as u64 - 1);
            assert!(
                reports_equal_modulo_cross_shard(&single, &sharded),
                "k = {k} diverged from the single-fabric run"
            );
        }
    }

    #[test]
    fn jitter_equivalence_holds_via_global_sequencing() {
        let g = topology::path(16);
        let cfg = SimConfig::strict().with_jitter(4, 99);
        let single = crate::run_protocol(&g, Walk::new(16), cfg).unwrap();
        let sharded =
            run_protocol_sharded(&g, Partition::striped(16, 4), Walk::new(16), cfg).unwrap();
        assert!(reports_equal_modulo_cross_shard(&single, &sharded));
        assert!(sharded.cross_shard_messages > 0);
    }

    #[test]
    fn slow_ferry_stretches_the_walk() {
        let g = topology::path(8);
        let sim = || {
            ShardedSimulator::new(
                &g,
                Partition::contiguous(8, 2),
                Walk::new(8),
                SimConfig::strict(),
            )
        };
        let fast = sim().run().unwrap();
        let slow = sim().with_inter_delay(LinkDelay::Fixed { delay: 10 }).run().unwrap();
        // One boundary crossing at 10 rounds instead of 1.
        assert_eq!(slow.rounds, fast.rounds + 9);
        assert_eq!(slow.ops(), fast.ops());
    }

    /// The fabric's one deliver walk is byte-identical to the monolith's
    /// receive walk, traces included, and hands every delivery to the
    /// slice of the node it reached.
    #[test]
    fn parallel_apply_is_byte_identical_and_updates_slices() {
        let g = topology::path(12);
        for delay in [LinkDelay::Unit, LinkDelay::Jitter { max: 3, seed: 5 }] {
            let cfg = SimConfig::strict().with_link_delay(delay).with_trace();
            let single = crate::run_protocol(&g, Walk::new(12), cfg).unwrap();
            let (sharded, proto) =
                ShardedSimulator::new(&g, Partition::striped(12, 3), Walk::new(12), cfg)
                    .run_with_state()
                    .unwrap();
            assert!(
                reports_equal_modulo_cross_shard(&single, &sharded),
                "the deliver walk diverged under {}",
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
        let cfg = SimConfig::strict();
        for err in [
            crate::run_protocol(&g, short(), cfg).unwrap_err(),
            run_protocol_sharded(&g, Partition::contiguous(6, 2), short(), cfg).unwrap_err(),
        ] {
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
        let sharded =
            run_protocol_sharded(&g, Partition::striped(12, 3), Walk::new(12), cfg).unwrap();
        assert_eq!(single.checkpoints, sharded.checkpoints);
        assert_eq!(single.node_digests, sharded.node_digests);
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
