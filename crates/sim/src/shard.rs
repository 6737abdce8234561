//! Shard plans: a partition of the processors and a slower delay on the
//! links it cuts.
//!
//! [`crate::Simulator::with_cut`] runs a protocol under a
//! [`ccq_graph::Partition`] into `K` shards and an **inter-shard ferry**
//! [`crate::LinkDelay`] — the knob that models federated clusters where
//! crossing a shard boundary is slower than staying inside one. In the
//! §2.1 model a slower link is still a link: it has a longer delay, and
//! FIFO holds per link. So a shard plan is applied at one place, the
//! transmit walk of [`crate::scheduler`]'s one executor: a send whose
//! endpoints lie in different shards takes the ferry delay and adds one to
//! [`crate::SimReport::cross_shard_messages`]; every other send takes the
//! run's delay. Queues and wires stay in the executor's one store and one
//! wheel, sharded or not. The partition is also the run's shard map:
//! per-shard admission ([`crate::AdmissionPolicy::PerNode`]) counts open
//! operations over it.
//!
//! **Equivalence invariant.** Whenever the ferry's delay policy equals the
//! run's, every send takes the delay it would take unsharded, so a K-shard
//! execution is the unsharded one — same completions, same rounds,
//! same queue statistics and checkpoints — for *every* delay policy,
//! per-message jitter included (a link is always on the cut or never, so
//! its FIFO clamp sees one policy). The only new observable is
//! [`crate::SimReport::cross_shard_messages`]. A divergent ferry policy
//! (e.g. `Fixed { delay: 8 }` between shards) changes the execution —
//! deliberately.

#[cfg(test)]
mod tests {
    use crate::engine::tests::Walk;
    use crate::protocol::Protocol;
    use crate::report::{LinkDelay, SimConfig, SimReport};
    use crate::{SimError, Simulator, SliceApi, TraceKind};
    use ccq_graph::{topology, Graph, NodeId, Partition};

    /// Run `protocol` on `g` cut by `part`, the ferry at the run's delay.
    fn run_sharded<P: Protocol>(
        g: &Graph,
        part: &Partition,
        protocol: P,
        cfg: SimConfig,
    ) -> Result<SimReport, SimError> {
        Simulator::new(g, protocol, cfg).with_cut(part, cfg.link_delay).run()
    }

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
        let sharded =
            run_sharded(&g, &Partition::contiguous(9, 1), Walk::new(9), SimConfig::strict())
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
            let sharded = run_sharded(&g, &part, Walk::new(12), SimConfig::strict()).unwrap();
            // The token crosses each of the k−1 shard boundaries once.
            assert_eq!(sharded.cross_shard_messages, k as u64 - 1);
            assert!(
                reports_equal_modulo_cross_shard(&single, &sharded),
                "k = {k} diverged from the unsharded run"
            );
        }
    }

    #[test]
    fn jitter_equivalence_holds_via_global_sequencing() {
        let g = topology::path(16);
        let cfg = SimConfig::strict().with_jitter(4, 99);
        let single = crate::run_protocol(&g, Walk::new(16), cfg).unwrap();
        let sharded = run_sharded(&g, &Partition::striped(16, 4), Walk::new(16), cfg).unwrap();
        assert!(reports_equal_modulo_cross_shard(&single, &sharded));
        assert!(sharded.cross_shard_messages > 0);
    }

    #[test]
    fn slow_ferry_stretches_the_walk() {
        let (g, part) = (topology::path(8), Partition::contiguous(8, 2));
        let sim =
            |ferry| Simulator::new(&g, Walk::new(8), SimConfig::strict()).with_cut(&part, ferry);
        let fast = sim(LinkDelay::Unit).run().unwrap();
        let slow = sim(LinkDelay::Fixed { delay: 10 }).run().unwrap();
        // One boundary crossing at 10 rounds instead of 1.
        assert_eq!(slow.rounds, fast.rounds + 9);
        assert_eq!(slow.ops(), fast.ops());
    }

    /// A sharded run's deliver walk is byte-identical to the unsharded
    /// run's, traces included, and hands every delivery to the slice of the
    /// node it reached.
    #[test]
    fn parallel_apply_is_byte_identical_and_updates_slices() {
        let g = topology::path(12);
        for delay in [LinkDelay::Unit, LinkDelay::Jitter { max: 3, seed: 5 }] {
            let cfg = SimConfig::strict().with_link_delay(delay).with_trace();
            let single = crate::run_protocol(&g, Walk::new(12), cfg).unwrap();
            let (sharded, proto) = Simulator::new(&g, Walk::new(12), cfg)
                .with_cut(&Partition::striped(12, 3), delay)
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
        /// Violates the `at` contract: fewer slices than processors.
        struct Short {
            n: usize,
            units: Vec<u64>,
        }
        impl Protocol for Short {
            type Msg = ();
            type Slice<'s> = &'s mut u64;
            type Shared = usize;
            fn nodes(&self) -> usize {
                self.units.len()
            }
            fn at(&mut self, v: NodeId) -> (&usize, &mut u64) {
                (&self.n, &mut self.units[v])
            }
            fn requests(&self) -> &[NodeId] {
                &[0]
            }
            fn issue(_: &usize, _: &mut u64, api: &mut SliceApi<()>, _: NodeId) {
                api.send(1, ());
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
            run_sharded(&g, &Partition::contiguous(6, 2), short(), cfg).unwrap_err(),
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
            run_sharded(&g, &Partition::contiguous(3, 2), Walk::new(3), cfg).unwrap_err(),
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
        // tracing on, a run cut into four striped shards must number and
        // trace every send exactly as the unsharded run does.
        let g = topology::path(16);
        for delay in
            [LinkDelay::Unit, LinkDelay::Fixed { delay: 3 }, LinkDelay::Jitter { max: 4, seed: 7 }]
        {
            let cfg = SimConfig::strict().with_link_delay(delay).with_trace();
            let single = crate::run_protocol(&g, Walk::new(16), cfg).unwrap();
            assert!(single.trace.iter().any(|e| e.kind == TraceKind::Transmit));
            let sharded = run_sharded(&g, &Partition::striped(16, 4), Walk::new(16), cfg).unwrap();
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
        let sharded = run_sharded(&g, &Partition::striped(12, 3), Walk::new(12), cfg).unwrap();
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
            run_sharded(&g, &part(), Walk::new(8), SimConfig::strict().with_probe(probe)).unwrap();
        let pert = run_sharded(
            &g,
            &part(),
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
        let err = run_sharded(&g, &Partition::contiguous(4, 2), Walk::new(5), SimConfig::strict())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }
}
