//! Property-based tests over the core invariants, driven by random trees,
//! topologies and request sets.

mod common;

use ccq_repro::counting::{verify_ranks, CombiningTreeProtocol, CountingNetworkProtocol};
use ccq_repro::graph::{spanning, topology, NodeId, Tree, TreeRouter};
use ccq_repro::prelude::*;
use ccq_repro::queuing::{verify_total_order, ArrowProtocol};
use ccq_repro::sim::{run_protocol, Arrivals, Lateness, Round, SimConfig};
use ccq_repro::tsp::{decompose_runs, nn_tour, steiner_edge_count};
use proptest::prelude::*;

/// Strategy: a random connected graph + a BFS spanning tree + request set.
fn arb_tree_and_requests() -> impl Strategy<Value = (Tree, Vec<NodeId>, NodeId)> {
    (2usize..40, any::<u64>()).prop_flat_map(|(n, seed)| {
        let g = topology::random_connected(n, 0.1, seed);
        let tree = spanning::bfs_tree(&g, seed as usize % n);
        (
            Just(tree),
            proptest::collection::btree_set(0..n, 0..n).prop_map(|s| s.into_iter().collect()),
            0..n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arrow protocol always yields a valid total order — any tree, any
    /// request set, any tail, both budget models.
    #[test]
    fn arrow_always_forms_valid_order((tree, requests, tail) in arb_tree_and_requests()) {
        let g = tree.to_graph();
        for cfg in [SimConfig::strict(), SimConfig::expanded(tree.max_degree() + 1)] {
            let proto = ArrowProtocol::new(&tree, tail, &requests);
            let rep = run_protocol(&g, proto, cfg).expect("sim ok");
            let pred_of: Vec<(NodeId, u64)> =
                rep.completions.iter().map(|c| (c.node, c.value)).collect();
            let order = verify_total_order(&requests, &pred_of).expect("valid order");
            prop_assert_eq!(order.len(), requests.len());
        }
    }

    /// The combining tree always hands out exactly {1..|R|}.
    #[test]
    fn combining_always_counts((tree, requests, _tail) in arb_tree_and_requests()) {
        let g = tree.to_graph();
        let proto = CombiningTreeProtocol::new(&tree, &requests);
        let rep = run_protocol(&g, proto, SimConfig::strict()).expect("sim ok");
        let ranks: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_ranks(&requests, &ranks).expect("valid ranks");
    }

    /// The counting network always hands out exactly {1..|R|}.
    #[test]
    fn counting_network_always_counts(
        (tree, requests, _tail) in arb_tree_and_requests(),
        width_pow in 1u32..4,
    ) {
        let g = tree.to_graph();
        let w = 1usize << width_pow;
        let proto = CountingNetworkProtocol::new(&g, &tree, &requests, w);
        let rep = run_protocol(&g, proto, SimConfig::strict()).expect("sim ok");
        let ranks: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_ranks(&requests, &ranks).expect("valid ranks");
    }

    /// NN tours visit exactly the request set, legs match tree distances,
    /// and the cost is at least the Steiner floor.
    #[test]
    fn nn_tour_invariants((tree, requests, start) in arb_tree_and_requests()) {
        let tour = nn_tour(&tree, start, &requests);
        // Visits each target exactly once.
        let mut visited = tour.order.clone();
        visited.sort_unstable();
        let mut expected = requests.clone();
        expected.sort_unstable();
        prop_assert_eq!(visited, expected);
        // Legs are genuine tree distances and greedy-minimal at each step.
        let lca = ccq_repro::graph::Lca::new(&tree);
        let mut pos = start;
        for (i, &v) in tour.order.iter().enumerate() {
            prop_assert_eq!(tour.leg_costs[i], lca.dist(pos, v) as u64);
            // No unvisited target was closer.
            for &other in &tour.order[i..] {
                prop_assert!(lca.dist(pos, other) as u64 >= tour.leg_costs[i]);
            }
            pos = v;
        }
        // Steiner subtree lower-bounds every visiting walk.
        prop_assert!(tour.cost() >= steiner_edge_count(&tree, start, &requests));
    }

    /// Runs decomposition on a list: Σx equals the tour cost and the
    /// Fibonacci inequality of Lemma 4.4 holds.
    #[test]
    fn list_runs_decomposition_sound(
        n in 2usize..200,
        seed in any::<u64>(),
        density in 0.05f64..1.0,
    ) {
        use rand::prelude::*;
        let tree = spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let targets: Vec<NodeId> = (0..n).filter(|_| rng.random::<f64>() < density).collect();
        prop_assume!(!targets.is_empty());
        let start = rng.random_range(0..n);
        let tour = nn_tour(&tree, start, &targets);
        let d = decompose_runs(start, &tour.order);
        prop_assert_eq!(d.x_sum(), tour.cost());
        prop_assert_eq!(d.fibonacci_violation(), None);
        prop_assert!(tour.cost() <= 3 * n as u64, "Lemma 4.3");
    }

    /// TreeRouter's hop-by-hop paths equal the tree paths.
    #[test]
    fn tree_router_agrees_with_tree_paths((tree, _r, _t) in arb_tree_and_requests(),
                                          seed in any::<u64>()) {
        use rand::prelude::*;
        let router = TreeRouter::new(&tree);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let u = rng.random_range(0..tree.n());
            let v = rng.random_range(0..tree.n());
            prop_assert_eq!(router.path(u, v), tree.path(u, v));
        }
    }

    /// Counts handed out by queuing and counting refer to the same
    /// participants: the two views of one total order.
    #[test]
    fn queuing_and_counting_cover_same_participants(
        (tree, requests, tail) in arb_tree_and_requests()
    ) {
        let g = tree.to_graph();
        let arrow = ArrowProtocol::new(&tree, tail, &requests);
        let arep = run_protocol(&g, arrow, SimConfig::strict()).expect("ok");
        let combining = CombiningTreeProtocol::new(&tree, &requests);
        let crep = run_protocol(&g, combining, SimConfig::strict()).expect("ok");
        let mut a: Vec<NodeId> = arep.completions.iter().map(|c| c.node).collect();
        let mut c: Vec<NodeId> = crep.completions.iter().map(|c| c.node).collect();
        a.sort_unstable();
        c.sort_unstable();
        prop_assert_eq!(a, c);
    }
}

/// Every arrival-process shape under test, parameterized by `rate` and
/// `seed`.
fn all_processes(rate: f64, seed: u64) -> Vec<ArrivalSpec> {
    vec![
        ArrivalSpec::OneShot,
        ArrivalSpec::Poisson { rate, seed },
        ArrivalSpec::Bursty { rate, on: 5, off: 11, seed },
        ArrivalSpec::Hotspot { rate, s: 1.3, seed },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every arrival process materializes deterministically per seed and
    /// emits exactly the requested total: one entry per requester, rounds
    /// nondecreasing.
    #[test]
    fn arrival_schedules_deterministic_and_complete(
        n in 1usize..60,
        seed in any::<u64>(),
        rate in 0.05f64..1.0,
    ) {
        let nodes: Vec<NodeId> = (0..n).collect();
        for process in all_processes(rate, seed) {
            let a = process.materialize(&nodes);
            let b = process.materialize(&nodes);
            prop_assert_eq!(&a, &b, "{} not deterministic", process.name());
            prop_assert_eq!(a.len(), n, "{} wrong total", process.name());
            let mut emitted: Vec<NodeId> = a.iter().map(|&(_, v)| v).collect();
            emitted.sort_unstable();
            prop_assert_eq!(emitted, nodes.clone(), "{} wrong node set", process.name());
            prop_assert!(
                a.windows(2).all(|w| w[0].0 <= w[1].0),
                "{} rounds not sorted", process.name()
            );
        }
    }

    /// Schedules are independent of rayon parallelism: materializing the
    /// same process concurrently from many worker threads equals the
    /// serial result (the samplers share no state).
    #[test]
    fn arrival_schedules_ignore_parallelism(
        n in 1usize..40,
        seed in any::<u64>(),
        rate in 0.1f64..1.0,
    ) {
        use rayon::prelude::*;
        for process in all_processes(rate, seed) {
            let serial = process.materialize(&(0..n).collect::<Vec<_>>());
            let parallel: Vec<Vec<(Round, NodeId)>> = (0..16)
                .collect::<Vec<u32>>()
                .into_par_iter()
                .map(|_| process.materialize(&(0..n).collect::<Vec<_>>()))
                .collect();
            for p in parallel {
                prop_assert_eq!(&p, &serial, "{} differs under rayon", process.name());
            }
        }
    }

    /// FIFO-per-wire delivery holds under jittered link delay even with
    /// scheduled senders: numbered messages fired over one link in two
    /// scheduled waves arrive in send order, for any seed and jitter
    /// magnitude.
    #[test]
    fn fifo_per_wire_under_jittered_delay(
        seed in any::<u64>(),
        jmax in 1u64..8,
        burst in 2u64..10,
        gap in 0u64..6,
    ) {
        let g = topology::path(3);
        // Two waves: node 0 at round 0, node 2 at `gap`.
        let arrivals = Arrivals::new(vec![(0, 0), (gap, 2)]);
        let cfg = SimConfig::strict().with_jitter(jmax, seed);
        let (rep, p) = ccq_repro::sim::Simulator::new(&g, Burst { burst, seen: vec![vec![]; 3] }, cfg)
            .with_arrivals(arrivals)
            .run_with_state()
            .expect("sim ok");
        // Per-wire FIFO: each sender's numbered burst is seen in order.
        for src in [0u64, 2] {
            let from_src: Vec<u64> = p
                .seen[1]
                .iter()
                .filter(|&&(s, _)| s == src)
                .map(|&(_, m)| m)
                .collect();
            prop_assert_eq!(from_src, (1..=burst).collect::<Vec<u64>>(), "src {}", src);
        }
        prop_assert_eq!(rep.completions.len(), 2 * burst as usize);
        prop_assert_eq!(rep.issues.len(), 2);
    }
}

/// Nodes 0 and 2 each fire `burst` numbered messages at node 1 when
/// issued; a node's slice records the `(sender, number)` arrival order.
struct Burst {
    burst: u64,
    seen: Vec<Vec<(u64, u64)>>,
}

impl ccq_repro::sim::Protocol for Burst {
    type Msg = u64;
    type Slice<'s> = &'s mut Vec<(u64, u64)>;
    type Shared = u64;
    fn nodes(&self) -> usize {
        self.seen.len()
    }
    fn at(&mut self, v: NodeId) -> (&u64, &mut Vec<(u64, u64)>) {
        (&self.burst, &mut self.seen[v])
    }
    fn requests(&self) -> &[NodeId] {
        &[0, 2]
    }
    fn issue(
        burst: &u64,
        _: &mut Vec<(u64, u64)>,
        api: &mut ccq_repro::sim::SliceApi<u64>,
        _: NodeId,
    ) {
        for i in 1..=*burst {
            api.send(1, i);
        }
    }
    fn on_message(
        _: &u64,
        seen: &mut Vec<(u64, u64)>,
        api: &mut ccq_repro::sim::SliceApi<u64>,
        node: NodeId,
        from: NodeId,
        m: u64,
    ) {
        seen.push((from as u64, m));
        api.complete(node, m);
    }
}

/// The four protocol shapes the admission invariants are checked on: a
/// per-request queuing protocol, the single-wave queuing and counting
/// combiners (the cancel/aging paths), and the per-request counter.
fn admission_protocols() -> [&'static ProtocolSpec; 4] {
    use ccq_repro::core::protocol;
    [
        &protocol::Arrow,
        &protocol::CombiningQueue,
        &protocol::CentralCounter,
        &protocol::CombiningTree,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation under backpressure, for every policy × arrival × delay:
    /// completed + dropped + still-open == scheduled arrivals. (At
    /// quiescence still-open is 0 — everything admitted completes, waves
    /// included, thanks to the aging escape — so the identity also pins
    /// `issues + dropped == |R|`: no arrival is ever lost or double-
    /// counted.)
    #[test]
    fn admission_conserves_arrivals(
        seed in any::<u64>(),
        bound in 1usize..8,
        policy_idx in 0usize..4,
        arrival_idx in 0usize..3,
        jitter in 0u64..4,
    ) {
        let policy = match policy_idx {
            0 => AdmissionSpec::Open,
            1 => AdmissionSpec::DropTail { bound },
            2 => AdmissionSpec::DelayRetry { bound, backoff: 3 },
            _ => AdmissionSpec::Adaptive { target_backlog: bound, gain: 1 },
        };
        let arrival = common::open_arrivals(seed)[arrival_idx].clone();
        let delay = if jitter == 0 { LinkDelay::Unit } else { LinkDelay::Jitter { max: jitter, seed } };
        for proto in admission_protocols() {
            let s = Scenario::build_with(
                TopoSpec::Mesh2D { side: 4 }, RequestPattern::All, arrival.clone(),
            ).with_admission(policy);
            let out = run_spec_with(proto, &s, ModelMode::Strict, delay)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", proto.name(), policy.name()));
            let r = &out.report;
            let still_open = r.issues.len() - r.completions.len();
            prop_assert_eq!(
                r.completions.len() + r.dropped.len() + still_open, s.k(),
                "{} under {}: arrivals not conserved", proto.name(), policy.name()
            );
            prop_assert_eq!(still_open, 0, "{}: admitted ops left open at quiescence", proto.name());
            prop_assert!(r.goodput() <= r.throughput() + 1e-12, "{}: goodput > throughput", proto.name());
            match policy {
                AdmissionSpec::Open => {
                    prop_assert!(r.dropped.is_empty(), "open policy shed");
                    prop_assert_eq!(r.delayed_admissions, 0, "open policy deferred");
                }
                AdmissionSpec::DropTail { .. } =>
                    prop_assert_eq!(r.delayed_admissions, 0, "droptail deferred"),
                _ => prop_assert!(r.dropped.is_empty(), "delaying policy shed"),
            }
        }
    }

    /// Heterogeneous conservation: with priority classes, per-node
    /// admission and (sometimes) a crash window all active, every
    /// scheduled arrival is accounted for *within its class* — admitted
    /// issues complete by quiescence, and issued + dropped equals the
    /// class's scheduled arrivals. The degenerate-metrics guard rides
    /// along: whatever the shed pattern, goodput and the per-class
    /// percentiles are finite and zero-safe (a class that completed
    /// nothing reports 0, never a division by zero or a panic).
    #[test]
    fn heterogeneous_admission_conserves_per_class(
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
        bound in 1usize..6,
        protect in 0u8..2,
        crash in any::<bool>(),
    ) {
        let priority = PrioritySpec::Split { frac, seed };
        let faults = if crash {
            FaultSpec::none().crash(seed as usize % 16, 2, 8)
        } else {
            FaultSpec::none()
        };
        let node_classes = priority.classes(16);
        for proto in admission_protocols() {
            let s = Scenario::build_with(
                TopoSpec::Mesh2D { side: 4 },
                RequestPattern::All,
                ArrivalSpec::Poisson { rate: 0.6, seed },
            )
            .with_priority(priority)
            .with_faults(faults.clone())
            .with_admission(AdmissionSpec::PerNode { bound, protect });
            let out = run_spec_with(proto, &s, ModelMode::Strict, LinkDelay::Unit)
                .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
            let r = &out.report;
            prop_assert_eq!(
                r.issues.len(), r.completions.len(),
                "{}: admitted ops left open at quiescence", proto.name()
            );
            prop_assert_eq!(
                r.completions.len() + r.dropped.len(), s.k(),
                "{}: arrivals not conserved", proto.name()
            );
            // Classwise: issued completes, and issued + dropped covers the
            // class's share of the schedule.
            for class in r.classes() {
                let (issued, completed, dropped) = r.class_counts(class);
                let scheduled = s
                    .schedule
                    .iter()
                    .filter(|&&(_, v)| node_classes.get(v).copied().unwrap_or(0) == class)
                    .count() as u64;
                prop_assert_eq!(
                    completed, issued,
                    "{} class {}: issued ops left open", proto.name(), class
                );
                prop_assert_eq!(
                    issued + dropped, scheduled,
                    "{} class {}: class arrivals not conserved", proto.name(), class
                );
                // Classes below `protect` are never shed.
                if class < protect {
                    prop_assert_eq!(dropped, 0, "{}: protected class shed", proto.name());
                }
                // Degenerate-safe percentiles: zero when nothing completed,
                // ordered when something did.
                let (p50, p99) = (
                    r.class_latency_percentile(class, 0.50),
                    r.class_latency_percentile(class, 0.99),
                );
                if completed == 0 {
                    prop_assert_eq!(p50, 0, "{}: empty class has a p50", proto.name());
                    prop_assert_eq!(p99, 0, "{}: empty class has a p99", proto.name());
                } else {
                    prop_assert!(p50 <= p99, "{}: p50 > p99", proto.name());
                }
            }
            // Goodput stays a number on every shed pattern.
            prop_assert!(r.goodput().is_finite(), "{}: goodput not finite", proto.name());
            prop_assert!(r.goodput() >= 0.0, "{}: negative goodput", proto.name());
            prop_assert!(
                r.goodput() <= r.throughput() + 1e-12,
                "{}: goodput > throughput", proto.name()
            );
        }
    }

    /// The `Open` admission policy is byte-identical to not configuring
    /// admission at all: same serialized report, event for event.
    #[test]
    fn open_admission_reports_are_byte_identical(
        seed in any::<u64>(),
        rate in 0.1f64..1.0,
    ) {
        let arrival = ArrivalSpec::Poisson { rate, seed };
        for proto in admission_protocols() {
            let plain = Scenario::build_with(
                TopoSpec::Torus2D { side: 3 }, RequestPattern::All, arrival.clone(),
            );
            let gated = Scenario::build_with(
                TopoSpec::Torus2D { side: 3 }, RequestPattern::All, arrival.clone(),
            ).with_admission(AdmissionSpec::Open);
            let a = run_spec(proto, &plain, ModelMode::Strict).expect("plain run");
            let b = run_spec(proto, &gated, ModelMode::Strict).expect("gated run");
            prop_assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap(),
                "{}: Open admission changed the report bytes", proto.name()
            );
        }
    }

    /// The AIMD controller's contract: on protocols that drain (per-request
    /// service, no wave barrier) the backlog never exceeds the target plus
    /// one burst (the arrivals sharing a single round, each admitted
    /// against the live backlog before it could re-drain).
    #[test]
    fn adaptive_backlog_never_exceeds_target_plus_one_burst(
        seed in any::<u64>(),
        target in 1usize..10,
        rate in 0.1f64..1.0,
    ) {
        use ccq_repro::core::protocol;
        let arrival = ArrivalSpec::Poisson { rate, seed };
        let s = Scenario::build_with(
            TopoSpec::Mesh2D { side: 4 }, RequestPattern::All, arrival,
        ).with_admission(AdmissionSpec::Adaptive { target_backlog: target, gain: 1 });
        let burst = {
            let mut max_per_round = 0usize;
            let mut i = 0;
            while i < s.schedule.len() {
                let j = s.schedule[i..].iter().take_while(|&&(r, _)| r == s.schedule[i].0).count();
                max_per_round = max_per_round.max(j);
                i += j;
            }
            max_per_round
        };
        for proto in [&protocol::Arrow, &protocol::CentralCounter] {
            let out = run_spec(proto, &s, ModelMode::Strict).expect("adaptive run");
            prop_assert!(
                out.report.backlog_high_water <= target + burst,
                "{}: backlog {} exceeded target {} + burst {}",
                proto.name(), out.report.backlog_high_water, target, burst
            );
            prop_assert!(out.report.dropped.is_empty(), "adaptive never sheds");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// QQC lateness is zero-safe and internally ordered on every registry
    /// protocol, load or no load: the percentiles nest (p50 ≤ p95 ≤ p99 ≤
    /// max), the mean is bounded by the max, and degenerate queries — an
    /// empty output order, a class nobody belongs to — report exactly zero
    /// instead of panicking or dividing by zero.
    #[test]
    fn qqc_lateness_is_zero_safe_and_ordered(
        proto_idx in 0usize..10,
        seed in any::<u64>(),
        rate in 0.1f64..1.0,
    ) {
        use ccq_repro::core::protocol::registry;
        let proto = &registry()[proto_idx];
        let s = Scenario::build_with(
            TopoSpec::Mesh2D { side: 4 },
            RequestPattern::All,
            ArrivalSpec::Poisson { rate, seed },
        );
        let out = run_spec_with(proto, &s, ModelMode::Strict, LinkDelay::Unit)
            .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
        let l = out.report.qqc_lateness(&out.order);
        prop_assert!(
            l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max,
            "{}: percentiles not nested: {l:?}", proto.name()
        );
        prop_assert!(l.mean >= 0.0 && l.mean <= l.max as f64, "{}: mean out of range: {l:?}", proto.name());
        // Zero-safe degenerate queries.
        prop_assert_eq!(out.report.qqc_lateness(&[]), Lateness::default());
        prop_assert_eq!(out.report.class_qqc_lateness(u8::MAX, &out.order), Lateness::default());
    }

    /// The strict-mode queuing protocols serve the one-shot batch in a
    /// single total order with every issue at round 0, so their QQC
    /// lateness is exactly 0 under a Unit delay on any topology — the
    /// linearizable end of the consistency frontier.
    #[test]
    fn strict_queuing_one_shot_lateness_is_exactly_zero(
        topo_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        use ccq_repro::core::protocol;
        let topo = match topo_idx {
            0 => TopoSpec::Mesh2D { side: 4 },
            1 => TopoSpec::List { n: 12 },
            _ => TopoSpec::RandomRegular { n: 12, d: 4, seed },
        };
        let s = Scenario::build_with(topo, RequestPattern::All, ArrivalSpec::OneShot);
        for proto in protocol::registry_of(ProtocolKind::Queuing) {
            let out = run_spec_with(proto, &s, ModelMode::Strict, LinkDelay::Unit)
                .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
            let l = out.report.qqc_lateness(&out.order);
            prop_assert_eq!(l.max, 0, "{}: one-shot lateness nonzero: {:?}", proto.name(), l);
            prop_assert_eq!(l.mean, 0.0, "{}: one-shot mean nonzero: {:?}", proto.name(), l);
        }
    }

    /// QQC lateness is a pure function of the (byte-identical) trace, so it
    /// cannot depend on the executor strategy: the monolith, a sharded run
    /// and the dense scan all report identical qqc_* fields for
    /// every protocol × arrival × delay.
    #[test]
    fn qqc_is_executor_independent(
        proto_idx in 0usize..10,
        seed in any::<u64>(),
        rate in 0.1f64..1.0,
        arrival_idx in 0usize..3,
        delay_idx in 0usize..3,
    ) {
        use ccq_repro::core::protocol::registry;
        let proto = &registry()[proto_idx];
        let arrival = match arrival_idx {
            0 => ArrivalSpec::OneShot,
            1 => ArrivalSpec::Poisson { rate, seed },
            _ => ArrivalSpec::Bursty { rate, on: 4, off: 7, seed },
        };
        let delay = match delay_idx {
            0 => LinkDelay::Unit,
            1 => LinkDelay::Fixed { delay: 3 },
            _ => LinkDelay::Jitter { max: 3, seed },
        };
        // The paper's mode convention, as a default `RunPlan` assigns it.
        let mode = proto.kind().paper_mode();
        let run = |k: usize, dense: bool| -> (u64, u64, u64, u64, u64) {
            let scenario = Scenario::build_with(
                TopoSpec::Mesh2D { side: 4 },
                RequestPattern::All,
                arrival.clone(),
            )
            .with_shards(ShardSpec::new(k, ShardStrategy::Striped));
            let out =
                common::run_on_reference(proto, &scenario, mode, delay, |c| c.with_dense_scan(dense))
                    .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
            let l = out.report.qqc_lateness(&out.order);
            (l.max, l.mean.to_bits(), l.p50, l.p95, l.p99)
        };
        let reference = run(1, false);
        for (k, dense) in [(3, false), (1, true)] {
            prop_assert_eq!(
                &run(k, dense), &reference,
                "{}: qqc diverged on executor path (k={}, dense={})",
                proto.name(), k, dense
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 3.4 numerically: a(t), b(t) ≤ tow(2t) at every prefix length.
    #[test]
    fn spread_recurrence_respects_tower(rounds in 0u32..12) {
        for s in ccq_repro::bounds::spread_evolution(rounds) {
            prop_assert!(s.within_tower_bound());
        }
    }

    /// log* inverts tow on the exactly-representable range.
    #[test]
    fn log_star_tow_inverse(j in 0u32..5) {
        prop_assert_eq!(ccq_repro::bounds::log_star(ccq_repro::bounds::tow(j)), j);
    }
}
