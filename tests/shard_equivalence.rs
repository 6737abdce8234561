//! Shard-equivalence guarantees of the multi-shard executor.
//!
//! Two layers of proof that the transport/scheduler boundaries are real:
//!
//! * **property tests** — on random connected graphs, a [`Simulator`] cut
//!   by a one-shard partition ([`Simulator::with_cut`]) produces a
//!   [`SimReport`] that is *identical* (field for field, via JSON) to the
//!   unsharded run, for every delay policy;
//! * **registry sweeps** — for every registry protocol on mesh2d and
//!   torus2d, K-shard runs complete the same operations in the same order
//!   with the same delays as the single-shard run (the default ferry
//!   inherits the intra-shard delay policy, so only the cross-shard
//!   traffic counter may differ);
//! * **retired parallel-apply spelling** — a property test sweeps registry
//!   protocols × delay policies × open arrivals × shard plans × slow
//!   ferries × admission policies asserting that sweep argvs with
//!   `--parallel-apply` print the same JSON as without it, and that a
//!   sharded run's deliver walk runs the monolith's execution;
//! * **scan equivalence** — a second matrix asserts the default
//!   dirty-frontier round loop is byte-identical to the dense `0..n`
//!   reference scan (`SimConfig::dense_scan`);
//! * **retired wavefront spelling** — sweep argvs with `--wavefront[:lag=d]`
//!   run the same lockstep cases into the same JSON as without it.

mod common;

use ccq_repro::graph::{spanning, topology, NodeId, Partition};
use ccq_repro::prelude::*;
use ccq_repro::queuing::ArrowProtocol;
use ccq_repro::sim::{
    run_protocol, LinkDelay, Protocol, SimConfig, SimError, SimReport, Simulator, TraceKind,
};
use common::{run_on_reference, sweep_plan};
use proptest::prelude::*;

/// JSON encoding with the sharding-only counter zeroed, so single- and
/// sharded reports can be compared for operational identity.
fn fingerprint(rep: &SimReport) -> String {
    let mut rep = rep.clone();
    rep.cross_shard_messages = 0;
    serde_json::to_string(&rep).expect("reports serialize")
}

/// Run `protocol` on `g` cut by `part`, the ferry at the run's delay.
fn run_sharded<P: Protocol>(
    g: &ccq_repro::graph::Graph,
    part: &Partition,
    protocol: P,
    cfg: SimConfig,
) -> Result<SimReport, SimError> {
    Simulator::new(g, protocol, cfg).with_cut(part, cfg.link_delay).run()
}

fn partition_for(graph: &ccq_repro::graph::Graph, k: usize, strategy: u8) -> Partition {
    match strategy % 3 {
        0 => Partition::contiguous(graph.n(), k),
        1 => Partition::striped(graph.n(), k),
        _ => Partition::greedy_edge_cut(graph, k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `shards = 1` through the sharded executor is byte-identical to the
    /// unsharded engine — on random trees, under every delay policy.
    #[test]
    fn one_shard_equals_unsharded(
        n in 2usize..32,
        seed in any::<u64>(),
        delay_kind in 0u8..4,
    ) {
        let g = topology::random_connected(n, 0.15, seed);
        let tree = spanning::bfs_tree(&g, seed as usize % n);
        let requests: Vec<NodeId> = (0..n).collect();
        let delay = match delay_kind {
            0 => LinkDelay::Unit,
            1 => LinkDelay::Fixed { delay: 3 },
            2 => LinkDelay::PerLink { max: 4, seed },
            _ => LinkDelay::Jitter { max: 4, seed },
        };
        let cfg = SimConfig::strict().with_link_delay(delay);
        let single = run_protocol(&g, ArrowProtocol::new(&tree, 0, &requests), cfg).unwrap();
        let sharded = run_sharded(
            &g,
            &Partition::contiguous(n, 1),
            ArrowProtocol::new(&tree, 0, &requests),
            cfg,
        )
        .unwrap();
        prop_assert_eq!(sharded.cross_shard_messages, 0);
        prop_assert_eq!(fingerprint(&single), fingerprint(&sharded));
    }

    /// K shards with the default ferry are operationally identical to the
    /// unsharded run — any partition strategy, any delay policy (global
    /// transmission sequencing makes even per-message jitter agree), traces
    /// included — and `cross_shard_messages` counts exactly the traced
    /// transmissions whose endpoints the partition separates.
    #[test]
    fn k_shards_equal_unsharded(
        n in 2usize..32,
        seed in any::<u64>(),
        k in 2usize..6,
        strategy in 0u8..3,
        delay_kind in 0u8..4,
    ) {
        let g = topology::random_connected(n, 0.15, seed);
        let tree = spanning::bfs_tree(&g, seed as usize % n);
        let requests: Vec<NodeId> = (0..n).collect();
        let cfg = SimConfig::strict().with_link_delay(delay_for(delay_kind, seed)).with_trace();
        let single = run_protocol(&g, ArrowProtocol::new(&tree, 0, &requests), cfg).unwrap();
        let part = partition_for(&g, k, strategy);
        let sharded =
            run_sharded(&g, &part, ArrowProtocol::new(&tree, 0, &requests), cfg).unwrap();
        prop_assert_eq!(fingerprint(&single), fingerprint(&sharded));
        let crossing = sharded
            .trace
            .iter()
            .filter(|e| e.kind == TraceKind::Transmit)
            .filter(|e| part.shard_of(e.node) != part.shard_of(e.peer))
            .count();
        prop_assert_eq!(sharded.cross_shard_messages, crossing as u64);
    }
}

fn delay_for(kind: u8, seed: u64) -> LinkDelay {
    match kind % 4 {
        0 => LinkDelay::Unit,
        1 => LinkDelay::Fixed { delay: 2 },
        2 => LinkDelay::PerLink { max: 3, seed },
        _ => LinkDelay::Jitter { max: 3, seed },
    }
}

fn strategy_for(kind: u8) -> ShardStrategy {
    match kind % 3 {
        0 => ShardStrategy::Contiguous,
        1 => ShardStrategy::Striped,
        _ => ShardStrategy::EdgeCut,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The retired `--parallel-apply` spelling changes no byte: for every
    /// registry protocol, delay policy, open arrival process, shard plan
    /// (on the default or a slow fixed-delay ferry) and admission policy,
    /// the sweep argv with the spelling prints the same JSON as the argv
    /// without it. Every case takes the one deliver walk, and on the
    /// default ferry a sharded case runs the monolith's execution.
    #[test]
    fn parallel_apply_runs_are_byte_identical_to_serialized(
        proto_idx in 0usize..10,
        delay_kind in 0u8..4,
        arrival_kind in 0u8..3,
        k in 1usize..5,
        strategy in 0usize..3,
        slow_ferry in any::<bool>(),
        ferry in 2u64..7,
        admission_kind in 0usize..2,
        seed in any::<u64>(),
    ) {
        let delay = match delay_kind {
            0 => "unit".to_string(),
            1 => "fixed:d=2".to_string(),
            2 => format!("perlink:max=3:seed={seed}"),
            _ => format!("jitter:max=3:seed={seed}"),
        };
        let arrival = match arrival_kind {
            0 => "oneshot".to_string(),
            1 => format!("poisson:rate=0.4:seed={seed}"),
            _ => format!("bursty:rate=0.8:on=4:off=7:seed={seed}"),
        };
        let strategy = ["contig", "stripe", "edgecut"][strategy];
        let shards = if slow_ferry {
            format!("{k}:{strategy}:ferry={ferry}")
        } else {
            format!("{k}:{strategy}")
        };
        let argv = [
            "--topo", "torus2d:3",
            "--proto", registry()[proto_idx].name(),
            "--delay", &delay,
            "--arrival", &arrival,
            "--admission", ["open", "droptail:bound=6"][admission_kind],
            "--shards", &shards,
        ];
        let plan = sweep_plan(&argv);
        let serial = plan.execute();
        let retired = sweep_plan(&[&argv[..], &["--parallel-apply"]].concat()).execute();
        prop_assert_eq!(retired.to_json(), serial.to_json(), "{:?}: JSON diverged", argv);
        prop_assert!(serial.cases[0].ok, "{:?}: {:?}", argv, serial.cases[0].error);
        if !slow_ferry {
            let case = &plan.cases()[0];
            let run = |scenario: &Scenario| {
                run_spec_with(case.protocol.as_ref(), scenario, case.mode, case.delay).unwrap()
            };
            let sharded = run(&case.scenario());
            let single = run(&case.scenario().with_shards(ShardSpec::single()));
            prop_assert_eq!(&sharded.order, &single.order, "{:?}: order diverged", argv);
            prop_assert_eq!(
                fingerprint(&sharded.report),
                fingerprint(&single.report),
                "{:?}: the deliver walk diverged from the monolith", argv
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sparse-engine guarantee: for every registry protocol, under
    /// every delay policy, arrival process and shard plan, the default
    /// dirty-frontier round loop produces a report byte-identical to the
    /// dense `0..n` reference scan — the two execution strategies are
    /// indistinguishable from the outside.
    #[test]
    fn frontier_runs_are_byte_identical_to_dense_scan(
        proto_idx in 0usize..10,
        delay_kind in 0u8..4,
        arrival_kind in 0u8..3,
        k in 1usize..5,
        strategy in 0u8..3,
        seed in any::<u64>(),
    ) {
        let spec = &registry()[proto_idx];
        let delay = delay_for(delay_kind, seed);
        let arrival = match arrival_kind {
            0 => ArrivalSpec::OneShot,
            1 => ArrivalSpec::Poisson { rate: 0.4, seed },
            _ => ArrivalSpec::Bursty { rate: 0.8, on: 4, off: 7, seed },
        };
        let shards = ShardSpec::new(k, strategy_for(strategy));
        let mode = spec.kind().paper_mode();
        let scenario =
            Scenario::build_with(TopoSpec::Torus2D { side: 3 }, RequestPattern::All, arrival)
                .with_shards(shards);
        let frontier = run_spec_with(spec, &scenario, mode, delay).unwrap();
        let dense =
            run_on_reference(spec, &scenario, mode, delay, |c| c.with_dense_scan(true)).unwrap();
        prop_assert_eq!(dense.order, frontier.order, "{} order diverged", spec.name());
        prop_assert_eq!(
            serde_json::to_string(&frontier.report).unwrap(),
            serde_json::to_string(&dense.report).unwrap(),
            "{} report diverged between scan strategies", spec.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The retired `--wavefront:lag=d` spelling changes no byte: for every
    /// registry protocol, delay policy (per-message jitter included, which
    /// the deleted wavefront executor refused), open arrival process,
    /// admission policy and slow-ferry shard plan, the sweep argv with the
    /// spelling runs the same lockstep cases into the same JSON as the argv
    /// without it, and each case is the direct run of its scenario.
    #[test]
    fn wavefront_runs_are_byte_identical_to_lockstep(
        proto_idx in 0usize..10,
        delay_kind in 0u8..4,
        arrival_kind in 0u8..3,
        admission_kind in 0usize..2,
        k in 2usize..5,
        strategy in 0usize..3,
        lag in 1u64..5,
        slack in 0u64..3,
        seed in any::<u64>(),
    ) {
        let delay = match delay_kind {
            0 => "unit".to_string(),
            1 => "fixed:d=2".to_string(),
            2 => format!("perlink:max=3:seed={seed}"),
            _ => format!("jitter:max=3:seed={seed}"),
        };
        let arrival = match arrival_kind {
            0 => "oneshot".to_string(),
            1 => format!("poisson:rate=0.4:seed={seed}"),
            _ => format!("bursty:rate=0.8:on=4:off=7:seed={seed}"),
        };
        let strategy = ["contig", "stripe", "edgecut"][strategy];
        let shards = format!("{k}:{strategy}:ferry={}", lag + slack);
        let argv = [
            "--topo", "torus2d:3",
            "--proto", registry()[proto_idx].name(),
            "--delay", &delay,
            "--arrival", &arrival,
            "--admission", ["open", "droptail:bound=6"][admission_kind],
            "--shards", &shards,
        ];
        let plan = sweep_plan(&argv);
        let lockstep = plan.execute();
        let wave = sweep_plan(&[&argv[..], &[&format!("--wavefront:lag={lag}")]].concat()).execute();
        prop_assert_eq!(wave.to_json(), lockstep.to_json(), "{:?}: JSON diverged", argv);
        let cases = plan.cases();
        prop_assert_eq!(cases.len(), 1);
        let (case, result) = (&cases[0], &lockstep.cases[0]);
        prop_assert!(result.ok, "{:?}: {:?}", argv, result.error);
        let direct =
            run_spec_with(case.protocol.as_ref(), &case.scenario(), case.mode, case.delay)
                .unwrap();
        let m = DelayReport::from_sim_with_order(&direct.alg, &direct.report, &direct.order);
        prop_assert_eq!(
            (m.total_delay, m.messages),
            (result.total_delay, result.messages),
            "{:?}: the sweep case is not the direct lockstep run", argv
        );
    }
}

/// Bare `--wavefront` composes with the other execution strategies: for
/// every registry protocol on a slow ferry, the sweep argv with the
/// retired spelling (alone or with `--parallel-apply`) prints the lockstep
/// JSON, and its cases (spelled `--wavefront:lag=4`) run on the dense
/// reference scan into the serialized lockstep reports byte for byte.
#[test]
fn wavefront_auto_lag_composes_with_the_other_strategies() {
    let argv = ["--topo", "torus2d:4", "--shards", "3:edgecut:ferry=5"];
    let plan = |extra: &[&str]| sweep_plan(&[&argv[..], extra].concat());
    let lockstep = plan(&[]).execute();
    assert_eq!(lockstep.cases.len(), registry().len());
    assert!(lockstep.cases.iter().all(|c| c.ok), "a lockstep case failed");
    for extra in [&["--wavefront"][..], &["--wavefront", "--parallel-apply"]] {
        assert_eq!(plan(extra).execute().to_json(), lockstep.to_json(), "{extra:?} diverged");
    }
    for (wave, lock) in plan(&["--wavefront:lag=4"]).cases().iter().zip(&plan(&[]).cases()) {
        let name = lock.protocol.name();
        let serial =
            run_spec_with(lock.protocol.as_ref(), &lock.scenario(), lock.mode, lock.delay).unwrap();
        let dense = run_on_reference(
            wave.protocol.as_ref(),
            &wave.scenario(),
            wave.mode,
            wave.delay,
            |c| c.with_dense_scan(true),
        )
        .unwrap();
        assert_eq!(dense.order, serial.order, "{name}: order diverged");
        assert_eq!(
            serde_json::to_string(&dense.report).unwrap(),
            serde_json::to_string(&serial.report).unwrap(),
            "{name}: lag=4 + dense scan diverged from lockstep"
        );
    }
}

/// Deterministic matrix: every registry protocol × mesh2d/torus2d × shard
/// counts (including the k = 1 degenerate plan), each case of a sweep argv
/// that names the retired `--parallel-apply` spelling, equals the
/// *unsharded monolith* — a sharded run's deliver walk updates every
/// slice exactly as the unsharded one does.
#[test]
fn parallel_apply_matches_the_monolith_for_every_registry_protocol() {
    for topo in ["mesh2d:4", "torus2d:4"] {
        for k in ["1:edgecut", "3:edgecut"] {
            let cases = sweep_plan(&["--topo", topo, "--shards", k, "--parallel-apply"]).cases();
            assert_eq!(cases.len(), registry().len());
            for case in &cases {
                let name = case.protocol.name();
                let run = |scenario: &Scenario| {
                    run_spec_with(case.protocol.as_ref(), scenario, case.mode, case.delay).unwrap()
                };
                let sharded = run(&case.scenario());
                let single = run(&case.scenario().with_shards(ShardSpec::single()));
                assert_eq!(sharded.order, single.order, "{name} on {topo} k={k}: order diverged");
                assert_eq!(
                    fingerprint(&sharded.report),
                    fingerprint(&single.report),
                    "{name} on {topo} k={k}: the deliver walk diverged from the monolith"
                );
            }
        }
    }
}

/// Admission control composes with the retired `--parallel-apply`
/// spelling: backpressure decisions are made in the serialized arrivals
/// phase against the global backlog, so a shedding sweep prints the same
/// JSON with the spelling as without it.
#[test]
fn parallel_apply_composes_with_admission_control() {
    let argv = [
        "--topo",
        "mesh2d:4",
        "--arrival",
        "poisson:rate=0.9:seed=3",
        "--admission",
        "droptail:bound=4",
        "--shards",
        "4:edgecut",
        "--modes",
        "strict",
    ];
    let serial = sweep_plan(&argv).execute();
    let retired = sweep_plan(&[&argv[..], &["--parallel-apply"]].concat()).execute();
    assert_eq!(retired.to_json(), serial.to_json(), "diverged under admission control");
    assert_eq!(serial.cases.len(), registry().len());
    assert!(serial.cases.iter().all(|c| c.ok), "a shedding case failed");
    assert!(serial.cases.iter().any(|c| c.dropped > 0), "the bound shed nothing");
}

/// Every registry protocol, on mesh2d and torus2d, across shard counts and
/// strategies: completion counts, orders and all metrics match the
/// single-shard run, and sharded runs actually ferry messages.
#[test]
fn registry_protocols_match_single_shard_on_mesh_and_torus() {
    for topo in [TopoSpec::Mesh2D { side: 4 }, TopoSpec::Torus2D { side: 4 }] {
        let baseline = Scenario::build(topo.clone(), RequestPattern::All);
        for spec in registry() {
            let mode = spec.kind().paper_mode();
            let single = run_spec(spec, &baseline, mode).unwrap();
            for k in [2, 4] {
                for strategy in
                    [ShardStrategy::Contiguous, ShardStrategy::Striped, ShardStrategy::EdgeCut]
                {
                    let scenario = Scenario::build(topo.clone(), RequestPattern::All)
                        .with_shards(ShardSpec::new(k, strategy));
                    let sharded = run_spec(spec, &scenario, mode).unwrap();
                    let ctx = format!(
                        "{} on {} with k={k} {}",
                        spec.name(),
                        topo.name(),
                        strategy.label()
                    );
                    // Same operations in the same order with the same delays.
                    assert_eq!(sharded.order, single.order, "{ctx}: order diverged");
                    assert_eq!(
                        fingerprint(&sharded.report),
                        fingerprint(&single.report),
                        "{ctx}: report diverged"
                    );
                    assert!(
                        sharded.report.cross_shard_messages > 0,
                        "{ctx}: no cross-shard traffic measured"
                    );
                    assert_eq!(single.report.cross_shard_messages, 0);
                }
            }
        }
    }
}

/// Open-system arrivals survive sharding too: the arrivals phase issues the
/// same schedule on either executor.
#[test]
fn open_arrivals_match_across_executors() {
    let arrival = ArrivalSpec::Poisson { rate: 0.3, seed: 9 };
    let single = Scenario::build_with(TopoSpec::Torus2D { side: 4 }, RequestPattern::All, arrival);
    for spec in registry() {
        let base = run_spec(spec, &single, ModelMode::Strict).unwrap();
        let sharded_scenario = Scenario::build_with(
            TopoSpec::Torus2D { side: 4 },
            RequestPattern::All,
            ArrivalSpec::Poisson { rate: 0.3, seed: 9 },
        )
        .with_shards(ShardSpec::new(3, ShardStrategy::EdgeCut));
        let sharded = run_spec(spec, &sharded_scenario, ModelMode::Strict).unwrap();
        assert_eq!(
            fingerprint(&base.report),
            fingerprint(&sharded.report),
            "{} open-system run diverged under sharding",
            spec.name()
        );
    }
}

/// A deliberately slower ferry is the one thing that *should* change the
/// execution — and it must still verify.
#[test]
fn slow_ferry_diverges_but_verifies() {
    let scenario = Scenario::build(TopoSpec::Torus2D { side: 4 }, RequestPattern::All).with_shards(
        ShardSpec::new(4, ShardStrategy::EdgeCut).with_inter_delay(LinkDelay::Fixed { delay: 7 }),
    );
    let baseline = Scenario::build(TopoSpec::Torus2D { side: 4 }, RequestPattern::All);
    for spec in registry() {
        let fed = run_spec(spec, &scenario, ModelMode::Strict).unwrap();
        let base = run_spec(spec, &baseline, ModelMode::Strict).unwrap();
        assert_eq!(fed.order.len(), base.order.len(), "{}", spec.name());
        if spec.kind() == ProtocolKind::Relaxed {
            // The relaxed counter never waits on a message to complete, so
            // the ferry toll lands only on background gossip: total delay
            // stays identically zero on both sides of the comparison.
            assert_eq!(fed.report.total_delay(), 0, "{}", spec.name());
            assert_eq!(base.report.total_delay(), 0, "{}", spec.name());
            continue;
        }
        assert!(
            fed.report.total_delay() > base.report.total_delay(),
            "{}: ferry toll did not register ({} vs {})",
            spec.name(),
            fed.report.total_delay(),
            base.report.total_delay()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heterogeneous-traffic guarantee: priority classes × crash/recover
    /// faults × per-node admission produce byte-identical reports across
    /// both scan strategies of the *same shard plan* — the frontier walks
    /// and the dense scan. (The monolith is
    /// deliberately absent: `pernode` admission reads the requester's shard
    /// backlog, so changing the shard plan legitimately changes which
    /// arrivals are shed — that plan-dependence is the policy's point.)
    /// The priority reorder is decided in the serialized arrivals phase,
    /// the fault freeze is a pure function of the round number, and the
    /// shard-scoped backlog is tracked on the one shared `SimApi`.
    #[test]
    fn heterogeneous_runs_are_byte_identical_across_executors(
        proto_idx in 0usize..10,
        delay_kind in 0u8..4,
        frac in 0.0f64..1.0,
        fault_kind in 0u8..3,
        bound in 2usize..9,
        protect in 0u8..2,
        k in 2usize..5,
        strategy in 0u8..3,
        seed in any::<u64>(),
    ) {
        let spec = &registry()[proto_idx];
        let delay = delay_for(delay_kind, seed);
        let faults = match fault_kind {
            0 => FaultSpec::none(),
            1 => FaultSpec::none().crash(seed as usize % 9, 3, 8),
            _ => FaultSpec::none()
                .crash(seed as usize % 9, 2, 6)
                .crash((seed as usize + 4) % 9, 5, 11),
        };
        let mode = spec.kind().paper_mode();
        let shards = ShardSpec::new(k, strategy_for(strategy));
        let scenario = Scenario::build_with(
            TopoSpec::Torus2D { side: 3 },
            RequestPattern::All,
            ArrivalSpec::Poisson { rate: 0.4, seed },
        )
        .with_priority(PrioritySpec::Split { frac, seed })
        .with_faults(faults)
        .with_admission(AdmissionSpec::PerNode { bound, protect })
        .with_shards(shards);
        let lockstep = run_spec_with(spec, &scenario, mode, delay).unwrap();
        let dense =
            run_on_reference(spec, &scenario, mode, delay, |c| c.with_dense_scan(true)).unwrap();
        prop_assert_eq!(&dense.order, &lockstep.order, "{} dense scan order diverged", spec.name());
        prop_assert_eq!(
            serde_json::to_string(&lockstep.report).unwrap(),
            serde_json::to_string(&dense.report).unwrap(),
            "{} dense scan diverged from lockstep", spec.name()
        );
    }

}

/// A crash window covering a node must actually freeze it: the faulty run
/// differs from the fault-free run (the injection is not a no-op), both
/// verify, and the report carries the crash/recover event pair.
#[test]
fn crash_windows_register_in_the_report_and_perturb_the_execution() {
    let build = |faults: FaultSpec| {
        Scenario::build_with(
            TopoSpec::Torus2D { side: 3 },
            RequestPattern::All,
            ArrivalSpec::Poisson { rate: 0.5, seed: 7 },
        )
        .with_faults(faults)
    };
    for spec in registry() {
        let mode = spec.kind().paper_mode();
        let clean = run_spec(spec, &build(FaultSpec::none()), mode).unwrap();
        let faulty = run_spec(spec, &build(FaultSpec::none().crash(4, 3, 10)), mode).unwrap();
        assert!(clean.report.fault_events.is_empty());
        assert_eq!(faulty.report.fault_events.len(), 2, "{}", spec.name());
        assert_eq!(faulty.order.len(), clean.order.len(), "{}: lost operations", spec.name());
        assert_ne!(
            serde_json::to_string(&clean.report).unwrap(),
            serde_json::to_string(&faulty.report).unwrap(),
            "{}: the crash window changed nothing",
            spec.name()
        );
    }
}

/// The sharded executor reports invalid configuration constructively
/// (satellite: no panicking config validation anywhere on the run path).
#[test]
fn sharded_invalid_config_is_an_error_not_a_panic() {
    let g = topology::path(6);
    let tree = spanning::bfs_tree(&g, 0);
    let requests: Vec<NodeId> = (0..6).collect();
    // Partition shape mismatch.
    let err = run_sharded(
        &g,
        &Partition::contiguous(5, 2),
        ArrowProtocol::new(&tree, 0, &requests),
        SimConfig::strict(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("partition"), "{err}");
    // A zero step through the plain engine.
    let err = Simulator::new(
        &g,
        ArrowProtocol::new(&tree, 0, &requests),
        SimConfig { step: 0, ..SimConfig::strict() },
    )
    .run()
    .unwrap_err();
    assert!(err.to_string().contains("step"), "{err}");
}
