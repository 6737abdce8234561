//! Cross-crate integration tests for distributed queuing: the arrow
//! protocol on every topology the paper names, validated end to end
//! (graph → spanning tree → simulator → total-order verification → bounds).

use ccq_repro::core::protocol;
use ccq_repro::prelude::*;
use ccq_repro::queuing::sequential_arrow_cost;
use ccq_repro::tsp::nn_tour;

fn all_specs() -> Vec<TopoSpec> {
    vec![
        TopoSpec::Complete { n: 32 },
        TopoSpec::List { n: 32 },
        TopoSpec::Mesh2D { side: 6 },
        TopoSpec::Mesh3D { side: 3 },
        TopoSpec::Hypercube { dim: 5 },
        TopoSpec::PerfectTree { m: 2, depth: 4 },
        TopoSpec::PerfectTree { m: 3, depth: 3 },
        TopoSpec::Star { n: 32 },
        TopoSpec::Caterpillar { spine: 10, legs: 2 },
        TopoSpec::Figure1,
    ]
}

#[test]
fn arrow_forms_valid_total_order_on_every_topology() {
    for spec in all_specs() {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        assert_eq!(out.order.len(), s.k(), "{}", spec.name());
    }
}

#[test]
fn arrow_valid_under_strict_contention_on_every_topology() {
    for spec in all_specs() {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let out = run_spec(&protocol::Arrow, &s, ModelMode::Strict)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        assert_eq!(out.order.len(), s.k(), "{}", spec.name());
    }
}

#[test]
fn arrow_valid_for_sparse_requests() {
    for spec in all_specs() {
        for seed in [1u64, 2, 3] {
            let s = Scenario::build(spec.clone(), RequestPattern::Random { density: 0.3, seed });
            let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.name()));
            assert_eq!(out.order.len(), s.k(), "{} seed {seed}", spec.name());
        }
    }
}

#[test]
fn theorem_4_1_bound_on_constant_degree_trees() {
    // Arrow ≤ 2 × NN-TSP on every constant-degree spanning tree benched.
    for spec in [
        TopoSpec::Complete { n: 64 },
        TopoSpec::List { n: 64 },
        TopoSpec::Mesh2D { side: 8 },
        TopoSpec::Hypercube { dim: 6 },
        TopoSpec::PerfectTree { m: 2, depth: 5 },
    ] {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let tour = nn_tour(&s.queuing_tree, s.tail, &s.requests);
        let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let measured = out.report.total_delay_unscaled();
        assert!(
            measured <= 2 * tour.cost(),
            "{}: measured {measured} > 2×TSP {}",
            spec.name(),
            2 * tour.cost()
        );
    }
}

#[test]
fn arrow_notify_agrees_with_base_order() {
    for spec in [TopoSpec::Mesh2D { side: 5 }, TopoSpec::Complete { n: 20 }] {
        let s = Scenario::build(spec, RequestPattern::All);
        let a = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let b = run_spec(&protocol::ArrowNotify, &s, ModelMode::Expanded).unwrap();
        assert_eq!(a.order, b.order);
    }
}

#[test]
fn concurrent_arrow_cost_relates_to_sequential_execution() {
    // The sequential cost of the concurrent order is a lower bound…
    let s = Scenario::build(TopoSpec::List { n: 48 }, RequestPattern::All);
    let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
    let seq = sequential_arrow_cost(&s.queuing_tree, s.tail, &out.order);
    // …and the concurrent execution can only be faster in total (requests
    // overlap), never slower than 2×TSP (checked elsewhere). Sanity: both
    // are positive and within a factor of each other.
    let conc = out.report.total_delay_unscaled();
    assert!(conc > 0 && seq > 0);
    assert!(conc <= 2 * seq.max(1), "concurrent {conc} vs sequential {seq}");
}

#[test]
fn central_queue_matches_arrow_semantics() {
    let s = Scenario::build(TopoSpec::Mesh2D { side: 4 }, RequestPattern::All);
    let arrow = run_spec(&protocol::Arrow, &s, ModelMode::Strict).unwrap();
    let central = run_spec(&protocol::CentralQueue, &s, ModelMode::Strict).unwrap();
    // Orders differ (different serialization) but both are valid and over
    // the same participants.
    let mut a = arrow.order.clone();
    let mut c = central.order.clone();
    a.sort_unstable();
    c.sort_unstable();
    assert_eq!(a, c);
}

#[test]
fn single_requester_delay_equals_distance_to_tail() {
    let s = Scenario::build(TopoSpec::List { n: 33 }, RequestPattern::Custom(vec![32]));
    // tail is node 0 on the list tree.
    let out = run_spec(&protocol::Arrow, &s, ModelMode::Strict).unwrap();
    assert_eq!(out.report.completions[0].round, 32);
}

#[test]
fn empty_request_set_is_silent() {
    let s = Scenario::build(TopoSpec::Complete { n: 16 }, RequestPattern::Custom(vec![]));
    let out = run_spec(&protocol::Arrow, &s, ModelMode::Strict).unwrap();
    assert!(out.order.is_empty());
    assert_eq!(out.report.messages_sent, 0);
}
