//! Cross-crate integration tests for distributed counting: every algorithm
//! on every topology, rank-set verification, and the §3 lower bounds.

use ccq_repro::bounds::{counting_lb_diameter, counting_lb_general};
use ccq_repro::core::protocol;
use ccq_repro::graph::bfs;
use ccq_repro::prelude::*;

fn all_specs() -> Vec<TopoSpec> {
    vec![
        TopoSpec::Complete { n: 32 },
        TopoSpec::List { n: 32 },
        TopoSpec::Mesh2D { side: 6 },
        TopoSpec::Mesh3D { side: 3 },
        TopoSpec::Hypercube { dim: 5 },
        TopoSpec::PerfectTree { m: 2, depth: 4 },
        TopoSpec::Star { n: 32 },
        TopoSpec::Caterpillar { spine: 10, legs: 2 },
    ]
}

fn all_algs() -> Vec<&'static ProtocolSpec> {
    registry_of(ProtocolKind::Counting).collect()
}

#[test]
fn every_algorithm_counts_correctly_everywhere() {
    for spec in all_specs() {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        for alg in all_algs() {
            let out = run_spec(alg, &s, ModelMode::Strict)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", spec.name(), alg.name()));
            assert_eq!(out.order.len(), s.k(), "{} / {}", spec.name(), alg.name());
        }
    }
}

#[test]
fn sparse_requests_count_correctly() {
    for spec in all_specs() {
        for seed in [5u64, 6] {
            let s = Scenario::build(spec.clone(), RequestPattern::Random { density: 0.4, seed });
            for alg in all_algs() {
                let out = run_spec(alg, &s, ModelMode::Strict)
                    .unwrap_or_else(|e| panic!("{} / {}: {e}", spec.name(), alg.name()));
                assert_eq!(out.order.len(), s.k());
            }
        }
    }
}

#[test]
fn theorem_3_5_floor_holds_for_every_algorithm() {
    // Ω(n log* n): no algorithm dips below the exact bound on any topology
    // (we check the strongest case, R = V on the complete graph, plus two
    // others for good measure).
    for spec in
        [TopoSpec::Complete { n: 64 }, TopoSpec::Hypercube { dim: 6 }, TopoSpec::Mesh2D { side: 8 }]
    {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let lb = counting_lb_general(s.n());
        for alg in all_algs() {
            let out = run_spec(alg, &s, ModelMode::Strict).unwrap();
            assert!(
                out.report.total_delay() >= lb,
                "{} / {}: {} < LB {lb}",
                spec.name(),
                alg.name(),
                out.report.total_delay()
            );
        }
    }
}

#[test]
fn theorem_3_6_floor_holds_on_high_diameter_graphs() {
    for spec in [TopoSpec::List { n: 64 }, TopoSpec::Caterpillar { spine: 20, legs: 2 }] {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let alpha = bfs::diameter_two_sweep(&s.graph, 0) as u64;
        let lb = counting_lb_diameter(alpha);
        for alg in [&protocol::CentralCounter, &protocol::CombiningTree] {
            let out = run_spec(alg, &s, ModelMode::Strict).unwrap();
            assert!(
                out.report.total_delay() >= lb,
                "{} / {}: below Ω(α²)",
                spec.name(),
                alg.name()
            );
        }
    }
}

#[test]
fn expanded_mode_also_counts_correctly() {
    let s = Scenario::build(TopoSpec::Complete { n: 24 }, RequestPattern::All);
    for alg in all_algs() {
        let out = run_spec(alg, &s, ModelMode::Expanded).unwrap();
        assert_eq!(out.order.len(), 24);
    }
}

#[test]
fn counting_network_widths_all_valid() {
    let s = Scenario::build(TopoSpec::Complete { n: 20 }, RequestPattern::All);
    for w in [2usize, 4, 8, 16] {
        let out = run_spec(&protocol::CountingNetwork { width: Some(w) }, &s, ModelMode::Strict)
            .unwrap_or_else(|e| panic!("width {w}: {e}"));
        assert_eq!(out.order.len(), 20, "width {w}");
    }
}

#[test]
fn combining_ranks_are_preorder_positions() {
    // On the heap tree of K_n with all requesting, rank 1 is the root.
    let s = Scenario::build(TopoSpec::Complete { n: 15 }, RequestPattern::All);
    let out = run_spec(&protocol::CombiningTree, &s, ModelMode::Strict).unwrap();
    assert_eq!(out.order[0], s.counting_tree.root());
}

#[test]
fn single_requester_gets_rank_one() {
    for spec in [TopoSpec::List { n: 16 }, TopoSpec::Star { n: 16 }] {
        let s = Scenario::build(spec, RequestPattern::Custom(vec![7]));
        for alg in all_algs() {
            let out = run_spec(alg, &s, ModelMode::Strict).unwrap();
            assert_eq!(out.order, vec![7]);
            assert_eq!(out.report.completions[0].value, 1);
        }
    }
}
