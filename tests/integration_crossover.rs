//! The headline result end to end: queuing beats counting on every paper
//! topology except the star, where they tie.

use ccq_repro::core::protocol;
use ccq_repro::core::run::run_best_counting;
use ccq_repro::prelude::*;

#[test]
fn queuing_beats_counting_on_hamilton_path_topologies() {
    for spec in [
        TopoSpec::Complete { n: 64 },
        TopoSpec::Mesh2D { side: 8 },
        TopoSpec::Mesh3D { side: 4 },
        TopoSpec::Hypercube { dim: 6 },
    ] {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let c = run_best_counting(&s, ModelMode::Strict).unwrap();
        assert!(
            q.report.total_delay() < c.report.total_delay(),
            "{}: queuing {} vs counting {}",
            spec.name(),
            q.report.total_delay(),
            c.report.total_delay()
        );
    }
}

#[test]
fn queuing_beats_counting_on_high_diameter_topologies() {
    for spec in [TopoSpec::List { n: 128 }, TopoSpec::Caterpillar { spine: 40, legs: 2 }] {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let c = run_best_counting(&s, ModelMode::Strict).unwrap();
        assert!(q.report.total_delay() < c.report.total_delay(), "{}", spec.name());
    }
}

#[test]
fn queuing_beats_counting_on_perfect_trees() {
    for (m, depth) in [(2usize, 5usize), (3, 3)] {
        let s = Scenario::build(TopoSpec::PerfectTree { m, depth }, RequestPattern::All);
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let c = run_best_counting(&s, ModelMode::Strict).unwrap();
        assert!(q.report.total_delay() < c.report.total_delay(), "m={m} depth={depth}");
    }
}

#[test]
fn gap_widens_with_n_on_the_list() {
    // Ω(n²) vs O(n): the measured gap must grow markedly.
    let gap = |n: usize| {
        let s = Scenario::build(TopoSpec::List { n }, RequestPattern::All);
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let c = run_best_counting(&s, ModelMode::Strict).unwrap();
        c.report.total_delay() as f64 / q.report.total_delay().max(1) as f64
    };
    let (g64, g256) = (gap(64), gap(256));
    assert!(g256 > 2.0 * g64, "gap did not widen: {g64} → {g256}");
}

#[test]
fn star_is_a_tie_within_constant_factor() {
    // §5: both Θ(n²) — ratio bounded as n quadruples.
    let ratio = |n: usize| {
        let s = Scenario::build(TopoSpec::Star { n }, RequestPattern::All);
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Strict).unwrap();
        let c = run_best_counting(&s, ModelMode::Strict).unwrap();
        c.report.total_delay() as f64 / q.report.total_delay().max(1) as f64
    };
    let (r32, r128) = (ratio(32), ratio(128));
    let drift = (r128 / r32).max(r32 / r128);
    assert!(drift < 3.0, "star ratio drifted ×{drift}: {r32} → {r128}");
}

#[test]
fn verdicts_match_theory_module() {
    use ccq_repro::bounds::{verdict, Topology, Verdict};
    // The executable comparison agrees with the closed-form verdicts.
    let cases = [
        (TopoSpec::Complete { n: 64 }, Topology::Complete),
        (TopoSpec::List { n: 64 }, Topology::List),
        (TopoSpec::Star { n: 64 }, Topology::Star),
    ];
    for (spec, topo) in cases {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let mode =
            if matches!(topo, Topology::Star) { ModelMode::Strict } else { ModelMode::Expanded };
        let q = run_spec(&protocol::Arrow, &s, mode).unwrap();
        let c = run_best_counting(&s, ModelMode::Strict).unwrap();
        match verdict(topo) {
            Verdict::QueuingWins => {
                assert!(q.report.total_delay() < c.report.total_delay(), "{}", spec.name())
            }
            Verdict::Tie => {
                let ratio = c.report.total_delay() as f64 / q.report.total_delay() as f64;
                assert!((0.2..5.0).contains(&ratio), "{}: ratio {ratio}", spec.name());
            }
        }
    }
}
