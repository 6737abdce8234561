//! Integration tests for the long-lived extension and the asynchronous
//! (jittered) model across topologies — correctness must be independent of
//! arrival schedules and link-delay schedules. Long-lived arrivals run the
//! plain [`ArrowProtocol`] on an open schedule
//! ([`ccq_repro::sim::Simulator::with_arrivals`]).

use ccq_repro::graph::{NodeId, Tree};
use ccq_repro::prelude::*;
use ccq_repro::queuing::{verify_total_order, ArrowProtocol};
use ccq_repro::sim::{run_protocol, Arrivals, Protocol, Round, SimConfig, SimReport, Simulator};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The arrow protocol on `tree` under an arrival schedule, built exactly
/// as a one-shot run builds it — there is no mode to set — over the
/// scheduled nodes; returns the report and the sorted requesters.
fn run_arrow(
    tree: &Tree,
    tail: NodeId,
    schedule: &[(Round, NodeId)],
    cfg: SimConfig,
) -> (SimReport, Vec<NodeId>) {
    let requesters: Vec<NodeId> = schedule.iter().map(|&(_, v)| v).collect();
    let arrow = ArrowProtocol::new(tree, tail, &requesters);
    let g = tree.to_graph();
    let sim = Simulator::new(&g, arrow, cfg).with_arrivals(Arrivals::new(schedule.to_vec()));
    let (rep, arrow) = sim.run_with_state().unwrap();
    (rep, arrow.requests().to_vec())
}

/// Issue round per node (`Round::MAX` = never requests).
fn issue_rounds(n: usize, schedule: &[(Round, NodeId)]) -> Vec<Round> {
    let mut issue = vec![Round::MAX; n];
    for &(r, v) in schedule {
        issue[v] = r;
    }
    issue
}

fn run_longlived(
    tree: &Tree,
    tail: NodeId,
    schedule: &[(Round, NodeId)],
    cfg: SimConfig,
) -> (ccq_repro::sim::SimReport, Vec<Round>) {
    let (rep, requesters) = run_arrow(tree, tail, schedule, cfg);
    let issue = issue_rounds(tree.n(), schedule);
    // Every requester issues and completes exactly once (a run that also
    // issued the one-shot batch would issue each of them twice).
    let mut issued: Vec<NodeId> = rep.issues.iter().map(|i| i.node).collect();
    issued.sort_unstable();
    assert_eq!(issued, requesters);
    let mut completed: Vec<NodeId> = rep.completions.iter().map(|c| c.node).collect();
    completed.sort_unstable();
    assert_eq!(completed, requesters);
    let pred_of: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
    verify_total_order(&requesters, &pred_of).unwrap();
    (rep, issue)
}

#[test]
fn random_schedules_on_every_topology() {
    let specs = [
        TopoSpec::Complete { n: 24 },
        TopoSpec::List { n: 24 },
        TopoSpec::Mesh2D { side: 5 },
        TopoSpec::PerfectTree { m: 2, depth: 3 },
        TopoSpec::Star { n: 24 },
    ];
    for spec in specs {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..3 {
            let mut schedule: Vec<(Round, NodeId)> = Vec::new();
            for v in 0..s.n() {
                if rng.random::<f64>() < 0.7 {
                    schedule.push((rng.random_range(0..60u64), v));
                }
            }
            if schedule.is_empty() {
                continue;
            }
            let cfg = SimConfig::expanded(s.queuing_tree.max_degree() + 1);
            let (rep, _) = run_longlived(&s.queuing_tree, s.tail, &schedule, cfg);
            assert_eq!(rep.ops(), schedule.len(), "{} trial {trial}", spec.name());
        }
    }
}

#[test]
fn completions_never_precede_issues() {
    let s = Scenario::build(TopoSpec::Mesh2D { side: 6 }, RequestPattern::All);
    let schedule: Vec<(Round, NodeId)> = (0..s.n()).map(|v| ((v as u64 * 7) % 40, v)).collect();
    let (rep, issue) = run_longlived(&s.queuing_tree, s.tail, &schedule, SimConfig::strict());
    for c in &rep.completions {
        assert!(c.round >= issue[c.node], "node {} completed before issuing", c.node);
    }
}

#[test]
fn longlived_under_jitter_still_valid() {
    let s = Scenario::build(TopoSpec::List { n: 30 }, RequestPattern::All);
    for seed in 0..5u64 {
        let schedule: Vec<(Round, NodeId)> = (0..30).map(|v| ((v as u64 * 3) % 20, v)).collect();
        let cfg = SimConfig::strict().with_jitter(4, seed);
        let (rep, _) = run_longlived(&s.queuing_tree, s.tail, &schedule, cfg);
        assert_eq!(rep.ops(), 30, "seed {seed}");
    }
}

#[test]
fn one_shot_protocols_correct_under_jitter_everywhere() {
    for spec in
        [TopoSpec::Complete { n: 20 }, TopoSpec::Mesh2D { side: 5 }, TopoSpec::Star { n: 20 }]
    {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        for seed in [3u64, 11] {
            // Arrow.
            let cfg = SimConfig::strict().with_jitter(3, seed);
            let proto =
                ccq_repro::queuing::ArrowProtocol::new(&s.queuing_tree, s.tail, &s.requests);
            let rep = run_protocol(&s.graph, proto, cfg).unwrap();
            let pred_of: Vec<(NodeId, u64)> =
                rep.completions.iter().map(|c| (c.node, c.value)).collect();
            verify_total_order(&s.requests, &pred_of)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.name()));
            // Combining counter.
            let proto =
                ccq_repro::counting::CombiningTreeProtocol::new(&s.counting_tree, &s.requests);
            let rep = run_protocol(&s.graph, proto, cfg).unwrap();
            let ranks: Vec<(NodeId, u64)> =
                rep.completions.iter().map(|c| (c.node, c.value)).collect();
            ccq_repro::counting::verify_ranks(&s.requests, &ranks)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.name()));
        }
    }
}

#[test]
fn far_future_schedule_fast_forwards() {
    // A schedule whose last arrival is at round 10⁷ must still run quickly
    // (wall time) because quiescent gaps are skipped.
    let s = Scenario::build(TopoSpec::List { n: 16 }, RequestPattern::All);
    let schedule: Vec<(Round, NodeId)> = (0..16).map(|v| (v as u64 * 700_000, v)).collect();
    let start = std::time::Instant::now();
    let (rep, requesters) = run_arrow(&s.queuing_tree, s.tail, &schedule, SimConfig::strict());
    let pred_of: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
    verify_total_order(&requesters, &pred_of).unwrap();
    assert!(rep.rounds >= 10_000_000);
    assert!(start.elapsed().as_secs() < 10, "fast-forward failed: {:?}", start.elapsed());
}

#[test]
fn sequential_schedule_reproduces_nn_style_costs() {
    // Spaced-out arrivals in NN order cost exactly the NN tour legs.
    let s = Scenario::build(TopoSpec::List { n: 40 }, RequestPattern::All);
    let tour = ccq_repro::tsp::nn_tour(&s.queuing_tree, s.tail, &s.requests);
    let gap = 1000u64;
    let schedule: Vec<(Round, NodeId)> =
        tour.order.iter().enumerate().map(|(i, &v)| (i as u64 * gap, v)).collect();
    let (rep, issue) = run_longlived(&s.queuing_tree, s.tail, &schedule, SimConfig::strict());
    let mut adjusted: Vec<(NodeId, u64)> =
        rep.completions.iter().map(|c| (c.node, c.round - issue[c.node])).collect();
    adjusted.sort_unstable();
    let mut expected: Vec<(NodeId, u64)> =
        tour.order.iter().zip(&tour.leg_costs).map(|(&v, &c)| (v, c)).collect();
    expected.sort_unstable();
    assert_eq!(adjusted, expected);
}
