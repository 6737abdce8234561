//! Every registry protocol must run and verify on the two beyond-paper
//! topologies (torus, random-regular) in both execution models — the
//! registry's contract is that an entry works on *any* connected scenario.

mod common;

use ccq_repro::core::run::config_for;
use ccq_repro::counting::{CentralCounterProtocol, CombiningTreeProtocol};
use ccq_repro::prelude::*;
use ccq_repro::queuing::{CentralQueueProtocol, CombiningQueueProtocol};
use ccq_repro::sim::{Arrivals, Protocol, SimConfig, SimReport, Simulator};
use common::{assert_twins, beyond_paper_topologies, open_arrivals, registry_matrix, sweep_plan};
use serde_json::Value;

#[test]
fn every_registry_entry_verifies_on_torus_and_random_regular() {
    for (spec, proto) in registry_matrix(beyond_paper_topologies()) {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        for mode in [ModelMode::Strict, ModelMode::Expanded] {
            let out = run_spec(proto, &s, mode)
                .unwrap_or_else(|e| panic!("{} on {} ({mode:?}): {e}", proto.name(), spec.name()));
            assert_eq!(
                out.order.len(),
                s.k(),
                "{} on {} ({mode:?}): wrong order length",
                proto.name(),
                spec.name()
            );
            assert_eq!(out.alg, proto.name());
            if proto.kind() == ProtocolKind::Relaxed {
                // The relaxed counter completes every operation in its
                // issue round — zero coordination delay by construction.
                assert_eq!(out.report.total_delay(), 0, "{}", proto.name());
            } else {
                assert!(out.report.total_delay() > 0, "{}", proto.name());
            }
        }
    }
}

#[test]
fn registry_covers_both_kinds_on_extended_topologies() {
    // The crossover verdict also holds beyond the paper's topology list.
    let set = RunPlan::new().topologies(beyond_paper_topologies()).execute();
    assert_eq!(set.cases.len(), 2 * registry().len());
    for case in &set.cases {
        assert!(case.ok, "{} on {}: {:?}", case.protocol, case.topology, case.error);
    }
    for summary in &set.summaries {
        assert!(
            summary.queuing_wins.unwrap(),
            "queuing lost on {}: gap {:?}",
            summary.topology,
            summary.gap
        );
    }
}

#[test]
fn every_registry_entry_verifies_under_open_arrivals() {
    // One open-system arrival case per protocol: cycle through the three
    // open processes so each protocol faces at least one of them on each
    // beyond-paper topology, with outputs checked by the existing verify
    // hooks inside run_spec.
    let arrivals = open_arrivals(11);
    for (i, (spec, proto)) in registry_matrix(beyond_paper_topologies()).enumerate() {
        let arrival = arrivals[i % arrivals.len()].clone();
        let s = Scenario::build_with(spec.clone(), RequestPattern::All, arrival.clone());
        let out = run_spec(proto, &s, ModelMode::Strict).unwrap_or_else(|e| {
            panic!("{} on {} under {}: {e}", proto.name(), spec.name(), arrival.name())
        });
        let ctx = format!("{} on {} under {}", proto.name(), spec.name(), arrival.name());
        assert_eq!(out.order.len(), s.k(), "{ctx}: wrong order length");
        // Open-system accounting: one issue event per requester, a
        // positive backlog, and ordered latency percentiles.
        assert_eq!(out.report.issues.len(), s.k(), "{ctx}: missing issue events");
        if proto.kind() == ProtocolKind::Relaxed {
            // Instant completion: the coordination-free counter never
            // accumulates a backlog, at any arrival rate.
            assert_eq!(out.report.backlog_high_water, 0, "{ctx}: relaxed run queued");
        } else {
            assert!(out.report.backlog_high_water > 0, "{ctx}: no backlog observed");
        }
        let (p50, p95, p99) = (
            out.report.latency_percentile(0.50),
            out.report.latency_percentile(0.95),
            out.report.latency_percentile(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99, "{ctx}: unordered percentiles");
        assert!(out.report.throughput() > 0.0, "{ctx}: zero throughput");
        // No admission policy was set: nothing may be shed or deferred.
        assert!(out.report.dropped.is_empty(), "{ctx}: drops without admission control");
        assert_eq!(out.report.delayed_admissions, 0, "{ctx}: deferrals without admission");
    }
}

#[test]
fn every_registry_entry_verifies_under_backpressure() {
    // The admission matrix: every protocol, each active policy, on each
    // beyond-paper topology — all must verify over the retained set, and
    // the accounting must conserve arrivals.
    let admissions = [
        AdmissionSpec::DropTail { bound: 5 },
        AdmissionSpec::DelayRetry { bound: 5, backoff: 3 },
        AdmissionSpec::Adaptive { target_backlog: 5, gain: 1 },
    ];
    for (i, (spec, proto)) in registry_matrix(beyond_paper_topologies()).enumerate() {
        let admission = admissions[i % admissions.len()];
        let s = Scenario::build_with(
            spec.clone(),
            RequestPattern::All,
            ArrivalSpec::Poisson { rate: 0.6, seed: 11 },
        )
        .with_admission(admission);
        let out = run_spec(proto, &s, ModelMode::Strict).unwrap_or_else(|e| {
            panic!("{} on {} under {}: {e}", proto.name(), spec.name(), admission.name())
        });
        let ctx = format!("{} on {} under {}", proto.name(), spec.name(), admission.name());
        let r = &out.report;
        // Conservation: every scheduled arrival is admitted or dropped.
        assert_eq!(r.issues.len() + r.dropped.len(), s.k(), "{ctx}: arrivals lost");
        assert_eq!(out.order.len(), r.issues.len(), "{ctx}: retained order length");
        assert!(r.goodput() <= r.throughput() + 1e-12, "{ctx}: goodput > throughput");
        // Latency percentiles cover exactly the admitted ops (shed
        // arrivals never issue) and stay ordered under every policy.
        let (p50, p95) = (r.latency_percentile(0.50), r.latency_percentile(0.95));
        assert!(p50 <= p95, "{ctx}: unordered retained percentiles");
        match admission {
            AdmissionSpec::DropTail { .. } => {
                assert_eq!(r.delayed_admissions, 0, "{ctx}: droptail never defers")
            }
            _ => assert!(r.dropped.is_empty(), "{ctx}: delaying policies never drop"),
        }
    }
}

#[test]
fn open_arrivals_with_delayed_links_still_verify() {
    // The full open-system matrix in miniature: every protocol, one open
    // arrival, every delay policy, via the sweep API.
    let set = RunPlan::new()
        .topologies(beyond_paper_topologies())
        .arrivals([ArrivalSpec::Poisson { rate: 0.4, seed: 3 }])
        .delays([
            LinkDelay::Unit,
            LinkDelay::Fixed { delay: 2 },
            LinkDelay::PerLink { max: 3, seed: 5 },
            LinkDelay::Jitter { max: 3, seed: 5 },
        ])
        .execute();
    assert_eq!(set.cases.len(), 2 * registry().len() * 4);
    for case in &set.cases {
        assert!(
            case.ok,
            "{} on {} ({} / {}): {:?}",
            case.protocol, case.topology, case.arrival, case.delay, case.error
        );
        assert!(case.latency_p50 <= case.latency_p95 && case.latency_p95 <= case.latency_p99);
    }
}

#[test]
fn subset_requests_verify_on_extended_topologies() {
    // Partial request sets exercise the rank/order checks differently.
    for (spec, proto) in registry_matrix(beyond_paper_topologies()) {
        let s = Scenario::build(spec.clone(), RequestPattern::Random { density: 0.5, seed: 9 });
        let out = run_spec(proto, &s, ModelMode::Strict)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", proto.name(), spec.name()));
        assert_eq!(out.order.len(), s.k(), "{} on {}", proto.name(), spec.name());
    }
}

/// Run `p` on the scenario's graph, issuing from its open schedule if it
/// has one.
fn run_twin<P: Protocol>(s: &Scenario, cfg: SimConfig, p: P) -> SimReport {
    let mut sim = Simulator::new(&s.graph, p, cfg);
    if let Some(schedule) = s.open_schedule() {
        sim = sim.with_arrivals(Arrivals::new(schedule.to_vec()));
    }
    sim.run().expect("twin runs")
}

#[test]
fn twin_protocols_run_one_execution_on_extended_topologies() {
    // The registry runs each twin on its own tree and mode, so build both
    // members of a pair directly on the scenario's counting tree, homed at
    // its root, under one config: one mechanism must give one execution.
    // This pins that t4's counting/queuing gap comes from arrow's
    // locality, not from two implementations drifting apart.
    for topo in beyond_paper_topologies() {
        for arrival in std::iter::once(ArrivalSpec::OneShot).chain(open_arrivals(11)) {
            let s = Scenario::build_with(topo.clone(), RequestPattern::All, arrival.clone());
            let (tree, requests) = (&s.counting_tree, &s.requests);
            for mode in [ModelMode::Strict, ModelMode::Expanded] {
                let cfg = config_for(mode, tree.max_degree());
                let ctx = |pair: &str| {
                    format!("{pair} on {} under {} ({mode:?})", topo.name(), arrival.name())
                };
                let root = tree.root();
                let queue = run_twin(&s, cfg, CentralQueueProtocol::new(tree, root, requests));
                let counter = run_twin(&s, cfg, CentralCounterProtocol::new(tree, root, requests));
                assert_twins(requests, &queue, &counter, &ctx("central"));
                let queue = run_twin(&s, cfg, CombiningQueueProtocol::new(tree, requests));
                let counter = run_twin(&s, cfg, CombiningTreeProtocol::new(tree, requests));
                assert_twins(requests, &queue, &counter, &ctx("combining"));
            }
        }
    }
}

/// `--arrival poisson:rate=1` issues every request at round 0 from an open
/// schedule, in shuffled order; with no `--arrival` the run issues the
/// one-shot batch. The two are one execution: every case field agrees
/// except the backlog, which only a schedule's recorded issues count.
#[test]
fn a_rate_one_poisson_run_is_the_one_shot_run() {
    let topologies = "list:8,star:9,complete:7,mesh2d:3,caterpillar:4:2,tree:3:2";
    let variants: [&[&str]; 4] = [
        &[],
        &["--delay", "jitter:max=3:seed=5"],
        &["--shards", "2:stripe"],
        &["--pattern", "random:0.5:3"],
    ];
    // A case's JSON members, without its arrival's name and its backlog.
    fn fields(case: &CaseResult) -> Vec<(String, Value)> {
        let json = serde_json::to_string(case).expect("a case serializes");
        let Value::Object(members) = common::json(&json) else { panic!("a case is an object") };
        let kept = |key: &str| !["arrival", "backlog", "backlog_high_water"].contains(&key);
        let strip = |(key, value): (String, Value)| match value {
            Value::Object(metrics) => {
                (key, Value::Object(metrics.into_iter().filter(|(k, _)| kept(k)).collect()))
            }
            value => (key, value),
        };
        members.into_iter().filter(|(key, _)| kept(key)).map(strip).collect()
    }
    for variant in variants {
        let argv = [&["--topo", topologies, "--proto", "all"][..], variant].concat();
        let batch = sweep_plan(&argv).execute();
        let open = sweep_plan(&[&argv[..], &["--arrival", "poisson:rate=1"]].concat()).execute();
        assert_eq!(batch.cases.len(), 6 * registry().len(), "{variant:?}");
        assert_eq!(open.cases.len(), batch.cases.len(), "{variant:?}");
        for (one_shot, paced) in batch.cases.iter().zip(&open.cases) {
            let ctx = format!("{} on {} {variant:?}", one_shot.protocol, one_shot.topology);
            assert!(one_shot.ok && paced.ok, "{ctx}: {:?} {:?}", one_shot.error, paced.error);
            assert_eq!(one_shot.backlog, 0, "{ctx}: the batch records no issue");
            assert_eq!(fields(one_shot), fields(paced), "{ctx}");
        }
    }
}
