//! A `RunPlan` with a fixed seed is fully deterministic: executing the same
//! plan twice — or rebuilding it from scratch — yields byte-identical JSON,
//! including with `repeats(3)` and random request patterns. The JSON must
//! also be *valid* (it parses) and complete (per-case delay, messages,
//! contention).

mod common;

use ccq_repro::core::protocol;
use ccq_repro::prelude::*;
use common::{cases, json};

fn plan() -> RunPlan {
    RunPlan::new()
        .topologies([TopoSpec::Mesh2D { side: 4 }, TopoSpec::Complete { n: 16 }])
        .protocol(&protocol::Arrow)
        .protocol(&protocol::CombiningTree)
        .protocol(&protocol::CountingNetwork { width: Some(4) })
        .patterns([RequestPattern::All, RequestPattern::Random { density: 0.6, seed: 3 }])
        .repeats(3)
        .seed(42)
}

#[test]
fn fixed_seed_produces_byte_identical_json() {
    let first = plan().execute().to_json();
    let second = plan().execute().to_json();
    assert_eq!(first, second, "same plan, same seed → byte-identical JSON");

    let pretty_a = plan().execute().to_json_pretty();
    let pretty_b = plan().execute().to_json_pretty();
    assert_eq!(pretty_a, pretty_b);
}

#[test]
fn different_seeds_differ_where_randomness_matters() {
    // Compare seed-sensitive *case data*, not whole documents — the JSON
    // echoes the plan seed, which would make a document-level assert_ne
    // pass even if seed plumbing broke.
    let random_case_data = |set: &RunSet| -> Vec<(usize, u64)> {
        set.cases
            .iter()
            .filter(|c| c.pattern.starts_with("random"))
            .map(|c| (c.k, c.total_delay))
            .collect()
    };
    let a = random_case_data(&plan().execute());
    let b = random_case_data(&plan().seed(43).execute());
    assert!(!a.is_empty());
    assert_ne!(a, b, "random request sets must react to the plan seed");
}

#[test]
fn json_documents_every_case_with_metrics() {
    let set = plan().execute();
    // 2 topologies × 2 patterns × 3 repeats × 3 protocols, in index order
    // across all 12 work groups (the parallel collect keeps their order).
    assert_eq!(set.cases.len(), 36);
    for (i, c) in set.cases.iter().enumerate() {
        assert_eq!(c.case, i, "cases out of index order");
    }
    let doc = json(&set.to_json());
    let cs = cases(&doc);
    assert_eq!(cs.len(), 36);
    for case in cs {
        assert_eq!(case.get("ok").and_then(|v| v.as_bool()), Some(true));
        assert!(common::case_u64(case, "total_delay") > 0);
        assert!(common::case_u64(case, "messages") > 0);
        assert!(case.get("max_contention").and_then(|v| v.as_u64()).is_some());
        assert!(case.get("metrics").unwrap().get("mean_delay").is_some());
    }
    let summaries = doc.get("summaries").and_then(|s| s.as_array()).unwrap();
    assert_eq!(summaries.len(), 12, "one summary per (topology, pattern, repeat)");
}

fn open_plan() -> RunPlan {
    RunPlan::new()
        .topologies([TopoSpec::Mesh2D { side: 4 }, TopoSpec::Torus2D { side: 3 }])
        .protocol(&protocol::Arrow)
        .protocol(&protocol::CentralCounter)
        .protocol(&protocol::CombiningTree)
        .arrivals([
            ArrivalSpec::Poisson { rate: 0.3, seed: 2 },
            ArrivalSpec::Hotspot { rate: 0.4, s: 1.2, seed: 2 },
        ])
        .delays([LinkDelay::Unit, LinkDelay::Jitter { max: 3, seed: 8 }])
        .repeats(2)
        .seed(42)
}

#[test]
fn open_system_sweeps_are_byte_identical_at_fixed_seed() {
    let first = open_plan().execute().to_json();
    let second = open_plan().execute().to_json();
    assert_eq!(first, second, "same open-system plan, same seed → byte-identical JSON");
    // The open-system and backpressure fields are part of the stable
    // document.
    for field in
        ["latency_p50", "latency_p95", "latency_p99", "throughput", "backlog", "goodput", "dropped"]
    {
        assert!(first.contains(field), "JSON misses `{field}`");
    }
    let pretty_a = open_plan().execute().to_json_pretty();
    let pretty_b = open_plan().execute().to_json_pretty();
    assert_eq!(pretty_a, pretty_b);
}

#[test]
fn open_system_sweeps_react_to_the_plan_seed() {
    let case_data = |set: &RunSet| -> Vec<(usize, u64, u64)> {
        set.cases.iter().map(|c| (c.k, c.total_delay, c.latency_p99)).collect()
    };
    let a = case_data(&open_plan().execute());
    let b = case_data(&open_plan().seed(43).execute());
    assert!(!a.is_empty());
    assert_ne!(a, b, "open-system repeats must react to the plan seed");
}

#[test]
fn open_system_json_documents_every_case() {
    let set = open_plan().execute();
    // 2 topologies × 2 arrivals × 2 repeats × 3 protocols (paper mode) × 2 delays.
    assert_eq!(set.cases.len(), 48);
    let doc = json(&set.to_json());
    let cs = cases(&doc);
    assert_eq!(cs.len(), 48);
    for case in cs {
        assert_eq!(case.get("ok").and_then(|v| v.as_bool()), Some(true), "{case:?}");
        let p50 = common::case_u64(case, "latency_p50");
        let p99 = common::case_u64(case, "latency_p99");
        assert!(p50 <= p99);
        assert!(case.get("metrics").unwrap().get("backlog_high_water").is_some());
        // No admission dimension was set: open accounting everywhere.
        assert_eq!(common::case_str(case, "admission"), "open");
        assert_eq!(common::case_u64(case, "dropped"), 0);
    }
    let summaries = doc.get("summaries").and_then(|s| s.as_array()).unwrap();
    assert_eq!(summaries.len(), 16, "one summary per (topology, arrival, repeat, delay)");
}

fn backpressure_plan() -> RunPlan {
    RunPlan::new()
        .topologies([TopoSpec::Mesh2D { side: 4 }, TopoSpec::Torus2D { side: 3 }])
        .protocol(&protocol::Arrow)
        .protocol(&protocol::CombiningQueue)
        .protocol(&protocol::CentralCounter)
        .protocol(&protocol::CombiningTree)
        .arrivals([ArrivalSpec::Poisson { rate: 0.7, seed: 2 }])
        .admissions([
            AdmissionSpec::Open,
            AdmissionSpec::DropTail { bound: 4 },
            AdmissionSpec::DelayRetry { bound: 4, backoff: 3 },
            AdmissionSpec::Adaptive { target_backlog: 4, gain: 1 },
        ])
        .repeats(2)
        .seed(42)
}

#[test]
fn backpressure_sweeps_are_byte_identical_at_fixed_seed() {
    // Admission control is deterministic: AIMD state, retry queues and
    // drop decisions replay exactly under a fixed seed.
    let first = backpressure_plan().execute().to_json();
    let second = backpressure_plan().execute().to_json();
    assert_eq!(first, second, "same backpressure plan, same seed → byte-identical JSON");
}

#[test]
fn backpressure_json_documents_drops_and_goodput() {
    let set = backpressure_plan().execute();
    // 2 topologies × 1 arrival × 4 admissions × 2 repeats × 4 protocols.
    assert_eq!(set.cases.len(), 64);
    let doc = json(&set.to_json());
    for case in cases(&doc) {
        assert_eq!(case.get("ok").and_then(|v| v.as_bool()), Some(true), "{case:?}");
        let thr = case.get("throughput").and_then(|v| v.as_f64()).unwrap();
        let goodput = case.get("goodput").and_then(|v| v.as_f64()).unwrap();
        assert!(goodput <= thr + 1e-12, "goodput exceeds throughput: {case:?}");
        if common::case_str(case, "admission") == "open" {
            assert_eq!(common::case_u64(case, "dropped"), 0, "{case:?}");
            assert_eq!(common::case_u64(case, "delayed_admissions"), 0, "{case:?}");
        }
    }
    // Summaries never pool across admission policies.
    assert_eq!(set.summaries.len(), 2 * 4 * 2, "one summary per (topo, admission, repeat)");
    let shedding: Vec<_> =
        set.summaries.iter().filter(|s| s.admission.starts_with("droptail")).collect();
    assert!(!shedding.is_empty());
    assert!(
        shedding.iter().all(|s| s.dropped > 0),
        "droptail cells must record sheds in their summaries"
    );
    assert!(
        set.summaries.iter().filter(|s| s.admission == "open").all(|s| s.dropped == 0),
        "open cells must not shed"
    );
}

#[test]
fn open_admission_is_byte_identical_to_no_admission_dimension() {
    // The acceptance criterion at the API layer: adding the admission
    // dimension with only `Open` must not change a sweep's JSON at all.
    let without = open_plan().execute().to_json();
    let with_open = open_plan().admissions([AdmissionSpec::Open]).execute().to_json();
    assert_eq!(without, with_open, "AdmissionSpec::Open changed the JSON bytes");
}

#[test]
fn repeats_rerun_identically_for_fixed_patterns() {
    let set = RunPlan::new()
        .topologies([TopoSpec::List { n: 12 }])
        .protocol(&protocol::Arrow)
        .repeats(3)
        .seed(7)
        .execute();
    let delays: Vec<u64> = set.cases.iter().map(|c| c.total_delay).collect();
    assert_eq!(delays.len(), 3);
    assert!(delays.windows(2).all(|w| w[0] == w[1]), "All-pattern repeats must agree: {delays:?}");
}
