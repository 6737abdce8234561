//! Shared test support for the integration suite: canonical small
//! topologies, registry-matrix iterators, the twin-pair check, CLI drivers
//! and JSON helpers.
//!
//! Each integration-test binary includes this module with `mod common;`
//! and uses the subset it needs (hence the file-level `dead_code` allow —
//! unused helpers in one binary are exercised by another).

#![allow(dead_code)]

use ccq_repro::core::protocol::run_spec_cfg;
use ccq_repro::core::run::{config_for, RunError};
use ccq_repro::counting::verify_ranks;
use ccq_repro::graph::NodeId;
use ccq_repro::prelude::*;
use ccq_repro::queuing::verify_total_order;
use ccq_repro::sim::{SimConfig, SimReport};
use std::process::Output;

/// The plan a `ccq sweep` argv (everything after the subcommand) builds.
pub fn sweep_plan(args: &[&str]) -> RunPlan {
    ccq_repro::core::spec::sweep(args).unwrap_or_else(|e| panic!("{args:?}: {e}")).plan
}

/// [`run_spec_with`], after `reference` has edited the [`SimConfig`] the
/// run executes under. The one way a test selects the engine's reference
/// path (`SimConfig::dense_scan`): no plan, scenario or CLI flag names it.
pub fn run_on_reference(
    spec: &ProtocolSpec,
    scenario: &Scenario,
    mode: ModelMode,
    delay: LinkDelay,
    reference: impl FnOnce(SimConfig) -> SimConfig,
) -> Result<RunOutcome, RunError> {
    let cfg = config_for(mode, spec.tree(scenario).max_degree()).with_link_delay(delay);
    run_spec_cfg(spec, scenario, reference(cfg))
}

/// The two beyond-paper topologies the registry matrix runs on: a torus
/// (Hamilton-path-bearing, so Theorem 4.5 applies) and a random regular
/// graph (BFS-tree fallback, Corollary 4.2 regime).
pub fn beyond_paper_topologies() -> Vec<TopoSpec> {
    vec![TopoSpec::Torus2D { side: 4 }, TopoSpec::RandomRegular { n: 20, d: 3, seed: 5 }]
}

/// The canonical small mesh + torus pair for quick sweeps (the same
/// shapes the CLI defaults to, at test-friendly sizes).
pub fn small_mesh_torus() -> Vec<TopoSpec> {
    vec![TopoSpec::Mesh2D { side: 4 }, TopoSpec::Torus2D { side: 3 }]
}

/// One open arrival spec of each shape, all driven by `seed` — matrix
/// tests cycle protocols through these so every protocol faces at least
/// one open process.
pub fn open_arrivals(seed: u64) -> [ArrivalSpec; 3] {
    [
        ArrivalSpec::Poisson { rate: 0.3, seed },
        ArrivalSpec::Bursty { rate: 0.7, on: 6, off: 12, seed },
        ArrivalSpec::Hotspot { rate: 0.3, s: 1.4, seed },
    ]
}

/// Every (topology, registry protocol) pair over the given topologies —
/// the standard full-matrix iteration.
pub fn registry_matrix(
    topos: Vec<TopoSpec>,
) -> impl Iterator<Item = (TopoSpec, &'static ProtocolSpec)> {
    topos.into_iter().flat_map(|t| registry().iter().map(move |p| (t.clone(), p)))
}

/// Require a twin pair — a queue and a counter built on one mechanism (the
/// central walk or the combining wave) and run on one tree, home and
/// `SimConfig` — to be one execution: equal rounds, total delay, message
/// count and completion rounds per node, and the queue's verified chain
/// equal to the counter's rank order.
pub fn assert_twins(requests: &[NodeId], queue: &SimReport, counter: &SimReport, ctx: &str) {
    assert_eq!(queue.rounds, counter.rounds, "{ctx}: rounds");
    assert_eq!(queue.total_delay(), counter.total_delay(), "{ctx}: total delay");
    assert_eq!(queue.messages_sent, counter.messages_sent, "{ctx}: messages");
    let completed =
        |r: &SimReport| -> Vec<_> { r.completions.iter().map(|c| (c.node, c.round)).collect() };
    assert_eq!(completed(queue), completed(counter), "{ctx}: completion rounds");
    let outputs =
        |r: &SimReport| -> Vec<_> { r.completions.iter().map(|c| (c.node, c.value)).collect() };
    let chain = verify_total_order(requests, &outputs(queue))
        .unwrap_or_else(|e| panic!("{ctx}: queue: {e}"));
    let ranked =
        verify_ranks(requests, &outputs(counter)).unwrap_or_else(|e| panic!("{ctx}: counter: {e}"));
    assert_eq!(chain, ranked, "{ctx}: the queue's chain is not the counter's rank order");
}

/// Run the `ccq` binary with the given arguments.
pub fn ccq(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ccq")).args(args).output().expect("ccq runs")
}

/// Parse a string as exactly one JSON document.
pub fn json(s: &str) -> serde_json::Value {
    serde_json::from_str(s.trim()).expect("valid JSON")
}

/// Assert `out` succeeded and parse its stdout as exactly one JSON
/// document (the `--json -` contract: JSON only, nothing else).
pub fn json_stdout(out: &Output) -> serde_json::Value {
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    json(std::str::from_utf8(&out.stdout).expect("utf-8 stdout"))
}

/// The `cases` array of a sweep JSON document.
pub fn cases(doc: &serde_json::Value) -> &Vec<serde_json::Value> {
    doc.get("cases").and_then(|c| c.as_array()).expect("cases array")
}

/// A named field of one JSON case, as u64.
pub fn case_u64(case: &serde_json::Value, field: &str) -> u64 {
    case.get(field)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("case field `{field}` missing or not u64: {case:?}"))
}

/// A named field of one JSON case, as &str.
pub fn case_str<'a>(case: &'a serde_json::Value, field: &str) -> &'a str {
    case.get(field)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("case field `{field}` missing or not a string: {case:?}"))
}

/// Assert every case in the document verified (`ok == true`).
pub fn assert_all_ok(doc: &serde_json::Value) {
    for case in cases(doc) {
        assert_eq!(
            case.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "case failed: {:?} / {:?}",
            case.get("protocol"),
            case.get("error")
        );
    }
}
