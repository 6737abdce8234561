//! Explore the counting-vs-queuing gap on a chosen topology.
//!
//! Every protocol in the registry runs on the chosen topology (queuing in
//! the expanded-step model, counting strict, as in the paper), with the
//! per-operation latency distribution next to the totals.
//!
//! ```text
//! cargo run --release --example topology_explorer -- <topology> [size]
//!
//! <topology> is any `--topo` token `ccq list` shows (mesh2d, tree:3:4, …);
//! `star 32` is read as `star:32`. Default: mesh2d.
//! ```

use ccq_repro::bounds::{verdict, Topology, Verdict};
use ccq_repro::core::spec;
use ccq_repro::prelude::*;

/// The paper's closed-form family for a topology, where it states one.
fn theory_for(spec: &TopoSpec) -> Option<Topology> {
    match spec {
        TopoSpec::Complete { .. } => Some(Topology::Complete),
        TopoSpec::List { .. } => Some(Topology::List),
        TopoSpec::Mesh2D { .. } => Some(Topology::Mesh2D),
        TopoSpec::Mesh3D { .. } => Some(Topology::Mesh3D),
        TopoSpec::Hypercube { .. } => Some(Topology::Hypercube),
        TopoSpec::PerfectTree { m: 2, .. } => Some(Topology::PerfectBinaryTree),
        TopoSpec::Star { .. } => Some(Topology::Star),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let token = if args.is_empty() { "mesh2d".to_string() } else { args.join(":") };
    let spec = spec::topo(&token).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let theory = theory_for(&spec);

    let s = Scenario::build(spec, RequestPattern::All);
    println!("== {} | n = {}, R = V ==\n", s.spec.name(), s.n());

    let mut table = Table::new(
        format!("measured total delays on {}", s.spec.name()),
        &["kind", "algorithm", "total delay", "p50", "p95", "max", "messages", "max queue"],
    );
    // One row per registry entry — no per-algorithm dispatch.
    for proto in registry() {
        let mode = proto.kind().paper_mode();
        let out = run_spec(proto, &s, mode).expect("registry protocol verifies");
        table.push_row(vec![
            proto.kind().label().into(),
            out.alg.clone(),
            out.report.total_delay().to_string(),
            out.report.latency_percentile(0.5).to_string(),
            out.report.latency_percentile(0.95).to_string(),
            out.report.max_delay().to_string(),
            out.report.messages_sent.to_string(),
            out.report.max_inport_depth.to_string(),
        ]);
    }
    println!("{table}");

    if let Some(t) = theory {
        println!("paper bounds at this n:");
        println!("  counting lower bound: {:>10}", t.counting_lower_bound(s.n()));
        println!("  queuing upper bound:  {:>10}", t.queuing_upper_bound(s.n()));
        let v = match verdict(t) {
            Verdict::QueuingWins => "queuing is asymptotically cheaper (C_Q = o(C_C))",
            Verdict::Tie => "no separation — both Θ(n²) (the §5 star exception)",
        };
        println!("  verdict ({}): {v}", t.deciding_result());
    }
}
