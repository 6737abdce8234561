//! Explore the counting-vs-queuing gap on a chosen topology.
//!
//! Every protocol in the registry runs on the chosen topology (queuing in
//! the expanded-step model, counting strict, as in the paper), with the
//! per-operation latency distribution next to the totals.
//!
//! ```text
//! cargo run --release --example topology_explorer -- <topology> [size]
//!
//! topologies: complete | list | mesh2d | mesh3d | hypercube | tree | star
//!             (size = n, side, dim, or depth as appropriate; default 64/8/6/5)
//! ```

use ccq_repro::bounds::{verdict, Topology, Verdict};
use ccq_repro::prelude::*;

fn spec_from_args(name: &str, size: Option<usize>) -> (TopoSpec, Option<Topology>) {
    match name {
        "complete" => (TopoSpec::Complete { n: size.unwrap_or(64) }, Some(Topology::Complete)),
        "list" => (TopoSpec::List { n: size.unwrap_or(64) }, Some(Topology::List)),
        "mesh2d" => (TopoSpec::Mesh2D { side: size.unwrap_or(8) }, Some(Topology::Mesh2D)),
        "mesh3d" => (TopoSpec::Mesh3D { side: size.unwrap_or(4) }, Some(Topology::Mesh3D)),
        "hypercube" => (TopoSpec::Hypercube { dim: size.unwrap_or(6) }, Some(Topology::Hypercube)),
        "tree" => (
            TopoSpec::PerfectTree { m: 2, depth: size.unwrap_or(5) },
            Some(Topology::PerfectBinaryTree),
        ),
        "star" => (TopoSpec::Star { n: size.unwrap_or(64) }, Some(Topology::Star)),
        other => {
            eprintln!("unknown topology '{other}'");
            eprintln!("choose one of: complete list mesh2d mesh3d hypercube tree star");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("mesh2d");
    let size = args.get(1).and_then(|s| s.parse().ok());
    let (spec, theory) = spec_from_args(name, size);

    let s = Scenario::build(spec, RequestPattern::All);
    println!("== {} | n = {}, R = V ==\n", s.spec.name(), s.n());

    let mut table = Table::new(
        format!("measured total delays on {}", s.spec.name()),
        &["kind", "algorithm", "total delay", "p50", "p95", "max", "messages", "max queue"],
    );
    // One row per registry entry — no per-algorithm dispatch.
    for proto in registry() {
        let mode = match proto.kind() {
            ProtocolKind::Queuing => ModelMode::Expanded,
            ProtocolKind::Counting | ProtocolKind::Relaxed => ModelMode::Strict,
        };
        let out = run_spec(*proto, &s, mode).expect("registry protocol verifies");
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
