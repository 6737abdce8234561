//! Engine hot loop — unsharded vs sharded runs on a large torus, for a
//! queuing and two counting protocols under four shard plans.
//!
//! A plain `fn main()` bench (`cargo bench -p ccq-repro --bench engine`):
//! it writes a machine-readable `BENCH_engine.json` (path override:
//! `CCQ_BENCH_OUT`) with one mean wall time over `CCQ_BENCH_ITERS`
//! executions per configuration, which CI gates on and archives next to
//! the sweep artifacts.
//!
//! The artifact also carries the **sparse-load scaling curve** behind the
//! dirty-frontier engine: `central-counter` driven by a 64-requester tail
//! cluster on tori of n ≈ 1e3, 1e4, 1e5 and 1e6 processors. Traffic is
//! constant while n grows 1000×, so the frontier loop's wall time tracks
//! traffic, not n — the dense `0..n` reference scan is measured alongside
//! (up to 1e5; at 1e6 it would dominate the bench's wall-clock budget)
//! as the curve the frontier escapes.
//!
//! Finally it carries the **K = 1 gap**: two protocols built directly and
//! run unsharded (`monolith`) and cut by a one-shard partition through
//! `Simulator::with_cut` (`cut:1`), a pairing no plan reaches (an
//! unsharded plan adds no cut). Both reach the scheduler's one executor,
//! so the ratio is the cost of the shard cut's check at transmit. The
//! bench prints the cut/monolith mean ratio; CI asserts each pair runs one
//! execution.

use ccq_repro::core::protocol::{self, run_spec_cfg};
use ccq_repro::core::run::config_for;
use ccq_repro::counting::CountingNetworkProtocol;
use ccq_repro::graph::Partition;
use ccq_repro::prelude::*;
use ccq_repro::queuing::CentralQueueProtocol;
use ccq_repro::sim::{Protocol, SimConfig, SimReport, Simulator};
use serde::Serialize;
use std::time::Instant;

/// One measured configuration, serialized into `BENCH_engine.json`.
#[derive(Serialize)]
struct Sample {
    bench: String,
    protocol: String,
    topology: String,
    /// Processor count of the topology — the scaling curve's x axis.
    nodes: usize,
    shards: String,
    /// Whether the round loop ran the dense `0..n` reference scan
    /// instead of the default dirty frontier.
    dense_scan: bool,
    iters: u32,
    mean_seconds: f64,
    rounds: u64,
    total_delay: u64,
    cross_shard_messages: u64,
}

fn iters() -> u32 {
    std::env::var("CCQ_BENCH_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// Time `iters()` executions of `spec` on `scenario` — built by the
/// caller, outside the timed body — into one sample. `dense` selects the
/// engine's dense reference scan, which only a `SimConfig` names.
fn measure(bench: &str, spec: &ProtocolSpec, scenario: &Scenario, dense: bool) -> Sample {
    let mode = spec.kind().paper_mode();
    let cfg = config_for(mode, spec.tree(scenario).max_degree()).with_dense_scan(dense);
    let n = iters();
    let start = Instant::now();
    let mut out = None;
    for _ in 0..n {
        out = Some(run_spec_cfg(spec, scenario, cfg).expect("bench run verifies"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let out = out.expect("at least one iteration");
    Sample {
        bench: bench.into(),
        protocol: spec.name().to_string(),
        topology: scenario.spec.name(),
        nodes: scenario.n(),
        shards: scenario.shards.name(),
        dense_scan: dense,
        iters: n,
        mean_seconds: elapsed / n as f64,
        rounds: out.report.rounds,
        total_delay: out.report.total_delay(),
        cross_shard_messages: out.report.cross_shard_messages,
    }
}

/// One (protocol, shard plan) cell on the 576-node torus.
fn measure_hot(spec: &ProtocolSpec, shards: ShardSpec) -> Sample {
    let scenario = hot_scenario().with_shards(shards);
    measure("engine_hot_loop", spec, &scenario, false)
}

/// One sparse-load scaling cell: `central-counter` on an n-node torus
/// with a 64-requester tail cluster arriving Poisson. The request set —
/// and so the dirty frontier — stays the same size as the torus grows
/// 1000×; only the travel distance to the counter stretches.
fn measure_sparse(side: usize, dense: bool) -> Sample {
    let scenario = Scenario::build_with(
        TopoSpec::Torus2D { side },
        RequestPattern::TailCluster { count: 64 },
        ArrivalSpec::Poisson { rate: 0.5, seed: 7 },
    );
    measure("sparse_scaling", &protocol::CentralCounter, &scenario, dense)
}

/// One side of a K = 1 gap pair on the 576-node torus: `build` makes the
/// protocol, which runs unsharded or (`cut`) cut by
/// `Partition::contiguous(n, 1)` — the partition made once, outside
/// the timed body, and borrowed by every run as a plan's dispatch borrows
/// it.
fn measure_k1<P: Protocol>(name: &str, cfg: SimConfig, cut: bool, build: impl Fn() -> P) -> Sample {
    let scenario = hot_scenario();
    let graph = &scenario.graph;
    let partition = Partition::contiguous(graph.n(), 1);
    let run = || -> SimReport {
        let mut sim = Simulator::new(graph, build(), cfg);
        if cut {
            sim = sim.with_cut(&partition, cfg.link_delay);
        }
        sim.run().expect("bench run completes")
    };
    // One untimed run first: the pair's first side would otherwise pay the
    // cold caches for both.
    let mut report = run();
    let n = iters();
    let start = Instant::now();
    for _ in 0..n {
        report = run();
    }
    Sample {
        bench: "k1_gap".into(),
        protocol: name.into(),
        topology: scenario.spec.name(),
        nodes: graph.n(),
        shards: if cut { "cut:1" } else { "monolith" }.into(),
        dense_scan: false,
        iters: n,
        mean_seconds: start.elapsed().as_secs_f64() / n as f64,
        rounds: report.rounds,
        total_delay: report.total_delay(),
        cross_shard_messages: report.cross_shard_messages,
    }
}

/// The hot loop's scenario: every processor of the 576-node torus requests.
fn hot_scenario() -> Scenario {
    Scenario::build(TopoSpec::Torus2D { side: 24 }, RequestPattern::All)
}

fn main() {
    // counting-network is the deliver-heavy case: hundreds of tokens stay
    // in flight at once, so each round delivers ~n/6 messages.
    let protocols: [&ProtocolSpec; 3] =
        [&protocol::Arrow, &protocol::CombiningTree, &protocol::CountingNetwork { width: None }];
    let plans = [
        ShardSpec::single(),
        ShardSpec::new(4, ShardStrategy::Contiguous),
        ShardSpec::new(4, ShardStrategy::EdgeCut),
        ShardSpec::new(8, ShardStrategy::EdgeCut),
    ];
    // The JSON artifact: exactly one sample per configuration, so its
    // shape is stable run to run.
    let mut samples: Vec<Sample> = Vec::new();
    for spec in protocols {
        for plan in plans {
            samples.push(measure_hot(spec, plan));
        }
    }
    // The sparse-load scaling curve: frontier loop at n ≈ 1e3..1e6, the
    // dense reference scan alongside up to 1e5 (at 1e6 the dense scan's
    // rounds × n node-visits would dominate the bench wall clock).
    for side in [32usize, 100, 316, 1000] {
        samples.push(measure_sparse(side, false));
        if side < 1000 {
            samples.push(measure_sparse(side, true));
        }
    }
    // The K = 1 gap: a queuing and a counting protocol, each under the
    // config its registry spec runs with, on both executors.
    let s = hot_scenario();
    let expanded = config_for(ModelMode::Expanded, s.queuing_tree.max_degree());
    let width = default_width(s.n());
    for cut in [false, true] {
        let central = || CentralQueueProtocol::new(&s.queuing_tree, s.tail, &s.requests);
        samples.push(measure_k1("central-queue", expanded, cut, central));
        let network =
            || CountingNetworkProtocol::new(&s.graph, &s.counting_tree, &s.requests, width);
        samples.push(measure_k1("counting-network", SimConfig::strict(), cut, network));
    }
    for cut in samples.iter().filter(|x| x.shards == "cut:1") {
        let monolith = samples
            .iter()
            .find(|x| x.shards == "monolith" && x.protocol == cut.protocol)
            .expect("a monolith twin");
        let ratio = cut.mean_seconds / monolith.mean_seconds;
        println!("k = 1 {}: cut/monolith {ratio:.2}", cut.protocol);
    }

    let out_path =
        std::env::var("CCQ_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_string());
    let json = serde_json::to_string_pretty(&samples).expect("samples serialize");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_engine.json");
    println!("wrote {out_path} ({} samples)", samples.len());
}
