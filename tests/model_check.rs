//! Exhaustive small-case model check of all ten registry protocols: every
//! increasing tree on ≤ 5 nodes × every tail or home placement × every
//! request subset, under both budget models — and every case on every
//! executor. Only the width-parameterized counters take every third tree.
//!
//! "Increasing trees" (parent[v] < v, root 0) cover every unlabeled rooted
//! tree shape at these sizes; combined with all tails and subsets this
//! exhaustively exercises the arrow path-reversal state machine, the two
//! shared mechanisms (the central walk, the combining wave) and the
//! network, toggle and CRDT counters far beyond what random testing
//! reaches. The twins built on one mechanism run as pairs on one tree,
//! home and config, and must be one execution ([`common::assert_twins`]).
//! The shard plan is one more input of every sweep: each case runs
//! unsharded and on two striped shards, and the two reports must agree
//! byte for byte apart from `cross_shard_messages`.

mod common;

use ccq_repro::counting::{
    network::{bitonic, periodic, toggle_tree},
    verify_ranks, verify_relaxed_ranks, BalancingNetwork, CentralCounterProtocol,
    CombiningTreeProtocol, CountingNetworkProtocol, CrdtCounterProtocol,
};
use ccq_repro::graph::{Graph, NodeId, Partition, Tree};
use ccq_repro::queuing::{
    verify_total_order, ArrowProtocol, CentralQueueProtocol, CombiningQueueProtocol,
};
use ccq_repro::sim::{Protocol, SimConfig, SimReport, Simulator};

/// The executions of every case: the monolith (unsharded), then two
/// striped shards.
const EXECUTORS: [(&str, bool); 2] = [("monolith", false), ("2 striped shards", true)];

/// Run one case on every executor, handing each report to `check` with
/// the executor's index into [`EXECUTORS`]. The reports must serialize
/// identically apart from `cross_shard_messages`.
fn on_every_executor<P: Protocol>(
    g: &Graph,
    make: impl Fn() -> P,
    cfg: SimConfig,
    mut check: impl FnMut(usize, &SimReport),
) {
    let mut monolith = None;
    let part = Partition::striped(g.n(), 2);
    for (e, (label, sharded)) in EXECUTORS.into_iter().enumerate() {
        let mut sim = Simulator::new(g, make(), cfg);
        if sharded {
            sim = sim.with_cut(&part, cfg.link_delay);
        }
        let rep = sim.run().unwrap_or_else(|err| panic!("{label}: {err}"));
        let mut stripped = rep.clone();
        stripped.cross_shard_messages = 0;
        let json = serde_json::to_string(&stripped).expect("reports serialize");
        match &monolith {
            None => monolith = Some(json),
            Some(want) => assert_eq!(&json, want, "{label} diverged from the monolith"),
        }
        check(e, &rep);
    }
}

/// Run a twin pair on every executor and require one execution on each
/// ([`common::assert_twins`]), counting the case per executor.
fn twins_on_every_executor<Q: Protocol, C: Protocol>(
    g: &Graph,
    (queue, counter): (impl Fn() -> Q, impl Fn() -> C),
    cfg: SimConfig,
    requests: &[NodeId],
    ctx: &str,
    cases: &mut [u64; EXECUTORS.len()],
) {
    let mut queues = Vec::with_capacity(EXECUTORS.len());
    on_every_executor(g, queue, cfg, |_, rep| queues.push(rep.clone()));
    on_every_executor(g, counter, cfg, |e, rep| {
        common::assert_twins(requests, &queues[e], rep, &format!("{}: {ctx}", EXECUTORS[e].0));
        cases[e] += 1;
    });
}

/// All increasing parent arrays for `n` nodes (root 0).
fn increasing_trees(n: usize) -> Vec<Tree> {
    fn rec(n: usize, parent: &mut Vec<NodeId>, out: &mut Vec<Tree>) {
        let v = parent.len();
        if v == n {
            out.push(Tree::from_parents(0, parent.clone()));
            return;
        }
        for p in 0..v {
            parent.push(p);
            rec(n, parent, out);
            parent.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, &mut vec![0], &mut out);
    out
}

fn subsets(n: usize) -> impl Iterator<Item = Vec<NodeId>> {
    (0u32..(1 << n)).map(move |mask| (0..n).filter(|&v| mask & (1 << v) != 0).collect())
}

/// `(node, value)` of every completion, in completion order.
fn outputs(rep: &SimReport) -> Vec<(NodeId, u64)> {
    rep.completions.iter().map(|c| (c.node, c.value)).collect()
}

/// The parent array of `tree`, for failure messages.
fn parents(tree: &Tree) -> Vec<NodeId> {
    (0..tree.n()).map(|v| tree.parent(v)).collect()
}

/// Every increasing tree × every tail × subset × model of `make(tree,
/// tail, requests)` — the arrow sweep — with each case's total order
/// verified on every executor. Returns the case count per executor.
fn arrow_sweep(
    label: &str,
    make: impl Fn(&Tree, NodeId, &[NodeId]) -> ArrowProtocol,
) -> [u64; EXECUTORS.len()] {
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n) {
            let g = tree.to_graph();
            for tail in 0..n {
                for requests in subsets(n) {
                    for cfg in [SimConfig::strict(), SimConfig::expanded(n)] {
                        let proto = || make(&tree, tail, &requests);
                        on_every_executor(&g, proto, cfg, |e, rep| {
                            let order = verify_total_order(&requests, &outputs(rep))
                                .unwrap_or_else(|err| {
                                    panic!(
                                        "{label}, {}: n={n} tail={tail} R={requests:?} {:?}: {err}",
                                        EXECUTORS[e].0,
                                        parents(&tree)
                                    )
                                });
                            assert_eq!(order.len(), requests.len());
                            cases[e] += 1;
                        });
                    }
                }
            }
        }
    }
    cases
}

/// Every third tree × every subset × widths 2 and 4 — the sweep of the
/// width-parameterized counters, each the balancing network `net(width)`
/// embedded by `CountingNetworkProtocol` — with each case's ranks verified
/// on every executor.
fn width_sweep(label: &str, net: fn(usize) -> BalancingNetwork) {
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n).into_iter().step_by(3) {
            let g = tree.to_graph();
            for requests in subsets(n) {
                for width in [2usize, 4] {
                    let proto =
                        || CountingNetworkProtocol::with_network(&g, &tree, &requests, net(width));
                    on_every_executor(&g, proto, SimConfig::strict(), |e, rep| {
                        verify_ranks(&requests, &outputs(rep)).unwrap_or_else(|err| {
                            panic!(
                                "{label}, {}: n={n} R={requests:?} width={width}: {err}",
                                EXECUTORS[e].0
                            );
                        });
                        cases[e] += 1;
                    });
                }
            }
        }
    }
    // Every third tree (1, 1, 2, 8 of them) × 2ⁿ subsets × 2 widths.
    assert_eq!(cases, [600; 2], "{label}: expected the full every-third-tree sweep per executor");
}

#[test]
fn tree_enumeration_counts() {
    // (n-1)! increasing trees.
    assert_eq!(increasing_trees(2).len(), 1);
    assert_eq!(increasing_trees(3).len(), 2);
    assert_eq!(increasing_trees(4).len(), 6);
    assert_eq!(increasing_trees(5).len(), 24);
}

#[test]
fn arrow_exhaustive_small_cases() {
    let cases = arrow_sweep("arrow", ArrowProtocol::new);
    // 2·Σ_n (n−1)!·n·2ⁿ scenarios per executor = sanity that the sweep
    // actually ran.
    assert_eq!(cases, [8560; 2], "expected the full 2·Σ (n−1)!·n·2ⁿ sweep per executor");
}

#[test]
fn arrow_notify_exhaustive_small_cases() {
    let cases = arrow_sweep("arrow+notify", |tree, tail, requests| {
        ArrowProtocol::new(tree, tail, requests).with_notify_origin()
    });
    // 2·Σ_n (n−1)!·n·2ⁿ per executor, as for arrow.
    assert_eq!(cases, [8560; 2], "expected the full 2·Σ (n−1)!·n·2ⁿ sweep per executor");
}

#[test]
fn central_twins_exhaustive_small_cases() {
    // central-queue and central-counter: one walk, two hand-outs, at every
    // home of every tree.
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n) {
            let g = tree.to_graph();
            for home in 0..n {
                for requests in subsets(n) {
                    for cfg in [SimConfig::strict(), SimConfig::expanded(n)] {
                        let twins = (
                            || CentralQueueProtocol::new(&tree, home, &requests),
                            || CentralCounterProtocol::new(&tree, home, &requests),
                        );
                        let ctx = format!("n={n} home={home} R={requests:?} {:?}", parents(&tree));
                        twins_on_every_executor(&g, twins, cfg, &requests, &ctx, &mut cases);
                    }
                }
            }
        }
    }
    // 2·Σ_n (n−1)!·n·2ⁿ pairs per executor.
    assert_eq!(cases, [8560; 2], "expected the full 2·Σ (n−1)!·n·2ⁿ sweep per executor");
}

#[test]
fn combining_exhaustive_small_cases() {
    // combining-queue and combining-tree: one wave, two hand-outs.
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n) {
            let g = tree.to_graph();
            for requests in subsets(n) {
                for cfg in [SimConfig::strict(), SimConfig::expanded(n)] {
                    let twins = (
                        || CombiningQueueProtocol::new(&tree, &requests),
                        || CombiningTreeProtocol::new(&tree, &requests),
                    );
                    let ctx = format!("n={n} R={requests:?} {:?}", parents(&tree));
                    twins_on_every_executor(&g, twins, cfg, &requests, &ctx, &mut cases);
                }
            }
        }
    }
    // 2·Σ_n (n−1)!·2ⁿ pairs per executor.
    assert_eq!(cases, [1768; 2], "expected the full 2·Σ (n−1)!·2ⁿ sweep per executor");
}

#[test]
fn toggle_tree_exhaustive_small_cases() {
    width_sweep("toggle-tree", toggle_tree);
}

#[test]
fn counting_networks_exhaustive_small_cases() {
    width_sweep("counting-network", bitonic);
    width_sweep("periodic-network", periodic);
}

#[test]
fn crdt_counter_exhaustive_small_cases() {
    // The relaxed control: every operation completes with a rank in
    // 1..=|R| (duplicates legal), on every executor.
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n) {
            let g = tree.to_graph();
            for requests in subsets(n) {
                for cfg in [SimConfig::strict(), SimConfig::expanded(n)] {
                    let make = || CrdtCounterProtocol::new(&tree, &requests);
                    on_every_executor(&g, make, cfg, |e, rep| {
                        verify_relaxed_ranks(&requests, &outputs(rep)).unwrap_or_else(|err| {
                            panic!("{}: n={n} R={requests:?}: {err}", EXECUTORS[e].0);
                        });
                        cases[e] += 1;
                    });
                }
            }
        }
    }
    // 2·Σ_n (n−1)!·2ⁿ per executor.
    assert_eq!(cases, [1768; 2], "expected the full 2·Σ (n−1)!·2ⁿ sweep per executor");
}

#[test]
fn arrow_exhaustive_under_jitter() {
    // Asynchronous delays on every 4-node shape: correctness must be
    // schedule-independent.
    let mut cases = [0u64; EXECUTORS.len()];
    for tree in increasing_trees(4) {
        let g = tree.to_graph();
        for tail in 0..4 {
            for requests in subsets(4) {
                for seed in 0..4u64 {
                    let cfg = SimConfig::strict().with_jitter(3, seed);
                    let make = || ArrowProtocol::new(&tree, tail, &requests);
                    on_every_executor(&g, make, cfg, |e, rep| {
                        verify_total_order(&requests, &outputs(rep)).unwrap_or_else(|err| {
                            panic!(
                                "{}: tail={tail} R={requests:?} seed={seed}: {err}",
                                EXECUTORS[e].0
                            );
                        });
                        cases[e] += 1;
                    });
                }
            }
        }
    }
    // 3! trees × 4 tails × 2⁴ subsets × 4 seeds per executor.
    assert_eq!(cases, [1536; 2], "expected the full jitter sweep per executor");
}
