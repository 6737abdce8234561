//! Exhaustive small-case model check: every increasing tree on ≤ 5 nodes ×
//! every tail placement × every request subset, under both budget models —
//! and every case on every executor.
//!
//! "Increasing trees" (parent[v] < v, root 0) cover every unlabeled rooted
//! tree shape at these sizes; combined with all tails and subsets this
//! exhaustively exercises the arrow path-reversal state machine and the
//! combining counter far beyond what random testing reaches. The executor
//! is one more input of every sweep: the monolith and the sharded fabric
//! run the same round skeleton, so each case runs on both (two striped
//! shards, serialized and parallel apply) and the three reports must agree
//! byte for byte apart from `cross_shard_messages`.

use ccq_repro::counting::{verify_ranks, CombiningTreeProtocol, ToggleTreeProtocol};
use ccq_repro::graph::{Graph, NodeId, Partition, Tree};
use ccq_repro::queuing::{verify_total_order, ArrowProtocol};
use ccq_repro::sim::{run_protocol, run_protocol_sharded, Protocol, SimConfig, SimReport};

/// The executors of every case: the monolith, then the sharded fabric on
/// two striped shards without and with `parallel_apply`.
const EXECUTORS: [(&str, Option<bool>); 3] = [
    ("monolith", None),
    ("2 striped shards", Some(false)),
    ("2 striped shards, parallel apply", Some(true)),
];

/// Run one case on every executor, handing each report to `check` with
/// the executor's index into [`EXECUTORS`]. The reports must serialize
/// identically apart from `cross_shard_messages`.
fn on_every_executor<P: Protocol>(
    g: &Graph,
    make: impl Fn() -> P,
    cfg: SimConfig,
    mut check: impl FnMut(usize, &SimReport),
) where
    P::Msg: Send,
{
    let mut monolith = None;
    for (e, (label, sharded)) in EXECUTORS.into_iter().enumerate() {
        let rep = match sharded {
            None => run_protocol(g, make(), cfg),
            Some(parallel) => {
                let part = Partition::striped(g.n(), 2);
                run_protocol_sharded(g, part, make(), cfg.with_parallel_apply(parallel))
            }
        }
        .unwrap_or_else(|err| panic!("{label}: {err}"));
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
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n) {
            let g = tree.to_graph();
            for tail in 0..n {
                for requests in subsets(n) {
                    for cfg in [SimConfig::strict(), SimConfig::expanded(n)] {
                        let make = || ArrowProtocol::new(&tree, tail, &requests);
                        on_every_executor(&g, make, cfg, |e, rep| {
                            let order = verify_total_order(&requests, &outputs(rep))
                                .unwrap_or_else(|err| {
                                    panic!(
                                        "{}: n={n} tail={tail} R={requests:?} parents={:?}: {err}",
                                        EXECUTORS[e].0,
                                        (0..n).map(|v| tree.parent(v)).collect::<Vec<_>>()
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
    // 2·Σ_n (n−1)!·n·2ⁿ scenarios per executor = sanity that the sweep
    // actually ran.
    assert_eq!(cases, [8560; 3], "expected the full 2·Σ (n−1)!·n·2ⁿ sweep per executor");
}

#[test]
fn combining_exhaustive_small_cases() {
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n) {
            let g = tree.to_graph();
            for requests in subsets(n) {
                let make = || CombiningTreeProtocol::new(&tree, &requests);
                on_every_executor(&g, make, SimConfig::strict(), |e, rep| {
                    verify_ranks(&requests, &outputs(rep)).unwrap_or_else(|err| {
                        panic!("{}: n={n} R={requests:?}: {err}", EXECUTORS[e].0);
                    });
                    cases[e] += 1;
                });
            }
        }
    }
    // Σ_n (n−1)!·2ⁿ per executor.
    assert_eq!(cases, [884; 3], "expected the full Σ (n−1)!·2ⁿ sweep per executor");
}

#[test]
fn toggle_tree_exhaustive_small_cases() {
    let mut cases = [0u64; EXECUTORS.len()];
    for n in 2..=5usize {
        for tree in increasing_trees(n).into_iter().step_by(3) {
            let g = tree.to_graph();
            for requests in subsets(n) {
                for leaves in [2usize, 4] {
                    let make = || ToggleTreeProtocol::new(&g, &tree, &requests, leaves);
                    on_every_executor(&g, make, SimConfig::strict(), |e, rep| {
                        verify_ranks(&requests, &outputs(rep)).unwrap_or_else(|err| {
                            panic!(
                                "{}: n={n} R={requests:?} leaves={leaves}: {err}",
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
    assert_eq!(cases, [600; 3], "expected the full every-third-tree sweep per executor");
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
    assert_eq!(cases, [1536; 3], "expected the full jitter sweep per executor");
}
