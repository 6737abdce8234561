//! The software-combining tree counter: request counts aggregate up a
//! rooted spanning tree, and rank intervals split back down in preorder
//! (a node's own request first, then each child's subtree in slot order).
//!
//! Every requester's rank is its preorder position among requesters, so the
//! ranks are exactly `{1, …, |R|}`. Per-operation delay is `O(depth)` on a
//! constant-degree tree, hence `O(n log n)` total on a balanced binary
//! spanning tree — a strong practical counting algorithm, yet still
//! asymptotically above both the `Ω(n log* n)` floor and the arrow
//! protocol's `O(n)` on Hamilton-path topologies.
//!
//! The wave is `ccq-queuing`'s combining mechanism, the one
//! `combining-queue` runs; this module contributes only the counter's
//! hand-out.

use crate::ranks::Rank;
use ccq_graph::NodeId;
use ccq_queuing::combining::{Combining, CombiningHandOut};

/// The counter's hand-out: request counts up; down, a share is the first
/// rank of its interval.
impl CombiningHandOut for Rank {
    type Summary = u64;
    type Share = u64;
    const FIELDS: [&'static str; 2] = ["count", "base"];

    fn summarize(own: Option<NodeId>, children: &[u64]) -> u64 {
        children.iter().sum::<u64>() + u64::from(own.is_some())
    }
    fn size(count: &u64) -> usize {
        *count as usize
    }
    fn assign(_count: u64) -> u64 {
        1
    }
    fn value(base: &u64, i: usize) -> u64 {
        base + i as u64
    }
    fn part(base: &u64, from: usize, _len: usize) -> u64 {
        base + from as u64
    }
}

/// Combining-tree counter protocol: the combining wave handing out ranks.
pub type CombiningTreeProtocol<'t> = Combining<'t, Rank>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranks::verify_ranks;
    use ccq_graph::{spanning, Tree};
    use ccq_sim::{run_protocol, SimConfig};

    fn run_combining(
        tree: &Tree,
        requests: &[NodeId],
        cfg: SimConfig,
    ) -> (ccq_sim::SimReport, Vec<NodeId>) {
        let g = tree.to_graph();
        let proto = CombiningTreeProtocol::new(tree, requests);
        let rep = run_protocol(&g, proto, cfg).unwrap();
        let ranks: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
        let order = verify_ranks(requests, &ranks).unwrap();
        (rep, order)
    }

    #[test]
    fn all_request_on_binary_tree() {
        let t = spanning::balanced_binary_tree(31);
        let requests: Vec<NodeId> = (0..31).collect();
        let (rep, order) = run_combining(&t, &requests, SimConfig::expanded(3));
        assert_eq!(order.len(), 31);
        // Ranks are preorder positions: root gets rank 1.
        assert_eq!(order[0], 0);
        assert!(rep.rounds > 0);
    }

    #[test]
    fn subset_requests() {
        let t = spanning::balanced_binary_tree(15);
        let (_, order) = run_combining(&t, &[3, 6, 14], SimConfig::strict());
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn no_requests() {
        let t = spanning::balanced_binary_tree(7);
        let (rep, order) = run_combining(&t, &[], SimConfig::strict());
        assert!(order.is_empty());
        // Up phase still runs (counts of zero), but no completions.
        assert!(rep.messages_sent > 0);
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::from_parents(0, vec![0]);
        let (rep, order) = run_combining(&t, &[0], SimConfig::strict());
        assert_eq!(order, vec![0]);
        assert_eq!(rep.completions[0].round, 0);
    }

    #[test]
    fn root_only_request() {
        let t = spanning::balanced_binary_tree(7);
        let (_, order) = run_combining(&t, &[0], SimConfig::strict());
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn on_list_costs_quadraticish() {
        // Combining on a list has depth Θ(n): up+down phases take Θ(n) per
        // op for half the ops ⇒ total Θ(n²)-ish. Check growth factor.
        let cost = |n: usize| {
            let t = spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>());
            let requests: Vec<NodeId> = (0..n).collect();
            run_combining(&t, &requests, SimConfig::expanded(2)).0.total_delay()
        };
        let (c16, c32) = (cost(16), cost(32));
        assert!(c32 as f64 / c16 as f64 > 3.0, "c16={c16} c32={c32}");
    }

    #[test]
    fn on_balanced_tree_costs_n_log_n_ish() {
        // Total delay / n should grow like depth (log n), not n.
        let per_op = |n: usize| {
            let t = spanning::balanced_binary_tree(n);
            let requests: Vec<NodeId> = (0..n).collect();
            run_combining(&t, &requests, SimConfig::expanded(3)).0.total_delay() as f64 / n as f64
        };
        let (p63, p1023) = (per_op(63), per_op(1023));
        // Depth grows 5 → 9; per-op cost should grow sublinearly (< 4×).
        assert!(p1023 / p63 < 4.0, "p63={p63} p1023={p1023}");
    }

    /// At a hub every leaf's `Up` finds its slot by search: on a
    /// 1 024-leaf star both hand-outs verify and agree on the preorder
    /// (the hub, then the leaves ascending), requesting hub or not.
    #[test]
    fn both_hand_outs_verify_on_a_wide_star() {
        use ccq_queuing::{verify_total_order, CombiningQueueProtocol};
        let n = 1025;
        let t = spanning::star_tree(n, 0);
        let g = t.to_graph();
        for requests in [(0..n).collect::<Vec<NodeId>>(), (1..n).step_by(3).collect()] {
            let queue =
                run_protocol(&g, CombiningQueueProtocol::new(&t, &requests), SimConfig::strict())
                    .unwrap();
            let preds: Vec<(NodeId, u64)> =
                queue.completions.iter().map(|c| (c.node, c.value)).collect();
            let queue_order = verify_total_order(&requests, &preds).unwrap();
            let (_, rank_order) = run_combining(&t, &requests, SimConfig::strict());
            assert_eq!(queue_order, requests);
            assert_eq!(rank_order, requests);
        }
    }

    #[test]
    fn deterministic() {
        let t = spanning::balanced_binary_tree(31);
        let requests: Vec<NodeId> = (0..31).step_by(2).collect();
        let (r1, o1) = run_combining(&t, &requests, SimConfig::strict());
        let (r2, o2) = run_combining(&t, &requests, SimConfig::strict());
        assert_eq!(o1, o2);
        assert_eq!(r1.total_delay(), r2.total_delay());
    }
}
