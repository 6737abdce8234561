//! The software-combining tree counter.
//!
//! One-shot combining on a rooted spanning tree:
//!
//! 1. **Up phase** — every leaf immediately reports the number of requests
//!    in its subtree (0 or 1) to its parent; an internal node waits for all
//!    children, adds its own request, and reports the sum upward.
//! 2. **Down phase** — the root, knowing every subtree's request count,
//!    assigns rank intervals in preorder (its own request first, then each
//!    child's subtree in ascending order) and sends each child the base of
//!    its interval; nodes recursively split their interval the same way.
//!
//! Every requester's rank is its preorder position among requesters, so the
//! ranks are exactly `{1, …, |R|}`. Per-operation delay is `O(depth)` on a
//! constant-degree tree, hence `O(n log n)` total on a balanced binary
//! spanning tree — a strong practical counting algorithm, yet still
//! asymptotically above both the `Ω(n log* n)` floor and the arrow
//! protocol's `O(n)` on Hamilton-path topologies.

use ccq_graph::{NodeId, Tree};
use ccq_sim::{OnlineProtocol, Protocol, SimApi, SliceApi};

/// Messages of the combining protocol.
#[derive(Clone, Copy, Debug)]
pub enum CombiningMsg {
    /// Subtree request count, child → parent.
    Up { count: u64 },
    /// Base rank for the receiver's subtree interval, parent → child.
    Down { base: u64 },
}

/// One node's combining-wave state — everything a handler at the node
/// touches.
#[derive(Debug)]
pub struct CombiningTreeSlice {
    /// Children still expected to report in the up phase.
    waiting: usize,
    /// Request counts reported by children (indexed like `tree.children`).
    child_counts: Vec<u64>,
    /// Whether this node itself requested.
    requesting: bool,
    /// Whether the node's own operation has been injected: by the one-shot
    /// start for every requester at once, by `issue` one at a time when
    /// paced.
    issued: bool,
}

/// Read-only tree shape every combining-tree handler shares: the tree
/// itself, borrowed for the run.
#[derive(Debug)]
pub struct CombiningTreeShared<'t> {
    tree: &'t Tree,
}

/// Combining-tree counter protocol state.
pub struct CombiningTreeProtocol<'t> {
    shared: CombiningTreeShared<'t>,
    nodes: Vec<CombiningTreeSlice>,
}

impl<'t> CombiningTreeProtocol<'t> {
    /// Set up on `tree` with the given request set.
    pub fn new(tree: &'t Tree, requests: &[NodeId]) -> Self {
        let n = tree.n();
        let mut requesting = vec![false; n];
        for &r in requests {
            assert!(r < n, "request out of range");
            requesting[r] = true;
        }
        let nodes = (0..n)
            .map(|v| CombiningTreeSlice {
                waiting: tree.children(v).len(),
                child_counts: vec![0; tree.children(v).len()],
                requesting: requesting[v],
                issued: false,
            })
            .collect();
        CombiningTreeProtocol { shared: CombiningTreeShared { tree }, nodes }
    }

    /// Whether `v` may report upward: all children in, and its own request
    /// — if any — already injected. A requester holds its subtree's Up
    /// report until then, so under paced arrivals the single combining wave
    /// completes once every scheduled request has arrived — the batch
    /// protocol's honest behaviour there (early requesters wait for
    /// stragglers).
    fn ready(slice: &CombiningTreeSlice) -> bool {
        slice.waiting == 0 && (!slice.requesting || slice.issued)
    }

    /// Let every node that is already [`ready`](Self::ready) report, in id
    /// order — after marking every requester issued when `issue_all` is
    /// set (the one-shot start); without it only the nodes that request
    /// nothing and wait on no child open the wave (the paced start).
    fn start(&mut self, api: &mut SimApi<CombiningMsg>, issue_all: bool) {
        for v in 0..self.nodes.len() {
            ccq_sim::with_slice(self, api, v, |shared, slice, sapi| {
                slice.issued |= issue_all;
                Self::report_if_ready(shared, slice, sapi, v)
            });
        }
    }

    fn subtree_count(slice: &CombiningTreeSlice) -> u64 {
        slice.child_counts.iter().sum::<u64>() + u64::from(slice.requesting)
    }

    /// Node `v` learned its interval base: take own rank (if requesting) and
    /// forward sub-interval bases to children with non-empty counts.
    fn distribute(
        shared: &CombiningTreeShared,
        slice: &CombiningTreeSlice,
        api: &mut SliceApi<CombiningMsg>,
        v: NodeId,
        base: u64,
    ) {
        let mut next = base;
        if slice.requesting {
            api.complete(v, next);
            next += 1;
        }
        for (i, c) in shared.tree.children(v).iter().enumerate() {
            let cnt = slice.child_counts[i];
            if cnt > 0 {
                api.send(*c, CombiningMsg::Down { base: next });
                next += cnt;
            }
        }
    }

    /// Once `v`'s subtree is fully aggregated ([`ready`](Self::ready)):
    /// report up, or start distribution if `v` is the root. Checked
    /// wherever that may have just become true: at the start, on a child's
    /// report, on the node's own issue or cancel.
    fn report_if_ready(
        shared: &CombiningTreeShared,
        slice: &mut CombiningTreeSlice,
        api: &mut SliceApi<CombiningMsg>,
        v: NodeId,
    ) {
        if !Self::ready(slice) {
            return;
        }
        let total = Self::subtree_count(slice);
        if v == shared.tree.root() {
            Self::distribute(shared, slice, api, v, 1);
        } else {
            api.send(shared.tree.parent(v), CombiningMsg::Up { count: total });
        }
    }
}

impl OnlineProtocol for CombiningTreeProtocol<'_> {
    fn issue(
        shared: &CombiningTreeShared,
        slice: &mut CombiningTreeSlice,
        api: &mut SliceApi<CombiningMsg>,
        node: NodeId,
    ) {
        debug_assert!(slice.requesting, "node {node} is not a requester");
        slice.issued = true;
        Self::report_if_ready(shared, slice, api, node);
    }

    fn on_paced_start(&mut self, api: &mut SimApi<CombiningMsg>) {
        self.start(api, false);
    }

    fn cancel(
        shared: &CombiningTreeShared,
        slice: &mut CombiningTreeSlice,
        api: &mut SliceApi<CombiningMsg>,
        node: NodeId,
    ) {
        debug_assert!(slice.requesting, "node {node} is not a requester");
        debug_assert!(!slice.issued, "cancel after issue");
        // Strike the requester from the wave (its subtree count no longer
        // includes it); release the subtree's Up if it was the last hold.
        slice.requesting = false;
        Self::report_if_ready(shared, slice, api, node);
    }
}

impl<'t> Protocol for CombiningTreeProtocol<'t> {
    type Msg = CombiningMsg;
    type Slice = CombiningTreeSlice;
    type Shared = CombiningTreeShared<'t>;

    fn split(&mut self) -> (&CombiningTreeShared<'t>, &mut [CombiningTreeSlice]) {
        (&self.shared, &mut self.nodes)
    }

    fn on_start(&mut self, api: &mut SimApi<CombiningMsg>) {
        self.start(api, true);
    }

    fn on_message(
        shared: &CombiningTreeShared,
        slice: &mut CombiningTreeSlice,
        api: &mut SliceApi<CombiningMsg>,
        node: NodeId,
        from: NodeId,
        msg: CombiningMsg,
    ) {
        match msg {
            CombiningMsg::Up { count } => {
                let slot = shared
                    .tree
                    .children(node)
                    .iter()
                    .position(|&c| c == from)
                    .expect("Up message from a non-child");
                slice.child_counts[slot] = count;
                slice.waiting -= 1;
                Self::report_if_ready(shared, slice, api, node);
            }
            CombiningMsg::Down { base } => {
                Self::distribute(shared, slice, api, node, base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranks::verify_ranks;
    use ccq_graph::spanning;
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
