//! Combining-tree queuing baseline.
//!
//! The natural tree-based alternative to the arrow protocol: requester ids
//! aggregate up a rooted spanning tree in preorder lists, the root
//! concatenates them into a total order, and predecessor assignments
//! distribute back down. Correct and `O(depth)` per operation — but unlike
//! the arrow protocol it always pays the full up/down traversal and gains
//! nothing from locality between requesters, which is exactly the
//! comparison the t9 ablations quantify.

use crate::order::INITIAL_TOKEN;
use ccq_graph::{NodeId, Tree};
use ccq_sim::{OnlineProtocol, Protocol, SimApi, SliceApi};

/// Messages of the combining queue.
#[derive(Clone, Debug)]
pub enum CombiningQueueMsg {
    /// Requesters of the sender's subtree, in preorder.
    Up(Vec<NodeId>),
    /// `(requester, predecessor)` assignments for the receiver's subtree.
    Down(Vec<(NodeId, u64)>),
}

/// One node's combining-wave state — everything a handler at the node
/// touches.
#[derive(Debug)]
pub struct CombiningQueueSlice {
    waiting: usize,
    /// Preorder requester lists reported by children, by child slot.
    child_lists: Vec<Vec<NodeId>>,
    requesting: bool,
    /// Whether the node's own operation has been injected: by the one-shot
    /// start for every requester at once, by `issue` one at a time when
    /// paced.
    issued: bool,
}

/// Read-only tree shape every combining-queue handler shares: the tree
/// itself, borrowed for the run.
#[derive(Debug)]
pub struct CombiningQueueShared<'t> {
    tree: &'t Tree,
}

/// Combining-queue protocol state.
pub struct CombiningQueueProtocol<'t> {
    shared: CombiningQueueShared<'t>,
    nodes: Vec<CombiningQueueSlice>,
}

impl<'t> CombiningQueueProtocol<'t> {
    /// Set up on `tree` with the given request set.
    pub fn new(tree: &'t Tree, requests: &[NodeId]) -> Self {
        let n = tree.n();
        let mut requesting = vec![false; n];
        for &r in requests {
            assert!(r < n, "request out of range");
            requesting[r] = true;
        }
        let nodes = (0..n)
            .map(|v| CombiningQueueSlice {
                waiting: tree.children(v).len(),
                child_lists: vec![Vec::new(); tree.children(v).len()],
                requesting: requesting[v],
                issued: false,
            })
            .collect();
        CombiningQueueProtocol { shared: CombiningQueueShared { tree }, nodes }
    }

    /// Whether `v` may report upward: all children in, and its own request
    /// — if any — already injected. A requester holds its subtree's Up
    /// report until then, so under paced arrivals the single combining wave
    /// completes once every scheduled request has arrived — the batch
    /// protocol's honest behaviour there (early requesters wait for
    /// stragglers).
    fn ready(slice: &CombiningQueueSlice) -> bool {
        slice.waiting == 0 && (!slice.requesting || slice.issued)
    }

    /// Let every node that is already [`ready`](Self::ready) report, in id
    /// order — after marking every requester issued when `issue_all` is
    /// set (the one-shot start); without it only the nodes that request
    /// nothing and wait on no child open the wave (the paced start).
    fn start(&mut self, api: &mut SimApi<CombiningQueueMsg>, issue_all: bool) {
        for v in 0..self.nodes.len() {
            ccq_sim::with_slice(self, api, v, |shared, slice, sapi| {
                slice.issued |= issue_all;
                Self::report_if_ready(shared, slice, sapi, v)
            });
        }
    }

    /// Preorder requester list of `v`'s subtree (own request first).
    fn subtree_list(slice: &CombiningQueueSlice, v: NodeId) -> Vec<NodeId> {
        let mut list = Vec::new();
        if slice.requesting {
            list.push(v);
        }
        for cl in &slice.child_lists {
            list.extend_from_slice(cl);
        }
        list
    }

    /// Report `v`'s subtree upward (or, at the root, start distribution)
    /// once it is [`ready`](Self::ready) — checked wherever that may have
    /// just become true: at the start, on a child's report, on the node's
    /// own issue or cancel.
    fn report_if_ready(
        shared: &CombiningQueueShared,
        slice: &mut CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        v: NodeId,
    ) {
        if !Self::ready(slice) {
            return;
        }
        let list = Self::subtree_list(slice, v);
        if v == shared.tree.root() {
            // Form the total order: initial token, then preorder.
            let assignments: Vec<(NodeId, u64)> = list
                .iter()
                .enumerate()
                .map(|(i, &node)| {
                    let pred = if i == 0 { INITIAL_TOKEN } else { list[i - 1] as u64 };
                    (node, pred)
                })
                .collect();
            Self::distribute(shared, slice, api, v, assignments);
        } else {
            api.send(shared.tree.parent(v), CombiningQueueMsg::Up(list));
        }
    }

    fn distribute(
        shared: &CombiningQueueShared,
        slice: &CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        v: NodeId,
        assignments: Vec<(NodeId, u64)>,
    ) {
        use std::collections::HashMap;
        let by_node: HashMap<NodeId, u64> = assignments.iter().copied().collect();
        if slice.requesting {
            let pred = by_node[&v];
            api.complete(v, pred);
        }
        // Split the remaining assignments by child subtree (child lists are
        // exactly the subtree memberships recorded on the way up).
        for (slot, c) in shared.tree.children(v).iter().enumerate() {
            let subtree: Vec<(NodeId, u64)> =
                slice.child_lists[slot].iter().map(|&node| (node, by_node[&node])).collect();
            if !subtree.is_empty() {
                api.send(*c, CombiningQueueMsg::Down(subtree));
            }
        }
    }
}

impl OnlineProtocol for CombiningQueueProtocol<'_> {
    fn issue(
        shared: &CombiningQueueShared,
        slice: &mut CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        node: NodeId,
    ) {
        debug_assert!(slice.requesting, "node {node} is not a requester");
        slice.issued = true;
        Self::report_if_ready(shared, slice, api, node);
    }

    fn on_paced_start(&mut self, api: &mut SimApi<CombiningQueueMsg>) {
        self.start(api, false);
    }

    fn cancel(
        shared: &CombiningQueueShared,
        slice: &mut CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        node: NodeId,
    ) {
        debug_assert!(slice.requesting, "node {node} is not a requester");
        debug_assert!(!slice.issued, "cancel after issue");
        // Strike the requester from the wave; if its Up report was the
        // last thing the subtree waited for, release it now.
        slice.requesting = false;
        Self::report_if_ready(shared, slice, api, node);
    }
}

impl<'t> Protocol for CombiningQueueProtocol<'t> {
    type Msg = CombiningQueueMsg;
    type Slice = CombiningQueueSlice;
    type Shared = CombiningQueueShared<'t>;

    fn split(&mut self) -> (&CombiningQueueShared<'t>, &mut [CombiningQueueSlice]) {
        (&self.shared, &mut self.nodes)
    }

    fn on_start(&mut self, api: &mut SimApi<CombiningQueueMsg>) {
        self.start(api, true);
    }

    fn on_message(
        shared: &CombiningQueueShared,
        slice: &mut CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        node: NodeId,
        from: NodeId,
        msg: CombiningQueueMsg,
    ) {
        match msg {
            CombiningQueueMsg::Up(list) => {
                let slot = shared
                    .tree
                    .children(node)
                    .iter()
                    .position(|&c| c == from)
                    .expect("Up from a non-child");
                slice.child_lists[slot] = list;
                slice.waiting -= 1;
                Self::report_if_ready(shared, slice, api, node);
            }
            CombiningQueueMsg::Down(assignments) => {
                Self::distribute(shared, slice, api, node, assignments);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::verify_total_order;
    use ccq_graph::spanning;
    use ccq_sim::{run_protocol, SimConfig};

    fn run_cq(tree: &Tree, requests: &[NodeId]) -> (ccq_sim::SimReport, Vec<NodeId>) {
        let g = tree.to_graph();
        let proto = CombiningQueueProtocol::new(tree, requests);
        let rep = run_protocol(&g, proto, SimConfig::strict()).unwrap();
        let pred_of: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        let order = verify_total_order(requests, &pred_of).unwrap();
        (rep, order)
    }

    #[test]
    fn all_request_on_binary_tree() {
        let t = spanning::balanced_binary_tree(15);
        let (_, order) = run_cq(&t, &(0..15).collect::<Vec<_>>());
        assert_eq!(order.len(), 15);
        // Preorder: root first.
        assert_eq!(order[0], 0);
    }

    #[test]
    fn subset_on_list() {
        let t = spanning::path_tree_from_order(&(0..12).collect::<Vec<_>>());
        let (_, order) = run_cq(&t, &[2, 7, 11]);
        assert_eq!(order, vec![2, 7, 11]); // preorder on a rooted path
    }

    #[test]
    fn empty_and_single() {
        let t = spanning::balanced_binary_tree(7);
        let (_, order) = run_cq(&t, &[]);
        assert!(order.is_empty());
        let (rep, order) = run_cq(&t, &[4]);
        assert_eq!(order, vec![4]);
        assert_eq!(rep.completions[0].value, INITIAL_TOKEN);
    }

    #[test]
    fn agrees_with_combining_counter_order() {
        // The combining queue's chain equals the combining counter's rank
        // order (both are preorder).
        let t = spanning::balanced_binary_tree(31);
        let requests: Vec<NodeId> = (0..31).step_by(2).collect();
        let (_, qorder) = run_cq(&t, &requests);
        // Direct preorder computation:
        let mut pre = Vec::new();
        fn preorder(t: &Tree, v: NodeId, req: &[bool], out: &mut Vec<NodeId>) {
            if req[v] {
                out.push(v);
            }
            for &c in t.children(v) {
                preorder(t, c, req, out);
            }
        }
        let mut req = vec![false; 31];
        for &r in &requests {
            req[r] = true;
        }
        preorder(&t, 0, &req, &mut pre);
        assert_eq!(qorder, pre);
    }
}
