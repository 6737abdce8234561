//! The arrow protocol (paper §4): distributed queuing by path reversal on a
//! spanning tree.
//!
//! Every node `v` keeps an arrow `link(v)` pointing to a tree neighbour (or
//! to itself when `v` is the current *sink*), and `id(v)`, the identifier of
//! the last operation that matters at `v`. Initially the arrows point along
//! the tree towards the tail node `t₀`, which holds the initial token.
//!
//! * **Issue** (paper step 1): requester `v` sets `id(v) := a`, sends
//!   `queue(a)` to `link(v)` and flips `link(v) := v`. If `v` was already
//!   the sink, the operation instead completes locally: `a` queues behind
//!   the old `id(v)`.
//! * **Forward/terminate** (paper step 2): when `u` receives `queue(a)` from
//!   `w`: if `link(u) ≠ u`, forward `queue(a)` to `link(u)` and flip
//!   `link(u) := w`; otherwise `a` terminates — it queues behind `id(u)`,
//!   then `id(u) := a` and `link(u) := w`.
//!
//! The flipped arrows behind a message always lead back to its origin, so
//! after termination the requester's node is the new sink — which is why
//! issuing sets `id(v)` eagerly: the next operation that terminates at `v`
//! queues behind `a`.
//!
//! **Completion instant**: as in Herlihy–Tirthapura–Wattenhofer's analysis,
//! an operation completes when its message terminates (the predecessor
//! pairing is formed). With [`ArrowProtocol::with_notify_origin`], a reply
//! is additionally routed back along the request's path and completion is
//! recorded at the origin instead (an ablation; shape unchanged).

use crate::order::INITIAL_TOKEN;
use ccq_graph::{NodeId, Tree, TreeRouter};
use ccq_sim::{Protocol, SliceApi};

/// Messages of the arrow protocol.
#[derive(Clone, Debug)]
pub enum ArrowMsg {
    /// `queue(op)` chasing the arrows; `path` records the hops travelled so
    /// far (only when notify-origin mode is on, otherwise empty).
    Queue { op: u64, path: Vec<NodeId> },
    /// Reply carrying the predecessor identity back to the origin along the
    /// reversed request path; `idx` is the position of the *next* hop.
    Reply { pred: u64, path: Vec<NodeId>, idx: usize },
}

/// Read-only configuration every arrow handler shares.
#[derive(Debug)]
pub struct ArrowShared {
    notify_origin: bool,
}

/// One node's arrow state: its link arrow and the id of the last operation
/// that matters at the node — the only state a handler at that node
/// touches.
#[derive(Debug)]
pub struct ArrowSlice {
    link: NodeId,
    id: u64,
}

/// Arrow protocol state for all nodes (see module docs).
pub struct ArrowProtocol {
    shared: ArrowShared,
    slices: Vec<ArrowSlice>,
    requests: Vec<NodeId>,
}

impl ArrowProtocol {
    /// Set up the protocol on spanning tree `tree` with the initial token
    /// (queue tail) at `tail`, and `requests` issuing at time 0.
    ///
    /// Initialization (not counted towards delay, per paper §2.2): arrows
    /// point from every node to its next hop towards `tail`.
    ///
    /// # Panics
    /// Panics if `tail` or any request is out of range, or `requests`
    /// contains duplicates.
    pub fn new(tree: &Tree, tail: NodeId, requests: &[NodeId]) -> Self {
        let n = tree.n();
        assert!(tail < n, "tail out of range");
        let router = TreeRouter::new(tree);
        let link = |v| router.next_hop(v, tail).unwrap_or(v);
        let slices: Vec<ArrowSlice> =
            (0..n).map(|v| ArrowSlice { link: link(v), id: INITIAL_TOKEN }).collect();
        let mut seen = vec![false; n];
        for &r in requests {
            assert!(r < n, "request {r} out of range");
            assert!(!seen[r], "duplicate request {r}");
            seen[r] = true;
        }
        let mut requests = requests.to_vec();
        requests.sort_unstable();
        ArrowProtocol { shared: ArrowShared { notify_origin: false }, slices, requests }
    }

    /// Enable notify-origin mode: completions are recorded when the
    /// predecessor identity reaches the requester, not when the pairing
    /// forms at the predecessor's node.
    pub fn with_notify_origin(mut self) -> Self {
        self.shared.notify_origin = true;
        self
    }

    /// Current arrow of `v` (exposed for traces and tests).
    pub fn link(&self, v: NodeId) -> NodeId {
        self.slices[v].link
    }

    /// Paper step 2's terminate case at `at`'s own slice.
    fn terminate(
        shared: &ArrowShared,
        slice: &mut ArrowSlice,
        api: &mut SliceApi<ArrowMsg>,
        at: NodeId,
        op: u64,
        path: Vec<NodeId>,
    ) {
        let pred = slice.id;
        slice.id = op;
        if shared.notify_origin && !path.is_empty() {
            // Walk the reversed path back to the origin.
            let mut rpath = path;
            rpath.push(at);
            rpath.reverse();
            let next = rpath[1];
            api.send(next, ArrowMsg::Reply { pred, path: rpath, idx: 1 });
        } else {
            api.complete(op as NodeId, pred);
        }
    }
}

impl Protocol for ArrowProtocol {
    type Msg = ArrowMsg;
    type Slice<'s> = &'s mut ArrowSlice;
    type Shared = ArrowShared;

    fn nodes(&self) -> usize {
        self.slices.len()
    }

    fn at(&mut self, v: NodeId) -> (&ArrowShared, &mut ArrowSlice) {
        (&self.shared, &mut self.slices[v])
    }

    fn requests(&self) -> &[NodeId] {
        &self.requests
    }

    /// Paper step 1 against `v`'s own slice: the one-shot batch and every
    /// scheduled (long-lived / open-system) arrival come through here.
    fn issue(
        shared: &ArrowShared,
        slice: &mut ArrowSlice,
        api: &mut SliceApi<ArrowMsg>,
        v: NodeId,
    ) {
        let a = v as u64;
        if slice.link == v {
            // v is the sink: queue behind the previous id locally.
            let pred = slice.id;
            slice.id = a;
            api.complete(v, pred);
        } else {
            let next = slice.link;
            slice.link = v;
            slice.id = a;
            let path = if shared.notify_origin { vec![v] } else { Vec::new() };
            api.send(next, ArrowMsg::Queue { op: a, path });
        }
    }

    fn on_message(
        shared: &ArrowShared,
        slice: &mut ArrowSlice,
        api: &mut SliceApi<ArrowMsg>,
        node: NodeId,
        from: NodeId,
        msg: ArrowMsg,
    ) {
        match msg {
            ArrowMsg::Queue { op, mut path } => {
                if slice.link == node {
                    slice.link = from;
                    Self::terminate(shared, slice, api, node, op, path);
                } else {
                    let next = slice.link;
                    slice.link = from;
                    if shared.notify_origin {
                        path.push(node);
                    }
                    api.send(next, ArrowMsg::Queue { op, path });
                }
            }
            ArrowMsg::Reply { pred, path, idx } => {
                if idx + 1 == path.len() {
                    // Arrived at the origin.
                    debug_assert_eq!(path[idx], node);
                    api.complete(node, pred);
                } else {
                    api.send(path[idx + 1], ArrowMsg::Reply { pred, path, idx: idx + 1 });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::verify_total_order;
    use ccq_graph::{spanning, topology};
    use ccq_sim::{run_protocol, SimConfig};

    fn run_arrow(
        tree: &Tree,
        tail: NodeId,
        requests: &[NodeId],
        cfg: SimConfig,
    ) -> (ccq_sim::SimReport, Vec<NodeId>) {
        let g = tree.to_graph();
        let proto = ArrowProtocol::new(tree, tail, requests);
        let rep = run_protocol(&g, proto, cfg).unwrap();
        let pred_of: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        let order = verify_total_order(requests, &pred_of).unwrap();
        (rep, order)
    }

    #[test]
    fn single_request_at_tail_completes_instantly() {
        let t = spanning::path_tree_from_order(&[0, 1, 2, 3]);
        let (rep, order) = run_arrow(&t, 2, &[2], SimConfig::strict());
        assert_eq!(order, vec![2]);
        assert_eq!(rep.completions[0].round, 0);
    }

    #[test]
    fn single_request_travels_to_tail() {
        let t = spanning::path_tree_from_order(&[0, 1, 2, 3, 4]);
        let (rep, order) = run_arrow(&t, 4, &[0], SimConfig::strict());
        assert_eq!(order, vec![0]);
        // queue(0) travels 4 hops: completes at round 4.
        assert_eq!(rep.completions[0].round, 4);
    }

    #[test]
    fn sequential_requests_chain() {
        // Both ends of a list request; tail in the middle.
        let t = spanning::path_tree_from_order(&[0, 1, 2, 3, 4]);
        let (_, order) = run_arrow(&t, 2, &[0, 4], SimConfig::strict());
        assert_eq!(order.len(), 2);
        assert!(order == vec![0, 4] || order == vec![4, 0]);
    }

    #[test]
    fn all_nodes_request_on_list() {
        let n = 16;
        let t = spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>());
        let requests: Vec<NodeId> = (0..n).collect();
        let (rep, order) = run_arrow(&t, 0, &requests, SimConfig::expanded(2));
        assert_eq!(order.len(), n);
        assert_eq!(rep.ops(), n);
    }

    #[test]
    fn all_nodes_request_on_star_tree() {
        let n = 12;
        let t = spanning::star_tree(n, 0);
        let requests: Vec<NodeId> = (0..n).collect();
        let (_, order) = run_arrow(&t, 0, &requests, SimConfig::strict());
        assert_eq!(order.len(), n);
    }

    #[test]
    fn all_nodes_request_on_binary_tree() {
        let n = 31;
        let t = spanning::balanced_binary_tree(n);
        let requests: Vec<NodeId> = (0..n).collect();
        let (_, order) = run_arrow(&t, 0, &requests, SimConfig::expanded(3));
        assert_eq!(order.len(), n);
    }

    #[test]
    fn subset_requests_on_binary_tree() {
        let t = spanning::balanced_binary_tree(31);
        let requests: Vec<NodeId> = vec![3, 7, 11, 19, 30];
        let (_, order) = run_arrow(&t, 5, &requests, SimConfig::strict());
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn notify_origin_doubles_work_not_semantics() {
        let t = spanning::path_tree_from_order(&(0..10).collect::<Vec<_>>());
        let requests: Vec<NodeId> = (0..10).collect();
        let g = t.to_graph();
        let base =
            run_protocol(&g, ArrowProtocol::new(&t, 0, &requests), SimConfig::expanded(2)).unwrap();
        let notif = run_protocol(
            &g,
            ArrowProtocol::new(&t, 0, &requests).with_notify_origin(),
            SimConfig::expanded(2),
        )
        .unwrap();
        let base_pred: Vec<(NodeId, u64)> =
            base.completions.iter().map(|c| (c.node, c.value)).collect();
        let notif_pred: Vec<(NodeId, u64)> =
            notif.completions.iter().map(|c| (c.node, c.value)).collect();
        let o1 = verify_total_order(&requests, &base_pred).unwrap();
        let o2 = verify_total_order(&requests, &notif_pred).unwrap();
        assert_eq!(o1, o2);
        assert!(notif.total_delay() >= base.total_delay());
        assert!(notif.messages_sent > base.messages_sent);
    }

    #[test]
    fn no_requests_is_a_noop() {
        let t = spanning::balanced_binary_tree(7);
        let (rep, order) = run_arrow(&t, 0, &[], SimConfig::strict());
        assert!(order.is_empty());
        assert_eq!(rep.messages_sent, 0);
    }

    #[test]
    fn arrow_respects_tree_edges_only() {
        // Running on the full graph: messages still only use tree edges.
        let g = topology::complete(8);
        let t = spanning::path_tree_from_order(&spanning::hamilton_path_complete(8));
        let requests: Vec<NodeId> = (0..8).collect();
        let proto = ArrowProtocol::new(&t, 0, &requests);
        let rep = run_protocol(&g, proto, SimConfig::expanded(2)).unwrap();
        let pred_of: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_total_order(&requests, &pred_of).unwrap();
    }

    #[test]
    fn strict_mode_also_correct_under_contention() {
        // Strict 1-receive budget on a high-degree star tree: heavy queuing,
        // but the total order must still be valid.
        let n = 20;
        let t = spanning::star_tree(n, 3);
        let requests: Vec<NodeId> = (0..n).collect();
        let (rep, order) = run_arrow(&t, 3, &requests, SimConfig::strict());
        assert_eq!(order.len(), n);
        assert!(rep.queue_wait_rounds > 0, "star hub must exhibit contention");
    }
}
