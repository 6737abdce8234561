//! Centralized-home queuing baseline.
//!
//! Every requester routes a message to a fixed *home* node along the
//! spanning tree; the home appends to the queue (remembering the last
//! enqueued operation) and routes the predecessor identity back. All
//! requests serialize at the home — on a star this is the `Θ(n²)` behaviour
//! of paper §5, and on any topology it wastes the locality the arrow
//! protocol exploits. Included as the natural straw-man against which the
//! arrow protocol's Theorem 4.1 bound is compared.

use crate::order::INITIAL_TOKEN;
use ccq_graph::{path::RouteTable, NodeId, Tree};
use ccq_sim::{OnlineProtocol, Protocol, SimApi, SliceApi};

/// Messages: request towards home, reply back to origin. Both are source
/// routed (`route` indexes the protocol's [`RouteTable`], `idx` is the
/// position of the node currently holding the message).
#[derive(Clone, Debug)]
pub enum CentralQueueMsg {
    /// Request from `origin`, travelling to the home node.
    Req { origin: NodeId, route: usize, idx: usize },
    /// Reply carrying the predecessor identity back to the origin.
    Reply { pred: u64, route: usize, idx: usize },
}

/// Read-only routing state every central-queue handler shares.
#[derive(Debug)]
pub struct CentralQueueShared {
    home: NodeId,
    routes: RouteTable,
    /// Route id towards home, per requester (usize::MAX = not a requester).
    to_home: Vec<usize>,
    /// Route id from home back to each requester.
    from_home: Vec<usize>,
}

/// One node's central-queue state. Only the home node's slice carries
/// anything — the id of the last enqueued operation — but giving every
/// node a slice keeps the indexing uniform.
#[derive(Debug)]
pub struct CentralQueueSlice {
    /// Last enqueued operation (meaningful at the home node only).
    last: u64,
}

/// Centralized queue protocol state.
pub struct CentralQueueProtocol {
    shared: CentralQueueShared,
    slices: Vec<CentralQueueSlice>,
    requests: Vec<NodeId>,
}

impl CentralQueueProtocol {
    /// Set up with home node `home` on spanning tree `tree`.
    pub fn new(tree: &Tree, home: NodeId, requests: &[NodeId]) -> Self {
        let n = tree.n();
        assert!(home < n);
        let mut routes = RouteTable::new();
        let mut to_home = vec![usize::MAX; n];
        let mut from_home = vec![usize::MAX; n];
        let mut requests = requests.to_vec();
        requests.sort_unstable();
        for &v in &requests {
            let p = tree.path(v, home);
            let mut rp = p.clone();
            rp.reverse();
            to_home[v] = routes.push(p);
            from_home[v] = routes.push(rp);
        }
        CentralQueueProtocol {
            shared: CentralQueueShared { home, routes, to_home, from_home },
            slices: (0..n).map(|_| CentralQueueSlice { last: INITIAL_TOKEN }).collect(),
            requests,
        }
    }

    fn forward(
        shared: &CentralQueueShared,
        api: &mut SliceApi<CentralQueueMsg>,
        at: NodeId,
        msg: CentralQueueMsg,
    ) {
        let (route, idx) = match &msg {
            CentralQueueMsg::Req { route, idx, .. } => (*route, *idx),
            CentralQueueMsg::Reply { route, idx, .. } => (*route, *idx),
        };
        let path = shared.routes.get(route);
        debug_assert_eq!(path[idx], at);
        api.send(path[idx + 1], msg_with_idx(msg, idx + 1));
    }
}

fn msg_with_idx(msg: CentralQueueMsg, idx: usize) -> CentralQueueMsg {
    match msg {
        CentralQueueMsg::Req { origin, route, .. } => CentralQueueMsg::Req { origin, route, idx },
        CentralQueueMsg::Reply { pred, route, .. } => CentralQueueMsg::Reply { pred, route, idx },
    }
}

impl OnlineProtocol for CentralQueueProtocol {
    /// Issue `v`'s enqueue now (`v` must be in the request set).
    fn issue(
        shared: &CentralQueueShared,
        slice: &mut CentralQueueSlice,
        api: &mut SliceApi<CentralQueueMsg>,
        v: NodeId,
    ) {
        if v == shared.home {
            // Local enqueue: no messages needed.
            let pred = slice.last;
            slice.last = v as u64;
            api.complete(v, pred);
        } else {
            let route = shared.to_home[v];
            debug_assert_ne!(route, usize::MAX, "node {v} is not a requester");
            Self::forward(shared, api, v, CentralQueueMsg::Req { origin: v, route, idx: 0 });
        }
    }
}

impl Protocol for CentralQueueProtocol {
    type Msg = CentralQueueMsg;
    type Slice = CentralQueueSlice;
    type Shared = CentralQueueShared;

    fn split(&mut self) -> (&CentralQueueShared, &mut [CentralQueueSlice]) {
        (&self.shared, &mut self.slices)
    }

    fn on_start(&mut self, api: &mut SimApi<CentralQueueMsg>) {
        let requests = self.requests.clone();
        ccq_sim::issue_all(self, api, &requests);
    }

    fn on_message(
        shared: &CentralQueueShared,
        slice: &mut CentralQueueSlice,
        api: &mut SliceApi<CentralQueueMsg>,
        node: NodeId,
        _from: NodeId,
        msg: CentralQueueMsg,
    ) {
        match msg {
            CentralQueueMsg::Req { origin, route, idx } => {
                let path = shared.routes.get(route);
                if idx + 1 == path.len() {
                    debug_assert_eq!(node, shared.home);
                    let pred = slice.last;
                    slice.last = origin as u64;
                    let back = shared.from_home[origin];
                    if shared.routes.get(back).len() == 1 {
                        api.complete(origin, pred);
                    } else {
                        Self::forward(
                            shared,
                            api,
                            node,
                            CentralQueueMsg::Reply { pred, route: back, idx: 0 },
                        );
                    }
                } else {
                    Self::forward(shared, api, node, CentralQueueMsg::Req { origin, route, idx });
                }
            }
            CentralQueueMsg::Reply { pred, route, idx } => {
                let path = shared.routes.get(route);
                if idx + 1 == path.len() {
                    api.complete(node, pred);
                } else {
                    Self::forward(shared, api, node, CentralQueueMsg::Reply { pred, route, idx });
                }
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

    fn run_central(tree: &Tree, home: NodeId, requests: &[NodeId]) -> ccq_sim::SimReport {
        let g = tree.to_graph();
        let proto = CentralQueueProtocol::new(tree, home, requests);
        let rep = run_protocol(&g, proto, SimConfig::strict()).unwrap();
        let pred_of: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_total_order(requests, &pred_of).unwrap();
        rep
    }

    #[test]
    fn all_request_on_star() {
        let n = 12;
        let t = spanning::star_tree(n, 0);
        let rep = run_central(&t, 0, &(0..n).collect::<Vec<_>>());
        assert_eq!(rep.ops(), n);
        // Home's own request completes at round 0; others serialize.
        assert!(rep.queue_wait_rounds > 0);
    }

    #[test]
    fn subset_on_list() {
        let t = spanning::path_tree_from_order(&(0..10).collect::<Vec<_>>());
        let rep = run_central(&t, 5, &[0, 9, 5, 3]);
        assert_eq!(rep.ops(), 4);
    }

    #[test]
    fn request_delay_includes_round_trip() {
        // Single requester at distance 4 from home: delay = 8 (4 out + 4 back).
        let t = spanning::path_tree_from_order(&(0..10).collect::<Vec<_>>());
        let rep = run_central(&t, 4, &[0]);
        assert_eq!(rep.completions[0].round, 8);
    }

    #[test]
    fn home_only_request_is_free() {
        let t = spanning::balanced_binary_tree(7);
        let rep = run_central(&t, 2, &[2]);
        assert_eq!(rep.completions[0].round, 0);
        assert_eq!(rep.messages_sent, 0);
    }

    #[test]
    fn quadratic_serialization_on_star() {
        // Total delay on the star grows ~ quadratically with n.
        let cost = |n: usize| {
            let t = spanning::star_tree(n, 0);
            run_central(&t, 0, &(0..n).collect::<Vec<_>>()).total_delay()
        };
        let (c8, c16, c32) = (cost(8), cost(16), cost(32));
        // Ratios approach 4 for doubling n.
        assert!(c16 > 3 * c8 - c8 / 2, "c8={c8} c16={c16}");
        assert!(c32 > 3 * c16 - c16 / 2, "c16={c16} c32={c32}");
    }
}
