//! The centralized counter: every increment routes to one root processor.
//!
//! The root assigns ranks in arrival order and routes each rank back to its
//! requester. Under the one-send/one-receive model the root handles one
//! message per round, so `k` concurrent requests serialize into `Θ(k²)`
//! total delay (plus routing distance) — the behaviour paper §5 proves is
//! *unavoidable* on the star graph, and the straw-man that combining trees
//! and counting networks improve upon elsewhere.

use ccq_graph::{path::RouteTable, NodeId, Tree};
use ccq_sim::{OnlineProtocol, Protocol, SimApi, SliceApi};

/// Messages: increment request towards the root, rank reply back.
#[derive(Clone, Debug)]
pub enum CentralCounterMsg {
    /// Increment from `origin`, source-routed to the root.
    Inc { origin: NodeId, route: usize, idx: usize },
    /// Rank reply, source-routed back to the origin.
    Rank { rank: u64, route: usize, idx: usize },
}

/// Read-only routing state every central-counter handler shares.
#[derive(Debug)]
pub struct CentralCounterShared {
    root: NodeId,
    routes: RouteTable,
    to_root: Vec<usize>,
    from_root: Vec<usize>,
}

/// One node's central-counter state. Only the root's slice is live — the
/// next rank to hand out — but every node gets one so indexing stays
/// uniform.
#[derive(Debug)]
pub struct CentralCounterSlice {
    /// Next rank to assign (meaningful at the root only).
    next_rank: u64,
}

/// Centralized counter protocol state.
pub struct CentralCounterProtocol {
    shared: CentralCounterShared,
    slices: Vec<CentralCounterSlice>,
    requests: Vec<NodeId>,
}

impl CentralCounterProtocol {
    /// Set up with the counter hosted at `root`, routing along `tree`.
    pub fn new(tree: &Tree, root: NodeId, requests: &[NodeId]) -> Self {
        let n = tree.n();
        assert!(root < n);
        let mut routes = RouteTable::new();
        let mut to_root = vec![usize::MAX; n];
        let mut from_root = vec![usize::MAX; n];
        let mut requests = requests.to_vec();
        requests.sort_unstable();
        for &v in &requests {
            let p = tree.path(v, root);
            let mut rp = p.clone();
            rp.reverse();
            to_root[v] = routes.push(p);
            from_root[v] = routes.push(rp);
        }
        CentralCounterProtocol {
            shared: CentralCounterShared { root, routes, to_root, from_root },
            slices: (0..n).map(|_| CentralCounterSlice { next_rank: 1 }).collect(),
            requests,
        }
    }

    fn hop(
        shared: &CentralCounterShared,
        api: &mut SliceApi<CentralCounterMsg>,
        at: NodeId,
        msg: CentralCounterMsg,
    ) {
        let (route, idx) = match &msg {
            CentralCounterMsg::Inc { route, idx, .. } => (*route, *idx),
            CentralCounterMsg::Rank { route, idx, .. } => (*route, *idx),
        };
        let path = shared.routes.get(route);
        debug_assert_eq!(path[idx], at);
        let next = path[idx + 1];
        let bumped = match msg {
            CentralCounterMsg::Inc { origin, route, .. } => {
                CentralCounterMsg::Inc { origin, route, idx: idx + 1 }
            }
            CentralCounterMsg::Rank { rank, route, .. } => {
                CentralCounterMsg::Rank { rank, route, idx: idx + 1 }
            }
        };
        api.send(next, bumped);
    }
}

impl OnlineProtocol for CentralCounterProtocol {
    /// Issue `v`'s increment now (`v` must be in the request set).
    fn issue(
        shared: &CentralCounterShared,
        slice: &mut CentralCounterSlice,
        api: &mut SliceApi<CentralCounterMsg>,
        v: NodeId,
    ) {
        if v == shared.root {
            let rank = slice.next_rank;
            slice.next_rank += 1;
            api.complete(v, rank);
        } else {
            let route = shared.to_root[v];
            debug_assert_ne!(route, usize::MAX, "node {v} is not a requester");
            Self::hop(shared, api, v, CentralCounterMsg::Inc { origin: v, route, idx: 0 });
        }
    }
}

impl Protocol for CentralCounterProtocol {
    type Msg = CentralCounterMsg;
    type Slice = CentralCounterSlice;
    type Shared = CentralCounterShared;

    fn split(&mut self) -> (&CentralCounterShared, &mut [CentralCounterSlice]) {
        (&self.shared, &mut self.slices)
    }

    fn on_start(&mut self, api: &mut SimApi<CentralCounterMsg>) {
        let requests = self.requests.clone();
        ccq_sim::issue_all(self, api, &requests);
    }

    fn on_message(
        shared: &CentralCounterShared,
        slice: &mut CentralCounterSlice,
        api: &mut SliceApi<CentralCounterMsg>,
        node: NodeId,
        _from: NodeId,
        msg: CentralCounterMsg,
    ) {
        match msg {
            CentralCounterMsg::Inc { origin, route, idx } => {
                let path_len = shared.routes.get(route).len();
                if idx + 1 == path_len {
                    debug_assert_eq!(node, shared.root);
                    let rank = slice.next_rank;
                    slice.next_rank += 1;
                    Self::hop(
                        shared,
                        api,
                        node,
                        CentralCounterMsg::Rank { rank, route: shared.from_root[origin], idx: 0 },
                    );
                } else {
                    Self::hop(shared, api, node, CentralCounterMsg::Inc { origin, route, idx });
                }
            }
            CentralCounterMsg::Rank { rank, route, idx } => {
                let path_len = shared.routes.get(route).len();
                if idx + 1 == path_len {
                    api.complete(node, rank);
                } else {
                    Self::hop(shared, api, node, CentralCounterMsg::Rank { rank, route, idx });
                }
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

    fn run_central(tree: &Tree, root: NodeId, requests: &[NodeId]) -> ccq_sim::SimReport {
        let g = tree.to_graph();
        let proto = CentralCounterProtocol::new(tree, root, requests);
        let rep = run_protocol(&g, proto, SimConfig::strict()).unwrap();
        let ranks: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_ranks(requests, &ranks).unwrap();
        rep
    }

    #[test]
    fn counts_on_star() {
        let n = 10;
        let t = spanning::star_tree(n, 0);
        let rep = run_central(&t, 0, &(0..n).collect::<Vec<_>>());
        assert_eq!(rep.ops(), n);
    }

    #[test]
    fn counts_on_list_root_center() {
        let t = spanning::path_tree_from_order(&(0..9).collect::<Vec<_>>());
        let rep = run_central(&t, 4, &(0..9).collect::<Vec<_>>());
        assert_eq!(rep.ops(), 9);
    }

    #[test]
    fn counts_on_binary_tree_subset() {
        let t = spanning::balanced_binary_tree(31);
        let rep = run_central(&t, 0, &[1, 5, 9, 17, 30]);
        assert_eq!(rep.ops(), 5);
    }

    #[test]
    fn single_remote_request_round_trip() {
        let t = spanning::path_tree_from_order(&(0..7).collect::<Vec<_>>());
        let rep = run_central(&t, 6, &[0]);
        assert_eq!(rep.completions[0].round, 12); // 6 out + 6 back
        assert_eq!(rep.completions[0].value, 1);
    }

    #[test]
    fn quadratic_on_star() {
        let cost = |n: usize| {
            let t = spanning::star_tree(n, 0);
            run_central(&t, 0, &(0..n).collect::<Vec<_>>()).total_delay()
        };
        let (c16, c32) = (cost(16), cost(32));
        assert!(c32 as f64 / c16 as f64 > 3.0, "c16={c16} c32={c32}");
    }

    #[test]
    fn ranks_follow_arrival_order_determinism() {
        // Deterministic engine ⇒ same ranks across runs.
        let t = spanning::balanced_binary_tree(15);
        let r1 = run_central(&t, 0, &(0..15).collect::<Vec<_>>());
        let r2 = run_central(&t, 0, &(0..15).collect::<Vec<_>>());
        let v1: Vec<_> = r1.completions.iter().map(|c| (c.node, c.value)).collect();
        let v2: Vec<_> = r2.completions.iter().map(|c| (c.node, c.value)).collect();
        assert_eq!(v1, v2);
    }
}
