//! The central mechanism: every requester's operation routes to one fixed
//! *home* node along the spanning tree, the home hands it a value, and the
//! value routes back. All requests serialize at the home — on a star this
//! is the `Θ(n²)` behaviour of paper §5, and on any topology it wastes the
//! locality the arrow protocol exploits.
//!
//! The walk is written once, generic over a [`CentralHandOut`]: what the
//! home hands out is the only thing that differs between the two registry
//! entries built on it. With [`Predecessor`] it is `central-queue`
//! ([`CentralQueueProtocol`], the straw-man against which the arrow
//! protocol's Theorem 4.1 bound is compared): the home remembers the last
//! enqueued operation and returns it. `ccq-counting`'s `Rank` makes it
//! `central-counter`: the home returns the next rank and advances it.

use crate::order::{Predecessor, INITIAL_TOKEN};
use ccq_graph::{NodeId, Tree, TreeRouter};
use ccq_sim::{Protocol, SliceApi};
use std::fmt;
use std::marker::PhantomData;

/// What the central home hands each request — the one difference between
/// a central queue and a central counter.
pub trait CentralHandOut: Clone {
    /// The home's state before its first hand-out.
    const FIRST: u64;
    /// `Debug` names of the request, the reply and the reply's value field
    /// (checkpoint digests hash every in-flight message's rendering).
    const NAMES: [&'static str; 3];
    /// Hand `origin` its value out of the home's `state`, advancing it.
    fn hand_out(state: &mut u64, origin: NodeId) -> u64;
}

/// The queue's hand-out: the predecessor is the last origin served.
impl CentralHandOut for Predecessor {
    const FIRST: u64 = INITIAL_TOKEN;
    const NAMES: [&'static str; 3] = ["Req", "Reply", "pred"];
    fn hand_out(last: &mut u64, origin: NodeId) -> u64 {
        std::mem::replace(last, origin as u64)
    }
}

/// Centralized queue protocol: the central mechanism handing out
/// predecessors.
pub type CentralQueueProtocol<'t> = Central<'t, Predecessor>;

/// Messages: the request towards the home, the hand-out back to its
/// origin. Both walk the tree hop by hop: `route` is `2i` on the way to
/// the home and `2i + 1` on the way back for the `i`-th requester in id
/// order, and `idx` counts the hops taken.
#[derive(Clone)]
pub enum CentralMsg<H> {
    /// Request from `origin`, travelling to the home.
    Req { origin: NodeId, route: usize, idx: usize },
    /// The hand-out `value`, travelling back to the origin; `hand` names
    /// the hand-out, which picks the message's `Debug` spelling.
    Reply { value: u64, route: usize, idx: usize, hand: PhantomData<H> },
}

impl<H: CentralHandOut> fmt::Debug for CentralMsg<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [req, reply, value_name] = H::NAMES;
        let (name, field, value, route, idx): (_, _, &dyn fmt::Debug, _, _) = match self {
            CentralMsg::Req { origin, route, idx } => (req, "origin", origin, route, idx),
            CentralMsg::Reply { value, route, idx, .. } => (reply, value_name, value, route, idx),
        };
        f.debug_struct(name).field(field, value).field("route", route).field("idx", idx).finish()
    }
}

/// The [`SliceApi`] every central handler stages its effects through.
type Api<'a, H> = SliceApi<'a, CentralMsg<H>>;

/// Read-only routing state every central handler shares.
#[derive(Debug)]
pub struct CentralShared<'t> {
    home: NodeId,
    router: TreeRouter<'t>,
    /// The requesters, ascending: the `i`-th one's walks are routes `2i`
    /// and `2i + 1`.
    requests: Vec<NodeId>,
}

impl CentralShared<'_> {
    /// Where `msg`'s walk ends: the home, or the requester its route names.
    fn end<H>(&self, msg: &CentralMsg<H>) -> NodeId {
        match *msg {
            CentralMsg::Req { .. } => self.home,
            CentralMsg::Reply { route, .. } => self.requests[route / 2],
        }
    }
}

/// The central mechanism's state: the home's `u64`, the state `H` hands
/// out of. It is the only node state there is, so the home's slice is
/// `Some` of it and every other node's is `None`.
pub struct Central<'t, H> {
    shared: CentralShared<'t>,
    nodes: usize,
    state: u64,
    hand: PhantomData<H>,
}

impl<'t, H: CentralHandOut> Central<'t, H> {
    /// Set up with home node `home` on spanning tree `tree`.
    pub fn new(tree: &'t Tree, home: NodeId, requests: &[NodeId]) -> Self {
        let n = tree.n();
        assert!(home < n);
        let mut requests = requests.to_vec();
        requests.sort_unstable();
        let shared = CentralShared { home, router: TreeRouter::new(tree), requests };
        Central { shared, nodes: n, state: H::FIRST, hand: PhantomData }
    }

    /// Send `msg`, held by `at`, one hop further along its walk.
    fn forward(shared: &CentralShared, api: &mut Api<H>, at: NodeId, mut msg: CentralMsg<H>) {
        let next = shared.router.next_hop(at, shared.end(&msg)).expect("the walk has not ended");
        let (CentralMsg::Req { idx, .. } | CentralMsg::Reply { idx, .. }) = &mut msg;
        *idx += 1;
        api.send(next, msg);
    }
}

impl<'t, H: CentralHandOut> Protocol for Central<'t, H> {
    type Msg = CentralMsg<H>;
    type Slice<'s>
        = Option<&'s mut u64>
    where
        Self: 's;
    type Shared = CentralShared<'t>;

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn at(&mut self, v: NodeId) -> (&CentralShared<'t>, Option<&mut u64>) {
        (&self.shared, (v == self.shared.home).then_some(&mut self.state))
    }

    fn requests(&self) -> &[NodeId] {
        &self.shared.requests
    }

    /// Issue `v`'s operation now (`v` must be in the request set): the
    /// home serves itself without messages, anyone else starts the walk.
    fn issue(shared: &CentralShared<'t>, state: Option<&mut u64>, api: &mut Api<H>, v: NodeId) {
        if let Some(state) = state {
            api.complete(v, H::hand_out(state, v));
        } else {
            let i = shared.requests.binary_search(&v).expect("the node is a requester");
            Self::forward(shared, api, v, CentralMsg::Req { origin: v, route: 2 * i, idx: 0 });
        }
    }

    fn on_message(
        shared: &CentralShared<'t>,
        state: Option<&mut u64>,
        api: &mut Api<H>,
        node: NodeId,
        _from: NodeId,
        msg: CentralMsg<H>,
    ) {
        match msg {
            // Not yet at the end of its walk: one more hop.
            _ if node != shared.end(&msg) => Self::forward(shared, api, node, msg),
            CentralMsg::Req { origin, route, .. } => {
                let value = H::hand_out(state.expect("the home holds the state"), origin);
                let reply =
                    CentralMsg::Reply { value, route: route + 1, idx: 0, hand: PhantomData };
                Self::forward(shared, api, node, reply);
            }
            CentralMsg::Reply { value, .. } => api.complete(node, value),
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
    fn only_the_home_is_lent_the_state() {
        let t = spanning::balanced_binary_tree(7);
        let mut proto = CentralQueueProtocol::new(&t, 2, &[1, 4]);
        assert_eq!(proto.nodes(), 7);
        for v in 0..7 {
            assert_eq!(proto.at(v).1.copied(), (v == 2).then_some(INITIAL_TOKEN), "node {v}");
        }
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
