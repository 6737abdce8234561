//! A coordination-free CRDT counter: the zero-cost / maximal-debt endpoint
//! of the latency-vs-consistency frontier.
//!
//! Each requester keeps a grow-only count of the increments it has *heard*.
//! An increment bumps the local count, completes immediately with that
//! locally-merged value as its relaxed rank — zero rounds of coordination
//! on the completion path — and then gossips the increment outward along
//! the spanning tree (each neighbour forwards away from the sender, so on
//! a tree every node hears every increment exactly once). States only grow
//! and merges are commutative, so gossip order is irrelevant — but the
//! ranks are exactly as stale as the gossip is slow, which is what the QQC
//! lateness metric (see `ccq_sim::SimReport::qqc_lateness`) charges it
//! for. Verified by [`crate::ranks::verify_relaxed_ranks`]: every retained
//! requester completes once with a rank in `1..=|R|`, duplicates legal.

use ccq_graph::{NodeId, Tree};
use ccq_sim::{Protocol, SliceApi};

/// The only message: one increment, flooding outward along the tree.
#[derive(Clone, Debug)]
pub enum CrdtCounterMsg {
    /// `delta` increments to merge into the receiver's local count.
    Gossip {
        /// How many increments this message carries (always 1 today; the
        /// merge is written for any grow-only delta).
        delta: u64,
    },
}

/// Coordination-free counter protocol state.
pub struct CrdtCounterProtocol<'t> {
    /// The gossip overlay, borrowed for the run: the one piece of read-only
    /// state every handler shares.
    tree: &'t Tree,
    /// Each node's grow-only replica: the increments it has heard (its own
    /// included).
    heard: Vec<u64>,
    requests: Vec<NodeId>,
}

impl<'t> CrdtCounterProtocol<'t> {
    /// Set up with `tree` as the gossip overlay.
    pub fn new(tree: &'t Tree, requests: &[NodeId]) -> Self {
        let mut requests = requests.to_vec();
        requests.sort_unstable();
        CrdtCounterProtocol { tree, heard: vec![0; tree.n()], requests }
    }
}

impl<'t> Protocol for CrdtCounterProtocol<'t> {
    type Msg = CrdtCounterMsg;
    type Slice<'s>
        = &'s mut u64
    where
        Self: 's;
    type Shared = Tree;

    fn nodes(&self) -> usize {
        self.heard.len()
    }

    fn at(&mut self, v: NodeId) -> (&Tree, &mut u64) {
        (self.tree, &mut self.heard[v])
    }

    fn requests(&self) -> &[NodeId] {
        &self.requests
    }

    /// Issue `v`'s increment now: merge locally, complete with the merged
    /// count, gossip the increment to every tree neighbour.
    fn issue(tree: &Tree, heard: &mut u64, api: &mut SliceApi<CrdtCounterMsg>, v: NodeId) {
        *heard += 1;
        api.complete(v, *heard);
        for nb in tree.neighbors(v) {
            api.send(nb, CrdtCounterMsg::Gossip { delta: 1 });
        }
    }

    fn on_message(
        tree: &Tree,
        heard: &mut u64,
        api: &mut SliceApi<CrdtCounterMsg>,
        node: NodeId,
        from: NodeId,
        msg: CrdtCounterMsg,
    ) {
        let CrdtCounterMsg::Gossip { delta } = msg;
        *heard += delta;
        // Tree flood: forward away from the sender. Acyclic overlay ⇒ each
        // increment traverses each edge once and terminates.
        for nb in tree.neighbors(node).filter(|&nb| nb != from) {
            api.send(nb, CrdtCounterMsg::Gossip { delta });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranks::{verify_ranks, verify_relaxed_ranks};
    use ccq_graph::spanning;
    use ccq_sim::{run_protocol, SimConfig};

    fn run_crdt(tree: &Tree, requests: &[NodeId]) -> ccq_sim::SimReport {
        let g = tree.to_graph();
        let proto = CrdtCounterProtocol::new(tree, requests);
        let rep = run_protocol(&g, proto, SimConfig::strict()).unwrap();
        let ranks: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
        let order = verify_relaxed_ranks(requests, &ranks).unwrap();
        assert_eq!(order.len(), requests.len());
        rep
    }

    #[test]
    fn completes_instantly_on_star() {
        let n = 10;
        let t = spanning::star_tree(n, 0);
        let rep = run_crdt(&t, &(0..n).collect::<Vec<_>>());
        assert_eq!(rep.ops(), n);
        // Zero coordination on the completion path: every operation
        // completes in the round it issues.
        assert_eq!(rep.total_delay(), 0);
        assert_eq!(rep.max_delay(), 0);
    }

    #[test]
    fn one_shot_ranks_are_all_one() {
        // Before any gossip lands, each replica has heard only itself.
        let t = spanning::balanced_binary_tree(15);
        let rep = run_crdt(&t, &(0..15).collect::<Vec<_>>());
        assert!(rep.completions.iter().all(|c| c.value == 1));
        // A strict counting verifier rejects exactly this output.
        let ranks: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
        assert!(verify_ranks(&(0..15).collect::<Vec<_>>(), &ranks).is_err());
    }

    #[test]
    fn gossip_reaches_every_replica_exactly_once() {
        // k increments over n nodes on a tree: each increment traverses
        // each of the n-1 edges exactly once.
        let n = 9;
        let t = spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>());
        let requests: Vec<NodeId> = vec![0, 4, 8];
        let rep = run_crdt(&t, &requests);
        assert_eq!(rep.messages_sent, (requests.len() * (n - 1)) as u64);
        // Quiescence waits for the flood to drain even though every
        // completion happened at round 0.
        assert!(rep.rounds >= (n - 1) as u64);
        assert_eq!(rep.total_delay(), 0);
    }

    #[test]
    fn subset_requests_stay_in_range() {
        let t = spanning::balanced_binary_tree(31);
        let rep = run_crdt(&t, &[1, 5, 9, 17, 30]);
        assert_eq!(rep.ops(), 5);
        assert!(rep.completions.iter().all(|c| c.value >= 1 && c.value <= 5));
    }

    #[test]
    fn deterministic_across_runs() {
        let t = spanning::balanced_binary_tree(15);
        let r1 = run_crdt(&t, &(0..15).collect::<Vec<_>>());
        let r2 = run_crdt(&t, &(0..15).collect::<Vec<_>>());
        let v1: Vec<_> = r1.completions.iter().map(|c| (c.node, c.value)).collect();
        let v2: Vec<_> = r2.completions.iter().map(|c| (c.node, c.value)).collect();
        assert_eq!(v1, v2);
    }
}
