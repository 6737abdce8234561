//! The combining mechanism: one wave up and down a rooted spanning tree.
//! Up, a node waits for every child's summary of its subtree, puts its own
//! request (if any) in front and reports to its parent. Down, the root
//! hands the whole tree out in preorder, and every node splits its share
//! the same way: its own value first, then each reporting child's
//! contiguous part, in slot order.
//!
//! Correct and `O(depth)` per operation — but unlike the arrow protocol it
//! always pays the full up/down traversal and gains nothing from locality
//! between requesters, which is exactly the comparison the t9 ablations
//! quantify.
//!
//! The wave is written once, generic over a [`CombiningHandOut`]: the
//! summary sent up and the share sent down are the only things that
//! differ between the two registry entries built on it. With
//! [`Predecessor`] it is `combining-queue` ([`CombiningQueueProtocol`]):
//! summaries are preorder requester lists and shares are `(node,
//! predecessor)` lists. `ccq-counting`'s `Rank` makes it `combining-tree`:
//! summaries are request counts and a share is its first rank.

use crate::order::{Predecessor, INITIAL_TOKEN};
use ccq_graph::{NodeId, Tree};
use ccq_sim::{Protocol, SimApi, SliceApi};
use std::fmt;

/// What the combining wave carries up and hands down — the one difference
/// between a combining queue and a combining counter.
pub trait CombiningHandOut: Clone {
    /// A subtree's report to its parent.
    type Summary: Clone + Default + fmt::Debug;
    /// A subtree's share of the hand-out, its requests in preorder.
    type Share: Clone + fmt::Debug;
    /// `Debug` field names of `Up` and `Down`, where `""` renders a tuple
    /// variant (checkpoint digests hash every in-flight message).
    const FIELDS: [&'static str; 2];
    /// Summarize a subtree: its root's own request, if any, then the
    /// children's summaries in slot order.
    fn summarize(own: Option<NodeId>, children: &[Self::Summary]) -> Self::Summary;
    /// The number of requests a summary covers.
    fn size(summary: &Self::Summary) -> usize;
    /// The root's hand-out over the whole tree's summary.
    fn assign(summary: Self::Summary) -> Self::Share;
    /// The value of a share's `i`-th request.
    fn value(share: &Self::Share, i: usize) -> u64;
    /// The `len` requests of a share from its `from`-th on.
    fn part(share: &Self::Share, from: usize, len: usize) -> Self::Share;
}

/// The queue's hand-out: preorder lists up; down, each requester's
/// predecessor is the one before it in the root's list.
impl CombiningHandOut for Predecessor {
    type Summary = Vec<NodeId>;
    type Share = Vec<(NodeId, u64)>;
    const FIELDS: [&'static str; 2] = ["", ""];

    fn summarize(own: Option<NodeId>, children: &[Vec<NodeId>]) -> Vec<NodeId> {
        let len = children.iter().map(Vec::len).sum::<usize>() + usize::from(own.is_some());
        let mut list = Vec::with_capacity(len);
        list.extend(own);
        children.iter().for_each(|c| list.extend_from_slice(c));
        list
    }
    fn size(list: &Vec<NodeId>) -> usize {
        list.len()
    }
    fn assign(list: Vec<NodeId>) -> Vec<(NodeId, u64)> {
        let mut pred = INITIAL_TOKEN;
        list.into_iter().map(|v| (v, std::mem::replace(&mut pred, v as u64))).collect()
    }
    fn value(share: &Vec<(NodeId, u64)>, i: usize) -> u64 {
        share[i].1
    }
    fn part(share: &Vec<(NodeId, u64)>, from: usize, len: usize) -> Vec<(NodeId, u64)> {
        share[from..from + len].to_vec()
    }
}

/// Combining-queue protocol: the combining wave handing out predecessors.
pub type CombiningQueueProtocol<'t> = Combining<'t, Predecessor>;

/// The [`SliceApi`] every wave handler stages its effects through.
type Api<'a, H> = SliceApi<'a, WaveMsg<H>>;

/// Messages of the combining wave.
#[derive(Clone)]
pub enum WaveMsg<H: CombiningHandOut> {
    /// The sender's subtree summary, child → parent.
    Up(H::Summary),
    /// The receiver's subtree share, parent → child.
    Down(H::Share),
}

impl<H: CombiningHandOut> fmt::Debug for WaveMsg<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, field, payload): (_, _, &dyn fmt::Debug) = match self {
            WaveMsg::Up(summary) => ("Up", H::FIELDS[0], summary),
            WaveMsg::Down(share) => ("Down", H::FIELDS[1], share),
        };
        if field.is_empty() {
            f.debug_tuple(name).field(payload).finish()
        } else {
            f.debug_struct(name).field(field, payload).finish()
        }
    }
}

/// One node's wave record.
pub struct Wave {
    /// Children still expected to report.
    waiting: u32,
    requesting: bool,
    /// Whether the node's own operation was injected ([`Protocol::issue`]).
    issued: bool,
}

/// What a handler at a node is lent: its wave record and its children's
/// summaries, by child slot (its range of one array, [`Tree::child_slots`]).
pub type WaveSlice<'s, H> = (&'s mut Wave, &'s mut [<H as CombiningHandOut>::Summary]);

/// The combining mechanism's state; the tree shape every handler shares is
/// borrowed for the run.
pub struct Combining<'t, H: CombiningHandOut> {
    tree: &'t Tree,
    waves: Vec<Wave>,
    summaries: Vec<H::Summary>,
    requests: Vec<NodeId>,
}

impl<'t, H: CombiningHandOut> Combining<'t, H> {
    /// Set up on `tree` with the given request set.
    pub fn new(tree: &'t Tree, requests: &[NodeId]) -> Self {
        let mut waves: Vec<_> = (0..tree.n())
            .map(|v| Wave {
                waiting: tree.children(v).len() as u32,
                requesting: false,
                issued: false,
            })
            .collect();
        // A node listed twice requests once: the wave carries one
        // operation per requesting node.
        let mut requests = requests.to_vec();
        requests.sort_unstable();
        requests.dedup();
        for &r in &requests {
            assert!(r < waves.len(), "request out of range");
            waves[r].requesting = true;
        }
        Combining { tree, waves, summaries: vec![H::Summary::default(); tree.n() - 1], requests }
    }

    /// Report `v`'s subtree upward (at the root: start the hand-out) once
    /// it is ready: all children in, and its own request — if any —
    /// injected. Checked wherever that may have just become true: at the
    /// start, on a child's report, on issue or cancel. Under an open
    /// schedule the single wave therefore completes once every scheduled
    /// request has arrived — the batch protocol's honest behaviour there
    /// (early requesters wait).
    fn report_if_ready(tree: &Tree, (wave, summaries): WaveSlice<H>, api: &mut Api<H>, v: NodeId) {
        if wave.waiting > 0 || (wave.requesting && !wave.issued) {
            return;
        }
        let summary = H::summarize(wave.requesting.then_some(v), summaries);
        if v == tree.root() {
            Self::distribute(tree, (wave, summaries), api, v, H::assign(summary));
        } else {
            api.send(tree.parent(v), WaveMsg::Up(summary));
        }
    }

    /// `v` received its subtree's share: take its own value (if
    /// requesting) and send each reporting child the next contiguous part.
    fn distribute(tree: &Tree, slice: WaveSlice<H>, api: &mut Api<H>, v: NodeId, share: H::Share) {
        let (wave, summaries) = slice;
        let mut next = 0;
        if wave.requesting {
            api.complete(v, H::value(&share, 0));
            next = 1;
        }
        for (c, summary) in tree.children(v).zip(summaries.iter()) {
            let len = H::size(summary);
            if len > 0 {
                api.send(c, WaveMsg::Down(H::part(&share, next, len)));
                next += len;
            }
        }
    }
}

impl<H: CombiningHandOut> Protocol for Combining<'_, H> {
    type Msg = WaveMsg<H>;
    type Slice<'s>
        = WaveSlice<'s, H>
    where
        Self: 's;
    type Shared = Tree;

    fn nodes(&self) -> usize {
        self.waves.len()
    }

    fn at(&mut self, v: NodeId) -> (&Tree, WaveSlice<'_, H>) {
        (self.tree, (&mut self.waves[v], &mut self.summaries[self.tree.child_slots(v)]))
    }

    fn requests(&self) -> &[NodeId] {
        &self.requests
    }

    /// Open the wave before any request issues: every node that is already
    /// ready — it requests nothing and waits on no child — reports, in id
    /// order.
    fn on_start(&mut self, api: &mut SimApi<WaveMsg<H>>) {
        for v in 0..self.waves.len() {
            let (tree, slice) = self.at(v);
            Self::report_if_ready(tree, slice, &mut api.at(v), v);
        }
    }

    fn issue(tree: &Tree, (wave, summaries): WaveSlice<H>, api: &mut Api<H>, node: NodeId) {
        debug_assert!(wave.requesting, "node {node} is not a requester");
        wave.issued = true;
        Self::report_if_ready(tree, (wave, summaries), api, node);
    }

    fn cancel(tree: &Tree, (wave, summaries): WaveSlice<H>, api: &mut Api<H>, node: NodeId) {
        debug_assert!(wave.requesting, "node {node} is not a requester");
        debug_assert!(!wave.issued, "cancel after issue");
        // Strike the requester from the wave; if its Up report was the
        // last thing the subtree waited for, release it now.
        wave.requesting = false;
        Self::report_if_ready(tree, (wave, summaries), api, node);
    }

    fn on_message(
        tree: &Tree,
        (wave, summaries): WaveSlice<H>,
        api: &mut Api<H>,
        node: NodeId,
        from: NodeId,
        msg: WaveMsg<H>,
    ) {
        match msg {
            WaveMsg::Up(summary) => {
                summaries[tree.child_index(node, from).expect("Up from a non-child")] = summary;
                wave.waiting -= 1;
                Self::report_if_ready(tree, (wave, summaries), api, node);
            }
            WaveMsg::Down(share) => Self::distribute(tree, (wave, summaries), api, node, share),
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
    fn a_duplicated_request_is_one_operation() {
        let t = spanning::balanced_binary_tree(7);
        let g = t.to_graph();
        let run = |requests: &[NodeId]| {
            let proto = CombiningQueueProtocol::new(&t, requests);
            run_protocol(&g, proto, SimConfig::strict()).unwrap()
        };
        let (once, twice) = (run(&[2, 5]), run(&[5, 2, 5]));
        assert_eq!(twice.ops(), 2);
        let done = |rep: &ccq_sim::SimReport| -> Vec<_> {
            rep.completions.iter().map(|c| (c.node, c.value, c.round)).collect()
        };
        assert_eq!(done(&twice), done(&once));
        assert_eq!((twice.messages_sent, twice.rounds), (once.messages_sent, once.rounds));
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
            for c in t.children(v) {
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
