//! The toggle-tree counter (the skeleton of Shavit–Zemach diffracting
//! trees).
//!
//! A complete binary tree of `L = 2^d` leaves where every internal node is
//! a one-input *toggle*: it sends its 1st, 3rd, 5th… token to its left
//! child and the rest to its right child. The `i`-th token to pass the
//! root therefore reaches leaf `bitrev_d(i−1 mod L)` as that leaf's
//! `⌈i/L⌉`-th token, so a leaf at bit-reversed position `r` hands out
//! counts `r + 1, r + 1 + L, r + 1 + 2L, …` — the `i`-th token through the
//! root receives exactly `i`. Unlike general counting networks the toggle
//! tree is an *exact* sequencer, but the root toggle is a serialization
//! point: its measured contention is the price, which is precisely the
//! phenomenon the t9 ablations quantify (a diffracting tree would add
//! "prism" randomization to relieve it; the skeleton keeps the bound
//! honest).
//!
//! Embedding mirrors [`crate::network::protocol`]: toggles are hosted
//! round-robin, tokens travel via BFS next-hop tables, results return along
//! the spanning tree.

use ccq_graph::{bfs, Graph, NodeId, Tree, TreeRouter};
use ccq_sim::{OnlineProtocol, Protocol, SimApi, SliceApi};

/// Messages of the toggle-tree protocol.
#[derive(Clone, Copy, Debug)]
pub enum ToggleMsg {
    /// A token of `origin` heading for toggle-tree node `node_idx`.
    Token { origin: NodeId, node_idx: usize },
    /// The acquired count, routed back to `origin` along the tree.
    Result { origin: NodeId, count: u64 },
}

/// Read-only embedding every toggle-tree handler shares.
pub struct ToggleTreeShared {
    /// Number of leaves (`2^depth`).
    leaves: usize,
    /// Count offset of each leaf: `bitrev(leaf position) + 1`.
    leaf_base: Vec<u64>,
    /// Toggle-tree node (heap index) → hosting processor.
    host: Vec<NodeId>,
    /// Heap index → slot within its host's slice (`toggles` for internal
    /// nodes, `leaf_counts` for leaves).
    local_slot: Vec<usize>,
    host_slot: Vec<usize>,
    next_to_host: Vec<Vec<NodeId>>,
    router: TreeRouter,
}

/// One processor's toggle-tree state: the toggles and leaf counters of the
/// heap nodes it hosts (every heap node is mutated only by its host).
#[derive(Debug, Default)]
pub struct ToggleTreeSlice {
    toggles: Vec<bool>,
    leaf_counts: Vec<u64>,
}

/// Toggle-tree counter protocol state.
pub struct ToggleTreeProtocol {
    shared: ToggleTreeShared,
    slices: Vec<ToggleTreeSlice>,
    requests: Vec<NodeId>,
}

fn bitrev(mut x: usize, bits: u32) -> usize {
    let mut r = 0usize;
    for _ in 0..bits {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    r
}

impl ToggleTreeProtocol {
    /// Build a toggle tree with `leaves` leaves (power of two ≥ 2), hosted
    /// on `graph`, replies routed along `tree`.
    pub fn new(graph: &Graph, tree: &Tree, requests: &[NodeId], leaves: usize) -> Self {
        assert!(leaves >= 2 && leaves.is_power_of_two(), "leaves must be a power of two ≥ 2");
        let n = graph.n();
        assert_eq!(tree.n(), n);
        let depth = leaves.trailing_zeros();
        let total_nodes = 2 * leaves - 1;
        let host: Vec<NodeId> = (0..total_nodes).map(|i| i % n).collect();

        let mut host_slot = vec![usize::MAX; n];
        let mut next_to_host: Vec<Vec<NodeId>> = Vec::new();
        for &h in &host {
            if host_slot[h] == usize::MAX {
                host_slot[h] = next_to_host.len();
                let (_, pred) = bfs::bfs_tree_arrays(graph, h);
                next_to_host.push(pred);
            }
        }
        // Leaf at heap position `leaves−1+p` sits at the end of the
        // root-to-leaf path whose toggle decisions spell p's bits
        // (MSB-first); the i-th root token reaches the leaf whose MSB-first
        // path equals the LSB-first bits of (i−1), i.e. leaf p receives
        // tokens with (i−1 mod L) = bitrev(p), so its counts start at
        // bitrev(p) + 1.
        let leaf_base: Vec<u64> = (0..leaves).map(|p| bitrev(p, depth) as u64 + 1).collect();

        // Group each heap node's state under its hosting processor: slice
        // membership is by host, local slots are assigned in heap order.
        let mut slices: Vec<ToggleTreeSlice> = (0..n).map(|_| ToggleTreeSlice::default()).collect();
        let mut local_slot = vec![usize::MAX; total_nodes];
        for (idx, &h) in host.iter().enumerate() {
            if idx < leaves - 1 {
                local_slot[idx] = slices[h].toggles.len();
                slices[h].toggles.push(false);
            } else {
                local_slot[idx] = slices[h].leaf_counts.len();
                slices[h].leaf_counts.push(0);
            }
        }

        let mut requests = requests.to_vec();
        requests.sort_unstable();
        ToggleTreeProtocol {
            shared: ToggleTreeShared {
                leaves,
                leaf_base,
                host,
                local_slot,
                host_slot,
                next_to_host,
                router: TreeRouter::new(tree),
            },
            slices,
            requests,
        }
    }

    fn send_towards(
        shared: &ToggleTreeShared,
        api: &mut SliceApi<ToggleMsg>,
        at: NodeId,
        host: NodeId,
        msg: ToggleMsg,
    ) {
        let next = shared.next_to_host[shared.host_slot[host]][at];
        debug_assert_ne!(next, at);
        api.send(next, msg);
    }

    /// Advance a token through every toggle hosted at `u` — all state the
    /// walk touches lives in `u`'s slice, because the loop exits as soon as
    /// the next heap node is hosted elsewhere.
    fn process(
        shared: &ToggleTreeShared,
        slice: &mut ToggleTreeSlice,
        api: &mut SliceApi<ToggleMsg>,
        u: NodeId,
        origin: NodeId,
        mut idx: usize,
    ) {
        loop {
            let h = shared.host[idx];
            if h != u {
                Self::send_towards(shared, api, u, h, ToggleMsg::Token { origin, node_idx: idx });
                return;
            }
            let slot = shared.local_slot[idx];
            if idx >= shared.leaves - 1 {
                // Leaf: assign the count.
                let p = idx - (shared.leaves - 1);
                slice.leaf_counts[slot] += 1;
                let count =
                    shared.leaf_base[p] + (slice.leaf_counts[slot] - 1) * shared.leaves as u64;
                Self::deliver(shared, api, u, origin, count);
                return;
            }
            let right = slice.toggles[slot];
            slice.toggles[slot] = !right;
            idx = 2 * idx + 1 + usize::from(right);
        }
    }

    fn deliver(
        shared: &ToggleTreeShared,
        api: &mut SliceApi<ToggleMsg>,
        at: NodeId,
        origin: NodeId,
        count: u64,
    ) {
        match shared.router.next_hop(at, origin) {
            None => api.complete(origin, count),
            Some(next) => api.send(next, ToggleMsg::Result { origin, count }),
        }
    }
}

impl OnlineProtocol for ToggleTreeProtocol {
    /// Inject `node`'s token at the root toggle now.
    fn issue(
        shared: &ToggleTreeShared,
        slice: &mut ToggleTreeSlice,
        api: &mut SliceApi<ToggleMsg>,
        node: NodeId,
    ) {
        Self::process(shared, slice, api, node, node, 0);
    }
}

impl Protocol for ToggleTreeProtocol {
    type Msg = ToggleMsg;
    type Slice = ToggleTreeSlice;
    type Shared = ToggleTreeShared;

    fn split(&mut self) -> (&ToggleTreeShared, &mut [ToggleTreeSlice]) {
        (&self.shared, &mut self.slices)
    }

    fn on_start(&mut self, api: &mut SimApi<ToggleMsg>) {
        let requests = self.requests.clone();
        ccq_sim::issue_all(self, api, &requests);
    }

    fn on_message(
        shared: &ToggleTreeShared,
        slice: &mut ToggleTreeSlice,
        api: &mut SliceApi<ToggleMsg>,
        node: NodeId,
        _from: NodeId,
        msg: ToggleMsg,
    ) {
        match msg {
            ToggleMsg::Token { origin, node_idx } => {
                Self::process(shared, slice, api, node, origin, node_idx)
            }
            ToggleMsg::Result { origin, count } => Self::deliver(shared, api, node, origin, count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranks::verify_ranks;
    use ccq_graph::{spanning, topology};
    use ccq_sim::{run_protocol, SimConfig};

    fn run_toggle(
        graph: &Graph,
        tree: &Tree,
        requests: &[NodeId],
        leaves: usize,
    ) -> ccq_sim::SimReport {
        let proto = ToggleTreeProtocol::new(graph, tree, requests, leaves);
        let rep = run_protocol(graph, proto, SimConfig::strict()).unwrap();
        let ranks: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_ranks(requests, &ranks).unwrap();
        rep
    }

    #[test]
    fn bitrev_small() {
        assert_eq!(bitrev(0b011, 3), 0b110);
        assert_eq!(bitrev(0b1, 1), 0b1);
        assert_eq!(bitrev(0b10, 2), 0b01);
        assert_eq!(bitrev(5, 4), 0b1010);
    }

    #[test]
    fn counts_on_complete_graph() {
        let n = 16;
        let g = topology::complete(n);
        let t = spanning::bfs_tree(&g, 0);
        let rep = run_toggle(&g, &t, &(0..n).collect::<Vec<_>>(), 4);
        assert_eq!(rep.ops(), n);
    }

    #[test]
    fn counts_with_various_leaf_widths() {
        let n = 20;
        let g = topology::complete(n);
        let t = spanning::bfs_tree(&g, 0);
        for leaves in [2usize, 4, 8, 16] {
            let rep = run_toggle(&g, &t, &(0..n).collect::<Vec<_>>(), leaves);
            assert_eq!(rep.ops(), n, "leaves={leaves}");
        }
    }

    #[test]
    fn counts_on_mesh_and_subsets() {
        let g = topology::mesh(&[4, 4]);
        let t = spanning::bfs_tree(&g, 5);
        let rep = run_toggle(&g, &t, &[0, 3, 7, 11, 15], 4);
        assert_eq!(rep.ops(), 5);
    }

    #[test]
    fn root_tokens_receive_exact_sequence() {
        // Sequential check without the simulator: feeding tokens through
        // process() one at a time on a single-node "graph" is awkward, so
        // verify via the pure toggle mathematics instead: simulate the heap
        // walk directly.
        let leaves = 8usize;
        let depth = 3;
        let mut toggles = vec![false; leaves - 1];
        let mut leaf_counts = vec![0u64; leaves];
        let mut got = Vec::new();
        for _ in 0..30 {
            let mut idx = 0usize;
            while idx < leaves - 1 {
                let right = toggles[idx];
                toggles[idx] = !right;
                idx = 2 * idx + 1 + usize::from(right);
            }
            let p = idx - (leaves - 1);
            leaf_counts[p] += 1;
            got.push(bitrev(p, depth) as u64 + 1 + (leaf_counts[p] - 1) * leaves as u64);
        }
        assert_eq!(got, (1..=30).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_rejected() {
        let g = topology::complete(4);
        let t = spanning::bfs_tree(&g, 0);
        ToggleTreeProtocol::new(&g, &t, &[0], 3);
    }
}
