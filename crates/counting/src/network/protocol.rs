//! The counting network embedded on the processors of `G`.
//!
//! Balancers are assigned to processors round-robin; a requester injects a
//! token at input wire `v mod w`. Tokens travel as messages: towards a
//! balancer's host they follow precomputed BFS next-hop tables (one table
//! per distinct host — `O(hosts · n)` memory, no per-token routes); at the
//! host the balancer toggles and the token moves to its next wire. At an
//! output wire, the exit host (the processor hosting the producing
//! balancer) assigns the count `j + 1 + (c−1)·w` and routes it back to the
//! origin along the spanning tree (Euler-tour next-hop routing).
//!
//! All protocol state (toggles, exit counters) is mutated only by its
//! hosting processor, preserving the distributed abstraction; contention at
//! hot balancers is measured by the simulator's receive budget.

use super::net::{BalancingNetwork, WireDest};
use ccq_graph::{bfs, Graph, NodeId, Tree, TreeRouter};
use ccq_sim::{OnlineProtocol, Protocol, SimApi, SliceApi};

/// Messages of the counting-network protocol.
#[derive(Clone, Copy, Debug)]
pub enum CnMsg {
    /// A token of `origin` currently travelling along `wire`.
    Token { origin: NodeId, wire: usize },
    /// The acquired count, routed back to `origin` along the tree.
    Result { origin: NodeId, count: u64 },
}

/// Read-only embedding every counting-network handler shares.
pub struct CountingNetworkShared {
    net: BalancingNetwork,
    /// Balancer index → hosting processor.
    host: Vec<NodeId>,
    /// Output position → processor holding that exit counter.
    exit_host: Vec<NodeId>,
    /// Balancer index → slot within its host's `toggles`.
    local_toggle: Vec<usize>,
    /// Output position → slot within its exit host's `exit_counts`.
    local_exit: Vec<usize>,
    /// Dense host indexing: node → slot in `next_to_host` (usize::MAX = not a host).
    host_slot: Vec<usize>,
    /// `next_to_host[s][u]` = next hop from `u` towards host with slot `s`.
    next_to_host: Vec<Vec<NodeId>>,
    router: TreeRouter,
}

/// One processor's counting-network state: the toggles and exit counters
/// of the balancers it hosts (each is mutated only by its host — the
/// module-level distributed-abstraction claim).
#[derive(Debug, Default)]
pub struct CountingNetworkSlice {
    toggles: Vec<bool>,
    exit_counts: Vec<u64>,
}

/// Counting-network protocol state.
pub struct CountingNetworkProtocol {
    shared: CountingNetworkShared,
    slices: Vec<CountingNetworkSlice>,
    requests: Vec<NodeId>,
}

impl CountingNetworkProtocol {
    /// Embed `Bitonic[width]` on `graph`, with result replies routed along
    /// the spanning tree `tree`. `width` must be a power of two ≥ 2.
    pub fn new(graph: &Graph, tree: &Tree, requests: &[NodeId], width: usize) -> Self {
        Self::with_network(graph, tree, requests, super::bitonic::bitonic(width))
    }

    /// Embed an arbitrary counting network (e.g. [`super::periodic()`](super::periodic())).
    pub fn with_network(
        graph: &Graph,
        tree: &Tree,
        requests: &[NodeId],
        net: BalancingNetwork,
    ) -> Self {
        let n = graph.n();
        assert_eq!(tree.n(), n, "tree/graph size mismatch");
        let width = net.width();
        // Round-robin hosting.
        let host: Vec<NodeId> = (0..net.balancers().len()).map(|b| b % n).collect();
        let exit_host: Vec<NodeId> = (0..width).map(|j| host[net.output_producer(j)]).collect();

        // BFS next-hop tables toward every distinct host.
        let mut host_slot = vec![usize::MAX; n];
        let mut next_to_host: Vec<Vec<NodeId>> = Vec::new();
        for &h in host.iter().chain(exit_host.iter()) {
            if host_slot[h] == usize::MAX {
                host_slot[h] = next_to_host.len();
                // Predecessor toward h: one BFS from h gives, for each u,
                // the first hop of a shortest path u → h.
                let (_, pred) = bfs::bfs_tree_arrays(graph, h);
                next_to_host.push(pred);
            }
        }

        // Group balancer toggles and exit counters under their hosting
        // processors; local slots are assigned in balancer/output order.
        let mut slices: Vec<CountingNetworkSlice> =
            (0..n).map(|_| CountingNetworkSlice::default()).collect();
        let mut local_toggle = vec![usize::MAX; net.balancers().len()];
        for (b, &h) in host.iter().enumerate() {
            local_toggle[b] = slices[h].toggles.len();
            slices[h].toggles.push(false);
        }
        let mut local_exit = vec![usize::MAX; width];
        for (j, &h) in exit_host.iter().enumerate() {
            local_exit[j] = slices[h].exit_counts.len();
            slices[h].exit_counts.push(0);
        }

        let mut requests = requests.to_vec();
        requests.sort_unstable();
        CountingNetworkProtocol {
            shared: CountingNetworkShared {
                host,
                exit_host,
                local_toggle,
                local_exit,
                host_slot,
                next_to_host,
                router: TreeRouter::new(tree),
                net,
            },
            slices,
            requests,
        }
    }

    /// The network being executed.
    pub fn network(&self) -> &BalancingNetwork {
        &self.shared.net
    }

    fn send_towards(
        shared: &CountingNetworkShared,
        api: &mut SliceApi<CnMsg>,
        at: NodeId,
        host: NodeId,
        msg: CnMsg,
    ) {
        let slot = shared.host_slot[host];
        let next = shared.next_to_host[slot][at];
        api.send(next, msg);
    }

    /// Advance a token as far as possible at processor `u`, then either
    /// complete it or send it towards its next host. Every toggle and exit
    /// counter the walk touches is hosted at `u`, hence lives in `u`'s
    /// slice.
    fn process_token(
        shared: &CountingNetworkShared,
        slice: &mut CountingNetworkSlice,
        api: &mut SliceApi<CnMsg>,
        u: NodeId,
        origin: NodeId,
        mut wire: usize,
    ) {
        loop {
            match shared.net.wire_dest(wire) {
                WireDest::Balancer(b) => {
                    let h = shared.host[b];
                    if h != u {
                        Self::send_towards(shared, api, u, h, CnMsg::Token { origin, wire });
                        return;
                    }
                    let bal = shared.net.balancers()[b];
                    let slot = shared.local_toggle[b];
                    wire = if slice.toggles[slot] { bal.out_bot } else { bal.out_top };
                    slice.toggles[slot] = !slice.toggles[slot];
                }
                WireDest::Output(j) => {
                    let h = shared.exit_host[j];
                    if h != u {
                        Self::send_towards(shared, api, u, h, CnMsg::Token { origin, wire });
                        return;
                    }
                    let slot = shared.local_exit[j];
                    slice.exit_counts[slot] += 1;
                    let count =
                        (j as u64 + 1) + (slice.exit_counts[slot] - 1) * shared.net.width() as u64;
                    Self::deliver_result(shared, api, u, origin, count);
                    return;
                }
            }
        }
    }

    fn deliver_result(
        shared: &CountingNetworkShared,
        api: &mut SliceApi<CnMsg>,
        at: NodeId,
        origin: NodeId,
        count: u64,
    ) {
        match shared.router.next_hop(at, origin) {
            None => api.complete(origin, count),
            Some(next) => api.send(next, CnMsg::Result { origin, count }),
        }
    }
}

impl OnlineProtocol for CountingNetworkProtocol {
    /// Inject `v`'s token at its input wire now.
    fn issue(
        shared: &CountingNetworkShared,
        slice: &mut CountingNetworkSlice,
        api: &mut SliceApi<CnMsg>,
        v: NodeId,
    ) {
        let wire = shared.net.input_wire(v % shared.net.width());
        Self::process_token(shared, slice, api, v, v, wire);
    }
}

impl Protocol for CountingNetworkProtocol {
    type Msg = CnMsg;
    type Slice = CountingNetworkSlice;
    type Shared = CountingNetworkShared;

    fn split(&mut self) -> (&CountingNetworkShared, &mut [CountingNetworkSlice]) {
        (&self.shared, &mut self.slices)
    }

    fn on_start(&mut self, api: &mut SimApi<CnMsg>) {
        let requests = self.requests.clone();
        ccq_sim::issue_all(self, api, &requests);
    }

    fn on_message(
        shared: &CountingNetworkShared,
        slice: &mut CountingNetworkSlice,
        api: &mut SliceApi<CnMsg>,
        node: NodeId,
        _from: NodeId,
        msg: CnMsg,
    ) {
        match msg {
            CnMsg::Token { origin, wire } => {
                Self::process_token(shared, slice, api, node, origin, wire)
            }
            CnMsg::Result { origin, count } => {
                Self::deliver_result(shared, api, node, origin, count)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranks::verify_ranks;
    use ccq_graph::{spanning, topology};
    use ccq_sim::{run_protocol, SimConfig};

    fn run_network(
        graph: &Graph,
        tree: &Tree,
        requests: &[NodeId],
        width: usize,
        cfg: SimConfig,
    ) -> ccq_sim::SimReport {
        let proto = CountingNetworkProtocol::new(graph, tree, requests, width);
        let rep = run_protocol(graph, proto, cfg).unwrap();
        let ranks: Vec<(NodeId, u64)> = rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_ranks(requests, &ranks).unwrap();
        rep
    }

    #[test]
    fn counts_on_complete_graph() {
        let n = 16;
        let g = topology::complete(n);
        let t = spanning::bfs_tree(&g, 0);
        let requests: Vec<NodeId> = (0..n).collect();
        let rep = run_network(&g, &t, &requests, 4, SimConfig::strict());
        assert_eq!(rep.ops(), n);
    }

    #[test]
    fn counts_with_width_equal_n() {
        let n = 8;
        let g = topology::complete(n);
        let t = spanning::bfs_tree(&g, 0);
        let requests: Vec<NodeId> = (0..n).collect();
        let rep = run_network(&g, &t, &requests, 8, SimConfig::strict());
        assert_eq!(rep.ops(), n);
    }

    #[test]
    fn counts_on_mesh() {
        let g = topology::mesh(&[4, 4]);
        let t = spanning::bfs_tree(&g, 5);
        let requests: Vec<NodeId> = (0..16).collect();
        let rep = run_network(&g, &t, &requests, 4, SimConfig::strict());
        assert_eq!(rep.ops(), 16);
    }

    #[test]
    fn counts_subset_of_requesters() {
        let n = 24;
        let g = topology::complete(n);
        let t = spanning::bfs_tree(&g, 0);
        let requests: Vec<NodeId> = vec![1, 3, 7, 9, 13, 22];
        let rep = run_network(&g, &t, &requests, 4, SimConfig::strict());
        assert_eq!(rep.ops(), 6);
    }

    #[test]
    fn counts_on_list_topology() {
        // Expensive embedding (long routes) but must stay correct.
        let g = topology::path(12);
        let t = spanning::bfs_tree(&g, 6);
        let requests: Vec<NodeId> = (0..12).collect();
        let rep = run_network(&g, &t, &requests, 4, SimConfig::strict());
        assert_eq!(rep.ops(), 12);
    }

    #[test]
    fn wider_network_reduces_contention() {
        let n = 32;
        let g = topology::complete(n);
        let t = spanning::bfs_tree(&g, 0);
        let requests: Vec<NodeId> = (0..n).collect();
        let narrow = run_network(&g, &t, &requests, 2, SimConfig::strict());
        let wide = run_network(&g, &t, &requests, 16, SimConfig::strict());
        assert!(
            wide.max_inport_depth <= narrow.max_inport_depth,
            "wide {} narrow {}",
            wide.max_inport_depth,
            narrow.max_inport_depth
        );
    }

    #[test]
    fn deterministic() {
        let n = 16;
        let g = topology::complete(n);
        let t = spanning::bfs_tree(&g, 0);
        let requests: Vec<NodeId> = (0..n).collect();
        let r1 = run_network(&g, &t, &requests, 8, SimConfig::strict());
        let r2 = run_network(&g, &t, &requests, 8, SimConfig::strict());
        assert_eq!(r1.total_delay(), r2.total_delay());
        let v1: Vec<_> = r1.completions.iter().map(|c| (c.node, c.value)).collect();
        let v2: Vec<_> = r2.completions.iter().map(|c| (c.node, c.value)).collect();
        assert_eq!(v1, v2);
    }

    #[test]
    fn no_requests_noop() {
        let g = topology::complete(8);
        let t = spanning::bfs_tree(&g, 0);
        let rep = run_network(&g, &t, &[], 4, SimConfig::strict());
        assert_eq!(rep.messages_sent, 0);
    }
}
