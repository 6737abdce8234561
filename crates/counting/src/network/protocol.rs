//! A balancing network embedded on the processors of `G`: a counting
//! network or a toggle tree.
//!
//! Balancers are assigned to processors round-robin (balancer `b` on
//! processor `b mod n`, slot `b / n` of its toggles); a requester injects a
//! token at input position `v mod w`. Tokens travel as messages: towards a
//! balancer's host they follow precomputed BFS next-hop tables (one row
//! per distinct host of one flat table — `O(hosts · n)` memory, no
//! per-token routes); at the host the balancer toggles and the token moves
//! to its next wire. At an output wire, the exit host (processor `s mod n`
//! for the output's exit site `s`, see [`BalancingNetwork::exit_site`])
//! assigns the count `j + 1 + (c−1)·w` and routes it back to the origin
//! along the spanning tree, hop by hop through a [`TreeRouter`] that
//! borrows the tree.
//!
//! All protocol state (toggles, exit counters) is mutated only by its
//! hosting processor, preserving the distributed abstraction; contention at
//! hot balancers is measured by the simulator's receive budget.

use super::net::{BalancingNetwork, WireDest, WireLabel};
use ccq_graph::{bfs, Graph, NodeId, Tree, TreeRouter};
use ccq_sim::{Protocol, SliceApi};
use std::fmt;

/// Messages of the balancing-network protocol.
#[derive(Clone, Copy)]
pub enum CnMsg {
    /// A token of `origin` currently travelling along `wire`.
    Token { origin: NodeId, wire: usize },
    /// A token in a toggle tree ([`WireLabel::NodeIdx`]): its wire is the
    /// heap index of the toggle or leaf it heads for.
    TreeToken { origin: NodeId, node_idx: usize },
    /// The acquired count, routed back to `origin` along the tree.
    Result { origin: NodeId, count: u64 },
}

/// Both tokens render as `Token`, each naming its wire as its network's
/// [`WireLabel`] says (checkpoint digests hash every in-flight message).
impl fmt::Debug for CnMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, field, origin, value) = match *self {
            CnMsg::Token { origin, wire } => ("Token", "wire", origin, wire as u64),
            CnMsg::TreeToken { origin, node_idx } => ("Token", "node_idx", origin, node_idx as u64),
            CnMsg::Result { origin, count } => ("Result", "count", origin, count),
        };
        f.debug_struct(name).field("origin", &origin).field(field, &value).finish()
    }
}

/// Read-only embedding every counting-network handler shares.
pub struct CountingNetworkShared<'t> {
    net: BalancingNetwork,
    /// Wire → the processor hosting the balancer or exit counter the wire
    /// leads into, and its slot in that host's counters.
    hosted_at: Vec<(NodeId, usize)>,
    /// Dense host indexing: node → row of `next_hop` (`u32::MAX` = not a
    /// host).
    host_slot: Vec<u32>,
    /// `next_hop[s * n + u]` = next hop from `u` towards the host in row `s`
    /// (a `u32` id, like the graph's).
    next_hop: Vec<u32>,
    router: TreeRouter<'t>,
}

/// Counting-network protocol state. Processor `v`'s counters — the toggles
/// of the balancers it hosts (`0` top, `1` bottom), then its exit counts —
/// are `counters[host_off[v]..host_off[v + 1]]`, mutated only by `v` (the
/// module-level distributed-abstraction claim).
pub struct CountingNetworkProtocol<'t> {
    shared: CountingNetworkShared<'t>,
    host_off: Vec<usize>,
    counters: Vec<u64>,
    requests: Vec<NodeId>,
}

impl<'t> CountingNetworkProtocol<'t> {
    /// Embed `Bitonic[width]` on `graph`, with result replies routed along
    /// the spanning tree `tree`. `width` must be a power of two ≥ 2.
    pub fn new(graph: &Graph, tree: &'t Tree, requests: &[NodeId], width: usize) -> Self {
        Self::with_network(graph, tree, requests, super::bitonic::bitonic(width))
    }

    /// Embed an arbitrary balancing network (e.g.
    /// [`super::periodic()`](super::periodic()) or
    /// [`super::toggle_tree()`](super::toggle_tree())).
    pub fn with_network(
        graph: &Graph,
        tree: &'t Tree,
        requests: &[NodeId],
        net: BalancingNetwork,
    ) -> Self {
        let n = graph.n();
        assert_eq!(tree.n(), n, "tree/graph size mismatch");

        // Count each host's counters (`host_off[v + 1]`, summed below):
        // balancer `b` is toggle slot `b / n` on `b % n`, and exit counters
        // follow their host's toggles in wire order.
        let mut host_off = vec![0; n + 1];
        for b in 0..net.balancers().len() {
            host_off[b % n + 1] += 1;
        }
        let hosted_at: Vec<(NodeId, usize)> = (net.wire_dest.iter())
            .map(|&dest| match dest {
                WireDest::Balancer(b) => (b % n, b / n),
                WireDest::Output(j) => {
                    let h = net.exit_site(j) % n;
                    host_off[h + 1] += 1;
                    (h, host_off[h + 1] - 1)
                }
            })
            .collect();
        for v in 0..n {
            host_off[v + 1] += host_off[v];
        }

        // One next-hop row per host (a processor with counters): a BFS from
        // `h` gives each `u` the first hop of a shortest path `u → h`, its
        // predecessor, written straight into `h`'s row. The searches share
        // one pair of buffers.
        let hosts = (0..n).filter(|&v| host_off[v] < host_off[v + 1]).count();
        let mut host_slot = vec![u32::MAX; n];
        let mut next_hop = vec![u32::MAX; hosts * n];
        let (mut dist, mut order, mut rows) = (Vec::new(), Vec::new(), 0);
        for &(h, _) in &hosted_at {
            if host_slot[h] == u32::MAX {
                let row = &mut next_hop[rows * n..(rows + 1) * n];
                row[h] = h as u32;
                bfs::search(graph, h, &mut dist, &mut order, |v, u| row[v] = u as u32);
                host_slot[h] = rows as u32;
                rows += 1;
            }
        }

        let mut requests = requests.to_vec();
        requests.sort_unstable();
        CountingNetworkProtocol {
            shared: CountingNetworkShared {
                hosted_at,
                host_slot,
                next_hop,
                router: TreeRouter::new(tree),
                net,
            },
            counters: vec![0; host_off[n]],
            host_off,
            requests,
        }
    }

    /// Advance a token as far as possible at processor `u`, then either
    /// complete it or send it towards the host of its wire's destination.
    /// Every toggle and exit counter the walk touches is hosted at `u`,
    /// hence lies in `u`'s range of counters.
    fn process_token(
        shared: &CountingNetworkShared,
        counters: &mut [u64],
        api: &mut SliceApi<CnMsg>,
        u: NodeId,
        origin: NodeId,
        mut wire: usize,
    ) {
        let net = &shared.net;
        loop {
            let (host, slot) = shared.hosted_at[wire];
            if host != u {
                let row = shared.host_slot[host] as usize * shared.host_slot.len();
                let next = shared.next_hop[row + u] as NodeId;
                let token = match net.label {
                    WireLabel::Wire => CnMsg::Token { origin, wire },
                    WireLabel::NodeIdx => CnMsg::TreeToken { origin, node_idx: wire },
                };
                api.send(next, token);
                return;
            }
            match net.wire_dest(wire) {
                WireDest::Balancer(b) => {
                    let bal = net.balancers()[b];
                    let toggle = &mut counters[slot];
                    wire = if *toggle == 1 { bal.out_bot } else { bal.out_top };
                    *toggle ^= 1;
                }
                WireDest::Output(j) => {
                    let exited = &mut counters[slot];
                    *exited += 1;
                    let count = (j as u64 + 1) + (*exited - 1) * net.width() as u64;
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

impl<'t> Protocol for CountingNetworkProtocol<'t> {
    type Msg = CnMsg;
    type Slice<'s>
        = &'s mut [u64]
    where
        Self: 's;
    type Shared = CountingNetworkShared<'t>;

    fn nodes(&self) -> usize {
        self.host_off.len() - 1
    }

    fn at(&mut self, v: NodeId) -> (&CountingNetworkShared<'t>, &mut [u64]) {
        (&self.shared, &mut self.counters[self.host_off[v]..self.host_off[v + 1]])
    }

    fn requests(&self) -> &[NodeId] {
        &self.requests
    }

    /// Inject `v`'s token at its input wire now.
    fn issue(
        shared: &CountingNetworkShared<'t>,
        counters: &mut [u64],
        api: &mut SliceApi<CnMsg>,
        v: NodeId,
    ) {
        let wire = shared.net.input_wire(v % shared.net.width());
        Self::process_token(shared, counters, api, v, v, wire);
    }

    fn on_message(
        shared: &CountingNetworkShared<'t>,
        counters: &mut [u64],
        api: &mut SliceApi<CnMsg>,
        node: NodeId,
        _from: NodeId,
        msg: CnMsg,
    ) {
        match msg {
            CnMsg::Token { origin, wire } | CnMsg::TreeToken { origin, node_idx: wire } => {
                Self::process_token(shared, counters, api, node, origin, wire)
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
