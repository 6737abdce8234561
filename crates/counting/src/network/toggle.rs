//! The toggle tree (the skeleton of Shavit–Zemach diffracting trees): a
//! balancing network of one-input balancers.
//!
//! A complete binary tree of `L = 2^d` leaves whose internal nodes are
//! *toggles*: the toggle at heap index `idx` reads wire `idx` and sends its
//! 1st, 3rd, 5th… token to wire `2·idx+1` and the rest to `2·idx+2`. Every
//! input position enters at the root (wire 0), so the `i`-th token reaches
//! leaf `p = bitrev_d(i−1 mod L)` as its `⌈i/L⌉`-th token: leaf `p` is
//! output `bitrev_d(p)`, and the `i`-th token receives exactly `i`. Unlike
//! a counting network the toggle tree is an *exact* sequencer, but the root
//! toggle is a serialization point whose measured contention the t9
//! ablations quantify (a diffracting tree's "prism" would relieve it).
//! A leaf's exit counter is hosted by its heap index, and a token's
//! `Debug` form names its wire `node_idx`.

use super::net::{BalancingNetwork, Builder, WireLabel};

fn bitrev(mut x: usize, bits: u32) -> usize {
    let mut r = 0usize;
    for _ in 0..bits {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    r
}

/// Build the toggle tree with `leaves` leaves; `leaves` must be a power of
/// two ≥ 2.
pub fn toggle_tree(leaves: usize) -> BalancingNetwork {
    assert!(leaves >= 2 && leaves.is_power_of_two(), "leaves must be a power of two ≥ 2");
    let mut b = Builder::new(1, leaves - 1);
    for idx in 0..leaves - 1 {
        b.balancer(idx, idx);
    }
    let depth = leaves.trailing_zeros();
    // bitrev is an involution: output j is the leaf at position bitrev(j).
    let outputs = (0..leaves).map(|j| leaves - 1 + bitrev(j, depth)).collect();
    let mut net = b.finish(outputs, "toggle-tree");
    net.exit_site.copy_from_slice(&net.outputs);
    net.label = WireLabel::NodeIdx;
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{has_step_property, CountingNetworkProtocol, SeqNetwork};
    use crate::ranks::verify_ranks;
    use ccq_graph::{spanning, topology, Graph, NodeId, Tree};
    use ccq_sim::{run_protocol, SimConfig};

    fn run_toggle(
        graph: &Graph,
        tree: &Tree,
        requests: &[NodeId],
        leaves: usize,
    ) -> ccq_sim::SimReport {
        let proto =
            CountingNetworkProtocol::with_network(graph, tree, requests, toggle_tree(leaves));
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
        // Whatever input position a token enters by, it starts at the root,
        // and the i-th token through the root receives exactly i.
        for leaves in [2usize, 4, 8, 16, 32, 64] {
            let net = toggle_tree(leaves);
            let mut seq = SeqNetwork::new(&net);
            for i in 1..=5 * leaves as u64 {
                assert_eq!(seq.next_count(i as usize % leaves), i, "leaves={leaves}");
                assert!(
                    has_step_property(seq.exit_counts()),
                    "leaves={leaves} violated after {i} tokens: {:?}",
                    seq.exit_counts()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_rejected() {
        toggle_tree(3);
    }
}
