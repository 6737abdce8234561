//! The centralized counter: every increment routes to one root processor.
//!
//! The root assigns ranks in arrival order and routes each rank back to its
//! requester. Under the one-send/one-receive model the root handles one
//! message per round, so `k` concurrent requests serialize into `Θ(k²)`
//! total delay (plus routing distance) — the behaviour paper §5 proves is
//! *unavoidable* on the star graph, and the straw-man that combining trees
//! and counting networks improve upon elsewhere.
//!
//! The walk is `ccq-queuing`'s central mechanism, the one `central-queue`
//! runs; this module contributes only the counter's hand-out.

use crate::ranks::Rank;
use ccq_graph::NodeId;
use ccq_queuing::central::{Central, CentralHandOut};

/// The counter's hand-out: the root returns the next rank and advances it.
impl CentralHandOut for Rank {
    const FIRST: u64 = 1;
    const NAMES: [&'static str; 3] = ["Inc", "Rank", "rank"];
    fn hand_out(next: &mut u64, _origin: NodeId) -> u64 {
        let rank = *next;
        *next += 1;
        rank
    }
}

/// Centralized counter protocol: the central mechanism handing out ranks,
/// hosted at the `root` its constructor names.
pub type CentralCounterProtocol<'t> = Central<'t, Rank>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranks::verify_ranks;
    use ccq_graph::{spanning, Tree};
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
