//! The nearest-neighbour tour on a tree metric.
//!
//! Paper §4: "the nearest neighbor TSP starts from an initial node (the
//! 'root') and visits all nodes in R in the following order: next visit a
//! previously unvisited vertex in R that is closest to the current position,
//! distances being measured along the tree T."
//!
//! Ties (several unvisited requesters at the same distance) are broken
//! towards the smallest node id, making tours deterministic.

use ccq_graph::{NodeId, Tree};
use std::collections::VecDeque;

/// A computed nearest-neighbour tour.
#[derive(Clone, Debug)]
pub struct NnTour {
    /// Starting position (the "root" of the tour).
    pub start: NodeId,
    /// Visit order of the requested vertices.
    pub order: Vec<NodeId>,
    /// Distance travelled on each leg (`leg_costs[i]` = distance from the
    /// previous position to `order[i]`).
    pub leg_costs: Vec<u64>,
}

impl NnTour {
    /// Total tour cost: Σ leg costs.
    pub fn cost(&self) -> u64 {
        self.leg_costs.iter().sum()
    }

    /// Per-visited-vertex cost as defined in Theorem 4.7: `cost(v)` is the
    /// distance from `v` to its **successor** in the tour (0 for the last).
    /// Returned in tour order.
    pub fn successor_costs(&self) -> Vec<u64> {
        let mut c: Vec<u64> = self.leg_costs[1..].to_vec();
        c.push(0);
        c
    }
}

/// Compute the NN tour on `tree` starting at `start`, visiting `targets`.
///
/// Nearest-unvisited queries run as expanding breadth-first searches over
/// [`Tree::neighbors`] from the current position, so each query costs
/// `O(ball size)` up to the nearest target — the whole tour is near-linear
/// when requests are dense. A tree has no cycle, so a search needs no
/// visited marks, only the vertex it came from. A query pops every vertex
/// at the nearest distance before it picks the smallest id among them, so
/// the order neighbours are visited in cannot change a pick.
///
/// # Panics
/// Panics if any target is out of range or duplicated.
pub fn nn_tour(tree: &Tree, start: NodeId, targets: &[NodeId]) -> NnTour {
    let n = tree.n();
    assert!(start < n, "start out of range");
    let mut pending = vec![false; n];
    for &t in targets {
        assert!(t < n, "target {t} out of range");
        assert!(!pending[t], "duplicate target {t}");
        pending[t] = true;
    }

    // (vertex, the vertex it was reached from, distance).
    let mut queue: VecDeque<(NodeId, NodeId, u64)> = VecDeque::new();
    let mut order = Vec::with_capacity(targets.len());
    let mut leg_costs = Vec::with_capacity(targets.len());
    let mut pos = start;
    while order.len() < targets.len() {
        queue.clear();
        queue.push_back((pos, pos, 0));
        // The nearest unvisited target; among equidistant ones, the smallest
        // id. BFS layers are processed fully before deciding.
        let mut best: Option<(u64, NodeId)> = None;
        while let Some((v, from, d)) = queue.pop_front() {
            if best.is_some_and(|(bd, _)| d > bd) {
                break;
            }
            if pending[v] && best.is_none_or(|(bd, bv)| d == bd && v < bv) {
                best = Some((d, v));
            }
            for w in tree.neighbors(v).filter(|&w| w != from) {
                queue.push_back((w, v, d + 1));
            }
        }
        let (d, v) = best.expect("target must be reachable in a tree");
        pending[v] = false;
        order.push(v);
        leg_costs.push(d);
        pos = v;
    }
    NnTour { start, order, leg_costs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_graph::spanning;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The tour the way this module computed it before it walked the tree's
    /// own arrays — a `Vec` of neighbours per vertex and timestamped visited
    /// marks — as the reference: `(order, leg_costs)`.
    fn adjacency_reference(
        tree: &Tree,
        start: NodeId,
        targets: &[NodeId],
    ) -> (Vec<NodeId>, Vec<u64>) {
        let n = tree.n();
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in (0..n).filter(|&v| v != tree.root()) {
            adj[v].push(tree.parent(v));
            adj[tree.parent(v)].push(v);
        }
        let mut pending = vec![false; n];
        for &t in targets {
            pending[t] = true;
        }
        let mut mark = vec![0u32; n];
        let mut queue = VecDeque::new();
        let (mut order, mut legs) = (Vec::new(), Vec::new());
        let mut pos = start;
        for epoch in 1..=targets.len() as u32 {
            queue.clear();
            queue.push_back((pos, 0u64));
            mark[pos] = epoch;
            let mut best: Option<(u64, NodeId)> = None;
            while let Some((v, d)) = queue.pop_front() {
                if let Some((bd, _)) = best {
                    if d > bd {
                        break;
                    }
                }
                if pending[v] {
                    best = match best {
                        None => Some((d, v)),
                        Some((bd, bv)) if d == bd && v < bv => Some((d, v)),
                        other => other,
                    };
                }
                for &w in &adj[v] {
                    if mark[w] != epoch {
                        mark[w] = epoch;
                        queue.push_back((w, d + 1));
                    }
                }
            }
            let (d, v) = best.expect("reachable");
            pending[v] = false;
            order.push(v);
            legs.push(d);
            pos = v;
        }
        (order, legs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random recursive trees under a random relabelling (the root
        /// anywhere, parents not smaller ids), random target subsets in a
        /// random order and a random start: the tour over the tree's own
        /// arrays visits in the reference's order at the same leg costs.
        #[test]
        fn tours_equal_the_adjacency_list_reference(n in 1usize..64, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut label: Vec<NodeId> = (0..n).collect();
            label.shuffle(&mut rng);
            let mut parent = vec![label[0]; n];
            for v in 1..n {
                parent[label[v]] = label[rng.random_range(0..v)];
            }
            let tree = Tree::from_parents(label[0], parent);
            let density = rng.random::<f64>();
            let mut targets: Vec<NodeId> = (0..n).filter(|_| rng.random::<f64>() < density).collect();
            targets.shuffle(&mut rng);
            let start = rng.random_range(0..n);
            let tour = nn_tour(&tree, start, &targets);
            let (order, leg_costs) = adjacency_reference(&tree, start, &targets);
            prop_assert_eq!(tour.order, order);
            prop_assert_eq!(tour.leg_costs, leg_costs);
        }
    }

    fn list(n: usize) -> Tree {
        spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>())
    }

    #[test]
    fn empty_targets() {
        let tour = nn_tour(&list(5), 2, &[]);
        assert!(tour.order.is_empty());
        assert_eq!(tour.cost(), 0);
    }

    #[test]
    fn single_target() {
        let tour = nn_tour(&list(10), 2, &[7]);
        assert_eq!(tour.order, vec![7]);
        assert_eq!(tour.cost(), 5);
    }

    #[test]
    fn start_is_a_target() {
        let tour = nn_tour(&list(10), 3, &[3, 9]);
        assert_eq!(tour.order, vec![3, 9]);
        assert_eq!(tour.leg_costs, vec![0, 6]);
    }

    #[test]
    fn greedy_on_list() {
        // From 0, targets {2, 3, 9}: nearest is 2, then 3, then 9.
        let tour = nn_tour(&list(10), 0, &[9, 3, 2]);
        assert_eq!(tour.order, vec![2, 3, 9]);
        assert_eq!(tour.cost(), 2 + 1 + 6);
    }

    #[test]
    fn zigzag_when_greedy_demands() {
        // From 5, targets {4, 7}: 4 is at distance 1, then 7 at 3.
        let tour = nn_tour(&list(10), 5, &[4, 7]);
        assert_eq!(tour.order, vec![4, 7]);
        assert_eq!(tour.cost(), 1 + 3);
    }

    #[test]
    fn tie_breaks_to_smaller_id() {
        // From 5, targets {4, 6} both at distance 1: 4 first.
        let tour = nn_tour(&list(10), 5, &[6, 4]);
        assert_eq!(tour.order, vec![4, 6]);
    }

    #[test]
    fn all_nodes_on_list_costs_n_minus_1_from_end() {
        let n = 20;
        let tour = nn_tour(&list(n), 0, &(0..n).collect::<Vec<_>>());
        assert_eq!(tour.cost(), (n - 1) as u64);
        assert_eq!(tour.order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn lemma_4_3_bound_holds_on_random_subsets() {
        use rand::prelude::*;
        let n = 200;
        let t = list(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let targets: Vec<NodeId> = (0..n).filter(|_| rng.random::<f64>() < 0.3).collect();
            let start = rng.random_range(0..n);
            let tour = nn_tour(&t, start, &targets);
            assert!(
                tour.cost() <= 3 * n as u64,
                "Lemma 4.3 violated: cost {} > 3n = {}",
                tour.cost(),
                3 * n
            );
        }
    }

    #[test]
    fn binary_tree_visit_all_is_linear() {
        let t = spanning::perfect_mary_tree(2, 7); // 255 nodes
        let n = t.n();
        let tour = nn_tour(&t, 0, &(0..n).collect::<Vec<_>>());
        // Theorem 4.7: O(n); the explicit constant from Lemma 4.9's sum is
        // well below 8n + 2d(d+1).
        let d = 7u64;
        assert!(tour.cost() <= 8 * n as u64 + 2 * d * (d + 1));
    }

    #[test]
    fn successor_costs_shift() {
        let tour = nn_tour(&list(10), 0, &[2, 3, 9]);
        assert_eq!(tour.successor_costs(), vec![1, 6, 0]);
    }

    #[test]
    fn tour_cost_matches_sequential_arrow_semantics() {
        // The NN tour legs are exactly the sequential arrow delays for the
        // same visiting order.
        let t = list(30);
        let targets: Vec<NodeId> = vec![5, 17, 2, 29, 11];
        let tour = nn_tour(&t, 8, &targets);
        let lca = ccq_graph::Lca::new(&t);
        let mut prev = 8;
        for (i, &v) in tour.order.iter().enumerate() {
            assert_eq!(tour.leg_costs[i], lca.dist(prev, v) as u64);
            prev = v;
        }
    }
}
