//! Tour baselines: Steiner-subtree size and the depth-first tour.
//!
//! These calibrate the NN tour's quality. Any tour visiting `R` from `start`
//! must traverse each edge of the Steiner subtree (the minimal subtree
//! spanning `R ∪ {start}`) at least once, so `|E_Steiner|` is a lower
//! bound; a depth-first traversal crosses each such edge at most twice,
//! giving cost ≤ `2·|E_Steiner|`. Rosenkrantz et al.'s bound says NN is
//! within a `O(log |R|)` factor of optimal.

use crate::nn::NnTour;
use ccq_graph::{Lca, NodeId, Tree};

/// Number of edges of the Steiner subtree of `targets ∪ {start}` in `tree`.
pub fn steiner_edge_count(tree: &Tree, start: NodeId, targets: &[NodeId]) -> u64 {
    let n = tree.n();
    let mut needed = vec![false; n];
    needed[start] = true;
    for &t in targets {
        needed[t] = true;
    }
    // A vertex is in the Steiner subtree iff its subtree contains a needed
    // vertex AND the complement also contains one; simpler: mark the paths.
    // Count vertices whose subtree contains ≥1 needed vertex, then subtract
    // off the "top chain" above the subtree root (vertices with the full
    // needed count but not needed themselves and only one child carrying).
    // We instead do it directly: edge (v, parent) is Steiner iff subtree(v)
    // contains a needed vertex and the rest of the tree does too.
    let mut cnt = vec![0u32; n];
    let total: u32 = needed.iter().map(|&b| u32::from(b)).sum();
    for v in tree.bfs_order().rev() {
        if needed[v] {
            cnt[v] += 1;
        }
        if v != tree.root() {
            cnt[tree.parent(v)] += cnt[v];
        }
    }
    (0..n).filter(|&v| v != tree.root()).filter(|&v| cnt[v] >= 1 && cnt[v] < total).count() as u64
}

/// Depth-first tour: visit `targets` in DFS preorder of `tree` re-rooted at
/// `start` (children in ascending id order), moving between consecutive
/// targets along tree paths. Returns the tour in the same format as
/// [`crate::nn::nn_tour`].
pub fn dfs_tour(tree: &Tree, start: NodeId, targets: &[NodeId]) -> NnTour {
    let n = tree.n();
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t] = true;
    }
    // DFS preorder from `start` over the undirected tree.
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in 0..n {
        if v != tree.root() {
            adj[v].push(tree.parent(v));
            adj[tree.parent(v)].push(v);
        }
    }
    for a in adj.iter_mut() {
        a.sort_unstable();
    }
    let mut seen = vec![false; n];
    let mut stack = vec![start];
    let mut order = Vec::new();
    while let Some(v) = stack.pop() {
        if seen[v] {
            continue;
        }
        seen[v] = true;
        if is_target[v] {
            order.push(v);
        }
        for &w in adj[v].iter().rev() {
            if !seen[w] {
                stack.push(w);
            }
        }
    }
    let lca = Lca::new(tree);
    let mut leg_costs = Vec::with_capacity(order.len());
    let mut pos = start;
    for &v in &order {
        leg_costs.push(lca.dist(pos, v) as u64);
        pos = v;
    }
    NnTour { start, order, leg_costs }
}

/// Cost of an **optimal open walk** from `start` visiting all `targets` on
/// the tree: `2·|E_Steiner| − max_{t ∈ targets} d(start, t)` — every
/// Steiner edge is crossed twice except those on the path to wherever the
/// walk ends, and ending at the farthest target maximizes the saving.
pub fn optimal_open_walk_cost(tree: &Tree, start: NodeId, targets: &[NodeId]) -> u64 {
    if targets.is_empty() {
        return 0;
    }
    let steiner = steiner_edge_count(tree, start, targets);
    let lca = Lca::new(tree);
    let farthest = targets.iter().map(|&t| lca.dist(start, t) as u64).max().unwrap_or(0);
    2 * steiner - farthest
}

/// The Rosenkrantz–Stearns–Lewis guarantee instantiated on trees: the NN
/// tour of `k` targets is within `(⌈log₂ k⌉ + 1)/2` of the optimal *closed*
/// tour, which on a tree costs `2·|E_Steiner|`. Returns the bound value.
pub fn rosenkrantz_bound(tree: &Tree, start: NodeId, targets: &[NodeId]) -> u64 {
    if targets.is_empty() {
        return 0;
    }
    let k = targets.len() as u64;
    let lg = 64 - (k.max(1)).next_power_of_two().leading_zeros() as u64 - 1;
    (lg + 1) * steiner_edge_count(tree, start, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::nn_tour;
    use ccq_graph::spanning;

    fn list(n: usize) -> Tree {
        spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>())
    }

    #[test]
    fn steiner_on_list_is_span() {
        let t = list(10);
        // Targets {3, 7} from start 5 → Steiner subtree spans 3..=7: 4 edges.
        assert_eq!(steiner_edge_count(&t, 5, &[3, 7]), 4);
        // Single target = path start→target.
        assert_eq!(steiner_edge_count(&t, 0, &[9]), 9);
        // Target == start → no edges.
        assert_eq!(steiner_edge_count(&t, 4, &[4]), 0);
    }

    #[test]
    fn steiner_on_binary_tree() {
        let t = spanning::balanced_binary_tree(7);
        // Start at root 0; targets are the two deepest left leaves 3, 4:
        // edges {0-1, 1-3, 1-4}.
        assert_eq!(steiner_edge_count(&t, 0, &[3, 4]), 3);
    }

    #[test]
    fn dfs_tour_visits_all_targets() {
        let t = spanning::balanced_binary_tree(15);
        let targets: Vec<NodeId> = vec![3, 9, 14, 7];
        let tour = dfs_tour(&t, 0, &targets);
        let mut sorted = tour.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 7, 9, 14]);
    }

    #[test]
    fn dfs_tour_cost_at_most_twice_steiner_plus_return() {
        use rand::prelude::*;
        let t = spanning::balanced_binary_tree(63);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let targets: Vec<NodeId> = (0..63).filter(|_| rng.random::<f64>() < 0.4).collect();
            if targets.is_empty() {
                continue;
            }
            let tour = dfs_tour(&t, 0, &targets);
            let steiner = steiner_edge_count(&t, 0, &targets);
            assert!(tour.cost() <= 2 * steiner, "cost {} steiner {}", tour.cost(), steiner);
        }
    }

    #[test]
    fn steiner_lower_bounds_every_tour() {
        use rand::prelude::*;
        let t = list(100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let targets: Vec<NodeId> = (0..100).filter(|_| rng.random::<f64>() < 0.3).collect();
            if targets.is_empty() {
                continue;
            }
            let start = rng.random_range(0..100);
            let nn = nn_tour(&t, start, &targets);
            let steiner = steiner_edge_count(&t, start, &targets);
            assert!(nn.cost() >= steiner);
            let dfs = dfs_tour(&t, start, &targets);
            assert!(dfs.cost() >= steiner);
        }
    }

    #[test]
    fn optimal_open_walk_on_list() {
        let t = list(10);
        // Start 5, targets {3, 7}: Steiner spans 3..=7 (4 edges); farthest
        // target is at distance 2 → 2·4 − 2 = 6 (go 5→3→7 costs 2+4=6 ✓).
        assert_eq!(optimal_open_walk_cost(&t, 5, &[3, 7]), 6);
        // Single target: walk straight there.
        assert_eq!(optimal_open_walk_cost(&t, 0, &[9]), 9);
        // No targets: free.
        assert_eq!(optimal_open_walk_cost(&t, 4, &[]), 0);
    }

    #[test]
    fn optimal_lower_bounds_every_tour() {
        use rand::prelude::*;
        let t = spanning::balanced_binary_tree(63);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let targets: Vec<NodeId> = (0..63).filter(|_| rng.random::<f64>() < 0.4).collect();
            if targets.is_empty() {
                continue;
            }
            let opt = optimal_open_walk_cost(&t, 0, &targets);
            assert!(nn_tour(&t, 0, &targets).cost() >= opt);
            assert!(dfs_tour(&t, 0, &targets).cost() >= opt);
        }
    }

    #[test]
    fn rosenkrantz_guarantee_holds_for_nn() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for n in [50usize, 120] {
            let t = list(n);
            for _ in 0..15 {
                let targets: Vec<NodeId> = (0..n).filter(|_| rng.random::<f64>() < 0.3).collect();
                if targets.len() < 2 {
                    continue;
                }
                let start = rng.random_range(0..n);
                let nn = nn_tour(&t, start, &targets).cost();
                let bound = rosenkrantz_bound(&t, start, &targets);
                assert!(nn <= bound.max(1) * 2, "nn {nn} vs bound {bound}");
            }
        }
        // Also on binary trees, where NN can genuinely zig-zag.
        let t = spanning::balanced_binary_tree(127);
        for _ in 0..15 {
            let targets: Vec<NodeId> = (0..127).filter(|_| rng.random::<f64>() < 0.3).collect();
            if targets.len() < 2 {
                continue;
            }
            let nn = nn_tour(&t, 0, &targets).cost();
            let bound = rosenkrantz_bound(&t, 0, &targets);
            assert!(nn <= bound.max(1) * 2, "tree: nn {nn} vs bound {bound}");
        }
    }

    #[test]
    fn nn_close_to_dfs_on_lists() {
        // On lists NN is at most a small constant of the DFS tour.
        let t = list(200);
        let targets: Vec<NodeId> = (0..200).step_by(2).collect();
        let nn = nn_tour(&t, 100, &targets);
        let dfs = dfs_tour(&t, 100, &targets);
        assert!(nn.cost() <= 3 * dfs.cost().max(1));
    }
}
