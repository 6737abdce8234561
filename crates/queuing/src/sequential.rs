//! Sequential reference semantics for the arrow protocol.
//!
//! When requests execute one at a time in some order `π = v₁, v₂, …, v_k`
//! (starting from tail `t₀`), each `queue(vᵢ)` message travels along the
//! tree from `vᵢ` to the current sink `vᵢ₋₁` and terminates there. Its delay
//! is therefore `d_T(vᵢ, vᵢ₋₁)`, and the total cost is
//! `Σᵢ d_T(vᵢ₋₁, vᵢ)` — the cost of visiting `π` as a tour of the tree.
//!
//! With `π` = the nearest-neighbour TSP order this is exactly the quantity
//! of Theorem 4.1; the concurrent execution's total delay is at most twice
//! it.

use ccq_graph::{Lca, NodeId, Tree};

/// Total cost of executing `order` sequentially from `tail`:
/// `Σ d_T(prev, cur)` with `prev` starting at `tail`.
pub fn sequential_arrow_cost(tree: &Tree, tail: NodeId, order: &[NodeId]) -> u64 {
    let lca = Lca::new(tree);
    let mut cost = 0u64;
    let mut prev = tail;
    for &v in order {
        cost += lca.dist(prev, v) as u64;
        prev = v;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_graph::spanning;

    #[test]
    fn cost_on_list() {
        let t = spanning::path_tree_from_order(&(0..10).collect::<Vec<_>>());
        // tail at 0; visit 3, then 1, then 9: 3 + 2 + 8 = 13.
        assert_eq!(sequential_arrow_cost(&t, 0, &[3, 1, 9]), 13);
    }

    #[test]
    fn empty_order_costs_zero() {
        let t = spanning::balanced_binary_tree(7);
        assert_eq!(sequential_arrow_cost(&t, 0, &[]), 0);
    }

    #[test]
    fn repeat_position_costs_zero() {
        let t = spanning::path_tree_from_order(&(0..5).collect::<Vec<_>>());
        assert_eq!(sequential_arrow_cost(&t, 2, &[2]), 0);
    }

    #[test]
    fn cost_on_binary_tree() {
        let t = spanning::balanced_binary_tree(7);
        // tail = root 0. Visit 3 (depth 2): d=2; then 4 (sibling): d=2.
        assert_eq!(sequential_arrow_cost(&t, 0, &[3, 4]), 4);
    }
}
