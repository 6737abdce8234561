//! Per-level cost decomposition of NN tours on perfect trees
//! (paper Fig. 3, Lemmas 4.8–4.10, Theorem 4.7).
//!
//! For a NN tour visiting `R` on a perfect binary tree of depth `d`,
//! `cost(v)` is the distance from visited vertex `v` to its successor in
//! the tour, and `cost(ℓ) = Σ_{v ∈ R, depth(v) = ℓ} cost(v)`. The paper
//! proves `cost(ℓ) ≤ 4n·2^ℓ/2^d + 2d` (Lemma 4.9) via the recurrence
//! `f(k) = 2f(k−1) + 2k`, `f(0) = 0`, which satisfies `f(k) < 2^{k+2}`
//! (Lemma 4.8). Summing over levels yields `cost(T) ≤ 2d(d+1) + 8n = O(n)`
//! (Theorem 4.7); the same argument extends to m-ary trees (Theorem 4.12).

use crate::nn::NnTour;
use ccq_graph::Tree;

/// `f(k) = 2·f(k−1) + 2k`, `f(0) = 0` — the Lemma 4.8 recurrence.
///
/// Saturating: values stay exact up to `k ≈ 57` and clamp at `u64::MAX`
/// beyond (the lemma's use never exceeds the tree depth).
pub fn f_recurrence(k: u32) -> u64 {
    let mut f = 0u64;
    for i in 1..=k as u64 {
        f = f.saturating_mul(2).saturating_add(2 * i);
    }
    f
}

/// `cost(ℓ)` for every level of `tree`, for the given tour:
/// `result[ℓ]` sums the successor-distances of visited vertices at depth ℓ.
pub fn level_costs(tree: &Tree, tour: &NnTour) -> Vec<u64> {
    let d = tree.height() as usize;
    let mut cost = vec![0u64; d + 1];
    let succ = tour.successor_costs();
    for (i, &v) in tour.order.iter().enumerate() {
        cost[tree.depth(v) as usize] += succ[i];
    }
    cost
}

/// Audit Lemma 4.9 on a perfect binary tree: `cost(ℓ) ≤ 4n·2^ℓ/2^d + 2d`
/// for every level ℓ. Returns the first violating level, if any.
///
/// `n` is the number of tree vertices and `d` its depth, both taken from
/// `tree`.
pub fn check_level_costs(tree: &Tree, tour: &NnTour) -> Option<usize> {
    let n = tree.n() as u64;
    let d = tree.height() as u64;
    let costs = level_costs(tree, tour);
    costs.iter().enumerate().find_map(|(l, &c)| {
        // 4n·2^ℓ/2^d computed without floats: (4n << ℓ) >> d, rounded up by
        // using exact integer arithmetic on u128.
        let scaled = (4u128 * n as u128 * (1u128 << l)) / (1u128 << d);
        let bound = scaled as u64 + 2 * d;
        (c > bound).then_some(l)
    })
}

/// The Theorem 4.7 aggregate bound: `cost(T) ≤ 2d(d+1) + 8n`.
pub fn theorem_4_7_bound(tree: &Tree) -> u64 {
    let n = tree.n() as u64;
    let d = tree.height() as u64;
    2 * d * (d + 1) + 8 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::nn_tour;
    use ccq_graph::{spanning, NodeId};

    #[test]
    fn f_values() {
        assert_eq!(f_recurrence(0), 0);
        assert_eq!(f_recurrence(1), 2);
        assert_eq!(f_recurrence(2), 8);
        assert_eq!(f_recurrence(3), 22);
        assert_eq!(f_recurrence(4), 52);
    }

    #[test]
    fn lemma_4_8_audit() {
        // Lemma 4.8: f(k) < 2^{k+2}, for every k whose bound fits a u64.
        for k in 0..=61 {
            assert!(f_recurrence(k) < 1u64 << (k + 2), "k = {k}");
        }
    }

    #[test]
    fn f_saturates_gracefully() {
        assert_eq!(f_recurrence(200), u64::MAX);
    }

    #[test]
    fn level_costs_sum_to_tour_cost_minus_first_leg() {
        let t = spanning::perfect_mary_tree(2, 5);
        let all: Vec<NodeId> = (0..t.n()).collect();
        let tour = nn_tour(&t, 0, &all);
        let lc = level_costs(&t, &tour);
        // Successor costs exclude the first leg (from the start) and the
        // last vertex contributes 0, so Σ cost(ℓ) = cost − leg₀.
        assert_eq!(lc.iter().sum::<u64>(), tour.cost() - tour.leg_costs[0]);
    }

    #[test]
    fn lemma_4_9_holds_visiting_all() {
        for depth in 2..=8 {
            let t = spanning::perfect_mary_tree(2, depth);
            let all: Vec<NodeId> = (0..t.n()).collect();
            let tour = nn_tour(&t, 0, &all);
            assert_eq!(check_level_costs(&t, &tour), None, "depth {depth}");
        }
    }

    #[test]
    fn lemma_4_9_holds_on_random_subsets() {
        use rand::prelude::*;
        let t = spanning::perfect_mary_tree(2, 7);
        let n = t.n();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..20 {
            let density = [0.1, 0.3, 0.7, 1.0][trial % 4];
            let targets: Vec<NodeId> = (0..n).filter(|_| rng.random::<f64>() < density).collect();
            if targets.is_empty() {
                continue;
            }
            let tour = nn_tour(&t, 0, &targets);
            assert_eq!(check_level_costs(&t, &tour), None, "trial {trial}");
        }
    }

    #[test]
    fn theorem_4_7_total_bound() {
        for depth in 2..=9 {
            let t = spanning::perfect_mary_tree(2, depth);
            let all: Vec<NodeId> = (0..t.n()).collect();
            let tour = nn_tour(&t, 0, &all);
            assert!(
                tour.cost() <= theorem_4_7_bound(&t),
                "depth {depth}: {} > {}",
                tour.cost(),
                theorem_4_7_bound(&t)
            );
        }
    }

    #[test]
    fn mary_trees_also_linear() {
        // Theorem 4.12: same shape for m ∈ {3, 4}.
        for m in [3usize, 4] {
            for depth in 2..=4 {
                let t = spanning::perfect_mary_tree(m, depth);
                let all: Vec<NodeId> = (0..t.n()).collect();
                let tour = nn_tour(&t, 0, &all);
                // Generous linear bound: tours stay under ~(m+6)·n.
                assert!(
                    tour.cost() <= (m as u64 + 6) * t.n() as u64,
                    "m={m} depth={depth}: cost {}",
                    tour.cost()
                );
            }
        }
    }
}
