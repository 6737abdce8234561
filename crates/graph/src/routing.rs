//! Hop-by-hop routing on a spanning tree: the one way the protocols route
//! on their tree — the central walk, arrow's first arrows and the
//! balancing networks' replies.
//!
//! [`TreeRouter::next_hop`] answers "which tree neighbour is one step closer
//! to `target`?" in `O(log deg)` using Euler-tour intervals: `target` lies
//! in the subtree of exactly one child (binary search over children ordered
//! by entry time), otherwise the next hop is the parent. The router borrows
//! its [`Tree`] and keeps two `u32` per vertex, however many (source,
//! target) pairs are routed.

use crate::{NodeId, Tree};

/// Constant-memory next-hop router over a borrowed [`Tree`].
#[derive(Debug)]
pub struct TreeRouter<'t> {
    tree: &'t Tree,
    /// Preorder entry index of each vertex, children visited in the tree's
    /// order — so a vertex's children have ascending entry indices.
    tin: Vec<u32>,
    /// Exit index (exclusive): subtree(v) = [tin[v], tout[v]).
    tout: Vec<u32>,
}

impl<'t> TreeRouter<'t> {
    /// Build the Euler-tour intervals of `tree` from its BFS order: subtree
    /// sizes bottom-up, then entry indices top-down.
    pub fn new(tree: &'t Tree) -> Self {
        let n = tree.n();
        let order = tree.bfs_ids();
        // `tout` holds subtree sizes until the forward pass adds `tin`.
        let mut tout = vec![1u32; n];
        for &v in order[1..].iter().rev() {
            tout[tree.parent(v as usize)] += tout[v as usize];
        }
        let mut tin = vec![0u32; n];
        for &v in order {
            let v = v as usize;
            let mut next = tin[v] + 1;
            for &c in tree.child_ids(v) {
                tin[c as usize] = next;
                next += tout[c as usize];
            }
            tout[v] += tin[v];
        }
        TreeRouter { tree, tin, tout }
    }

    /// Whether `candidate` lies in the subtree rooted at `v`.
    #[inline]
    pub fn in_subtree(&self, v: NodeId, candidate: NodeId) -> bool {
        self.tin[v] <= self.tin[candidate] && self.tin[candidate] < self.tout[v]
    }

    /// The tree neighbour of `from` that is one step closer to `target`.
    ///
    /// Returns `None` when `from == target`.
    pub fn next_hop(&self, from: NodeId, target: NodeId) -> Option<NodeId> {
        if from == target {
            return None;
        }
        if !self.in_subtree(from, target) {
            debug_assert_ne!(from, self.tree.root());
            return Some(self.tree.parent(from));
        }
        // target is strictly below `from`: find the child whose interval
        // contains tin[target].
        let t = self.tin[target];
        let ch = self.tree.child_ids(from);
        let next = ch[ch.partition_point(|&c| self.tin[c as usize] <= t) - 1] as NodeId;
        debug_assert!(self.in_subtree(next, target));
        Some(next)
    }

    /// Full path from `from` to `target` (inclusive), by repeated next hops.
    pub fn path(&self, from: NodeId, target: NodeId) -> Vec<NodeId> {
        let mut p = vec![from];
        let mut cur = from;
        while let Some(nxt) = self.next_hop(cur, target) {
            p.push(nxt);
            cur = nxt;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spanning;

    #[test]
    fn next_hop_matches_tree_path() {
        let t = spanning::balanced_binary_tree(31);
        let r = TreeRouter::new(&t);
        for u in 0..31 {
            for v in 0..31 {
                assert_eq!(r.path(u, v), t.path(u, v), "path({u},{v})");
            }
        }
    }

    #[test]
    fn next_hop_on_list() {
        let t = spanning::path_tree_from_order(&(0..10).collect::<Vec<_>>());
        let r = TreeRouter::new(&t);
        assert_eq!(r.next_hop(3, 7), Some(4));
        assert_eq!(r.next_hop(7, 3), Some(6));
        assert_eq!(r.next_hop(5, 5), None);
    }

    #[test]
    fn subtree_membership() {
        let t = spanning::balanced_binary_tree(7);
        let r = TreeRouter::new(&t);
        assert!(r.in_subtree(1, 3));
        assert!(r.in_subtree(1, 4));
        assert!(!r.in_subtree(1, 5));
        assert!(r.in_subtree(0, 6));
        assert!(r.in_subtree(4, 4));
    }

    #[test]
    fn star_tree_routes_via_hub() {
        let t = spanning::star_tree(8, 0);
        let r = TreeRouter::new(&t);
        assert_eq!(r.next_hop(3, 5), Some(0));
        assert_eq!(r.next_hop(0, 5), Some(5));
        assert_eq!(r.path(3, 5), vec![3, 0, 5]);
    }

    #[test]
    fn random_tree_spot_checks() {
        use rand::prelude::*;
        let g = crate::topology::random_connected(64, 0.05, 9);
        let t = spanning::bfs_tree(&g, 0);
        let r = TreeRouter::new(&t);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let u = rng.random_range(0..64);
            let v = rng.random_range(0..64);
            assert_eq!(r.path(u, v), t.path(u, v));
        }
    }
}
