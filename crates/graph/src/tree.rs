//! Rooted trees: the arrow protocol, the combining counter and the TSP
//! analysis all operate on a spanning tree `T` of the network `G`.
//!
//! [`Tree::from_parents`] validates any parent array and searches it; the
//! crate's `Tree::from_search` trusts the search that found the tree (a
//! graph BFS, a path's order) and only counts the children.

use crate::graph::{assert_ids_fit, id};
use crate::{Graph, NodeId};

/// "No parent yet" in a parent array under construction.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A rooted tree on vertices `0..n`, stored as a validated parent array.
///
/// Invariants (checked by [`Tree::from_parents`]):
/// * `parent[root] == root` and no other self-parent;
/// * following parents from any vertex reaches the root (no cycles, one
///   component).
///
/// Every per-vertex array holds `u32` ids, like [`Graph`]'s.
#[derive(Clone, Debug)]
pub struct Tree {
    root: NodeId,
    parent: Vec<u32>,
    /// Children of `v`, ascending: `child_adj[child_off[v]..child_off[v + 1]]`
    /// (CSR, like [`Graph`] — two arrays whatever `n` is).
    child_off: Vec<u32>,
    child_adj: Vec<u32>,
    depth: Vec<u32>,
    /// Vertices in BFS order from the root (root first).
    bfs_order: Vec<u32>,
    /// Largest undirected degree, counted with the children.
    max_degree: usize,
}

impl Tree {
    /// Build from a parent array; `parent[root]` must equal `root`.
    ///
    /// # Panics
    /// Panics if the array does not describe a single rooted tree.
    pub fn from_parents(root: NodeId, parent: Vec<NodeId>) -> Tree {
        let parent = parent.iter().map(|&p| u32::try_from(p).unwrap_or(NO_PARENT)).collect();
        Tree::from_parent_ids(root, parent)
    }

    /// [`Tree::from_parents`] over stored ids.
    pub(crate) fn from_parent_ids(root: NodeId, parent: Vec<u32>) -> Tree {
        let n = parent.len();
        assert!(root < n, "root out of range");
        assert_eq!(parent[root] as usize, root, "parent[root] must be root");
        let mut t = Tree::from_search(root, parent, vec![0; n], Vec::with_capacity(n));
        // BFS from the root computes depths and detects unreachable vertices
        // (a cycle among non-root vertices); `bfs_order` is its own queue.
        let Tree { child_off, child_adj, depth, bfs_order, .. } = &mut t;
        bfs_order.push(id(root));
        let mut head = 0;
        while let Some(&u) = bfs_order.get(head) {
            head += 1;
            let u = u as usize;
            for &c in &child_adj[child_off[u] as usize..child_off[u + 1] as usize] {
                depth[c as usize] = depth[u] + 1;
                bfs_order.push(c);
            }
        }
        assert_eq!(bfs_order.len(), n, "parent array contains a cycle");
        t
    }

    /// Build from the search that found the tree, taking `depth` and
    /// `bfs_order` (a BFS over ascending children) as they are; panics on a
    /// parent out of range or a second self-parent. Counts sum in place so
    /// that `child_off[p]` ends at `p`'s last slot; filling in descending
    /// order walks each back to its list's start (no cursor array).
    pub(crate) fn from_search(
        root: NodeId,
        parent: Vec<u32>,
        depth: Vec<u32>,
        bfs_order: Vec<u32>,
    ) -> Tree {
        let n = parent.len();
        assert_ids_fit(n);
        let mut child_off = vec![0u32; n + 1];
        for (v, &p) in parent.iter().enumerate() {
            assert!((p as usize) < n, "parent[{v}] out of range");
            if v != root {
                assert_ne!(p as usize, v, "vertex {v} is a second root");
                child_off[p as usize] += 1;
            }
        }
        let (mut max_degree, mut end) = (0, 0);
        for (v, off) in child_off[..n].iter_mut().enumerate() {
            max_degree = max_degree.max(*off as usize + usize::from(v != root));
            end += *off;
            *off = end;
        }
        child_off[n] = end;
        let mut child_adj = vec![0u32; end as usize];
        for v in (0..n).rev().filter(|&v| v != root) {
            let p = parent[v] as usize;
            child_off[p] -= 1;
            child_adj[child_off[p] as usize] = id(v);
        }
        Tree { root, parent, child_off, child_adj, depth, bfs_order, max_degree }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v` (the root is its own parent).
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v] as NodeId
    }

    /// Children of `v`, ascending.
    #[inline]
    pub fn children(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        self.child_ids(v).iter().map(|&c| c as NodeId)
    }

    /// `v`'s children as stored.
    #[inline]
    pub(crate) fn child_ids(&self, v: NodeId) -> &[u32] {
        &self.child_adj[self.child_slots(v)]
    }

    /// The slot of `c` among `v`'s children (its index in
    /// [`Tree::children`]), or `None` when `c` is not a child of `v`: a
    /// binary search of the ascending list, `O(log deg)`.
    #[inline]
    pub fn child_index(&self, v: NodeId, c: NodeId) -> Option<usize> {
        let c = u32::try_from(c).ok()?;
        self.child_ids(v).binary_search(&c).ok()
    }

    /// Where `v`'s children lie in one child-indexed array of `n - 1` slots.
    #[inline]
    pub fn child_slots(&self, v: NodeId) -> std::ops::Range<usize> {
        self.child_off[v] as usize..self.child_off[v + 1] as usize
    }

    /// Depth of `v` (root has depth 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v]
    }

    /// Height of the tree: maximum depth.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Vertices in BFS order from the root.
    #[inline]
    pub fn bfs_order(&self) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        self.bfs_order.iter().map(|&v| v as NodeId)
    }

    /// [`Tree::bfs_order`] as stored.
    #[inline]
    pub(crate) fn bfs_ids(&self) -> &[u32] {
        &self.bfs_order
    }

    /// Maximum undirected degree — Theorem 4.1 requires this to be constant.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Tree neighbours of `v` (parent, then children).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let parent = (v != self.root).then(|| self.parent(v));
        parent.into_iter().chain(self.children(v))
    }

    /// The tree as an undirected [`Graph`] (for running protocols *on* `T`).
    pub fn to_graph(&self) -> Graph {
        let mut b = crate::GraphBuilder::new(self.n());
        for v in 0..self.n() {
            if v != self.root {
                b.add_edge(v, self.parent(v));
            }
        }
        b.build()
    }

    /// Whether every tree edge is an edge of `g` (i.e. `T` is a spanning
    /// tree / subgraph of `g` on the same vertex set).
    pub fn is_spanning_tree_of(&self, g: &Graph) -> bool {
        self.n() == g.n() && (0..self.n()).all(|v| v == self.root || g.has_edge(v, self.parent(v)))
    }

    /// Distance between `u` and `v` in the tree, walking up by depth —
    /// `O(depth)`. For repeated queries prefer [`crate::Lca`].
    pub fn dist(&self, mut u: NodeId, mut v: NodeId) -> u32 {
        let mut d = 0;
        while self.depth[u] > self.depth[v] {
            u = self.parent(u);
            d += 1;
        }
        while self.depth[v] > self.depth[u] {
            v = self.parent(v);
            d += 1;
        }
        while u != v {
            u = self.parent(u);
            v = self.parent(v);
            d += 2;
        }
        d
    }

    /// The path from `u` to `v` inclusive, via their lowest common ancestor.
    pub fn path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let mut up = Vec::new();
        let mut down = Vec::new();
        let (mut a, mut b) = (u, v);
        while self.depth[a] > self.depth[b] {
            up.push(a);
            a = self.parent(a);
        }
        while self.depth[b] > self.depth[a] {
            down.push(b);
            b = self.parent(b);
        }
        while a != b {
            up.push(a);
            a = self.parent(a);
            down.push(b);
            b = self.parent(b);
        }
        up.push(a);
        up.extend(down.into_iter().rev());
        up
    }

    /// Vertices at each depth level (`result[d]` = vertices of depth `d`).
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let h = self.height() as usize;
        let mut lv = vec![Vec::new(); h + 1];
        for v in 0..self.n() {
            lv[self.depth[v] as usize].push(v);
        }
        lv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Children, depths and BFS order the way this module built them before
    /// the flat arrays — a `Vec` per vertex and a queue — as the reference.
    fn nested_reference(
        root: NodeId,
        parent: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, Vec<u32>, Vec<NodeId>) {
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        for v in (0..n).filter(|&v| v != root) {
            children[parent[v]].push(v);
        }
        let mut depth = vec![u32::MAX; n];
        let mut bfs_order = Vec::new();
        let mut q = std::collections::VecDeque::from([root]);
        depth[root] = 0;
        while let Some(u) = q.pop_front() {
            bfs_order.push(u);
            for &c in &children[u] {
                depth[c] = depth[u] + 1;
                q.push_back(c);
            }
        }
        (children, depth, bfs_order)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random recursive trees under a random relabelling (so the root is
        /// anywhere and parents are not smaller ids) agree with the nested
        /// construction on children, depth, BFS order and maximum degree.
        #[test]
        fn flat_children_equal_the_nested_construction(n in 1usize..48, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut label: Vec<NodeId> = (0..n).collect();
            label.shuffle(&mut rng);
            let mut parent = vec![label[0]; n];
            for v in 1..n {
                parent[label[v]] = label[rng.random_range(0..v)];
            }
            let (children, depth, bfs_order) = nested_reference(label[0], &parent);
            let t = Tree::from_parents(label[0], parent);
            for v in 0..n {
                prop_assert_eq!(t.children(v).collect::<Vec<_>>(), children[v].clone());
                prop_assert_eq!(t.depth(v), depth[v]);
            }
            prop_assert_eq!(t.bfs_order().collect::<Vec<_>>(), bfs_order);
            let degree = |v: NodeId| children[v].len() + usize::from(v != label[0]);
            prop_assert_eq!(t.max_degree(), (0..n).map(degree).max().unwrap_or(0));
        }
    }

    /// `child_index` finds each child of each of `vertices` where the
    /// linear search of `children` does, and nothing for a vertex that is
    /// not a child (out-of-range ids included).
    fn assert_child_index_is_position(t: &Tree, vertices: impl IntoIterator<Item = NodeId>) {
        let n = t.n();
        for v in vertices {
            for c in (0..n).chain([n, u32::MAX as usize, usize::MAX]) {
                assert_eq!(t.child_index(v, c), t.children(v).position(|x| x == c), "{v} {c}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn child_index_agrees_with_position(n in 1usize..40, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut label: Vec<NodeId> = (0..n).collect();
            label.shuffle(&mut rng);
            let mut parent = vec![label[0]; n];
            for v in 1..n {
                parent[label[v]] = label[rng.random_range(0..v)];
            }
            assert_child_index_is_position(&Tree::from_parents(label[0], parent), 0..n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// A hub with 4 095 leaves: each leaf at its slot among the ids
        /// ascending around the hub, and no leaf has a child.
        #[test]
        fn child_index_agrees_with_position_on_a_wide_star(hub in 0usize..4096) {
            let n = 4096;
            let t = crate::spanning::star_tree(n, hub);
            for c in (0..n).filter(|&c| c != hub) {
                prop_assert_eq!(t.child_index(hub, c), Some(c - usize::from(c > hub)));
            }
            assert_child_index_is_position(&t, [hub, (hub + 1) % n, (hub + n - 1) % n]);
        }
    }

    fn sample_tree() -> Tree {
        // 0 is root; 1,2 children of 0; 3,4 children of 1; 5 child of 4.
        Tree::from_parents(0, vec![0, 0, 0, 1, 1, 4])
    }

    #[test]
    fn structure() {
        let t = sample_tree();
        assert_eq!(t.n(), 6);
        assert_eq!(t.root(), 0);
        assert_eq!(t.children(0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(t.depth(5), 3);
        assert_eq!(t.height(), 3);
        assert_eq!(t.neighbors(1).count(), 3);
        assert_eq!(t.max_degree(), 3);
    }

    #[test]
    fn distances_and_paths() {
        let t = sample_tree();
        assert_eq!(t.dist(3, 5), 3); // 3-1-4-5
        assert_eq!(t.path(3, 5), vec![3, 1, 4, 5]);
        assert_eq!(t.dist(2, 5), 4); // 2-0-1-4-5
        assert_eq!(t.path(2, 5), vec![2, 0, 1, 4, 5]);
        assert_eq!(t.dist(0, 0), 0);
        assert_eq!(t.path(4, 4), vec![4]);
        assert_eq!(t.path(5, 2), vec![5, 4, 1, 0, 2]);
    }

    #[test]
    fn levels_partition() {
        let t = sample_tree();
        let lv = t.levels();
        assert_eq!(lv.len(), 4);
        assert_eq!(lv[0], vec![0]);
        assert_eq!(lv[1], vec![1, 2]);
        assert_eq!(lv[3], vec![5]);
        assert_eq!(lv.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn to_graph_roundtrip() {
        let t = sample_tree();
        let g = t.to_graph();
        assert_eq!(g.m(), 5);
        assert!(t.is_spanning_tree_of(&g));
        assert!(g.has_edge(4, 5));
    }

    #[test]
    fn spanning_tree_check_rejects_non_subgraph() {
        let t = sample_tree();
        let p = crate::topology::path(6);
        assert!(!t.is_spanning_tree_of(&p)); // edge (0,2) is not a path edge
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        // 1 and 2 point at each other.
        Tree::from_parents(0, vec![0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "second root")]
    fn two_roots_detected() {
        Tree::from_parents(0, vec![0, 1, 0]);
    }

    #[test]
    fn single_vertex_tree() {
        let t = Tree::from_parents(0, vec![0]);
        assert_eq!(t.n(), 1);
        assert_eq!(t.max_degree(), 0);
        assert_eq!(t.dist(0, 0), 0);
    }
}
