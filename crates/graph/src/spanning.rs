//! Spanning-tree constructions.
//!
//! The arrow protocol's upper bound (Theorem 4.1) holds on any
//! constant-degree spanning tree; the paper's strongest results pick
//! particular trees:
//! * a **Hamilton path** of `G` (Lemma 4.3 then gives a 3n NN-TSP bound) —
//!   constructed here for the complete graph, d-dimensional meshes (snake
//!   order) and hypercubes (Gray-code order), proving Lemma 4.6's families;
//! * a **perfect m-ary tree** (Theorem 4.7/4.12) — the identity tree of
//!   [`crate::topology::perfect_mary_tree`];
//! * any constant-degree tree for Theorem 4.13 — e.g. BFS trees of meshes.
//!
//! [`bfs_tree`], [`center_bfs_tree`], [`path_tree_from_order`] and
//! [`snake_path_tree`] hand their search to `Tree::from_search`; the rest
//! have [`Tree::from_parents`] validate.

use crate::bfs;
use crate::graph::id;
use crate::tree::{Tree, NO_PARENT};
use crate::{topology, Graph, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// BFS spanning tree of `g` rooted at `root`.
///
/// # Panics
/// Panics if `g` is disconnected.
pub fn bfs_tree(g: &Graph, root: NodeId) -> Tree {
    bfs_tree_in(g, root, Vec::new(), Vec::new(), vec![NO_PARENT; g.n()])
}

/// BFS spanning tree of `g` rooted at its approximate center
/// ([`bfs::approx_center`] from `start`): the counting tree. The center's
/// two sweeps and the tree's search share one set of buffers, which the
/// tree then keeps.
///
/// # Panics
/// Panics if `g` is disconnected.
pub fn center_bfs_tree(g: &Graph, start: NodeId) -> Tree {
    let (mut dist, mut order, mut pred) = (Vec::new(), Vec::new(), vec![NO_PARENT; g.n()]);
    let center = bfs::approx_center_in(g, start, &mut dist, &mut order, &mut pred);
    bfs_tree_in(g, center, dist, order, pred)
}

/// [`bfs_tree`] in the given search buffers; `pred` has `n` entries, and
/// the search overwrites every one of them on a connected graph.
fn bfs_tree_in(
    g: &Graph,
    root: NodeId,
    mut dist: Vec<u32>,
    mut order: Vec<u32>,
    mut pred: Vec<u32>,
) -> Tree {
    // A vertex's undiscovered neighbours are its tree children, scanned
    // ascending, so the visit order is the tree's BFS order.
    pred[root] = id(root);
    bfs::search(g, root, &mut dist, &mut order, |v, u| pred[v] = id(u));
    assert_eq!(order.len(), g.n(), "graph disconnected");
    Tree::from_search(root, pred, dist, order)
}

/// Random-walk flavoured spanning tree: BFS from `root` but with each
/// frontier shuffled, giving varied tree shapes for ablations.
pub fn random_bfs_tree(g: &Graph, root: NodeId, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n();
    let mut parent = vec![NO_PARENT; n];
    parent[root] = id(root);
    let mut frontier = vec![root];
    while !frontier.is_empty() {
        frontier.shuffle(&mut rng);
        let mut next = Vec::new();
        for &u in &frontier {
            let mut nbs: Vec<NodeId> = g.neighbors(u).collect();
            nbs.shuffle(&mut rng);
            for v in nbs {
                if parent[v] == NO_PARENT {
                    parent[v] = id(u);
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    assert!(parent.iter().all(|&p| p != NO_PARENT), "graph disconnected");
    Tree::from_parent_ids(root, parent)
}

/// Turn an ordering of all vertices into a path-shaped tree rooted at
/// `order[0]` (each vertex's parent is its predecessor in the order).
///
/// # Panics
/// Panics if `order` is empty or names a vertex twice.
pub fn path_tree_from_order(order: &[NodeId]) -> Tree {
    path_tree_of_ids(order.iter().map(|&v| id(v)).collect())
}

/// [`path_tree_from_order`] over an order already held as `u32` ids,
/// which the tree keeps as its BFS order.
fn path_tree_of_ids(order: Vec<u32>) -> Tree {
    let n = order.len();
    assert!(n > 0, "empty order");
    let (mut parent, mut depth) = (vec![NO_PARENT; n], vec![0u32; n]);
    parent[order[0] as usize] = order[0];
    for (i, w) in order.windows(2).enumerate() {
        let v = w[1] as usize;
        assert!(parent[v] == NO_PARENT, "duplicate vertex in order");
        parent[v] = w[0];
        depth[v] = i as u32 + 1;
    }
    Tree::from_search(order[0] as usize, parent, depth, order)
}

/// Hamilton path of the complete graph `K_n`: the identity order.
pub fn hamilton_path_complete(n: usize) -> Vec<NodeId> {
    (0..n).collect()
}

/// Hand every vertex of the mesh `dims` to `visit` in boustrophedon
/// ("snake") order: sweep the last axis back and forth, carrying over to
/// earlier axes. `base` is the row-major index of the coordinates fixed so
/// far, `coord_sum` their sum.
fn snake(dims: &[usize], base: NodeId, coord_sum: usize, visit: &mut impl FnMut(NodeId)) {
    let Some((&side, rest)) = dims.split_first() else {
        visit(base);
        return;
    };
    // Alternate direction based on the sum of earlier coordinates so that
    // consecutive sub-mesh traversals join at adjacent cells.
    let backwards = coord_sum % 2 == 1;
    for i in 0..side {
        let c = if backwards { side - 1 - i } else { i };
        snake(rest, base * side + c, coord_sum + c, visit);
    }
}

/// Hamilton path of the d-dimensional mesh by boustrophedon ("snake") order:
/// sweep the last axis back and forth, carrying over to earlier axes.
///
/// This is the constructive version of Lemma 4.6's induction (a d-dim mesh
/// is a stack of (d−1)-dim meshes traversed alternately forwards/backwards).
pub fn hamilton_path_mesh(dims: &[usize]) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(dims.iter().product());
    snake(dims, 0, 0, &mut |v| order.push(v));
    order
}

/// The path tree of the mesh snake ([`hamilton_path_mesh`]), equal to
/// `path_tree_from_order(&hamilton_path_mesh(dims))`. The snake is written
/// as `u32` ids straight into the tree's BFS order, with no `usize` order
/// in between. Also a Hamilton path of the torus of the same sides, which
/// holds every mesh edge.
pub fn snake_path_tree(dims: &[usize]) -> Tree {
    let mut order = Vec::with_capacity(dims.iter().product());
    snake(dims, 0, 0, &mut |v| order.push(id(v)));
    path_tree_of_ids(order)
}

/// Hamilton path of the d-dimensional hypercube via the binary reflected
/// Gray code: consecutive codewords differ in exactly one bit.
pub fn hamilton_path_hypercube(d: usize) -> Vec<NodeId> {
    let n = 1usize << d;
    (0..n).map(|i| i ^ (i >> 1)).collect()
}

/// Verify that `order` is a Hamilton path of `g`: a permutation of the
/// vertices with every consecutive pair adjacent.
pub fn is_hamilton_path(g: &Graph, order: &[NodeId]) -> bool {
    if order.len() != g.n() {
        return false;
    }
    let mut seen = vec![false; g.n()];
    for &v in order {
        if v >= g.n() || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    order.windows(2).all(|w| g.has_edge(w[0], w[1]))
}

/// Balanced (heap-shaped) binary spanning tree on `0..n` — a valid spanning
/// tree of `K_n`, giving the combining counter a depth of `⌊log₂ n⌋`.
pub fn balanced_binary_tree(n: usize) -> Tree {
    assert!(n > 0);
    Tree::from_parent_ids(0, (0..n).map(|v| id(v.saturating_sub(1) / 2)).collect())
}

/// Star spanning tree: every vertex hangs off `center`. Valid in `K_n` and
/// the star graph itself; maximum degree `n − 1` (the contention worst case
/// of paper §5).
pub fn star_tree(n: usize, center: NodeId) -> Tree {
    assert!(center < n);
    // Every vertex (the center included — it is the root) points at center.
    Tree::from_parent_ids(center, vec![id(center); n])
}

/// The perfect m-ary tree *as a tree* (root 0, level indexing); the spanning
/// tree used by Theorems 4.7/4.12.
pub fn perfect_mary_tree(m: usize, depth: usize) -> Tree {
    let n = topology::perfect_mary_size(m, depth);
    Tree::from_parent_ids(0, (0..n).map(|v| id(v.saturating_sub(1) / m)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;

    /// `t` holds what [`Tree::from_parents`] builds from its parent array:
    /// root, parents, children, depths, BFS order and maximum degree.
    fn assert_same_as_from_parents(t: &Tree) {
        let parent: Vec<NodeId> = (0..t.n()).map(|v| t.parent(v)).collect();
        let want = Tree::from_parents(t.root(), parent);
        assert_eq!(t.root(), want.root());
        for v in 0..t.n() {
            assert!(t.children(v).eq(want.children(v)), "children of {v}");
            assert_eq!(t.depth(v), want.depth(v), "depth of {v}");
        }
        assert!(t.bfs_order().eq(want.bfs_order()));
        assert_eq!(t.max_degree(), want.max_degree());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A BFS tree built from the search that found it equals the tree
        /// validated and searched again from its parent array, on every
        /// family the drivers search, from any root.
        #[test]
        fn bfs_tree_equals_the_tree_of_its_parents(
            family in 0usize..5,
            size in 3usize..9,
            seed in any::<u64>(),
        ) {
            let g = match family {
                0 => topology::random_regular(2 * size, 3, seed),
                1 => topology::mesh(&[size, size / 2 + 1]),
                2 => topology::torus(&[size, 3]),
                3 => topology::path(size * 3),
                _ => topology::perfect_mary_tree(2 + size % 3, size / 3 + 1),
            };
            let root = (seed % g.n() as u64) as NodeId;
            let t = bfs_tree(&g, root);
            prop_assert!(t.is_spanning_tree_of(&g));
            assert_same_as_from_parents(&t);
            // The counting tree's shared buffers build the same tree as a
            // fresh search from the center.
            let c = center_bfs_tree(&g, root);
            let want = bfs_tree(&g, bfs::approx_center(&g, root));
            prop_assert_eq!(c.root(), want.root());
            prop_assert!((0..g.n()).all(|v| c.parent(v) == want.parent(v)
                && c.depth(v) == want.depth(v)
                && c.children(v).eq(want.children(v))));
            prop_assert!(c.bfs_order().eq(want.bfs_order()));
        }

        /// A path tree takes its order as its BFS order and depths; both
        /// equal what a search of its parent array finds.
        #[test]
        fn path_tree_equals_the_tree_of_its_parents(n in 1usize..40, seed in any::<u64>()) {
            let mut order: Vec<NodeId> = (0..n).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            let t = path_tree_from_order(&order);
            prop_assert_eq!(t.bfs_order().collect::<Vec<_>>(), order);
            assert_same_as_from_parents(&t);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate vertex in order")]
    fn path_tree_rejects_a_duplicate_vertex() {
        path_tree_from_order(&[2, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "graph disconnected")]
    fn bfs_tree_rejects_a_disconnected_graph() {
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        bfs_tree(&b.build(), 0);
    }

    #[test]
    fn bfs_tree_of_mesh_is_spanning() {
        let g = topology::mesh(&[4, 4]);
        let t = bfs_tree(&g, 0);
        assert!(t.is_spanning_tree_of(&g));
        assert_eq!(t.n(), 16);
        assert!(t.max_degree() <= 4);
    }

    #[test]
    fn random_bfs_tree_is_spanning() {
        let g = topology::complete(20);
        for seed in 0..4 {
            let t = random_bfs_tree(&g, 3, seed);
            assert!(t.is_spanning_tree_of(&g));
            assert_eq!(t.root(), 3);
        }
    }

    #[test]
    fn mesh_snake_is_hamilton() {
        for dims in [
            &[7][..],
            &[3, 5],
            &[4, 3],
            &[2, 3, 4],
            &[3, 4, 5],
            &[5, 3, 4],
            &[3, 3, 3],
            &[2, 2, 2, 2],
        ] {
            let g = topology::mesh(dims);
            let order = hamilton_path_mesh(dims);
            assert!(is_hamilton_path(&g, &order), "snake fails on {dims:?}");
        }
    }

    #[test]
    fn snake_tree_is_the_path_tree_of_the_snake() {
        for dims in [&[1][..], &[7], &[3, 5], &[4, 4], &[2, 3, 4], &[3, 3, 3]] {
            let t = snake_path_tree(dims);
            let want = path_tree_from_order(&hamilton_path_mesh(dims));
            assert_eq!(t.root(), want.root());
            assert!((0..t.n()).all(|v| t.parent(v) == want.parent(v)
                && t.depth(v) == want.depth(v)
                && t.children(v).eq(want.children(v))));
            assert!(t.bfs_order().eq(want.bfs_order()));
            assert!(t.is_spanning_tree_of(&topology::mesh(dims)), "{dims:?}");
        }
    }

    #[test]
    fn gray_code_is_hamilton_on_hypercube() {
        for d in 1..=8 {
            let g = topology::hypercube(d);
            let order = hamilton_path_hypercube(d);
            assert!(is_hamilton_path(&g, &order), "gray code fails at d={d}");
        }
    }

    #[test]
    fn complete_identity_is_hamilton() {
        let g = topology::complete(9);
        assert!(is_hamilton_path(&g, &hamilton_path_complete(9)));
    }

    #[test]
    fn hamilton_check_rejects_bad_orders() {
        let g = topology::path(4);
        assert!(is_hamilton_path(&g, &[0, 1, 2, 3]));
        assert!(!is_hamilton_path(&g, &[0, 2, 1, 3])); // 0-2 not an edge
        assert!(!is_hamilton_path(&g, &[0, 1, 2])); // not all vertices
        assert!(!is_hamilton_path(&g, &[0, 1, 1, 3])); // duplicate
    }

    #[test]
    fn path_tree_shape() {
        let t = path_tree_from_order(&[2, 0, 1, 3]);
        assert_eq!(t.root(), 2);
        assert_eq!(t.parent(0), 2);
        assert_eq!(t.parent(1), 0);
        assert_eq!(t.parent(3), 1);
        assert_eq!(t.max_degree(), 2);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn balanced_binary_tree_depth() {
        let t = balanced_binary_tree(15);
        assert_eq!(t.height(), 3);
        assert_eq!(t.max_degree(), 3);
        let g = topology::complete(15);
        assert!(t.is_spanning_tree_of(&g));
    }

    #[test]
    fn star_tree_degree() {
        let t = star_tree(10, 0);
        assert_eq!(t.max_degree(), 9);
        assert!(t.is_spanning_tree_of(&topology::star(10)));
        assert!(t.is_spanning_tree_of(&topology::complete(10)));
    }

    #[test]
    fn perfect_tree_as_tree_matches_graph() {
        let t = perfect_mary_tree(3, 2);
        let g = topology::perfect_mary_tree(3, 2);
        assert!(t.is_spanning_tree_of(&g));
        assert_eq!(t.max_degree(), 4); // internal node: parent + 3 children
        assert_eq!(t.height(), 2);
    }
}
