//! Generators for every interconnection topology named in the paper, plus
//! auxiliary families used in tests and ablations.
//!
//! Paper topologies: the complete graph `K_n` (§3.1), the list (§3.2, §4),
//! the d-dimensional mesh and hypercube (§4.1), the perfect m-ary tree
//! (§4.2) and the star (§5).

use crate::{Graph, GraphBuilder, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// The list (path graph) on `n` vertices: `0 — 1 — … — n-1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// The cycle on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs ≥ 3 vertices");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v - 1, v);
    }
    b.add_edge(n - 1, 0);
    b.build()
}

/// The star on `n ≥ 1` vertices; vertex 0 is the hub.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v);
    }
    b.build()
}

/// Mixed-radix index of coordinates `coord` in a mesh of side lengths `dims`.
pub fn mesh_index(dims: &[usize], coord: &[usize]) -> NodeId {
    debug_assert_eq!(dims.len(), coord.len());
    let mut idx = 0usize;
    for (d, c) in dims.iter().zip(coord) {
        debug_assert!(c < d);
        idx = idx * d + c;
    }
    idx
}

/// The d-dimensional mesh with side lengths `dims` (row-major indexing).
///
/// `mesh(&[n])` is the list; `mesh(&[a, b])` the 2-D grid, and so on.
pub fn mesh(dims: &[usize]) -> Graph {
    assert!(!dims.is_empty() && dims.iter().all(|&d| d >= 1));
    Graph::grid(dims, false)
}

/// The d-dimensional torus (mesh with wraparound); each `dims[i] ≥ 3`.
pub fn torus(dims: &[usize]) -> Graph {
    assert!(dims.iter().all(|&d| d >= 3), "torus sides must be ≥ 3");
    Graph::grid(dims, true)
}

/// The hypercube of dimension `d` (`n = 2^d` vertices, bit-flip edges).
pub fn hypercube(d: usize) -> Graph {
    assert!(d <= 24, "hypercube dimension too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u);
            }
        }
    }
    b.build()
}

/// Number of vertices of the perfect m-ary tree of the given `depth`:
/// `(m^{depth+1} - 1) / (m - 1)`.
pub fn perfect_mary_size(m: usize, depth: usize) -> usize {
    assert!(m >= 2);
    let mut total = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= m;
        total += level;
    }
    total
}

/// The perfect m-ary tree of the given depth, indexed level by level:
/// the root is 0 and the children of `v` are `m·v + 1 … m·v + m`.
///
/// Every internal node has exactly `m` children and all leaves share the same
/// depth — the tree family of Theorem 4.7 / 4.12.
pub fn perfect_mary_tree(m: usize, depth: usize) -> Graph {
    let n = perfect_mary_size(m, depth);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v, (v - 1) / m);
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` vertices, each with `legs` pendant
/// leaves. High-diameter, constant-degree — a Theorem 4.13 family.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1);
    let n = spine * (1 + legs);
    let mut b = GraphBuilder::new(n);
    for s in 1..spine {
        b.add_edge(s - 1, s);
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge(s, spine + s * legs + l);
        }
    }
    b.build()
}

/// Random connected graph: a uniformly random recursive spanning tree plus
/// each non-tree edge independently with probability `extra_p`.
pub fn random_connected(n: usize, extra_p: f64, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.random_range(0..v);
        b.add_edge(parent, v);
    }
    if extra_p > 0.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random::<f64>() < extra_p {
                    b.add_edge(u, v);
                }
            }
        }
    }
    b.build()
}

/// Random d-regular graph via the pairing model, retrying until simple and
/// connected. Requires `n·d` even and `d < n`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n·d must be even");
    assert!(d < n, "degree must be < n");
    assert!(d >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    'attempt: for _ in 0..1000 {
        let mut stubs: Vec<NodeId> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(&mut rng);
        let mut b = GraphBuilder::new(n);
        let mut seen = std::collections::HashSet::new();
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                continue 'attempt;
            }
            b.add_edge(u, v);
        }
        let g = b.build();
        if g.is_connected() {
            return g;
        }
    }
    panic!("random_regular({n},{d}): no simple connected pairing found");
}

/// The 6-node graph of the paper's Figure 1.
///
/// Nodes `a..f` are numbered `0..5`. The figure's requesting set is
/// `{a, e, c}` = `{0, 4, 2}` with total order `a, e, c`.
pub fn figure1() -> Graph {
    // A ring a-b-c-d-e-f with one chord (b-e), a small connected graph that
    // matches the figure's role: some solid (requesting) and some white
    // nodes. The exact figure is illustrative; any small connected graph
    // reproduces the semantics.
    Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`mesh_index`]: the coordinate definition the stride
    /// arithmetic of [`mesh`] and [`torus`] is checked against.
    fn mesh_coord(dims: &[usize], mut idx: NodeId) -> Vec<usize> {
        let mut coord = vec![0usize; dims.len()];
        for i in (0..dims.len()).rev() {
            coord[i] = idx % dims[i];
            idx /= dims[i];
        }
        coord
    }

    /// `u ~ v` iff the coordinates differ by one step along exactly one
    /// axis (`wrap`: modulo the side), for 1–3 dimensions, unequal sides.
    #[test]
    fn mesh_and_torus_match_the_coordinate_definition() {
        let one_step = |dims: &[usize], u: NodeId, v: NodeId, wrap: bool| {
            let (cu, cv) = (mesh_coord(dims, u), mesh_coord(dims, v));
            let differing: Vec<usize> = (0..dims.len()).filter(|&a| cu[a] != cv[a]).collect();
            differing.len() == 1 && {
                let (a, d) = (differing[0], dims[differing[0]]);
                let gap = cu[a].abs_diff(cv[a]);
                gap == 1 || (wrap && gap == d - 1)
            }
        };
        for dims in [&[5][..], &[3, 4], &[4, 3], &[3, 4, 5], &[5, 3, 4], &[1, 4], &[2, 1, 3]] {
            let n: usize = dims.iter().product();
            let g = mesh(dims);
            assert_eq!(g.n(), n);
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(
                        g.has_edge(u, v),
                        one_step(dims, u, v, false),
                        "mesh {dims:?} {u}-{v}"
                    );
                }
            }
            if dims.iter().all(|&d| d >= 3) {
                let t = torus(dims);
                assert_eq!(t.m(), n * dims.len());
                for u in 0..n {
                    assert_eq!(t.degree(u), 2 * dims.len());
                    for v in 0..n {
                        assert_eq!(
                            t.has_edge(u, v),
                            one_step(dims, u, v, true),
                            "torus {dims:?} {u}-{v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 15);
        assert_eq!(g.max_degree(), 5);
        assert!(g.is_connected());
    }

    #[test]
    fn path_is_a_tree() {
        let g = path(10);
        assert_eq!(g.m(), 9);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
    }

    #[test]
    fn star_degrees() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        for v in 1..7 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn mesh_2d_structure() {
        let g = mesh(&[3, 4]);
        assert_eq!(g.n(), 12);
        // 2-D grid edge count: r(c-1) + c(r-1).
        assert_eq!(g.m(), 3 * 3 + 4 * 2);
        assert!(g.has_edge(mesh_index(&[3, 4], &[0, 0]), mesh_index(&[3, 4], &[0, 1])));
        assert!(g.has_edge(mesh_index(&[3, 4], &[0, 0]), mesh_index(&[3, 4], &[1, 0])));
        assert!(!g.has_edge(mesh_index(&[3, 4], &[0, 0]), mesh_index(&[3, 4], &[1, 1])));
    }

    #[test]
    fn mesh_1d_is_path() {
        let g = mesh(&[7]);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn mesh_3d_degree() {
        let g = mesh(&[3, 3, 3]);
        assert_eq!(g.n(), 27);
        // Center of a 3×3×3 mesh has degree 6.
        let c = mesh_index(&[3, 3, 3], &[1, 1, 1]);
        assert_eq!(g.degree(c), 6);
    }

    #[test]
    fn mesh_coord_roundtrip() {
        let dims = [3, 5, 2];
        for idx in 0..30 {
            assert_eq!(mesh_index(&dims, &mesh_coord(&dims, idx)), idx);
        }
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(&[4, 5]);
        assert_eq!(g.n(), 20);
        for v in 0..20 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 32);
        for v in 0..16 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn perfect_tree_sizes() {
        assert_eq!(perfect_mary_size(2, 0), 1);
        assert_eq!(perfect_mary_size(2, 3), 15);
        assert_eq!(perfect_mary_size(3, 2), 13);
        let g = perfect_mary_tree(3, 2);
        assert_eq!(g.n(), 13);
        assert_eq!(g.m(), 12);
        assert_eq!(g.degree(0), 3);
        assert!(g.is_connected());
    }

    #[test]
    fn caterpillar_structure() {
        let g = caterpillar(5, 2);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 4); // interior spine: 2 spine + 2 legs
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let g = random_connected(50, 0.05, seed);
            assert!(g.is_connected());
            assert!(g.m() >= 49);
        }
    }

    #[test]
    fn random_regular_is_regular_connected() {
        let g = random_regular(24, 3, 7);
        assert!(g.is_connected());
        for v in 0..24 {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn figure1_graph_is_connected() {
        let g = figure1();
        assert_eq!(g.n(), 6);
        assert!(g.is_connected());
    }
}
