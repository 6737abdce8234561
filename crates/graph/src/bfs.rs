//! Breadth-first search, eccentricities and diameters.
//!
//! Theorem 3.6 of the paper lower-bounds counting by `Ω(α²)` where `α` is the
//! diameter of `G`; the experiment drivers read it off the two-sweep bound
//! ([`diameter_two_sweep`]), exact on the families they run.

use crate::graph::id;
use crate::{Graph, NodeId};

/// Distances (in hops) from `src` to every vertex; `u32::MAX` = unreachable.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let (mut dist, mut order) = (Vec::new(), Vec::new());
    search(g, src, &mut dist, &mut order, |_, _| {});
    dist
}

/// The one breadth-first search, into caller-owned buffers so that a run
/// of searches allocates once: `dist` becomes each vertex's distance from
/// `src` (`u32::MAX` = unreachable) and `order` the visit order (its own
/// queue), and `found(v, u)` is called when `v` is first reached from `u`.
/// Neighbours are scanned ascending.
pub fn search(
    g: &Graph,
    src: NodeId,
    dist: &mut Vec<u32>,
    order: &mut Vec<u32>,
    mut found: impl FnMut(NodeId, NodeId),
) {
    dist.clear();
    dist.resize(g.n(), u32::MAX);
    order.clear();
    order.reserve(g.n());
    dist[src] = 0;
    order.push(id(src));
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        let du = dist[u as usize];
        for &v in g.row(u as usize) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                found(v as NodeId, u as NodeId);
                order.push(v);
            }
        }
    }
}

/// Eccentricity of `src`: the largest finite BFS distance from it.
///
/// # Panics
/// Panics if the graph is disconnected (eccentricity is then undefined).
fn eccentricity(g: &Graph, src: NodeId) -> u32 {
    let (mut dist, mut order) = (Vec::new(), Vec::new());
    search(g, src, &mut dist, &mut order, |_, _| {});
    assert_eq!(order.len(), g.n(), "eccentricity of a disconnected graph");
    // A BFS visits in nondecreasing distance: the last vertex is farthest.
    dist[order[order.len() - 1] as usize]
}

/// The largest-id vertex of largest finite distance (`fallback` when
/// there is no vertex).
fn farthest(dist: &[u32], fallback: NodeId) -> NodeId {
    (0..dist.len())
        .max_by_key(|&v| if dist[v] == u32::MAX { 0 } else { dist[v] })
        .unwrap_or(fallback)
}

/// Two-sweep lower bound on the diameter (exact on trees): BFS from `start`,
/// then BFS from the farthest vertex found.
pub fn diameter_two_sweep(g: &Graph, start: NodeId) -> u32 {
    eccentricity(g, farthest(&bfs_distances(g, start), start))
}

/// Approximate center: the midpoint of a two-sweep diameter path.
pub fn approx_center(g: &Graph, start: NodeId) -> NodeId {
    let mut pred = vec![0; g.n()];
    approx_center_in(g, start, &mut Vec::new(), &mut Vec::new(), &mut pred)
}

/// [`approx_center`] in the caller's search buffers (`pred` of `n`
/// entries), which a BFS tree from the center then reuses.
pub(crate) fn approx_center_in(
    g: &Graph,
    start: NodeId,
    dist: &mut Vec<u32>,
    order: &mut Vec<u32>,
    pred: &mut [u32],
) -> NodeId {
    search(g, start, dist, order, |_, _| {});
    let a = farthest(dist, start);
    search(g, a, dist, order, |v, u| pred[v] = id(u));
    let b = farthest(dist, a);
    // Walk half-way back from b towards a.
    let mut cur = b;
    for _ in 0..(dist[b] / 2) {
        cur = pred[cur] as NodeId;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn distances_on_path() {
        let g = topology::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter_two_sweep(&topology::path(10), 0), 9);
        assert_eq!(diameter_two_sweep(&topology::cycle(10), 0), 5);
        assert_eq!(diameter_two_sweep(&topology::cycle(11), 0), 5);
    }

    #[test]
    fn diameter_of_complete_and_star() {
        assert_eq!(diameter_two_sweep(&topology::complete(8), 0), 1);
        assert_eq!(diameter_two_sweep(&topology::star(8), 0), 2);
    }

    #[test]
    fn two_sweep_exact_on_trees() {
        let g = topology::perfect_mary_tree(2, 4);
        assert_eq!(diameter_two_sweep(&g, 0), 8);
        let g = topology::path(17);
        assert_eq!(diameter_two_sweep(&g, 8), 16);
    }

    #[test]
    fn center_of_path_is_middle() {
        let g = topology::path(9);
        assert_eq!(approx_center(&g, 0), 4);
    }

    #[test]
    fn hypercube_diameter_is_dimension() {
        for d in 1..=6 {
            assert_eq!(diameter_two_sweep(&topology::hypercube(d), 0), d as u32);
        }
    }

    #[test]
    fn mesh_diameter_is_manhattan() {
        let g = topology::mesh(&[4, 5]);
        assert_eq!(diameter_two_sweep(&g, 0), 3 + 4);
    }
}
