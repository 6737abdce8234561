//! Breadth-first search, eccentricities and diameters.
//!
//! Theorem 3.6 of the paper lower-bounds counting by `Ω(α²)` where `α` is the
//! diameter of `G`; the experiment drivers read it off the two-sweep bound
//! ([`diameter_two_sweep`]), exact on the families they run.

use crate::{Graph, NodeId, NO_NODE};

/// Distances (in hops) from `src` to every vertex; `u32::MAX` = unreachable.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    search(g, src, |_, _| {}).0
}

/// BFS that also records a predecessor for each reached vertex.
///
/// Returns `(distances, predecessors)`; `predecessors[src] == src` and
/// unreachable vertices have predecessor [`NO_NODE`].
pub fn bfs_tree_arrays(g: &Graph, src: NodeId) -> (Vec<u32>, Vec<NodeId>) {
    let mut pred = vec![NO_NODE; g.n()];
    pred[src] = src;
    (search(g, src, |v, u| pred[v] = u).0, pred)
}

/// The one breadth-first search: distances from `src` and the visit order
/// (its own queue, so one allocation of `n`), calling `found(v, u)` when
/// `v` is first reached from `u`. Neighbours are scanned ascending.
pub(crate) fn search(
    g: &Graph,
    src: NodeId,
    mut found: impl FnMut(NodeId, NodeId),
) -> (Vec<u32>, Vec<NodeId>) {
    let mut dist = vec![u32::MAX; g.n()];
    let mut order = Vec::with_capacity(g.n());
    dist[src] = 0;
    order.push(src);
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        let du = dist[u];
        for &v in g.neighbors(u) {
            if dist[v] == u32::MAX {
                dist[v] = du + 1;
                found(v, u);
                order.push(v);
            }
        }
    }
    (dist, order)
}

/// Eccentricity of `src`: the largest finite BFS distance from it.
///
/// # Panics
/// Panics if the graph is disconnected (eccentricity is then undefined).
fn eccentricity(g: &Graph, src: NodeId) -> u32 {
    let (dist, order) = search(g, src, |_, _| {});
    assert_eq!(order.len(), g.n(), "eccentricity of a disconnected graph");
    // A BFS visits in nondecreasing distance: the last vertex is farthest.
    dist[order[order.len() - 1]]
}

/// Two-sweep lower bound on the diameter (exact on trees): BFS from `start`,
/// then BFS from the farthest vertex found.
pub fn diameter_two_sweep(g: &Graph, start: NodeId) -> u32 {
    let d0 = bfs_distances(g, start);
    let far =
        (0..g.n()).max_by_key(|&v| if d0[v] == u32::MAX { 0 } else { d0[v] }).unwrap_or(start);
    eccentricity(g, far)
}

/// Approximate center: the midpoint of a two-sweep diameter path.
pub fn approx_center(g: &Graph, start: NodeId) -> NodeId {
    let d0 = bfs_distances(g, start);
    let a = (0..g.n()).max_by_key(|&v| if d0[v] == u32::MAX { 0 } else { d0[v] }).unwrap_or(start);
    let (da, pred) = bfs_tree_arrays(g, a);
    let b = (0..g.n()).max_by_key(|&v| if da[v] == u32::MAX { 0 } else { da[v] }).unwrap_or(a);
    // Walk half-way back from b towards a.
    let mut cur = b;
    for _ in 0..(da[b] / 2) {
        cur = pred[cur];
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
