//! Compact undirected graph representation (CSR) and its builder.
//!
//! Graphs in this project are static: they are generated once by
//! [`crate::topology`] and then only queried. CSR (compressed sparse row)
//! keeps neighbour lists contiguous, which matters because the simulator and
//! the TSP analysis iterate neighbourhoods in hot loops. Ids and offsets are
//! stored as `u32` (four bytes a vertex id, half of a `usize`), and every
//! query hands them out as [`NodeId`].

use crate::NodeId;

/// Largest vertex count a graph or tree stores: ids fit a `u32` with
/// `u32::MAX` left free for "no node".
pub(crate) fn assert_ids_fit(n: usize) {
    assert!(n < u32::MAX as usize, "{n} vertices do not fit 32-bit vertex ids");
}

/// `v` as a stored id; callers have checked the vertex count with
/// [`assert_ids_fit`].
#[inline]
pub(crate) fn id(v: NodeId) -> u32 {
    debug_assert!(v < u32::MAX as usize);
    v as u32
}

/// An undirected graph stored in compressed-sparse-row form.
///
/// Invariants (enforced by [`GraphBuilder::build`] and the grid rows):
/// * no self-loops, no parallel edges;
/// * adjacency lists are sorted ascending, so [`Graph::has_edge`] is a binary
///   search;
/// * symmetric: `v ∈ adj(u)` iff `u ∈ adj(v)`.
#[derive(Clone, Debug)]
pub struct Graph {
    /// `v`'s neighbours are `adj[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    adj: Vec<u32>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbours of `v`, ascending.
    #[inline]
    pub fn neighbors(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        self.row(v).iter().map(|&u| u as NodeId)
    }

    /// `v`'s neighbours as stored.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> &[u32] {
        &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u32::try_from(v).is_ok_and(|v| self.row(u).binary_search(&v).is_ok())
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n())
            .flat_map(move |u| self.neighbors(u).filter(move |&v| u < v).map(move |v| (u, v)))
    }

    /// Whether the graph is connected (the paper assumes connected `G`).
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        crate::bfs::bfs_distances(self, 0).iter().all(|&d| d != u32::MAX)
    }

    /// The grid on `dims` (row-major ids; `wrap`: a torus), written row by
    /// row: each vertex's neighbours are one stride away along an axis of
    /// side ≥ 2 (or, wrapping, the far end of a side ≥ 3), sorted in place.
    /// Equal to adding those edges through [`GraphBuilder`], without the
    /// edge list.
    pub(crate) fn grid(dims: &[usize], wrap: bool) -> Graph {
        let n: usize = dims.iter().product();
        assert_ids_fit(n);
        let steps: usize =
            dims.iter().map(|&d| if wrap { 2 * n } else { 2 * (n / d) * (d - 1) }).sum();
        assert!(steps <= u32::MAX as usize, "{steps} adjacency entries do not fit 32-bit offsets");
        let (mut offsets, mut adj) = (Vec::with_capacity(n + 1), Vec::with_capacity(steps));
        offsets.push(0);
        for v in 0..n {
            let start = adj.len();
            let mut stride = n;
            for &d in dims {
                stride /= d;
                let c = (v / stride) % d;
                if c > 0 {
                    adj.push(id(v - stride));
                } else if wrap {
                    adj.push(id(v + (d - 1) * stride));
                }
                if c + 1 < d {
                    adj.push(id(v + stride));
                } else if wrap {
                    adj.push(id(v - (d - 1) * stride));
                }
            }
            adj[start..].sort_unstable();
            offsets.push(id(adj.len()));
        }
        Graph { offsets, adj }
    }
}

/// Incremental builder for [`Graph`].
///
/// Accepts edges in any order; duplicates and reversed duplicates are merged,
/// self-loops are rejected at [`GraphBuilder::add_edge`] time.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` vertices and no edges yet.
    ///
    /// # Panics
    /// Panics if `n` vertices do not fit 32-bit ids (`n ≥ u32::MAX`).
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// [`GraphBuilder::new`] with room for `edges` edges, for generators
    /// that know their edge count.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        assert_ids_fit(n);
        Self { n, edges: Vec::with_capacity(edges) }
    }

    /// Add the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u == v` or either endpoint is out of range — topology
    /// generators are deterministic, so a bad edge is a programming error.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(u != v, "self-loop {u}");
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range n={}", self.n);
        self.edges.push((id(u), id(v)));
        self
    }

    /// Finalize into a [`Graph`], deduplicating edges.
    ///
    /// A counting build: degrees are counted (duplicates included) and
    /// summed in place so that `offsets[v]` ends at `v`'s last slot; both
    /// directions of every edge are scattered by stepping those ends back
    /// to each range's start (no cursor array); each neighbourhood is
    /// sorted on its own, and duplicates are squeezed out leftwards in the
    /// same pass. There is no sort of the whole edge list, so the cost is
    /// `O(n + m)` plus the per-neighbourhood sorts.
    pub fn build(self) -> Graph {
        let n = self.n;
        let slots = 2 * self.edges.len();
        assert!(slots <= u32::MAX as usize, "{slots} adjacency entries do not fit 32-bit offsets");
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut end = 0;
        for off in &mut offsets[..n] {
            end += *off;
            *off = end;
        }
        offsets[n] = end;
        let mut adj = vec![0u32; slots];
        for &(u, v) in &self.edges {
            offsets[u as usize] -= 1;
            adj[offsets[u as usize] as usize] = v;
            offsets[v as usize] -= 1;
            adj[offsets[v as usize] as usize] = u;
        }
        // `write` never passes the range being read: it trails by exactly
        // the number of duplicates dropped so far.
        let mut write = 0usize;
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            adj[start..end].sort_unstable();
            offsets[v] = id(write);
            for i in start..end {
                if i == start || adj[i] != adj[i - 1] {
                    adj[write] = adj[i];
                    write += 1;
                }
            }
        }
        offsets[n] = id(write);
        adj.truncate(write);
        Graph { offsets, adj }
    }
}

impl Graph {
    /// Build directly from an edge list (convenience for tests).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The build this module had before the counting one — sort the whole
    /// edge list, dedup, fill, sort each slice — kept as its reference.
    fn build_by_global_sort(mut b: GraphBuilder) -> Graph {
        for e in &mut b.edges {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        b.edges.sort_unstable();
        b.edges.dedup();
        let mut deg = vec![0u32; b.n];
        for &(u, v) in &b.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32];
        for d in &deg {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0u32; offsets[b.n] as usize];
        for &(u, v) in &b.edges {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..b.n {
            adj[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Graph { offsets, adj }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random edge lists — duplicates in both orientations, isolated
        /// vertices, any insertion order — build to the same CSR arrays as
        /// the sort-and-dedup reference.
        #[test]
        fn counting_build_equals_the_global_sort_build(
            n in 2usize..24,
            draws in 0usize..80,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Endpoints come from a prefix of the range, so the vertices
            // above `live` stay isolated.
            let live = rng.random_range(2..n + 1);
            let mut b = GraphBuilder::new(n);
            for _ in 0..draws {
                let u = rng.random_range(0..live);
                let v = rng.random_range(0..live);
                if u != v {
                    b.add_edge(u, v);
                    if rng.random::<f64>() < 0.3 {
                        b.add_edge(v, u);
                    }
                }
            }
            let want = build_by_global_sort(b.clone());
            let got = b.build();
            prop_assert_eq!(&got.offsets, &want.offsets);
            prop_assert_eq!(&got.adj, &want.adj);
            for v in 0..n {
                prop_assert!(got.row(v).windows(2).all(|w| w[0] < w[1]));
                prop_assert!(got.neighbors(v).all(|u| u != v && got.has_edge(u, v)));
            }
        }
    }

    /// The grid's edges as `mesh` and `torus` added them before they wrote
    /// their rows: for each axis, each vertex to the next one along it
    /// (wrapping round on a torus).
    fn grid_by_builder(dims: &[usize], wrap: bool) -> Graph {
        let n: usize = dims.iter().product();
        let mut b = GraphBuilder::new(n);
        let mut stride = n;
        for &d in dims {
            stride /= d;
            for idx in 0..n {
                if (idx / stride) % d + 1 < d {
                    b.add_edge(idx, idx + stride);
                } else if wrap {
                    b.add_edge(idx, idx - (d - 1) * stride);
                }
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rows `mesh` and `torus` write equal the builder's arrays for
        /// the same edges, on 1–3 axes of random (and unequal) sides.
        #[test]
        fn grid_rows_equal_the_builder(
            axes in 1usize..4,
            sides in (1usize..7, 1usize..7, 1usize..7),
            wrap in any::<bool>(),
        ) {
            // A torus side is at least 3.
            let lift = if wrap { 2 } else { 0 };
            let dims = [sides.0 + lift, sides.1 + lift, sides.2 + lift];
            let dims = &dims[..axes];
            let got = Graph::grid(dims, wrap);
            let want = grid_by_builder(dims, wrap);
            prop_assert_eq!(&got.offsets, &want.offsets, "{:?} wrap={}", dims, wrap);
            prop_assert_eq!(&got.adj, &want.adj, "{:?} wrap={}", dims, wrap);
            prop_assert_eq!(got.adj.capacity(), got.adj.len(), "the edge count was exact");
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn single_vertex() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.n(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.m(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), [0, 1, 3, 4]);
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 4);
        for (u, v) in es {
            assert!(u < v);
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "do not fit 32-bit vertex ids")]
    fn a_vertex_count_past_32_bit_ids_panics_before_allocating() {
        GraphBuilder::new(u32::MAX as usize).build();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }
}
