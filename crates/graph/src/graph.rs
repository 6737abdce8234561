//! Compact undirected graph representation (CSR) and its builder.
//!
//! Graphs in this project are static: they are generated once by
//! [`crate::topology`] and then only queried. CSR (compressed sparse row)
//! keeps neighbour lists contiguous, which matters because the simulator and
//! the TSP analysis iterate neighbourhoods in hot loops.

use crate::NodeId;

/// An undirected graph stored in compressed-sparse-row form.
///
/// Invariants (enforced by [`GraphBuilder::build`]):
/// * no self-loops, no parallel edges;
/// * adjacency lists are sorted ascending, so [`Graph::has_edge`] is a binary
///   search;
/// * symmetric: `v ∈ adj(u)` iff `u ∈ adj(v)`.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbours of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Whether the graph is connected (the paper assumes connected `G`).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        crate::bfs::bfs_distances(self, 0).iter().all(|&d| d != u32::MAX)
    }
}

/// Incremental builder for [`Graph`].
///
/// Accepts edges in any order; duplicates and reversed duplicates are merged,
/// self-loops are rejected at [`GraphBuilder::build`] time.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` vertices and no edges yet.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// [`GraphBuilder::new`] with room for `edges` edges, for generators
    /// that know their edge count.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
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
        self.edges.push((u, v));
        self
    }

    /// Finalize into a [`Graph`], deduplicating edges.
    ///
    /// A counting build: degrees are counted (duplicates included), both
    /// directions of every edge are scattered into their vertex's range,
    /// each neighbourhood is sorted on its own, and duplicates are squeezed
    /// out leftwards in the same pass. There is no sort of the whole edge
    /// list, so the cost is `O(n + m)` plus the per-neighbourhood sorts.
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as NodeId; offsets[n]];
        for &(u, v) in &self.edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        // `write` never passes the range being read: it trails by exactly
        // the number of duplicates dropped so far.
        let mut write = 0usize;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            adj[start..end].sort_unstable();
            offsets[v] = write;
            for i in start..end {
                if i == start || adj[i] != adj[i - 1] {
                    adj[write] = adj[i];
                    write += 1;
                }
            }
        }
        offsets[n] = write;
        adj.truncate(write);
        Graph { n, offsets, adj }
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
        let mut deg = vec![0usize; b.n];
        for &(u, v) in &b.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = vec![0usize];
        for d in &deg {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as NodeId; offsets[b.n]];
        for &(u, v) in &b.edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        for v in 0..b.n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { n: b.n, offsets, adj }
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
            prop_assert_eq!(got.n, want.n);
            prop_assert_eq!(&got.offsets, &want.offsets);
            prop_assert_eq!(&got.adj, &want.adj);
            for v in 0..n {
                prop_assert!(got.neighbors(v).windows(2).all(|w| w[0] < w[1]));
                prop_assert!(got.neighbors(v).iter().all(|&u| u != v && got.has_edge(u, v)));
            }
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
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }
}
