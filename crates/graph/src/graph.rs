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
        Self { n, edges: Vec::new() }
    }

    /// Add the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u == v` or either endpoint is out of range — topology
    /// generators are deterministic, so a bad edge is a programming error.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(u != v, "self-loop {u}");
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range n={}", self.n);
        self.edges.push((u.min(v), u.max(v)));
        self
    }

    /// Finalize into a [`Graph`], deduplicating edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as NodeId; acc];
        for &(u, v) in &self.edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Each vertex's slice is already sorted because edges were sorted by
        // (min, max) — but the v-side insertions are not. Sort each slice.
        for v in 0..self.n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { n: self.n, offsets, adj }
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
