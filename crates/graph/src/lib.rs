//! Graph substrate for the reproduction of Busch & Tirthapura,
//! *"Concurrent counting is harder than queuing"* (IPDPS 2006 / TCS 2010).
//!
//! The paper's model is a synchronous message-passing system on a connected
//! undirected graph `G = (V, E)`. This crate provides:
//!
//! * [`Graph`] — a compact CSR representation of undirected graphs,
//! * [`topology`] — generators for every interconnection topology the paper
//!   names (complete graph, list, d-dimensional mesh, hypercube, star,
//!   perfect m-ary tree) plus auxiliary families used in tests and ablations,
//! * [`bfs`] — breadth-first search, diameters and centers,
//! * [`Tree`] — rooted spanning trees with parent/children/depth indexing,
//! * [`Lca`] — binary-lifting lowest-common-ancestor queries and tree
//!   distances (the metric used by the nearest-neighbour TSP analysis),
//! * [`spanning`] — spanning-tree constructions, most importantly the
//!   Hamilton-path trees of Lemma 4.6 (complete graph, mesh, hypercube) and
//!   constant-degree trees required by Theorem 4.1,
//! * [`TreeRouter`] — hop-by-hop next hops on a [`Tree`], the one way the
//!   protocols route on their spanning tree,
//! * [`partition`] — vertex partitions (contiguous, striped, greedy
//!   edge-cut) for the multi-shard executor.
//!
//! ```
//! use ccq_graph::{topology, spanning};
//!
//! // A 4×4 mesh and its snake-order Hamilton-path spanning tree.
//! let g = topology::mesh(&[4, 4]);
//! let order = spanning::hamilton_path_mesh(&[4, 4]);
//! assert!(spanning::is_hamilton_path(&g, &order));
//! let tree = spanning::path_tree_from_order(&order);
//! assert!(tree.is_spanning_tree_of(&g));
//! assert_eq!(tree.max_degree(), 2);
//! ```

pub mod bfs;
pub mod graph;
pub mod lca;
pub mod partition;
pub mod routing;
pub mod spanning;
pub mod topology;
pub mod tree;

pub use graph::{Graph, GraphBuilder};
pub use lca::Lca;
pub use partition::Partition;
pub use routing::TreeRouter;
pub use tree::Tree;

/// Identifier of a processor (a vertex of the interconnection graph).
///
/// The paper numbers processors `1..n`; we use `0..n-1`.
pub type NodeId = usize;
