//! Vertex partitions for shard plans.
//!
//! A [`Partition`] assigns every vertex of an `n`-vertex graph to one of
//! `k` shards. A simulation cut by a partition gives the links between
//! shards the inter-shard ferry's delay and counts the messages that cross
//! them, so
//! the quality measure of a partition is its **edge cut** (the edges whose
//! endpoints live in different shards): every cut edge is a potential
//! cross-shard message per round.
//!
//! Three deterministic strategies are provided:
//!
//! * [`Partition::contiguous`] — id-range blocks (optimal for path/snake
//!   orders, where consecutive ids are adjacent);
//! * [`Partition::striped`] — round-robin by `v mod k` (the worst
//!   reasonable baseline: nearly every edge is cut);
//! * [`Partition::greedy_edge_cut`] — METIS-style greedy region growing:
//!   each shard grows from the smallest unassigned seed, repeatedly
//!   absorbing the frontier vertex with the most edges into the region
//!   (ties to the smallest id), until it reaches its balanced target size.
//!   A pick pops a per-gain min-id heap or moves a seed cursor instead of
//!   scanning the vertices: O(k + (n + m) log n) time and O(n + m) memory
//!   for `k` shards of an `m`-edge graph.
//!
//! Whatever the strategy, a partition is one table: a `u32` shard per
//! vertex, one allocation of `4n` bytes. A shard's vertices are the ids
//! that [`Partition::shard_of`] maps to it.

use crate::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An assignment of `n` vertices to `k` shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    k: usize,
    /// `shard[v]` is the shard of `v`.
    shard: Box<[u32]>,
}

impl Partition {
    /// Build from an explicit assignment (the `v`-th item is the shard of
    /// `v`).
    ///
    /// # Panics
    /// Panics if any shard id is `≥ k` — assignments are produced by
    /// deterministic strategies, so an out-of-range id is a programming
    /// error. (A simulation cut by the partition additionally validates
    /// its shape against the graph and reports a constructive
    /// `InvalidConfig` error.)
    pub fn from_assignment(k: usize, assignment: impl IntoIterator<Item = usize>) -> Self {
        let k = k.max(1);
        assert!(u32::try_from(k).is_ok(), "{k} shards exceed the u32 shard table");
        let assignment = assignment.into_iter();
        let mut shard = Vec::with_capacity(assignment.size_hint().0);
        for (v, s) in assignment.enumerate() {
            assert!(s < k, "vertex {v} assigned to shard {s} ≥ k = {k}");
            shard.push(s as u32);
        }
        Partition { k, shard: shard.into() }
    }

    /// Contiguous id blocks: shard `s` holds ids `[s·⌈n/k⌉, (s+1)·⌈n/k⌉)`.
    pub fn contiguous(n: usize, k: usize) -> Self {
        let k = k.max(1);
        let block = n.div_ceil(k).max(1);
        Self::from_assignment(k, (0..n).map(|v| (v / block).min(k - 1)))
    }

    /// Round-robin striping: shard of `v` is `v mod k`.
    pub fn striped(n: usize, k: usize) -> Self {
        let k = k.max(1);
        Self::from_assignment(k, (0..n).map(|v| v % k))
    }

    /// METIS-style greedy edge-cut minimization: grow each shard from the
    /// smallest unassigned seed by repeatedly absorbing the unassigned
    /// vertex with the most edges into the region (ties to the smallest
    /// id). Deterministic; balanced to `⌈unassigned/remaining⌉` per shard.
    ///
    /// A pick scans nothing. A frontier vertex with `g − 1` edges into the
    /// region sits in the min-id heap of level `g`, and the highest
    /// non-empty level is the best pick; with no frontier, the seed is the
    /// smallest untouched id, found by a cursor that only moves up.
    /// O(k + (n + m) log n) time, O(n + m) memory.
    pub fn greedy_edge_cut(graph: &Graph, k: usize) -> Self {
        let n = graph.n();
        let k = k.max(1);
        assert!(u32::try_from(k).is_ok(), "{k} shards exceed the u32 shard table");
        let mut shard = vec![0u32; n];
        // 0 for an assigned vertex; for an unassigned one, 1 + its edges
        // into the region being grown.
        let mut key = vec![1u32; n];
        // `heaps[g]` holds the vertices that reached key `g ≥ 2` in this
        // shard, smallest id on top. An entry is live only while
        // `key[v] == g`: a vertex that rises or is picked leaves a stale
        // entry behind, dropped when it surfaces.
        let mut heaps: Vec<BinaryHeap<Reverse<u32>>> = Vec::new();
        // The cursor moves only while the frontier is empty, when every
        // vertex is assigned or untouched, so every id it passes stays
        // assigned for the rest of the cut.
        let mut seed = 0;
        let mut unassigned = n;
        for s in 0..k {
            let target = unassigned.div_ceil(k - s);
            // What the last shard's frontier left unassigned is untouched
            // again. Each such vertex has an entry at its key's level, so
            // draining the heaps finds them all.
            for heap in &mut heaps {
                for Reverse(v) in heap.drain() {
                    key[v as usize] = key[v as usize].min(1);
                }
            }
            // `top` bounds the highest live level from above.
            let mut top = 0;
            for _ in 0..target.min(unassigned) {
                let pick = loop {
                    if top < 2 {
                        // No frontier: a fresh seed, which restarts the
                        // growth in the smallest untouched component.
                        while key[seed] != 1 {
                            seed += 1;
                        }
                        break seed;
                    }
                    match heaps[top].peek() {
                        Some(&Reverse(v)) if key[v as usize] == top as u32 => break v as usize,
                        Some(_) => {
                            heaps[top].pop();
                        }
                        None => top -= 1,
                    }
                };
                key[pick] = 0;
                shard[pick] = s as u32;
                unassigned -= 1;
                for &w in graph.row(pick) {
                    let g = &mut key[w as usize];
                    if *g > 0 {
                        *g += 1;
                        let level = *g as usize;
                        if heaps.len() <= level {
                            heaps.resize_with(level + 1, BinaryHeap::new);
                        }
                        heaps[level].push(Reverse(w));
                        top = top.max(level);
                    }
                }
            }
        }
        Partition { k, shard: shard.into() }
    }

    /// Number of shards.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices partitioned.
    #[inline]
    pub fn n(&self) -> usize {
        self.shard.len()
    }

    /// Shard of vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.shard[v] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The edge cut: the measure the strategies are compared on.
    fn cut_edges(p: &Partition, graph: &Graph) -> usize {
        graph.edges().filter(|&(u, v)| p.shard_of(u) != p.shard_of(v)).count()
    }

    /// The shard of every vertex, in id order.
    fn shards(p: &Partition) -> Vec<usize> {
        (0..p.n()).map(|v| p.shard_of(v)).collect()
    }

    /// The vertices of shard `s`, ascending.
    fn members(p: &Partition, s: usize) -> Vec<NodeId> {
        (0..p.n()).filter(|&v| p.shard_of(v) == s).collect()
    }

    #[test]
    fn contiguous_blocks() {
        let p = Partition::contiguous(10, 3);
        assert_eq!(p.k(), 3);
        assert_eq!(shards(&p), [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        assert_eq!(members(&p, 0), [0, 1, 2, 3]);
        assert_eq!(members(&p, 2), [8, 9]);
    }

    #[test]
    fn striped_round_robin() {
        let p = Partition::striped(7, 3);
        assert_eq!(shards(&p), [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(members(&p, 0), [0, 3, 6]);
    }

    #[test]
    fn single_shard_holds_everything() {
        for p in [
            Partition::contiguous(6, 1),
            Partition::striped(6, 1),
            Partition::greedy_edge_cut(&topology::path(6), 1),
        ] {
            assert_eq!(p.k(), 1);
            assert_eq!(members(&p, 0).len(), 6);
            assert_eq!(cut_edges(&p, &topology::path(6)), 0);
        }
    }

    #[test]
    fn more_shards_than_vertices_leaves_empty_shards() {
        let p = Partition::contiguous(3, 5);
        assert_eq!(p.k(), 5);
        let sizes: Vec<usize> = (0..5).map(|s| members(&p, s).len()).collect();
        assert_eq!(sizes, [1, 1, 1, 0, 0]);
    }

    #[test]
    fn greedy_is_balanced_and_complete() {
        let g = topology::torus(&[6, 6]);
        let p = Partition::greedy_edge_cut(&g, 4);
        for s in 0..4 {
            assert_eq!(members(&p, s).len(), 9, "shard {s} unbalanced");
        }
        assert_eq!(p.n(), 36);
        assert!(shards(&p).iter().all(|&s| s < 4));
    }

    #[test]
    fn greedy_cut_beats_striping_on_meshes() {
        let g = topology::mesh(&[8, 8]);
        let greedy = cut_edges(&Partition::greedy_edge_cut(&g, 4), &g);
        let striped = cut_edges(&Partition::striped(64, 4), &g);
        assert!(greedy < striped, "greedy {greedy} vs striped {striped}");
    }

    #[test]
    fn contiguous_is_optimal_on_the_path() {
        let g = topology::path(12);
        // A path split into 4 blocks cuts exactly the 3 block boundaries.
        assert_eq!(cut_edges(&Partition::contiguous(12, 4), &g), 3);
    }

    /// The greedy growth as a scan: every pick looks at every unassigned
    /// vertex for the most edges into the region, ties to the smallest id.
    fn greedy_by_scan(graph: &Graph, k: usize) -> Vec<usize> {
        let n = graph.n();
        let mut assignment = vec![usize::MAX; n];
        let mut unassigned = n;
        for shard in 0..k {
            let target = unassigned.div_ceil(k - shard);
            let mut gain = vec![0usize; n];
            for _ in 0..target.min(unassigned) {
                let pick = (0..n)
                    .filter(|&v| assignment[v] == usize::MAX)
                    .max_by(|&a, &b| gain[a].cmp(&gain[b]).then(b.cmp(&a)))
                    .unwrap();
                assignment[pick] = shard;
                unassigned -= 1;
                for w in graph.neighbors(pick) {
                    gain[w] += usize::from(assignment[w] == usize::MAX);
                }
            }
        }
        assignment
    }

    #[test]
    fn greedy_picks_what_the_scan_picks() {
        let graphs = [
            topology::torus(&[7, 5]),
            topology::mesh(&[9, 4]),
            topology::path(13),
            topology::star(10),
            topology::complete(9),
            topology::caterpillar(6, 2),
            topology::random_connected(40, 0.1, 3),
        ];
        for g in &graphs {
            for k in 1..7 {
                assert_eq!(
                    shards(&Partition::greedy_edge_cut(g, k)),
                    greedy_by_scan(g, k),
                    "k = {k}"
                );
            }
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let g = topology::torus(&[5, 5]);
        let a = Partition::greedy_edge_cut(&g, 3);
        let b = Partition::greedy_edge_cut(&g, 3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "assigned to shard")]
    fn out_of_range_assignment_rejected() {
        Partition::from_assignment(2, vec![0, 2]);
    }

    /// A graph of `family` on about `size` vertices: a random connected
    /// graph; the same spread over more ids, so isolated vertices sit
    /// between its vertices and a seed restarts in the middle of a shard;
    /// or a star whose hub has the largest id.
    fn oracle_graph(family: usize, size: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => topology::random_connected(size, rng.random_range(0.0..0.1), seed),
            1 => {
                let core = topology::random_connected(size, rng.random_range(0.0..0.05), seed);
                let n = size + rng.random_range(1..size + 1);
                let mut ids: Vec<NodeId> = (0..n).collect();
                ids.shuffle(&mut rng);
                let mut b = crate::GraphBuilder::new(n);
                for (u, v) in core.edges() {
                    b.add_edge(ids[u], ids[v]);
                }
                b.build()
            }
            _ => {
                let mut b = crate::GraphBuilder::new(size);
                for v in 0..size - 1 {
                    b.add_edge(v, size - 1);
                }
                b.build()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The heaps and the seed cursor pick what the scan picks: on
        /// random connected graphs, on graphs with isolated vertices and on
        /// a star whose hub has the largest id, at every `k` from 1 to 9
        /// (more shards than vertices included).
        #[test]
        fn greedy_picks_what_the_scan_picks_on_random_graphs(
            family in 0usize..3,
            size in 1usize..200,
            k in 1usize..10,
            seed in any::<u64>(),
        ) {
            let g = oracle_graph(family, size, seed);
            prop_assert_eq!(shards(&Partition::greedy_edge_cut(&g, k)), greedy_by_scan(&g, k));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every vertex lands on a shard below `k`, and an explicit
        /// assignment is kept as given — for random assignments and all
        /// three strategies, from one vertex to a few thousand.
        #[test]
        fn places_are_the_binary_search_ranks(
            side in 1usize..56,
            k in 1usize..20,
            strategy in 0usize..4,
            seed in any::<u64>(),
        ) {
            let g = topology::mesh(&[side, side]);
            let n = g.n();
            let mut rng = StdRng::seed_from_u64(seed);
            let given: Vec<usize> = (0..n).map(|_| rng.random_range(0..k)).collect();
            let p = match strategy {
                0 => Partition::contiguous(n, k),
                1 => Partition::striped(n, k),
                2 => Partition::greedy_edge_cut(&g, k),
                _ => Partition::from_assignment(k, given.iter().copied()),
            };
            prop_assert_eq!((p.n(), p.k()), (n, k));
            for v in 0..n {
                prop_assert!(p.shard_of(v) < k, "vertex {} on shard {}", v, p.shard_of(v));
            }
            if strategy == 3 {
                prop_assert_eq!(shards(&p), given);
            }
        }
    }
}
