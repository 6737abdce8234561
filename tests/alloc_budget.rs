//! An allocation ceiling on set-up and per-case engine state: a scenario
//! and an engine run are a constant number of flat allocations whatever
//! `n` is, so a per-node `Vec` (a queue that owns its buffer, a child
//! list, a coordinate vector) coming back fails here rather than in a
//! benchmark reading.
//!
//! The counter is per thread, so the tests of this binary can run side by
//! side; an unsharded run never leaves its thread.

use ccq_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread, and the bytes they asked for
    /// (a `realloc` counts as one call of its new size). Constant-initialised
    /// and without a destructor, so touching them never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: asked for less freed (it may go below 0
    /// where the thread frees what another allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// `System`, with every allocating call counted on the calling thread.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its locals.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// `bytes` more (or, negative, fewer) held by this thread.
fn hold(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocation calls this thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// `f`'s result and the bytes this thread's allocations asked for while it
/// ran.
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// `sparse_scale`'s shape at a test-sized side: a far-away cluster of 64
/// requesters arriving over time on a torus of `side * side` processors.
fn sparse_torus(side: usize) -> (Scenario, u64) {
    counted(|| {
        Scenario::build_with(
            TopoSpec::Torus2D { side },
            RequestPattern::TailCluster { count: 64 },
            ArrivalSpec::Poisson { rate: 0.5, seed: 7 },
        )
    })
}

#[test]
fn scenario_build_allocates_the_same_at_any_size() {
    let (small, at_32) = sparse_torus(32);
    let (large, at_64) = sparse_torus(64);
    assert_eq!((small.n(), large.n()), (1024, 4096));
    assert_eq!(at_32, at_64, "graph, trees or schedule allocate per node again");
    assert!(at_32 < 100, "{at_32} allocations for one scenario");
}

/// A scenario stores every vertex id in four bytes: on `sparse_torus(64)`
/// its graph and two spanning trees (about 20 bytes a vertex each: CSR
/// offsets and neighbours; parents, children, depths and BFS order) keep
/// at most 64 bytes a vertex, and building them asks for at most 62. They
/// keep 60.4 and ask for 60.5 since the mesh snake is written as `u32` ids
/// straight into its tree (68.5 through a `usize` order); with `usize` ids
/// they kept 104 and asked for 184.
#[test]
fn a_scenario_keeps_four_bytes_per_vertex_id() {
    let (live, asked) = (LIVE.with(Cell::get), BYTES.with(Cell::get));
    let (s, _) = sparse_torus(64);
    let resident = (LIVE.with(Cell::get) - live) as f64 / s.n() as f64;
    let asked = (BYTES.with(Cell::get) - asked) as f64 / s.n() as f64;
    assert!(resident <= 64.0, "{resident:.1} bytes a vertex kept by the scenario");
    assert!(asked <= 62.0, "{asked:.1} bytes a vertex asked for while building it");
}

/// Swapping a request set builds no topology: `with_pattern` on the
/// 4 096-processor torus asks for the requests (a `NodeId` each) and
/// their schedule (a `(Round, NodeId)` each) and nothing that scales with
/// `n + m`, where a rebuilt graph and trees ask for about 60 bytes a
/// vertex. An open arrival's schedule also shuffles a copy of the
/// requests, a third `NodeId` a requester.
#[test]
fn swapping_a_request_set_builds_no_topology() {
    const ONE_SHOT: u64 =
        (std::mem::size_of::<usize>() + std::mem::size_of::<(u64, usize)>()) as u64;
    let mut one_shot = Scenario::build(TopoSpec::Torus2D { side: 64 }, RequestPattern::All);
    for count in [1, 64, 4_096] {
        let pattern = RequestPattern::TailCluster { count };
        let ((s, bytes), allocs) = counted(|| counted_bytes(|| one_shot.with_pattern(pattern)));
        assert_eq!((s.k(), s.schedule.len()), (count, count));
        assert_eq!((allocs, bytes), (2, ONE_SHOT * count as u64), "one-shot, {count} requesters");
        one_shot = s;
    }
    let open = sparse_torus(64).0;
    let pattern = RequestPattern::TailCluster { count: 64 };
    let ((s, bytes), allocs) = counted(|| counted_bytes(|| open.with_pattern(pattern)));
    assert_eq!(s.schedule.len(), 64);
    let open_bytes = ONE_SHOT * 64 + std::mem::size_of::<usize>() as u64 * 64;
    assert_eq!((allocs, bytes), (3, open_bytes), "open arrival, 64 requesters");
}

/// Build `spec`'s protocol on `s` as `ProtocolSpec::execute` does, apart
/// from any run: the allocation calls its state costs.
fn build_allocs(spec: &ProtocolSpec, s: &Scenario) -> u64 {
    use ccq_repro::counting::network::{bitonic, periodic, toggle_tree};
    use ccq_repro::counting::{CentralCounterProtocol, CombiningTreeProtocol};
    use ccq_repro::counting::{CountingNetworkProtocol, CrdtCounterProtocol};
    use ccq_repro::queuing::{ArrowProtocol, CentralQueueProtocol, CombiningQueueProtocol};
    use ProtocolSpec::*;
    let (q, c, r) = (&s.queuing_tree, &s.counting_tree, &s.requests);
    let w = spec.effective_width(s.n()).unwrap_or(0);
    let network = |net| drop(CountingNetworkProtocol::with_network(&s.graph, c, r, net));
    counted(|| match *spec {
        Arrow => drop(ArrowProtocol::new(q, s.tail, r)),
        ArrowNotify => drop(ArrowProtocol::new(q, s.tail, r).with_notify_origin()),
        CentralQueue => drop(CentralQueueProtocol::new(q, s.tail, r)),
        CombiningQueue => drop(CombiningQueueProtocol::new(q, r)),
        CentralCounter => drop(CentralCounterProtocol::new(c, c.root(), r)),
        CombiningTree => drop(CombiningTreeProtocol::new(c, r)),
        CountingNetwork { .. } => network(bitonic(w)),
        PeriodicNetwork { .. } => network(periodic(w)),
        ToggleTree { .. } => network(toggle_tree(w)),
        CrdtCounter => drop(CrdtCounterProtocol::new(c, r)),
    })
    .1
}

/// A protocol's state is a constant number of flat arrays whatever `n`
/// is: building every registry protocol allocates the same on the 32×32
/// and the 64×64 torus (a `Vec` per node would be 3 072 more). A run adds
/// at most one allocation per message sent plus a constant: the report
/// vectors, the slab doublings and the messages' own payloads (a combining
/// summary, an arrow path), whose traffic does not grow with `n`.
#[test]
fn a_run_allocates_for_its_messages_not_its_nodes() {
    let scenarios = [sparse_torus(32).0, sparse_torus(64).0];
    let builds = registry().iter().map(|spec| {
        let [small, large] = scenarios.each_ref().map(|s| build_allocs(spec, s));
        (spec.name(), small, large)
    });
    let grown: Vec<_> = builds.filter(|&(_, small, large)| small != large).collect();
    assert!(grown.is_empty(), "built per node (protocol, 32x32, 64x64): {grown:?}");
    for spec in registry() {
        for scenario in &scenarios {
            let (out, allocs) = counted(|| run_spec(spec, scenario, ModelMode::Strict));
            let msgs = out.expect("run verifies").report.messages_sent;
            assert!(
                allocs <= 400 + msgs,
                "{} on {} nodes: {allocs} allocations for {msgs} messages",
                spec.name(),
                scenario.n()
            );
        }
    }
}

/// The central walk routes hop by hop through the tree's router, so
/// building `central-queue` or `central-counter` costs the same
/// allocations at any request count. Routes stored per requester (a tree
/// path out and its reverse back, up to 511 hops each on this list) made
/// it 151 allocations at 16 requesters and 2 315 at 256.
#[test]
fn central_setup_allocates_the_same_at_any_request_count() {
    use ccq_repro::counting::CentralCounterProtocol;
    use ccq_repro::graph::spanning;
    use ccq_repro::queuing::CentralQueueProtocol;
    let n = 512;
    let tree = spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>());
    let allocs = |k: usize| {
        // The requesters furthest from the home at vertex 0.
        let requests: Vec<usize> = (n - k..n).collect();
        let queue = counted(|| CentralQueueProtocol::new(&tree, 0, &requests)).1;
        let counter = counted(|| CentralCounterProtocol::new(&tree, 0, &requests)).1;
        (queue, counter)
    };
    assert_eq!(allocs(16), allocs(256), "(queue, counter) set-up allocations at 16 and 256");
}

/// A nearest-neighbour tour walks the tree's own arrays, so its cost in
/// allocations is the same at any size: a pending-target table, the search
/// queue and the two result vectors. An adjacency list built per tour is a
/// `Vec` per vertex, 4 096 allocations at the larger size.
#[test]
fn a_tour_allocates_the_same_at_any_size() {
    use ccq_repro::graph::spanning;
    use ccq_repro::tsp::nn_tour;
    let allocs = |n: usize| {
        let tree = spanning::path_tree_from_order(&(0..n).collect::<Vec<_>>());
        let targets: Vec<usize> = (0..n).step_by(7).collect();
        let (tour, allocs) = counted(|| nn_tour(&tree, n / 2, &targets));
        assert_eq!(tour.order.len(), targets.len());
        allocs
    };
    assert_eq!(allocs(512), allocs(4_096), "nn_tour allocations on 512 and 4 096 nodes");
}

/// A shard plan costs a run no allocation: the run borrows the
/// scenario's partition, built once outside it, and keeps every queue in
/// one `n`-processor store and every wire on one wheel, so `central-counter`
/// on the 4 096-processor torus allocates exactly the same bytes unsharded
/// and in 2 or 16 shards. A partition copied per run (16 KiB of shard
/// table at this size) or a store per shard fails it.
#[test]
fn shard_lanes_share_one_slot_table() {
    let spec = ccq_repro::core::protocol::find("central-counter").expect("registry protocol");
    let run_bytes = |k: usize| {
        let scenario = sparse_torus(64).0.with_shards(ShardSpec::new(k, ShardStrategy::Contiguous));
        let (out, bytes) = counted_bytes(|| run_spec(spec, &scenario, ModelMode::Strict));
        out.expect("run verifies");
        bytes
    };
    let (one, two, sixteen) = (run_bytes(1), run_bytes(2), run_bytes(16));
    assert_eq!((two, sixteen), (one, one), "bytes allocated at k = 1, 2 and 16");
}

/// No case execution builds shared scenario state: a sharded scenario's
/// partition is built where its shard plan is set, so one sharded case run
/// twice on one scenario allocates the same both times. A partition built
/// lazily by the first run counts in that run's allocations only.
#[test]
fn a_sharded_case_allocates_the_same_every_run() {
    let spec = ccq_repro::core::protocol::find("central-counter").expect("registry protocol");
    let scenario = Scenario::build(TopoSpec::Torus2D { side: 16 }, RequestPattern::All)
        .with_shards(ShardSpec::new(2, ShardStrategy::EdgeCut));
    let run = || counted(|| run_spec(spec, &scenario, ModelMode::Strict).expect("run verifies")).1;
    let (first, second) = (run(), run());
    assert_eq!(first, second, "allocations of a sharded case's first and second run");
}

/// A partition is one shard table: a `u32` per vertex in one allocation,
/// whatever the number of shards. Per-shard member lists on top of it
/// cost an allocation per shard (and a reallocation per doubling).
#[test]
fn a_partition_is_one_shard_table() {
    use ccq_repro::graph::Partition;
    type Build = fn(usize, usize) -> Partition;
    for (name, build) in
        [("contiguous", Partition::contiguous as Build), ("striped", Partition::striped)]
    {
        for k in [1, 2, 16] {
            let ((p, bytes), allocs) = counted(|| counted_bytes(|| build(4_096, k)));
            assert_eq!((p.n(), p.k()), (4_096, k));
            assert_eq!((allocs, bytes), (1, 16_384), "{name} at k = {k}: (allocations, bytes)");
        }
    }
}

/// An edge cut asks for memory linear in the graph: its shard table and
/// gain keys (8 bytes a vertex) and at most one heap entry per edge end,
/// in a heap per gain level the growth reaches. At `k = 4` the bytes
/// asked, over `n + m`, stay under 10: they read 2.9 on the 4 096-vertex
/// torus and 8.0 on a 4 096-vertex star, whose 4 095 leaves all join one
/// heap. A bitset per gain level (`Δ + 2` levels of `n` bits) would ask
/// for about 256 on the star.
#[test]
fn an_edge_cut_asks_for_linear_memory() {
    use ccq_repro::graph::{topology, Partition};
    for (name, g) in
        [("torus2d:64", topology::torus(&[64, 64])), ("star:4096", topology::star(4_096))]
    {
        let (p, bytes) = counted_bytes(|| Partition::greedy_edge_cut(&g, 4));
        assert_eq!(p.n(), g.n());
        let per = bytes as f64 / (g.n() + g.m()) as f64;
        assert!(per <= 10.0, "{name}: {per:.1} bytes asked per vertex and edge");
    }
}

/// The wire layer's share of "zero allocations in steady state": once a
/// timing wheel and the slab its wires live in have seen their longest
/// delay and their largest burst, cycling stage, transmit, mature and pop
/// round after round allocates nothing — under unit delay and under
/// jitter, whose FIFO clamp keeps a map of the links it has seen.
#[test]
fn a_warm_timing_wheel_allocates_nothing() {
    use ccq_repro::sim::{state::NodeStore, transport::Transport, LinkDelay};
    for delay in [LinkDelay::Unit, LinkDelay::Jitter { max: 3, seed: 7 }] {
        let (mut wheel, mut store) = (Transport::default(), NodeStore::<u64>::new(8));
        let mut seq = 0;
        let mut cycle = |wheel: &mut Transport, store: &mut NodeStore<u64>, round: u64| {
            let mut last = (0, 0);
            wheel.drain_due(round, |due| {
                store.mature(due, &mut last);
            });
            for v in 0..8 {
                while let Some(inbound) = store.pop_inport(v) {
                    std::hint::black_box(inbound);
                }
            }
            // A burst of 0..8 sends a round over eight links.
            for src in 0..(round % 9) as usize {
                seq += 1;
                store.stage(src, (src + 1) % 8, seq);
                let (e, _) = store.pop_outbox(src).expect("just staged");
                wheel.transmit(store, e, round, seq, delay);
            }
        };
        for round in 0..1_000 {
            cycle(&mut wheel, &mut store, round);
        }
        let ((), allocs) =
            counted(|| (1_000..2_000).for_each(|round| cycle(&mut wheel, &mut store, round)));
        assert_eq!(allocs, 0, "{delay:?}: a warm wheel allocated");
    }
}

/// The store's share of "zero allocations in steady state": a store is a
/// constant number of allocations whatever `n` is (the frontiers are
/// bitsets, not per-node lists), and once its slab and the walks' scratch
/// have seen their deepest round, a round of stage, take, transmit,
/// mature and pop allocates nothing, under unit delay and under jitter —
/// also at processors the store has never used, so a queue allocated on
/// its first push fails it.
#[test]
fn a_warm_store_allocates_nothing() {
    use ccq_repro::sim::{state::NodeStore, transport::Transport, LinkDelay};
    let (_, small) = counted(|| NodeStore::<u64>::new(1_024));
    let (_, large) = counted(|| NodeStore::<u64>::new(65_536));
    assert_eq!(small, large, "a store allocated per node: {small} at n = 1 024, {large} at 65 536");

    let n = 4_096;
    // A burst of 0..8 sends a round from nodes spread over the ids; 61 is
    // coprime to n, so the measured rounds keep reaching processors the
    // warm-up rounds never used.
    let burst =
        |round: u64| (0..round % 9).map(move |i| (round as usize * 61 + i as usize * 512) % n);
    let (warm, measured) = (4..1_000, 1_000..2_000);
    for delay in [LinkDelay::Unit, LinkDelay::Jitter { max: 3, seed: 7 }] {
        let (mut store, mut wheel) = (NodeStore::<u64>::new(n), Transport::default());
        let (mut frontier, mut seq, mut last) = (Vec::new(), 0, (0, 0));
        // The jitter clamp keeps a map of the links it has seen, which
        // grows with each new link. Before round `warm.start`, send once on
        // every link the measured rounds use, through a second store, so
        // the map is warm and `store` still meets those processors there
        // for the first time.
        let mut links = NodeStore::<u64>::new(n);
        for v in measured.clone().flat_map(burst) {
            links.stage(v, (v + 1) % n, 0);
            let (e, _) = links.pop_outbox(v).expect("just staged");
            seq += 1;
            wheel.transmit(&mut links, e, 0, seq, delay);
        }
        wheel.drain_due(warm.start, |due| {
            links.mature(due, &mut last);
        });
        let mut cycle = |store: &mut NodeStore<u64>, wheel: &mut Transport, round: u64| {
            for v in burst(round) {
                store.stage(v, (v + 1) % n, round);
            }
            frontier.clear();
            store.take_outbox_frontier(&mut frontier);
            for &v in &frontier {
                if let Some((e, _)) = store.pop_outbox(v) {
                    seq += 1;
                    wheel.transmit(store, e, round, seq, delay);
                }
            }
            let mut last = (0, 0);
            wheel.drain_due(round + 1, |due| {
                store.mature(due, &mut last);
            });
            frontier.clear();
            store.take_inport_frontier(&mut frontier);
            for &v in &frontier {
                std::hint::black_box(store.pop_inport(v));
            }
        };
        for round in warm.clone() {
            cycle(&mut store, &mut wheel, round);
        }
        let ((), allocs) =
            counted(|| measured.clone().for_each(|round| cycle(&mut store, &mut wheel, round)));
        assert_eq!(allocs, 0, "{delay:?}: a warm store allocated");
    }
}

/// Node 0's operation sends a token that makes `hops` hops round
/// `cycle(16)` and completes where it stops: one message per hop, one
/// completion per run.
struct Laps {
    hops: u64,
    units: Vec<()>,
}

impl ccq_repro::sim::Protocol for Laps {
    type Msg = u64;
    type Slice<'s> = &'s mut ();
    type Shared = u64;

    fn nodes(&self) -> usize {
        self.units.len()
    }

    fn at(&mut self, v: usize) -> (&u64, &mut ()) {
        (&self.hops, &mut self.units[v])
    }

    fn requests(&self) -> &[usize] {
        &[0]
    }

    fn issue(_: &u64, _: &mut (), api: &mut ccq_repro::sim::SliceApi<u64>, _: usize) {
        api.send(1, 1);
    }

    fn on_message(
        hops: &u64,
        _: &mut (),
        api: &mut ccq_repro::sim::SliceApi<u64>,
        node: usize,
        _: usize,
        hop: u64,
    ) {
        if hop == *hops {
            api.complete(node, hop);
        } else {
            api.send((node + 1) % 16, hop + 1);
        }
    }
}

/// The staging layer's share of "zero allocations in steady state": a
/// send lands in its outbox and a handler's API is a view, so ten times
/// the messages cost not one allocation more — on the monolith and on
/// striped shards under jitter, whose sends cross the ferry.
#[test]
fn a_run_allocates_nothing_per_message() {
    use ccq_repro::sim::{SimConfig, Simulator};
    let g = ccq_repro::graph::topology::cycle(16);
    let run = |sharded: bool, laps: u64| {
        let protocol = Laps { hops: 16 * laps, units: vec![(); 16] };
        let (report, allocs) = if sharded {
            let part = ccq_repro::graph::Partition::striped(16, 4);
            let cfg = SimConfig::strict().with_jitter(3, 5);
            counted(|| Simulator::new(&g, protocol, cfg).with_cut(&part, cfg.link_delay).run())
        } else {
            counted(|| Simulator::new(&g, protocol, SimConfig::strict()).run())
        };
        (report.expect("runs").messages_sent, allocs)
    };
    for sharded in [false, true] {
        let ((short, few), (long, many)) = (run(sharded, 10), run(sharded, 100));
        assert_eq!((short, long), (160, 1_600));
        assert_eq!(
            few, many,
            "sharded {sharded}: {short} messages, {few} allocations; {long}, {many}"
        );
    }
}

/// An operation that completes the moment it issues, sending nothing.
struct Instant {
    units: Vec<()>,
}

impl ccq_repro::sim::Protocol for Instant {
    type Msg = ();
    type Slice<'s> = &'s mut ();
    type Shared = ();

    fn nodes(&self) -> usize {
        self.units.len()
    }

    fn at(&mut self, v: usize) -> (&(), &mut ()) {
        (&(), &mut self.units[v])
    }

    fn requests(&self) -> &[usize] {
        &[]
    }

    fn issue(_: &(), _: &mut (), api: &mut ccq_repro::sim::SliceApi<()>, node: usize) {
        api.complete(node, 0);
    }

    fn on_message(
        _: &(),
        _: &mut (),
        _: &mut ccq_repro::sim::SliceApi<()>,
        _: usize,
        _: usize,
        _: (),
    ) {
    }
}

/// The arrivals phase keeps one scratch batch across rounds: 512 arrivals
/// at distinct rounds cost the run's fixed state and the report's list
/// doublings, not an allocation per due round.
#[test]
fn arrivals_allocate_nothing_per_due_round() {
    use ccq_repro::sim::{Arrivals, Round, SimConfig, Simulator};
    let n = 512;
    let g = ccq_repro::graph::topology::path(n);
    let schedule: Vec<(Round, usize)> = (0..n).map(|v| (3 * v as Round, v)).collect();
    let sim = Simulator::new(&g, Instant { units: vec![(); n] }, SimConfig::strict())
        .with_arrivals(Arrivals::new(schedule));
    let (report, allocs) = counted(|| sim.run().unwrap());
    assert_eq!((report.ops(), report.issues.len()), (n, n));
    assert!(allocs < 64, "{allocs} allocations for {n} due rounds");
}
