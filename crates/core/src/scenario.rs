//! Scenarios: topology + spanning tree + request set + arrival schedule
//! + admission policy + shard plan.

use ccq_graph::{spanning, topology, Graph, NodeId, Partition, Tree};
use ccq_sim::{LinkDelay, ProbeSpec, Round};

/// How arrivals are admitted against the live backlog: the simulator's own
/// [`ccq_sim::AdmissionPolicy`], under the name plans and sweeps use for it.
/// The active policies only gate an open schedule; a scenario whose arrival
/// is [`ArrivalSpec::OneShot`] but whose admission is active runs on its
/// all-zeros schedule ([`Scenario::open_schedule`]), so the policy can shed
/// or defer even a round-0 batch.
pub use ccq_sim::AdmissionPolicy as AdmissionSpec;
/// *When* the request set issues its operations: the simulator's own type
/// (it carries its seed), as [`LinkDelay`] and [`ProbeSpec`] are.
pub use ccq_sim::ArrivalSpec;
/// Crash/recover fault injection: the simulator's own [`ccq_sim::FaultPlan`]
/// under the name plans and sweeps use for it. Each entry takes one node
/// down for the rounds `[at, recover)` — it neither delivers nor transmits
/// while down, its queues freeze in place, and on recovery it drains them
/// under the protocols' self-stabilizing re-ranking (no state is reset).
pub use ccq_sim::FaultPlan as FaultSpec;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A named interconnection topology with concrete size parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopoSpec {
    /// Complete graph `K_n`.
    Complete { n: usize },
    /// The list (path) on `n` vertices.
    List { n: usize },
    /// 2-D `side × side` mesh.
    Mesh2D { side: usize },
    /// 3-D `side × side × side` mesh.
    Mesh3D { side: usize },
    /// Hypercube of dimension `dim` (`n = 2^dim`).
    Hypercube { dim: usize },
    /// Perfect m-ary tree of the given depth.
    PerfectTree { m: usize, depth: usize },
    /// Star on `n` vertices (hub = 0).
    Star { n: usize },
    /// Caterpillar: spine of `spine` vertices, `legs` leaves each —
    /// a constant-degree, high-diameter family for Theorem 4.13.
    Caterpillar { spine: usize, legs: usize },
    /// The six-node example graph of the paper's Figure 1.
    Figure1,
    /// 2-D `side × side` torus (wraparound mesh) — beyond the paper's list;
    /// contains the mesh's Hamilton path, so Theorem 4.5 applies.
    Torus2D { side: usize },
    /// Random d-regular connected graph — beyond the paper's list; no
    /// Hamilton-path guarantee, so the arrow runs on a BFS tree and the
    /// Corollary 4.2 bound is the operative ceiling.
    RandomRegular { n: usize, d: usize, seed: u64 },
}

impl TopoSpec {
    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            TopoSpec::Complete { n } => format!("complete(n={n})"),
            TopoSpec::List { n } => format!("list(n={n})"),
            TopoSpec::Mesh2D { side } => format!("mesh2d({side}x{side})"),
            TopoSpec::Mesh3D { side } => format!("mesh3d({side}^3)"),
            TopoSpec::Hypercube { dim } => format!("hypercube(d={dim})"),
            TopoSpec::PerfectTree { m, depth } => format!("perfect-{m}ary(depth={depth})"),
            TopoSpec::Star { n } => format!("star(n={n})"),
            TopoSpec::Caterpillar { spine, legs } => format!("caterpillar({spine}x{legs})"),
            TopoSpec::Figure1 => "figure1(n=6)".into(),
            TopoSpec::Torus2D { side } => format!("torus2d({side}x{side})"),
            TopoSpec::RandomRegular { n, d, .. } => format!("random-{d}regular(n={n})"),
        }
    }

    /// Build the graph.
    pub fn graph(&self) -> Graph {
        match *self {
            TopoSpec::Complete { n } => topology::complete(n),
            TopoSpec::List { n } => topology::path(n),
            TopoSpec::Mesh2D { side } => topology::mesh(&[side, side]),
            TopoSpec::Mesh3D { side } => topology::mesh(&[side, side, side]),
            TopoSpec::Hypercube { dim } => topology::hypercube(dim),
            TopoSpec::PerfectTree { m, depth } => topology::perfect_mary_tree(m, depth),
            TopoSpec::Star { n } => topology::star(n),
            TopoSpec::Caterpillar { spine, legs } => topology::caterpillar(spine, legs),
            TopoSpec::Figure1 => topology::figure1(),
            TopoSpec::Torus2D { side } => topology::torus(&[side, side]),
            TopoSpec::RandomRegular { n, d, seed } => topology::random_regular(n, d, seed),
        }
    }

    /// The paper's preferred spanning tree for this topology:
    /// a Hamilton path where one is constructible (Lemma 4.6), the identity
    /// tree for tree topologies, the hub tree for the star, and a BFS tree
    /// otherwise.
    pub fn preferred_tree(&self, graph: &Graph) -> Tree {
        match *self {
            TopoSpec::Complete { n } => {
                spanning::path_tree_from_order(&spanning::hamilton_path_complete(n))
            }
            TopoSpec::List { .. } => spanning::bfs_tree(graph, 0),
            TopoSpec::Mesh2D { side } => spanning::snake_path_tree(&[side, side]),
            TopoSpec::Mesh3D { side } => spanning::snake_path_tree(&[side, side, side]),
            TopoSpec::Hypercube { dim } => {
                spanning::path_tree_from_order(&spanning::hamilton_path_hypercube(dim))
            }
            TopoSpec::PerfectTree { .. } | TopoSpec::Caterpillar { .. } | TopoSpec::Figure1 => {
                spanning::bfs_tree(graph, 0)
            }
            TopoSpec::Star { n } => spanning::star_tree(n, 0),
            // The torus contains every mesh edge, so the mesh snake is a
            // Hamilton path of the torus too.
            TopoSpec::Torus2D { side } => spanning::snake_path_tree(&[side, side]),
            TopoSpec::RandomRegular { .. } => spanning::bfs_tree(graph, 0),
        }
    }

    /// A spanning tree suited to *counting* algorithms (low depth, constant
    /// degree where the topology allows): balanced binary on the complete
    /// graph, BFS from an approximate center elsewhere.
    pub fn counting_tree(&self, graph: &Graph) -> Tree {
        match *self {
            TopoSpec::Complete { n } => spanning::balanced_binary_tree(n),
            _ => spanning::center_bfs_tree(graph, 0),
        }
    }
}

/// Which subset of processors issues operations at time 0.
#[derive(Clone, Debug)]
pub enum RequestPattern {
    /// Every processor requests (`R = V`, the lower-bound worst case).
    All,
    /// Each processor requests independently with probability `density`.
    Random { density: f64, seed: u64 },
    /// The `count` processors with the largest indices (a far-away cluster).
    TailCluster { count: usize },
    /// An explicit set.
    Custom(Vec<NodeId>),
}

impl RequestPattern {
    /// Short display name (used by sweeps and the CLI).
    pub fn name(&self) -> String {
        match self {
            RequestPattern::All => "all".into(),
            RequestPattern::Random { density, seed } => {
                format!("random(d={density},seed={seed})")
            }
            RequestPattern::TailCluster { count } => format!("tail(count={count})"),
            RequestPattern::Custom(v) => format!("custom(|R|={})", v.len()),
        }
    }

    /// A deterministically re-seeded copy for repeat `salt` of a sweep:
    /// random patterns draw a fresh request set per repeat, everything else
    /// is unchanged (`salt` 0 always returns `self` verbatim).
    pub fn reseed(&self, salt: u64) -> RequestPattern {
        match self {
            RequestPattern::Random { density, seed } if salt > 0 => RequestPattern::Random {
                density: *density,
                seed: seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            },
            other => other.clone(),
        }
    }

    /// Materialize the request set for an `n`-vertex graph (sorted).
    pub fn materialize(&self, n: usize) -> Vec<NodeId> {
        match self {
            RequestPattern::All => (0..n).collect(),
            RequestPattern::Random { density, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut r: Vec<NodeId> =
                    (0..n).filter(|_| rng.random::<f64>() < *density).collect();
                if r.is_empty() && n > 0 {
                    // Keep scenarios non-degenerate.
                    r.push(rng.random_range(0..n));
                }
                r
            }
            RequestPattern::TailCluster { count } => {
                let c = (*count).min(n);
                (n - c..n).collect()
            }
            RequestPattern::Custom(v) => {
                let mut v = v.clone();
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }
}

/// How requesters are split into priority classes (0 = highest).
///
/// `Uniform` is the default: no classes, and executions are byte-identical
/// to scenarios built before priorities existed. `Split` tags each node
/// class 0 with probability `frac` (class 1 otherwise) using a private
/// seeded stream; the run's arrivals phase then orders each same-round due
/// batch by relaxed power-of-two-choices priority selection
/// ([`ccq_sim::Arrivals::with_priority`]), so class-0 arrivals reach the
/// admission gate — and the combining waves — first with high probability.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum PrioritySpec {
    /// One class; arrivals keep their schedule order.
    #[default]
    Uniform,
    /// Two classes: node is class 0 (high) with probability `frac`.
    Split {
        /// Probability a node is high-priority, in `[0, 1]`.
        frac: f64,
        /// Class-assignment and selection seed.
        seed: u64,
    },
}

impl PrioritySpec {
    /// Short display name (used by sweeps and the CLI).
    pub fn name(&self) -> String {
        match self {
            PrioritySpec::Uniform => "uniform".into(),
            PrioritySpec::Split { frac, seed } => format!("split(frac={frac},seed={seed})"),
        }
    }

    /// Whether any prioritization happens at all.
    pub fn is_active(&self) -> bool {
        !matches!(self, PrioritySpec::Uniform)
    }

    /// A deterministically re-seeded copy for repeat `salt` of a sweep
    /// (`salt` 0 always returns `self` verbatim).
    pub fn reseed(&self, salt: u64) -> PrioritySpec {
        match *self {
            PrioritySpec::Split { frac, seed } if salt > 0 => PrioritySpec::Split {
                frac,
                seed: seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            },
            other => other,
        }
    }

    /// The per-node class map for an `n`-vertex graph (empty when
    /// inactive, which disables prioritization in the arrivals phase).
    pub fn classes(&self, n: usize) -> Vec<u8> {
        match *self {
            PrioritySpec::Uniform => Vec::new(),
            PrioritySpec::Split { frac, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..n).map(|_| u8::from(rng.random::<f64>() >= frac)).collect()
            }
        }
    }

    /// The seed feeding the arrivals phase's selection draws (0 when
    /// inactive — unused then).
    pub fn seed(&self) -> u64 {
        match *self {
            PrioritySpec::Uniform => 0,
            PrioritySpec::Split { seed, .. } => seed,
        }
    }
}

/// How a scenario's graph is split across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous id blocks (optimal for path/snake-ordered topologies).
    Contiguous,
    /// Round-robin by `v mod k` (maximal-cut baseline).
    Striped,
    /// METIS-style greedy edge-cut minimization
    /// ([`Partition::greedy_edge_cut`]).
    EdgeCut,
}

impl ShardStrategy {
    /// Short display name (the CLI token).
    pub fn label(self) -> &'static str {
        match self {
            ShardStrategy::Contiguous => "contig",
            ShardStrategy::Striped => "stripe",
            ShardStrategy::EdgeCut => "edgecut",
        }
    }
}

/// Shard plan of a scenario: how many shards, how vertices are assigned,
/// and how fast the inter-shard ferry is.
///
/// `k = 1` (the default, [`ShardSpec::single`]) runs unsharded and
/// reproduces unsharded reports exactly. For `k > 1` the run is cut by the
/// scenario's partition ([`ccq_sim::Simulator::with_cut`]), which is also
/// the map shard-scoped admission counts on; with `inter_delay` of `None`
/// the ferry inherits the run's intra-shard delay policy, under which the
/// execution is operationally identical to the unsharded one (the sharding
/// only adds the cross-shard traffic measurement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards (≥ 1).
    pub k: usize,
    /// Vertex-assignment strategy.
    pub strategy: ShardStrategy,
    /// Ferry delay policy (`None` = same as the intra-shard policy).
    pub inter_delay: Option<LinkDelay>,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::single()
    }
}

impl ShardSpec {
    /// The unsharded plan: one shard, everything local.
    pub fn single() -> Self {
        ShardSpec { k: 1, strategy: ShardStrategy::Contiguous, inter_delay: None }
    }

    /// A `k`-shard plan under `strategy` with the default ferry.
    pub fn new(k: usize, strategy: ShardStrategy) -> Self {
        ShardSpec { k: k.max(1), strategy, inter_delay: None }
    }

    /// Builder-style: give the inter-shard ferry its own delay policy.
    pub fn with_inter_delay(mut self, delay: LinkDelay) -> Self {
        self.inter_delay = Some(delay);
        self
    }

    /// Whether this plan actually splits the graph (`k > 1`).
    pub fn is_sharded(&self) -> bool {
        self.k > 1
    }

    /// Short display name (used by sweeps and the CLI): `"1"`, `"4"`,
    /// `"4:stripe"`, `"4:edgecut+inter=fixed(d=8)"`.
    pub fn name(&self) -> String {
        let mut s = match self.strategy {
            ShardStrategy::Contiguous => self.k.to_string(),
            other => format!("{}:{}", self.k, other.label()),
        };
        if let Some(d) = self.inter_delay {
            s.push_str(&format!("+inter={}", d.name()));
        }
        s
    }

    /// Materialize the vertex partition for `graph`.
    pub fn partition(&self, graph: &Graph) -> Partition {
        match self.strategy {
            ShardStrategy::Contiguous => Partition::contiguous(graph.n(), self.k),
            ShardStrategy::Striped => Partition::striped(graph.n(), self.k),
            ShardStrategy::EdgeCut => Partition::greedy_edge_cut(graph, self.k),
        }
    }
}

/// A fully-materialized experiment input.
pub struct Scenario {
    /// Topology descriptor (for reporting).
    pub spec: TopoSpec,
    /// The interconnection graph `G`.
    pub graph: Graph,
    /// Spanning tree used by queuing (the paper-preferred tree).
    pub queuing_tree: Tree,
    /// Spanning tree used by tree-based counting algorithms.
    pub counting_tree: Tree,
    /// The request set `R`, sorted.
    pub requests: Vec<NodeId>,
    /// Initial token / counter-root placement.
    pub tail: NodeId,
    /// When the requests issue (defaults to the one-shot batch).
    pub arrival: ArrivalSpec,
    /// Materialized issue schedule (`(round, node)` sorted by round; all
    /// zeros for `OneShot`).
    pub schedule: Vec<(Round, NodeId)>,
    /// Admission policy gating the schedule ([`AdmissionSpec::Open`] =
    /// everything admitted, the pre-backpressure behaviour).
    pub admission: AdmissionSpec,
    /// Priority classes over the requesters ([`PrioritySpec::Uniform`] =
    /// no classes, the pre-priority behaviour).
    pub priority: PrioritySpec,
    /// Crash/recover fault plan ([`FaultSpec::none`] = fault-free). The
    /// run's one fault plan: every run of the scenario borrows it
    /// ([`ccq_sim::Simulator::with_faults`]).
    pub faults: FaultSpec,
    /// Shard plan ([`ShardSpec::single`] = the unsharded executor). Set it
    /// through [`Scenario::with_shards`], which also builds the partition
    /// the runs cut by; a sharded plan assigned here directly has no
    /// partition of its own shard count and strategy, and its runs fail
    /// with [`ccq_sim::SimError::InvalidConfig`].
    pub shards: ShardSpec,
    /// Execution probe: checkpoint hashing, snapshots, perturbation and
    /// phase timing ([`ProbeSpec::OFF`] by default — no probe work at
    /// all, and probe data never reaches the serialized [`ccq_sim::
    /// SimReport`], so probed runs stay byte-identical to unprobed ones).
    /// The run's one probe: it replaces any probe on the `SimConfig`.
    pub probe: ProbeSpec,
    /// [`Scenario::partition`] and the plan it was built for, set by
    /// [`Scenario::with_shards`] for a sharded plan.
    pub(crate) partition: Option<(ShardSpec, Partition)>,
}

/// Checkpoint interval `ccq record` installs when its argv names none:
/// frequent enough to localize divergence usefully, sparse enough to stay
/// cheap on long open-system runs.
pub const DEFAULT_RECORD_EVERY: Round = 64;

impl Scenario {
    /// Build a scenario with the paper-preferred trees, the tail at the
    /// queuing tree's root and the one-shot arrival batch.
    pub fn build(spec: TopoSpec, pattern: RequestPattern) -> Scenario {
        Self::build_with(spec, pattern, ArrivalSpec::OneShot)
    }

    /// Build a scenario with an explicit arrival specification: the
    /// topology, then the request set ([`Scenario::with_pattern`]).
    pub fn build_with(spec: TopoSpec, pattern: RequestPattern, arrival: ArrivalSpec) -> Scenario {
        let graph = spec.graph();
        let queuing_tree = spec.preferred_tree(&graph);
        let counting_tree = spec.counting_tree(&graph);
        let tail = queuing_tree.root();
        let topology = Scenario {
            spec,
            graph,
            queuing_tree,
            counting_tree,
            requests: Vec::new(),
            tail,
            arrival,
            schedule: Vec::new(),
            admission: AdmissionSpec::Open,
            priority: PrioritySpec::Uniform,
            faults: FaultSpec::none(),
            shards: ShardSpec::single(),
            probe: ProbeSpec::OFF,
            partition: None,
        };
        topology.with_pattern(pattern)
    }

    /// Builder-style: issue `pattern`'s request set, materialized over the
    /// graph, on the scenario's own arrival. The only place requests and
    /// their schedule are built: the graph, both trees, the tail and the
    /// shard partition stay as they are, so a sweep over request sets on
    /// one topology builds the topology once.
    ///
    /// ```
    /// use ccq_core::prelude::*;
    ///
    /// let s = Scenario::build(TopoSpec::List { n: 8 }, RequestPattern::All);
    /// let s = s.with_pattern(RequestPattern::TailCluster { count: 3 });
    /// assert_eq!(s.requests, [5, 6, 7]);
    /// ```
    pub fn with_pattern(mut self, pattern: RequestPattern) -> Self {
        self.requests = pattern.materialize(self.n());
        self.schedule = self.arrival.materialize(&self.requests);
        self
    }

    /// Builder-style: run this scenario under a shard plan, building its
    /// partition here when the plan is sharded ([`Scenario::partition`]).
    ///
    /// ```
    /// use ccq_core::prelude::*;
    ///
    /// let s = Scenario::build(TopoSpec::Torus2D { side: 4 }, RequestPattern::All)
    ///     .with_shards(ShardSpec::new(4, ShardStrategy::EdgeCut));
    /// let out = run_spec(&ccq_core::protocol::Arrow, &s, ModelMode::Expanded).unwrap();
    /// assert_eq!(out.order.len(), 16);
    /// assert!(out.report.cross_shard_messages > 0);
    /// ```
    pub fn with_shards(mut self, shards: ShardSpec) -> Self {
        self.shards = shards;
        self.partition = shards.is_sharded().then(|| (shards, shards.partition(&self.graph)));
        self
    }

    /// The vertex partition of a sharded [`Scenario::shards`] over the
    /// graph, built once where the plan is set ([`Scenario::with_shards`];
    /// `None` for an unsharded plan, and for one assigned to the field
    /// directly unless the partition built last has its `k` and strategy):
    /// every sharded run of the scenario — each protocol × mode × delay
    /// case of a sweep's work group, the run of cases that shares one
    /// [`crate::plan::RunCase::scenario`] — borrows the one partition as
    /// its cut (which per-node admission also counts on), and no run
    /// builds it, so a case allocates the same whichever case runs first.
    pub fn partition(&self) -> Option<&Partition> {
        let (built_for, partition) = self.partition.as_ref()?;
        let cut = |s: &ShardSpec| (s.k, s.strategy);
        (cut(built_for) == cut(&self.shards)).then_some(partition)
    }

    /// Retired: a no-op, kept so callers written against the sliced
    /// apply path still compile. Every sharded run takes the one
    /// serialized deliver walk, whose bytes the sliced apply reproduced.
    pub fn with_parallel_apply(self, _on: bool) -> Self {
        self
    }

    /// Builder-style: gate arrivals through an admission policy.
    pub fn with_admission(mut self, admission: AdmissionSpec) -> Self {
        self.admission = admission;
        self
    }

    /// Builder-style: split the requesters into priority classes.
    pub fn with_priority(mut self, priority: PrioritySpec) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style: inject crash/recover faults.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: install an execution probe (built with
    /// [`ProbeSpec`]'s own `with_*` methods, starting from
    /// [`ProbeSpec::OFF`] or from [`Scenario::probe`]).
    pub fn with_probe(mut self, probe: ProbeSpec) -> Self {
        self.probe = probe;
        self
    }

    /// The open schedule a run of this scenario issues from
    /// ([`ccq_sim::Simulator::with_arrivals`]): open arrivals always have
    /// one; a one-shot batch does too when an *active* admission policy
    /// must gate it, when priority classes must reorder it, or when a
    /// fault plan must be able to defer arrivals at crashed nodes. `None`
    /// means the run issues the one-shot batch, which records no issue
    /// (byte-identical to the pre-open-system engine).
    pub fn open_schedule(&self) -> Option<&[(Round, NodeId)]> {
        if self.arrival.is_open()
            || self.admission.is_active()
            || self.priority.is_active()
            || self.faults.is_active()
        {
            Some(&self.schedule)
        } else {
            None
        }
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of requesters `|R|`.
    pub fn k(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_build_valid_scenarios() {
        let specs = [
            TopoSpec::Complete { n: 9 },
            TopoSpec::List { n: 9 },
            TopoSpec::Mesh2D { side: 3 },
            TopoSpec::Mesh3D { side: 2 },
            TopoSpec::Hypercube { dim: 3 },
            TopoSpec::PerfectTree { m: 2, depth: 3 },
            TopoSpec::Star { n: 9 },
            TopoSpec::Caterpillar { spine: 4, legs: 2 },
        ];
        for spec in specs {
            let s = Scenario::build(spec.clone(), RequestPattern::All);
            assert!(s.graph.is_connected(), "{}", spec.name());
            assert!(s.queuing_tree.is_spanning_tree_of(&s.graph), "{}", spec.name());
            assert!(s.counting_tree.is_spanning_tree_of(&s.graph), "{}", spec.name());
            assert_eq!(s.k(), s.n());
        }
    }

    #[test]
    fn hamilton_trees_have_degree_two() {
        for spec in [
            TopoSpec::Complete { n: 16 },
            TopoSpec::Mesh2D { side: 4 },
            TopoSpec::Hypercube { dim: 4 },
            TopoSpec::Torus2D { side: 4 },
        ] {
            let s = Scenario::build(spec, RequestPattern::All);
            assert!(s.queuing_tree.max_degree() <= 2);
        }
    }

    #[test]
    fn extended_specs_build_valid_scenarios() {
        for spec in [
            TopoSpec::Torus2D { side: 4 },
            TopoSpec::RandomRegular { n: 20, d: 3, seed: 5 },
            TopoSpec::Figure1,
        ] {
            let s = Scenario::build(spec.clone(), RequestPattern::All);
            assert!(s.graph.is_connected(), "{}", spec.name());
            assert!(s.queuing_tree.is_spanning_tree_of(&s.graph), "{}", spec.name());
            assert!(s.counting_tree.is_spanning_tree_of(&s.graph), "{}", spec.name());
        }
    }

    /// One small spec of every family (the match lists each, so a new
    /// family fails to compile here until it is added).
    fn every_family() -> Vec<TopoSpec> {
        let specs = vec![
            TopoSpec::Complete { n: 12 },
            TopoSpec::List { n: 11 },
            TopoSpec::Mesh2D { side: 4 },
            TopoSpec::Mesh3D { side: 3 },
            TopoSpec::Hypercube { dim: 4 },
            TopoSpec::PerfectTree { m: 3, depth: 2 },
            TopoSpec::Star { n: 10 },
            TopoSpec::Caterpillar { spine: 5, legs: 2 },
            TopoSpec::Figure1,
            TopoSpec::Torus2D { side: 5 },
            TopoSpec::RandomRegular { n: 14, d: 3, seed: 9 },
        ];
        for spec in &specs {
            match spec {
                TopoSpec::Complete { .. }
                | TopoSpec::List { .. }
                | TopoSpec::Mesh2D { .. }
                | TopoSpec::Mesh3D { .. }
                | TopoSpec::Hypercube { .. }
                | TopoSpec::PerfectTree { .. }
                | TopoSpec::Star { .. }
                | TopoSpec::Caterpillar { .. }
                | TopoSpec::Figure1
                | TopoSpec::Torus2D { .. }
                | TopoSpec::RandomRegular { .. } => {}
            }
        }
        specs
    }

    #[test]
    fn with_pattern_equals_build_with() {
        let patterns = [
            RequestPattern::All,
            RequestPattern::Random { density: 0.4, seed: 17 },
            RequestPattern::TailCluster { count: 4 },
            RequestPattern::Custom(vec![5, 1, 5, 3]),
        ];
        let arrivals = [ArrivalSpec::OneShot, ArrivalSpec::Poisson { rate: 0.5, seed: 3 }];
        let plan = ShardSpec::new(3, ShardStrategy::EdgeCut);
        for spec in every_family() {
            for arrival in &arrivals {
                // Built on another request set, sharded, then swapped.
                let build = |p: RequestPattern| {
                    Scenario::build_with(spec.clone(), p, arrival.clone()).with_shards(plan)
                };
                let mut swapped = build(RequestPattern::TailCluster { count: 1 });
                for pattern in &patterns {
                    swapped = swapped.with_pattern(pattern.clone());
                    let built = build(pattern.clone());
                    let at = format!("{} / {} / {arrival:?}", spec.name(), pattern.name());
                    assert_eq!(swapped.requests, built.requests, "{at}");
                    assert_eq!(swapped.tail, built.tail, "{at}");
                    assert_eq!(swapped.schedule, built.schedule, "{at}");
                    assert_eq!(swapped.arrival, built.arrival, "{at}");
                    assert_eq!(swapped.spec, built.spec, "{at}");
                    let n = built.n();
                    assert_eq!(swapped.n(), n, "{at}");
                    for v in 0..n {
                        let rows =
                            [&swapped, &built].map(|s| s.graph.neighbors(v).collect::<Vec<_>>());
                        assert_eq!(rows[0], rows[1], "{at}: row {v}");
                    }
                    let trees = [
                        (&swapped.queuing_tree, &built.queuing_tree),
                        (&swapped.counting_tree, &built.counting_tree),
                    ];
                    for (a, b) in trees {
                        assert_eq!(a.root(), b.root(), "{at}");
                        assert!((0..n).all(|v| a.parent(v) == b.parent(v)), "{at}");
                        assert!(a.bfs_order().eq(b.bfs_order()), "{at}");
                    }
                    assert_eq!(swapped.partition(), built.partition(), "{at}");
                    assert!(swapped.partition().is_some(), "{at}");
                }
            }
        }
    }

    #[test]
    fn random_pattern_is_seeded() {
        let a = RequestPattern::Random { density: 0.4, seed: 3 }.materialize(100);
        let b = RequestPattern::Random { density: 0.4, seed: 3 }.materialize(100);
        assert_eq!(a, b);
        let c = RequestPattern::Random { density: 0.4, seed: 4 }.materialize(100);
        assert_ne!(a, c);
    }

    #[test]
    fn random_pattern_never_empty() {
        let r = RequestPattern::Random { density: 0.0, seed: 1 }.materialize(10);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn tail_cluster() {
        let r = RequestPattern::TailCluster { count: 3 }.materialize(10);
        assert_eq!(r, vec![7, 8, 9]);
        let r = RequestPattern::TailCluster { count: 99 }.materialize(4);
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn custom_dedups_and_sorts() {
        let r = RequestPattern::Custom(vec![5, 1, 5, 3]).materialize(10);
        assert_eq!(r, vec![1, 3, 5]);
    }

    #[test]
    fn one_shot_scenarios_have_zero_schedule_and_no_open_view() {
        let s = Scenario::build(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All);
        assert_eq!(s.arrival, ArrivalSpec::OneShot);
        assert!(s.open_schedule().is_none());
        assert_eq!(s.schedule.len(), s.k());
        assert!(s.schedule.iter().all(|&(r, _)| r == 0));
    }

    #[test]
    fn open_scenarios_expose_a_complete_schedule() {
        let arrival = ArrivalSpec::Poisson { rate: 0.3, seed: 5 };
        let s = Scenario::build_with(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All, arrival);
        let sched = s.open_schedule().expect("open");
        assert_eq!(sched.len(), s.k());
        let mut nodes: Vec<NodeId> = sched.iter().map(|&(_, v)| v).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, s.requests);
        // Deterministic rebuild.
        let s2 = Scenario::build_with(
            TopoSpec::Mesh2D { side: 3 },
            RequestPattern::All,
            ArrivalSpec::Poisson { rate: 0.3, seed: 5 },
        );
        assert_eq!(s.schedule, s2.schedule);
    }

    #[test]
    fn shard_specs_name_partition_and_default() {
        let s = Scenario::build(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All);
        assert_eq!(s.shards, ShardSpec::single());
        assert!(!s.shards.is_sharded());
        assert_eq!(ShardSpec::single().name(), "1");
        assert_eq!(ShardSpec::new(4, ShardStrategy::Contiguous).name(), "4");
        assert_eq!(ShardSpec::new(4, ShardStrategy::Striped).name(), "4:stripe");
        assert_eq!(
            ShardSpec::new(2, ShardStrategy::EdgeCut)
                .with_inter_delay(LinkDelay::Fixed { delay: 8 })
                .name(),
            "2:edgecut+inter=fixed(d=8)"
        );
        // k is clamped to ≥ 1 and the partition covers the graph.
        assert_eq!(ShardSpec::new(0, ShardStrategy::Striped).k, 1);
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::Striped, ShardStrategy::EdgeCut]
        {
            let part = ShardSpec::new(3, strategy).partition(&s.graph);
            assert_eq!(part.n(), s.n(), "{}", strategy.label());
            assert_eq!(part.k(), 3);
        }
        let sharded = s.with_shards(ShardSpec::new(2, ShardStrategy::EdgeCut));
        assert!(sharded.shards.is_sharded());
    }

    #[test]
    fn priority_specs_name_reseed_and_classify() {
        assert_eq!(PrioritySpec::Uniform.name(), "uniform");
        assert!(!PrioritySpec::Uniform.is_active());
        assert!(PrioritySpec::Uniform.classes(8).is_empty());
        let p = PrioritySpec::Split { frac: 0.3, seed: 9 };
        assert_eq!(p.name(), "split(frac=0.3,seed=9)");
        assert!(p.is_active());
        assert_eq!(p.reseed(0), p);
        assert_ne!(p.reseed(2), p);
        assert_eq!(PrioritySpec::Uniform.reseed(5), PrioritySpec::Uniform);
        // Deterministic two-class assignment with roughly `frac` zeros.
        let classes = p.classes(400);
        assert_eq!(classes, p.classes(400));
        assert!(classes.iter().all(|&c| c <= 1));
        let high = classes.iter().filter(|&&c| c == 0).count();
        assert!((60..=180).contains(&high), "frac=0.3 of 400 gave {high} high-priority nodes");
        // Everything high / everything low at the extremes.
        assert!(PrioritySpec::Split { frac: 1.0, seed: 1 }.classes(50).iter().all(|&c| c == 0));
        assert!(PrioritySpec::Split { frac: 0.0, seed: 1 }.classes(50).iter().all(|&c| c == 1));
    }

    #[test]
    fn fault_specs_name_plan_and_cap() {
        assert_eq!(FaultSpec::none().name(), "none");
        assert!(!FaultSpec::none().is_active());
        assert!(FaultSpec::none().crashes.is_empty());
        let f = FaultSpec::none().crash(3, 8, 16).crash(5, 2, 4);
        assert!(f.is_active());
        assert_eq!(f.name(), "crash(node=3,at=8,recover=16)+crash(node=5,at=2,recover=4)");
        // The scenario's spec is the engine's plan: nothing to resolve.
        assert!(f.is_down(3, 8) && !f.is_down(3, 16));
        // The library caps nothing; only `ccq sweep --fault` stops at 4.
        let five = (0..5).fold(FaultSpec::none(), |f, node| f.crash(node, 1, 2));
        assert_eq!(five.crashes.len(), 5);
        assert!(five.validate(5).is_ok());
    }

    #[test]
    fn priority_and_faults_route_onto_the_paced_path() {
        let base = Scenario::build(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All);
        assert!(base.open_schedule().is_none());
        let prioritized = Scenario::build(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All)
            .with_priority(PrioritySpec::Split { frac: 0.5, seed: 1 });
        assert!(prioritized.open_schedule().is_some());
        let faulted = Scenario::build(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All)
            .with_faults(FaultSpec::none().crash(0, 2, 5));
        assert!(faulted.open_schedule().is_some());
    }
}
