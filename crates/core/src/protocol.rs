//! The protocol registry: one value per runnable protocol.
//!
//! A [`ProtocolSpec`] is one variant of a closed enum — the protocols the
//! paper compares, plus the relaxed CRDT baseline — and knows its display
//! name, its [`ProtocolKind`] (which also fixes the output contract — total
//! order for queuing, rank set for counting), which of a [`Scenario`]'s
//! spanning trees it runs on, how to instantiate itself on the simulator
//! and how to verify its output. The global [`registry`] enumerates every
//! protocol, so experiment drivers, sweeps ([`crate::plan::RunPlan`]) and
//! the `ccq` CLI iterate over values; [`run_spec`] is the single execution
//! path.
//!
//! ```
//! use ccq_core::prelude::*;
//!
//! let s = Scenario::build(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All);
//! for spec in registry() {
//!     let out = run_spec(spec, &s, ModelMode::Strict).unwrap();
//!     assert_eq!(out.order.len(), s.k(), "{}", spec.name());
//! }
//! ```

use crate::run::{config_for, ModelMode, RunError, RunOutcome};
use crate::scenario::Scenario;
use ccq_counting::network::{bitonic, periodic, toggle_tree};
use ccq_counting::{
    verify_ranks, verify_relaxed_ranks, CentralCounterProtocol, CombiningTreeProtocol,
    CountingNetworkProtocol, CrdtCounterProtocol,
};
use ccq_graph::{NodeId, Tree};
use ccq_queuing::{
    verify_total_order, ArrowProtocol, CentralQueueProtocol, CombiningQueueProtocol,
};
use ccq_sim::{Arrivals, LinkDelay, Protocol, SimConfig, SimError, SimReport, Simulator};
use serde::Serialize;

/// Run a protocol on `scenario`, honouring its arrival specification,
/// admission policy, priority classes, shard plan, probe and fault plan:
/// the run issues the one-shot batch unless the scenario has an open
/// schedule ([`Scenario::open_schedule`]), which it then issues from,
/// gated by the scenario's [`crate::scenario::AdmissionSpec`] against the
/// *global* backlog. The scenario is the one owner of the run's probe and
/// fault plan: its probe replaces whatever `cfg` carried, its fault plan
/// is the one the run borrows, and every other field of `cfg` is honoured
/// as it stands. A sharded plan runs cut by the scenario's (borrowed)
/// partition — the one place the ferry defaults to the run's delay; one
/// with no partition of its own (assigned to [`Scenario::shards`] rather
/// than set through [`Scenario::with_shards`]) is a config error.
fn dispatch<P: Protocol>(
    scenario: &Scenario,
    cfg: SimConfig,
    protocol: P,
) -> Result<SimReport, SimError> {
    let cfg = cfg.with_probe(scenario.probe);
    let mut sim = Simulator::new(&scenario.graph, protocol, cfg).with_faults(&scenario.faults);
    if let Some(schedule) = scenario.open_schedule() {
        let mut arrivals = Arrivals::new(schedule.to_vec()).with_admission(scenario.admission);
        if scenario.priority.is_active() {
            let classes = scenario.priority.classes(scenario.n());
            arrivals = arrivals.with_priority(classes, scenario.priority.seed());
        }
        sim = sim.with_arrivals(arrivals);
    }
    let shards = &scenario.shards;
    if shards.is_sharded() {
        let partition = scenario.partition().ok_or_else(|| {
            SimError::invalid_config("a sharded plan is set through Scenario::with_shards")
        })?;
        sim = sim.with_cut(partition, shards.inter_delay.unwrap_or(cfg.link_delay));
    }
    let mut report = sim.run()?;
    // The class map joins the summary's per-class metrics. Post-run and
    // never serialized, so probed, recorded and replayed runs stay
    // byte-identical whether or not classes are in play.
    if scenario.priority.is_active() {
        report.node_class = scenario.priority.classes(scenario.n());
    }
    Ok(report)
}

/// What a protocol computes, which also fixes its verification contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum ProtocolKind {
    /// Distributed queuing: every requester learns its predecessor; the
    /// execution must form one valid total order.
    Queuing,
    /// Distributed counting: every requester learns a rank; the handed-out
    /// ranks must be exactly `{1, …, |R|}`.
    Counting,
    /// Relaxed (coordination-free) counting: every requester learns a
    /// locally-merged rank in `1..=|R|`, duplicates legal — the CRDT
    /// baseline whose consistency debt QQC lateness quantifies. Kept out
    /// of [`ProtocolKind::Counting`] so exact-counting comparisons
    /// (`best_counting`, the paper-gap verdicts) never mix in a protocol
    /// that does not meet the exact contract.
    Relaxed,
}

impl ProtocolKind {
    /// Lower-case label used in tables and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Queuing => "queuing",
            ProtocolKind::Counting => "counting",
            ProtocolKind::Relaxed => "relaxed",
        }
    }

    /// The paper's mode convention: queuing runs with expanded steps (the
    /// Theorem 4.5 setup), counting — exact or relaxed — in the strict
    /// model.
    pub fn paper_mode(self) -> ModelMode {
        match self {
            ProtocolKind::Queuing => ModelMode::Expanded,
            ProtocolKind::Counting | ProtocolKind::Relaxed => ModelMode::Strict,
        }
    }
}

/// The paper's default width rule for network-style counters:
/// `clamp(2^⌈lg √n⌉, 2, 32)`.
pub fn default_width(n: usize) -> usize {
    let target = (n as f64).sqrt().ceil() as usize;
    target.next_power_of_two().clamp(2, 32)
}

/// An explicit width, or the [`default_width`] rule on `n` processors — the
/// one copy of that choice, read by both `effective_width` and `execute`.
fn width_or_default(width: Option<usize>, n: usize) -> usize {
    width.unwrap_or_else(|| default_width(n))
}

/// A runnable protocol: name, kind, instantiation and verification.
///
/// A plain value. The width-parameterized variants ([`CountingNetwork`],
/// [`PeriodicNetwork`], [`ToggleTree`]) take an explicit width, or `None`
/// for the [`default_width`] rule the [`registry`] entries use. No method
/// matches with a wildcard, so a new variant fails to compile until every
/// one names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// The arrow protocol (path reversal on the queuing tree).
    Arrow,
    /// Arrow with the predecessor identity routed back to the origin.
    ArrowNotify,
    /// Centralized home-node queue (baseline).
    CentralQueue,
    /// Combining-tree queue (tree-aggregation baseline).
    CombiningQueue,
    /// Centralized counter at the counting tree's root.
    CentralCounter,
    /// Software combining tree on the counting tree.
    CombiningTree,
    /// Bitonic counting network.
    CountingNetwork {
        /// Explicit network width (power of two), or `None` for the rule.
        width: Option<usize>,
    },
    /// Periodic counting network.
    PeriodicNetwork {
        /// Explicit network width (power of two), or `None` for the rule.
        width: Option<usize>,
    },
    /// Toggle-tree counter.
    ToggleTree {
        /// Explicit leaf count (power of two), or `None` for the rule.
        leaves: Option<usize>,
    },
    /// Coordination-free CRDT counter on the counting tree (relaxed ranks).
    CrdtCounter,
}

pub use ProtocolSpec::*;

/// `case.protocol.as_ref()` in `benchmark/src/trace.rs`, written when a
/// case held a boxed spec, resolves here (ROADMAP item 2 deletes it).
impl AsRef<ProtocolSpec> for ProtocolSpec {
    fn as_ref(&self) -> &ProtocolSpec {
        self
    }
}

impl ProtocolSpec {
    /// Display name (stable; used for registry lookup and reporting).
    pub fn name(&self) -> &'static str {
        match self {
            Arrow => "arrow",
            ArrowNotify => "arrow+notify",
            CentralQueue => "central-queue",
            CombiningQueue => "combining-queue",
            CentralCounter => "central-counter",
            CombiningTree => "combining-tree",
            CountingNetwork { .. } => "counting-network",
            PeriodicNetwork { .. } => "periodic-network",
            ToggleTree { .. } => "toggle-tree",
            CrdtCounter => "crdt-counter",
        }
    }

    /// Queuing, counting or relaxed.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            Arrow | ArrowNotify | CentralQueue | CombiningQueue => ProtocolKind::Queuing,
            CentralCounter
            | CombiningTree
            | CountingNetwork { .. }
            | PeriodicNetwork { .. }
            | ToggleTree { .. } => ProtocolKind::Counting,
            CrdtCounter => ProtocolKind::Relaxed,
        }
    }

    /// The width/leaves this spec resolves to on an `n`-processor scenario
    /// (`None` for protocols without a width parameter).
    pub fn effective_width(&self, n: usize) -> Option<usize> {
        let width = match *self {
            CountingNetwork { width } | PeriodicNetwork { width } => width,
            ToggleTree { leaves } => leaves,
            Arrow | ArrowNotify | CentralQueue | CombiningQueue | CentralCounter
            | CombiningTree | CrdtCounter => return None,
        };
        Some(width_or_default(width, n))
    }

    /// This network at the explicit width `w`; `None` for protocols
    /// without a width parameter.
    pub fn with_width(&self, w: usize) -> Option<Self> {
        let width = Some(w);
        match self {
            CountingNetwork { .. } => Some(CountingNetwork { width }),
            PeriodicNetwork { .. } => Some(PeriodicNetwork { width }),
            ToggleTree { .. } => Some(ToggleTree { leaves: width }),
            Arrow | ArrowNotify | CentralQueue | CombiningQueue | CentralCounter
            | CombiningTree | CrdtCounter => None,
        }
    }

    /// The spanning tree this protocol runs on.
    pub fn tree<'a>(&self, scenario: &'a Scenario) -> &'a Tree {
        match self.kind() {
            ProtocolKind::Queuing => &scenario.queuing_tree,
            ProtocolKind::Counting | ProtocolKind::Relaxed => &scenario.counting_tree,
        }
    }

    /// Instantiate on `scenario` and run to quiescence under `cfg`.
    pub fn execute(&self, s: &Scenario, cfg: SimConfig) -> Result<SimReport, SimError> {
        let (q, c, r) = (&s.queuing_tree, &s.counting_tree, &s.requests);
        let network = |net| CountingNetworkProtocol::with_network(&s.graph, c, r, net);
        let w = |width| width_or_default(width, s.n());
        match *self {
            Arrow => dispatch(s, cfg, ArrowProtocol::new(q, s.tail, r)),
            ArrowNotify => dispatch(s, cfg, ArrowProtocol::new(q, s.tail, r).with_notify_origin()),
            CentralQueue => dispatch(s, cfg, CentralQueueProtocol::new(q, s.tail, r)),
            CombiningQueue => dispatch(s, cfg, CombiningQueueProtocol::new(q, r)),
            CentralCounter => dispatch(s, cfg, CentralCounterProtocol::new(c, c.root(), r)),
            CombiningTree => dispatch(s, cfg, CombiningTreeProtocol::new(c, r)),
            CountingNetwork { width } => dispatch(s, cfg, network(bitonic(w(width)))),
            PeriodicNetwork { width } => dispatch(s, cfg, network(periodic(w(width)))),
            ToggleTree { leaves } => dispatch(s, cfg, network(toggle_tree(w(leaves)))),
            CrdtCounter => dispatch(s, cfg, CrdtCounterProtocol::new(c, r)),
        }
    }

    /// Verify the report's completions against this protocol's output
    /// contract; returns the requesters in queue/rank order. Arrivals the
    /// run's admission policy shed never issued, so the contract is
    /// checked over the *retained* request set (requests minus drops): a
    /// backpressured run must still form one valid total order / rank set
    /// over everything it actually admitted.
    pub fn verify(&self, scenario: &Scenario, report: &SimReport) -> Result<Vec<NodeId>, RunError> {
        let pairs: Vec<(NodeId, u64)> =
            report.completions.iter().map(|c| (c.node, c.value)).collect();
        let retained: Vec<NodeId> = if report.dropped.is_empty() {
            scenario.requests.clone()
        } else {
            let dropped = report.dropped_nodes();
            scenario
                .requests
                .iter()
                .copied()
                .filter(|v| dropped.binary_search(v).is_err())
                .collect()
        };
        match self.kind() {
            ProtocolKind::Queuing => verify_total_order(&retained, &pairs).map_err(RunError::Order),
            ProtocolKind::Counting => verify_ranks(&retained, &pairs).map_err(RunError::Ranks),
            ProtocolKind::Relaxed => {
                verify_relaxed_ranks(&retained, &pairs).map_err(RunError::Ranks)?;
                // A relaxed counter's equal counts carry no order
                // information, so the verified linearization charges the
                // *worst* tie order consistent with the claimed ranks:
                // latest issuer first, then node id (exact protocols have
                // no such freedom — their outputs are total).
                // Deterministic, and a pure function of the report, so
                // executor-independent. Verified, `pairs` holds each
                // retained requester once.
                let issue = report.issue_rounds();
                let issued = |v: NodeId| issue.at(v);
                let mut pairs = pairs;
                pairs.sort_unstable_by_key(|&(v, rank)| (rank, std::cmp::Reverse(issued(v)), v));
                Ok(pairs.into_iter().map(|(v, _)| v).collect())
            }
        }
    }
}

/// Run `spec` on `scenario` under `mode` and verify its output — the single
/// execution path behind every driver, sweep and CLI command.
pub fn run_spec(
    spec: &ProtocolSpec,
    scenario: &Scenario,
    mode: ModelMode,
) -> Result<RunOutcome, RunError> {
    run_spec_with(spec, scenario, mode, LinkDelay::Unit)
}

/// [`run_spec`] with an explicit per-link delay policy (the open-system
/// sweep dimension; `LinkDelay::Unit` reproduces the paper's wires).
pub fn run_spec_with(
    spec: &ProtocolSpec,
    scenario: &Scenario,
    mode: ModelMode,
    delay: LinkDelay,
) -> Result<RunOutcome, RunError> {
    let cfg = config_for(mode, spec.tree(scenario).max_degree()).with_link_delay(delay);
    run_spec_cfg(spec, scenario, cfg)
}

/// [`run_spec`] under a caller-built [`SimConfig`]. The config supplies
/// the step constant, link delay, round limit, tracing and the dense
/// reference scan, honoured as they stand; its probe is replaced by the
/// scenario's, and the run borrows the scenario's fault plan — the
/// scenario owns both. This is how the
/// equivalence suites select an engine reference path that no plan,
/// scenario or CLI flag names.
pub fn run_spec_cfg(
    spec: &ProtocolSpec,
    scenario: &Scenario,
    cfg: SimConfig,
) -> Result<RunOutcome, RunError> {
    let report = spec.execute(scenario, cfg).map_err(RunError::Sim)?;
    let order = spec.verify(scenario, &report)?;
    Ok(RunOutcome { alg: spec.name().to_string(), report, order })
}

/// Every protocol, queuing first, in presentation order. Width-parameterized
/// entries use the [`default_width`] rule.
pub fn registry() -> &'static [ProtocolSpec] {
    &[
        Arrow,
        ArrowNotify,
        CentralQueue,
        CombiningQueue,
        CentralCounter,
        CombiningTree,
        CountingNetwork { width: None },
        PeriodicNetwork { width: None },
        ToggleTree { leaves: None },
        CrdtCounter,
    ]
}

/// Registry entries of one kind, in registry order.
pub fn registry_of(kind: ProtocolKind) -> impl Iterator<Item = &'static ProtocolSpec> {
    registry().iter().filter(move |p| p.kind() == kind)
}

/// Look up a registry entry by display name (`"arrow-notify"` is accepted
/// as a CLI-friendly alias of `"arrow+notify"`).
pub fn find(name: &str) -> Option<&'static ProtocolSpec> {
    let canonical = if name == "arrow-notify" { "arrow+notify" } else { name };
    registry().iter().find(|p| p.name() == canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSpec, RequestPattern, ShardSpec, ShardStrategy, TopoSpec};
    use ccq_sim::{FaultKind, Round};

    #[test]
    fn registry_names_unique_and_findable() {
        let mut names: Vec<_> = registry().iter().map(|p| p.name()).collect();
        for n in &names {
            assert_eq!(find(n).unwrap().name(), *n);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len());
        assert!(find("nope").is_none());
        assert_eq!(find("arrow-notify").unwrap().name(), "arrow+notify");
    }

    #[test]
    fn kinds_partition_the_registry() {
        assert_eq!(registry_of(ProtocolKind::Queuing).count(), 4);
        assert_eq!(registry_of(ProtocolKind::Counting).count(), 5);
        assert_eq!(registry_of(ProtocolKind::Relaxed).count(), 1);
        let total: usize = [ProtocolKind::Queuing, ProtocolKind::Counting, ProtocolKind::Relaxed]
            .iter()
            .map(|&k| registry_of(k).count())
            .sum();
        assert_eq!(total, registry().len());
    }

    #[test]
    fn every_entry_runs_and_verifies_on_the_mesh() {
        let s = Scenario::build(TopoSpec::Mesh2D { side: 3 }, RequestPattern::All);
        for spec in registry() {
            let out = run_spec(spec, &s, ModelMode::Strict).unwrap();
            assert_eq!(out.order.len(), s.k(), "{}", spec.name());
            assert_eq!(out.alg, spec.name());
        }
    }

    #[test]
    fn width_rule_matches_the_paper() {
        let net = CountingNetwork { width: None };
        assert_eq!(net.effective_width(16), Some(4));
        assert_eq!(net.effective_width(64), Some(8));
        assert_eq!(net.effective_width(100), Some(16));
        assert_eq!(net.effective_width(2), Some(2));
        assert_eq!(net.effective_width(100_000), Some(32));
        assert_eq!(CountingNetwork { width: Some(8) }.effective_width(100_000), Some(8));
        assert_eq!(Arrow.effective_width(64), None);
        assert_eq!(CentralCounter.effective_width(64), None);
    }

    #[test]
    fn explicit_width_flows_into_execution() {
        let s = Scenario::build(TopoSpec::Complete { n: 12 }, RequestPattern::All);
        for spec in [
            &CountingNetwork { width: Some(4) },
            &PeriodicNetwork { width: Some(4) },
            &ToggleTree { leaves: Some(4) },
        ] {
            let out = run_spec(spec, &s, ModelMode::Strict).unwrap();
            assert_eq!(out.order.len(), 12, "{}", spec.name());
        }
    }

    #[test]
    fn the_scenario_owns_the_probe_and_the_fault_plan() {
        // A probe on the caller's config is replaced by the scenario's
        // (checkpoints every 2 rounds), and the scenario's crash reaches
        // the run: a config has no fault plan to carry.
        use ccq_sim::{FaultEvent, FaultPlan, ProbeSpec};
        let cfg = SimConfig::strict().with_probe(ProbeSpec::OFF.with_checkpoint_every(8));
        let s = Scenario::build(TopoSpec::List { n: 8 }, RequestPattern::All)
            .with_probe(ProbeSpec::OFF.with_checkpoint_every(2))
            .with_faults(FaultPlan::none().crash(0, 1, 5));
        let out = run_spec_cfg(&CentralCounter, &s, cfg).unwrap();
        let rounds: Vec<Round> = out.report.checkpoints.iter().map(|c| c.round).collect();
        assert!(rounds.len() > 4, "too short to tell the cadences apart: {rounds:?}");
        assert_eq!(rounds, (0..rounds.len() as Round).map(|i| 2 * i).collect::<Vec<_>>());
        let event = |round, kind| FaultEvent { node: 0, round, kind };
        assert_eq!(
            out.report.fault_events,
            [event(1, FaultKind::Crash), event(5, FaultKind::Recover)]
        );
    }

    #[test]
    fn a_five_window_fault_plan_runs_through_run_spec() {
        // The engine caps no plan: five windows run and all ten events fire.
        let faults = (0..5).fold(FaultSpec::none(), |f, node| f.crash(node, 1 + node as Round, 9));
        let s = Scenario::build(TopoSpec::List { n: 8 }, RequestPattern::All).with_faults(faults);
        let out = run_spec(&CentralCounter, &s, ModelMode::Strict).unwrap();
        let count = |kind| out.report.fault_events.iter().filter(|e| e.kind == kind).count();
        assert_eq!((count(FaultKind::Crash), count(FaultKind::Recover)), (5, 5));
    }

    #[test]
    fn a_sharded_plan_without_its_partition_is_a_config_error() {
        // The plan assigned directly, not through `with_shards`: with no
        // partition built, or one built for another plan, the run says so
        // instead of panicking or cutting by the stale partition.
        let list = || Scenario::build(TopoSpec::List { n: 8 }, RequestPattern::All);
        let striped = ShardSpec::new(2, ShardStrategy::Striped);
        let (mut bare, mut stale) =
            (list(), list().with_shards(ShardSpec::new(8, striped.strategy)));
        bare.shards = striped;
        stale.shards = striped;
        for s in [bare, stale] {
            let err = run_spec(&CentralCounter, &s, ModelMode::Strict).unwrap_err();
            let RunError::Sim(SimError::InvalidConfig { what }) = err else {
                panic!("expected a config error, got {err}");
            };
            assert!(what.contains("with_shards"), "{what}");
        }
        // A plan that differs only in its ferry keeps the partition.
        let mut ferried = list().with_shards(striped);
        ferried.shards.inter_delay = Some(ccq_sim::LinkDelay::Fixed { delay: 3 });
        assert!(run_spec(&CentralCounter, &ferried, ModelMode::Strict).is_ok());
    }

    #[test]
    fn clone_spec_preserves_identity() {
        // A spec is a plain value: every way of naming one hands back the
        // same value, and only the three networks take a width.
        let list = TopoSpec::List { n: 4 };
        for spec in registry() {
            let cases =
                crate::plan::RunPlan::new().topologies([list.clone()]).protocol(spec).cases();
            assert_eq!(cases.iter().map(|c| c.protocol).collect::<Vec<_>>(), [*spec]);
            assert_eq!(find(spec.name()), Some(spec));
            assert_eq!(crate::spec::proto(spec.name()), Ok(vec![*spec]));
            match spec.with_width(8) {
                Some(wide) => {
                    assert_eq!(wide.name(), spec.name());
                    assert_eq!(wide.effective_width(64), Some(8));
                }
                None => assert_eq!(spec.effective_width(64), None, "{}", spec.name()),
            }
        }
        let widths = registry().iter().filter(|p| p.with_width(8).is_some());
        let names: Vec<&str> = widths.map(|p| p.name()).collect();
        assert_eq!(names, ["counting-network", "periodic-network", "toggle-tree"]);
    }
}
