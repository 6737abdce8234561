//! Sweep plans: cross-products of topologies × protocols × modes ×
//! request patterns × arrivals × link delays × repeats, executed in
//! parallel and summarized.
//!
//! [`RunPlan`] is the builder; [`RunPlan::execute`] materializes every
//! [`RunCase`] in work groups (runs of cases sharing every scenario
//! dimension), runs the groups rayon-parallel, each on the one scenario
//! its first case builds ([`RunCase::scenario`]), and returns a
//! [`RunSet`]: per-case [`CaseResult`]s in index order plus
//! queuing-vs-counting [`GroupSummary`]s. Everything is deterministic under
//! the plan's seed, and the whole set serializes to JSON. Open-system
//! dimensions ([`RunPlan::arrivals`], [`RunPlan::delays`]) default to the
//! paper's one-shot batch on unit-delay wires, so existing plans reproduce
//! the pre-open-system reports exactly.
//!
//! ```
//! use ccq_core::prelude::*;
//!
//! let set = RunPlan::new()
//!     .topologies([TopoSpec::Mesh2D { side: 4 }])
//!     .protocol(&ccq_core::protocol::Arrow)
//!     .protocols(registry_of(ProtocolKind::Counting))
//!     .execute();
//! assert_eq!(set.cases.len(), 6); // arrow + the five counting protocols
//! assert!(set.summaries[0].queuing_wins.unwrap());
//! assert!(serde_json::from_str(&set.to_json()).is_ok());
//! ```

use crate::protocol::{registry, run_spec_with, ProtocolKind, ProtocolSpec};
use crate::report::{ClassMetrics, DelayReport, FaultSummary};
use crate::run::ModelMode;
use crate::scenario::{
    AdmissionSpec, ArrivalSpec, FaultSpec, PrioritySpec, RequestPattern, Scenario, ShardSpec,
    TopoSpec,
};
use crate::table::fmt_util::{f2, int, tick};
use crate::table::*;
use ccq_sim::{Checkpoint, LinkDelay, NodeDigest, PhaseTimings, ProbeSpec};
use rayon::prelude::*;
use serde::Serialize;

/// How a plan assigns execution modes to cases.
#[derive(Clone, Debug)]
enum ModeSel {
    /// The paper's convention: queuing protocols run with expanded steps
    /// (Theorem 4.5 setup), counting protocols in the strict model.
    Paper,
    /// An explicit list, cross-producted over every protocol.
    Explicit(Vec<ModelMode>),
}

/// Builder for a sweep over scenarios and registry protocols.
pub struct RunPlan {
    topologies: Vec<TopoSpec>,
    protocols: Vec<ProtocolSpec>,
    modes: ModeSel,
    patterns: Vec<RequestPattern>,
    arrivals: Vec<ArrivalSpec>,
    delays: Vec<LinkDelay>,
    admissions: Vec<AdmissionSpec>,
    priorities: Vec<PrioritySpec>,
    faults: Vec<FaultSpec>,
    shards: Vec<ShardSpec>,
    probe: ProbeSpec,
    repeats: usize,
    seed: u64,
}

impl Default for RunPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl RunPlan {
    /// Empty plan: no topologies yet, no explicit protocols (meaning *every*
    /// registry protocol), the paper's mode convention, the `All` request
    /// pattern, the one-shot arrival batch on unit-delay wires, one repeat,
    /// seed 0.
    pub fn new() -> Self {
        RunPlan {
            topologies: Vec::new(),
            protocols: Vec::new(),
            modes: ModeSel::Paper,
            patterns: vec![RequestPattern::All],
            arrivals: vec![ArrivalSpec::OneShot],
            delays: vec![LinkDelay::Unit],
            admissions: vec![AdmissionSpec::Open],
            priorities: vec![PrioritySpec::Uniform],
            faults: vec![FaultSpec::none()],
            shards: vec![ShardSpec::single()],
            probe: ProbeSpec::OFF,
            repeats: 1,
            seed: 0,
        }
    }

    /// Set the topologies to sweep.
    pub fn topologies(mut self, topos: impl IntoIterator<Item = TopoSpec>) -> Self {
        self.topologies = topos.into_iter().collect();
        self
    }

    /// Append protocols to the plan. A plan whose protocol list is never
    /// touched sweeps the whole [`registry`].
    pub fn protocols<'a>(mut self, specs: impl IntoIterator<Item = &'a ProtocolSpec>) -> Self {
        self.protocols.extend(specs);
        self
    }

    /// Append one protocol (accepts width-parameterized spec values, e.g.
    /// `&CountingNetwork { width: Some(8) }`).
    pub fn protocol(mut self, spec: &ProtocolSpec) -> Self {
        self.protocols.push(*spec);
        self
    }

    /// Explicit mode list, cross-producted over every protocol.
    pub fn modes(mut self, modes: impl IntoIterator<Item = ModelMode>) -> Self {
        self.modes = ModeSel::Explicit(modes.into_iter().collect());
        self
    }

    /// Set the request patterns to sweep.
    pub fn patterns(mut self, patterns: impl IntoIterator<Item = RequestPattern>) -> Self {
        self.patterns = patterns.into_iter().collect();
        self
    }

    /// Set the arrival processes to sweep (default: the one-shot batch).
    /// Open arrivals are deterministically re-seeded per repeat, like
    /// random request patterns.
    pub fn arrivals(mut self, arrivals: impl IntoIterator<Item = ArrivalSpec>) -> Self {
        self.arrivals = arrivals.into_iter().collect();
        self
    }

    /// Set the per-link delay policies to sweep (default: unit delay).
    pub fn delays(mut self, delays: impl IntoIterator<Item = LinkDelay>) -> Self {
        self.delays = delays.into_iter().collect();
        self
    }

    /// Set the admission policies to sweep (default: open admission, the
    /// pre-backpressure behaviour). Each admission policy gets its own
    /// scenario group and its own crossover summaries, with drop and
    /// goodput columns, so shedding verdicts never pool across policies.
    pub fn admissions(mut self, admissions: impl IntoIterator<Item = AdmissionSpec>) -> Self {
        self.admissions = admissions.into_iter().collect();
        self
    }

    /// Set the priority splits to sweep (default: uniform, no classes —
    /// the pre-priority behaviour). Each split gets its own scenario
    /// group and its own crossover summaries; cases run under an active
    /// split carry [`CaseResult::classes`] with per-class admission
    /// accounting and latency percentiles. Splits are deterministically
    /// re-seeded per repeat, like random request patterns.
    pub fn priorities(mut self, priorities: impl IntoIterator<Item = PrioritySpec>) -> Self {
        self.priorities = priorities.into_iter().collect();
        self
    }

    /// Set the fault plans to sweep (default: fault-free). Each plan gets
    /// its own scenario group; cases run under an active plan carry
    /// [`CaseResult::fault_summary`] with the crash/recover events that
    /// fired. Fault plans compose with every executor.
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Set the shard plans to sweep (default: the unsharded single shard).
    /// Each shard plan gets its own scenario group and its own crossover
    /// summaries, so per-shard-count verdicts never pool across `k`.
    ///
    /// ```
    /// use ccq_core::prelude::*;
    ///
    /// let set = RunPlan::new()
    ///     .topologies([TopoSpec::Torus2D { side: 3 }])
    ///     .protocol(&ccq_core::protocol::Arrow)
    ///     .shards([ShardSpec::single(), ShardSpec::new(3, ShardStrategy::EdgeCut)])
    ///     .execute();
    /// // Default ferry ⇒ identical delays; only cross-shard traffic differs.
    /// assert_eq!(set.cases[0].total_delay, set.cases[1].total_delay);
    /// assert!(set.cases[1].cross_shard_messages > set.cases[0].cross_shard_messages);
    /// ```
    pub fn shards(mut self, shards: impl IntoIterator<Item = ShardSpec>) -> Self {
        self.shards = shards.into_iter().collect();
        self
    }

    /// Retired: a no-op, kept so callers written against the sliced apply
    /// path still compile. Every case runs the one serialized deliver
    /// walk, whose bytes the sliced apply reproduced.
    ///
    /// ```
    /// use ccq_core::prelude::*;
    ///
    /// let plan = |parallel: bool| {
    ///     RunPlan::new()
    ///         .topologies([TopoSpec::Mesh2D { side: 3 }])
    ///         .shards([ShardSpec::new(2, ShardStrategy::Contiguous)])
    ///         .parallel_apply(parallel)
    ///         .execute()
    /// };
    /// assert_eq!(plan(false).to_json(), plan(true).to_json());
    /// ```
    pub fn parallel_apply(self, _on: bool) -> Self {
        self
    }

    /// Hash engine state every `every` rounds on every case (see
    /// [`ProbeSpec::with_checkpoint_every`]). The probe knobs are not
    /// sweep dimensions and are deliberately absent from [`PlanInfo`]:
    /// probe data rides in the dedicated optional per-case fields
    /// ([`CaseResult::checkpoints`] and friends), and every other output
    /// byte is identical to an
    /// unprobed sweep — which is what lets the replay tooling compare a
    /// probed re-execution against an unprobed original.
    ///
    /// ```
    /// use ccq_core::prelude::*;
    ///
    /// let set = RunPlan::new()
    ///     .topologies([TopoSpec::List { n: 6 }])
    ///     .protocol(&ccq_core::protocol::Arrow)
    ///     .checkpoint_every(1)
    ///     .execute();
    /// assert!(!set.cases[0].checkpoints.as_ref().unwrap().is_empty());
    /// ```
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.probe = self.probe.with_checkpoint_every(every);
        self
    }

    /// Also record per-node digests at every observed barrier (the data
    /// the divergence bisector uses to localize a mismatch to a node).
    pub fn node_hashes(mut self, on: bool) -> Self {
        self.probe = self.probe.with_node_hashes(on);
        self
    }

    /// Plant a deterministic perturbation on every case: `node` skips its
    /// transmit phase at `round` (its staged sends wait one extra round).
    /// The run stays correct — only its timing shifts — which makes this
    /// the controlled divergence source for bisection tests.
    pub fn perturb(mut self, round: u64, node: usize) -> Self {
        self.probe = self.probe.with_perturbation(round, node);
        self
    }

    /// Measure per-phase wall-clock on every case
    /// ([`CaseResult::phase_timing`]).
    pub fn timing(mut self, on: bool) -> Self {
        self.probe = self.probe.with_timing(on);
        self
    }

    /// Repeat every (topology, pattern) cell this many times; random
    /// patterns are deterministically re-seeded per repeat.
    pub fn repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Base seed mixed into per-repeat pattern re-seeding.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn modes_for(&self, spec: &ProtocolSpec) -> Vec<ModelMode> {
        match &self.modes {
            ModeSel::Paper => vec![spec.kind().paper_mode()],
            ModeSel::Explicit(list) => list.clone(),
        }
    }

    fn salt(&self, repeat: usize) -> u64 {
        self.seed.wrapping_mul(0x100_0000_01B3).wrapping_add(repeat as u64)
    }

    /// The protocol list the plan actually sweeps (registry default when
    /// none were added).
    fn effective_protocols(&self) -> &[ProtocolSpec] {
        if self.protocols.is_empty() {
            registry()
        } else {
            &self.protocols
        }
    }

    /// The plan's cases, one work group per run of consecutive cases that
    /// share every scenario dimension: all protocol×mode×delay runs of one
    /// (topology, pattern, arrival, admission, priority, faults, shards,
    /// repeat) cell. An empty dimension yields no group at all.
    fn work_groups(&self) -> Vec<Vec<RunCase>> {
        let protocols = self.effective_protocols();
        let mut groups = Vec::new();
        let mut index = 0usize;
        for topo in &self.topologies {
            for pattern in &self.patterns {
                for arrival in &self.arrivals {
                    for admission in &self.admissions {
                        for priority in &self.priorities {
                            for faults in &self.faults {
                                for shards in &self.shards {
                                    for repeat in 0..self.repeats {
                                        let salt = self.salt(repeat);
                                        let pat = pattern.reseed(salt);
                                        let arr = arrival.reseed(salt);
                                        let prio = priority.reseed(salt);
                                        let mut group = Vec::new();
                                        for proto in protocols {
                                            for mode in self.modes_for(proto) {
                                                for delay in &self.delays {
                                                    group.push(RunCase {
                                                        index,
                                                        topo: topo.clone(),
                                                        protocol: *proto,
                                                        mode,
                                                        pattern: pat.clone(),
                                                        arrival: arr.clone(),
                                                        delay: *delay,
                                                        admission: *admission,
                                                        priority: prio,
                                                        faults: faults.clone(),
                                                        shards: *shards,
                                                        repeat,
                                                    });
                                                    index += 1;
                                                }
                                            }
                                        }
                                        if !group.is_empty() {
                                            groups.push(group);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        groups
    }

    /// Materialize the full cross-product of cases, in execution order.
    pub fn cases(&self) -> Vec<RunCase> {
        self.work_groups().into_iter().flatten().collect()
    }

    /// Execute every case (parallel across work groups, each group's
    /// scenario built once) and summarize. Deterministic under the plan's
    /// seed; the order-preserving collect keeps the cases in index order.
    pub fn execute(&self) -> RunSet {
        let executed: Vec<(Vec<CaseResult>, Vec<GroupSummary>)> =
            self.work_groups().par_iter().map(|group| run_group(self, group)).collect();

        let mut cases = Vec::new();
        let mut summaries = Vec::new();
        for (group_cases, group_summaries) in executed {
            cases.extend(group_cases);
            summaries.extend(group_summaries);
        }
        RunSet { plan: self.describe(), cases, summaries }
    }

    /// Serializable description of the plan itself.
    fn describe(&self) -> PlanInfo {
        PlanInfo {
            topologies: self.topologies.iter().map(|t| t.name()).collect(),
            protocols: self.effective_protocols().iter().map(|p| p.name().to_string()).collect(),
            modes: match &self.modes {
                ModeSel::Paper => vec!["paper(queuing=Expanded,counting=Strict)".into()],
                ModeSel::Explicit(list) => list.iter().map(|m| format!("{m:?}")).collect(),
            },
            patterns: self.patterns.iter().map(|p| p.name()).collect(),
            arrivals: self.arrivals.iter().map(|a| a.name()).collect(),
            delays: self.delays.iter().map(|d| d.name()).collect(),
            admissions: self.admissions.iter().map(|a| a.name()).collect(),
            priorities: self.priorities.iter().map(|p| p.name()).collect(),
            faults: self.faults.iter().map(|f| f.name()).collect(),
            shards: self.shards.iter().map(|s| s.name()).collect(),
            repeats: self.repeats,
            seed: self.seed,
        }
    }
}

/// Run one work group on the one scenario its cases share: the first
/// case's, carrying the plan's probe.
fn run_group(plan: &RunPlan, group: &[RunCase]) -> (Vec<CaseResult>, Vec<GroupSummary>) {
    let first = &group[0];
    let scenario = first.scenario().with_probe(plan.probe);
    let results: Vec<CaseResult> = group.iter().map(|case| case.run(&scenario)).collect();
    // One crossover summary per delay policy — pooling across delay
    // regimes would let the fastest wires decide the verdict.
    let mut delays: Vec<LinkDelay> = Vec::new();
    for case in group {
        if !delays.contains(&case.delay) {
            delays.push(case.delay);
        }
    }
    let summaries =
        delays.into_iter().map(|delay| summarize(&scenario, first, delay, &results)).collect();
    (results, summaries)
}

fn summarize(
    scenario: &Scenario,
    cell: &RunCase,
    delay: LinkDelay,
    results: &[CaseResult],
) -> GroupSummary {
    let delay_name = delay.name();
    let best_of = |kind: ProtocolKind| -> Option<&CaseResult> {
        results
            .iter()
            .filter(|c| c.ok && c.kind == kind && c.delay == delay_name)
            .min_by_key(|c| c.total_delay)
    };
    let q = best_of(ProtocolKind::Queuing);
    let c = best_of(ProtocolKind::Counting);
    let r = best_of(ProtocolKind::Relaxed);
    let gap = match (q, c) {
        (Some(q), Some(c)) => Some(c.total_delay as f64 / q.total_delay.max(1) as f64),
        _ => None,
    };
    let dropped = results.iter().filter(|c| c.ok && c.delay == delay_name).map(|c| c.dropped).sum();
    GroupSummary {
        topology: cell.topo.name(),
        pattern: cell.pattern.name(),
        arrival: cell.arrival.name(),
        delay: delay_name,
        admission: cell.admission.name(),
        priority: cell.priority.name(),
        faults: cell.faults.name(),
        shards: cell.shards.name(),
        repeat: cell.repeat,
        n: scenario.n(),
        k: scenario.k(),
        best_queuing: q.map(|c| c.protocol.clone()),
        best_queuing_delay: q.map(|c| c.total_delay),
        best_queuing_goodput: q.map(|c| c.goodput),
        best_counting: c.map(|c| c.protocol.clone()),
        best_counting_delay: c.map(|c| c.total_delay),
        best_counting_goodput: c.map(|c| c.goodput),
        best_queuing_qqc_mean: q.map(|c| c.qqc_mean),
        best_counting_qqc_mean: c.map(|c| c.qqc_mean),
        best_relaxed: r.map(|c| c.protocol.clone()),
        best_relaxed_delay: r.map(|c| c.total_delay),
        best_relaxed_qqc_mean: r.map(|c| c.qqc_mean),
        dropped,
        gap,
        queuing_wins: match (q, c) {
            (Some(q), Some(c)) => Some(q.total_delay < c.total_delay),
            _ => None,
        },
    }
}

/// One materialized run: a protocol on a scenario under a mode and a
/// per-link delay policy.
pub struct RunCase {
    /// Position in the plan's cross-product (stable across executions).
    pub index: usize,
    /// Topology descriptor.
    pub topo: TopoSpec,
    /// The protocol to run.
    pub protocol: ProtocolSpec,
    /// Execution model.
    pub mode: ModelMode,
    /// Request pattern (already re-seeded for this repeat).
    pub pattern: RequestPattern,
    /// Arrival process (already re-seeded for this repeat).
    pub arrival: ArrivalSpec,
    /// Per-link delay policy.
    pub delay: LinkDelay,
    /// Admission policy gating the arrivals.
    pub admission: AdmissionSpec,
    /// Priority split over the requesters (already re-seeded for this
    /// repeat).
    pub priority: PrioritySpec,
    /// Crash/recover fault plan.
    pub faults: FaultSpec,
    /// Shard plan.
    pub shards: ShardSpec,
    /// Repeat number within the (topology, pattern, arrival, admission,
    /// priority, faults, shards) cell.
    pub repeat: usize,
}

impl RunCase {
    /// The scenario this case runs on — the one place a case's dimensions
    /// become a [`Scenario`]. [`RunPlan::execute`] builds it once per work
    /// group and adds the plan's probe knobs.
    pub fn scenario(&self) -> Scenario {
        Scenario::build_with(self.topo.clone(), self.pattern.clone(), self.arrival.clone())
            .with_admission(self.admission)
            .with_priority(self.priority)
            .with_faults(self.faults.clone())
            .with_shards(self.shards)
    }

    /// Run this case on `scenario` (its work group's) and flatten the
    /// outcome; a failed run keeps every measured field at zero.
    fn run(&self, scenario: &Scenario) -> CaseResult {
        let spec = &self.protocol;
        let run = run_spec_with(spec, scenario, self.mode, self.delay);
        let error = run.as_ref().err().map(|e| e.to_string());
        let out = run.ok();
        // One flattening pass: the percentile fields echo `metrics` (the
        // latency distribution is computed once in `from_sim_with_order`).
        // QQC lateness is derived from the verified output order, which
        // only a successful run has.
        let metrics =
            out.as_ref().map(|o| DelayReport::from_sim_with_order(&o.alg, &o.report, &o.order));
        let zero = DelayReport::default();
        let m = metrics.as_ref().unwrap_or(&zero);
        let report = out.as_ref().map(|o| &o.report);
        CaseResult {
            case: self.index,
            topology: self.topo.name(),
            n: scenario.n(),
            k: scenario.k(),
            protocol: spec.name().to_string(),
            kind: spec.kind(),
            mode: self.mode,
            pattern: self.pattern.name(),
            arrival: self.arrival.name(),
            delay: self.delay.name(),
            admission: self.admission.name(),
            priority: self.priority.name(),
            faults: self.faults.name(),
            shards: self.shards.name(),
            repeat: self.repeat,
            width: spec.effective_width(scenario.n()),
            ok: out.is_some(),
            error,
            total_delay: m.total_delay,
            messages: m.messages,
            max_contention: m.max_queue,
            throughput: m.throughput,
            goodput: m.goodput,
            latency_p50: m.latency_p50,
            latency_p95: m.latency_p95,
            latency_p99: m.latency_p99,
            qqc_max: m.qqc_max,
            qqc_mean: m.qqc_mean,
            qqc_p50: m.qqc_p50,
            qqc_p95: m.qqc_p95,
            qqc_p99: m.qqc_p99,
            backlog: m.backlog_high_water,
            dropped: m.dropped,
            delayed_admissions: m.delayed_admissions,
            cross_shard_messages: m.cross_shard_messages,
            classes: out
                .as_ref()
                .map(|o| ClassMetrics::from_sim_with_order(&o.report, &o.order))
                .filter(|cm| !cm.is_empty()),
            fault_summary: report.and_then(FaultSummary::from_sim),
            phase_timing: report.and_then(|r| r.phase_timing),
            checkpoints: report.map(|r| r.checkpoints.clone()).filter(|c| !c.is_empty()),
            node_digests: report.map(|r| r.node_digests.clone()).filter(|d| !d.is_empty()),
            metrics,
        }
    }
}

/// Outcome of one case, flattened for reporting.
#[derive(Clone, Debug, Serialize)]
pub struct CaseResult {
    /// Position in the plan's cross-product.
    pub case: usize,
    /// Topology display name.
    pub topology: String,
    /// Number of processors.
    pub n: usize,
    /// Number of requesters.
    pub k: usize,
    /// Protocol display name.
    pub protocol: String,
    /// Queuing or counting.
    pub kind: ProtocolKind,
    /// Execution model used.
    pub mode: ModelMode,
    /// Request pattern display name.
    pub pattern: String,
    /// Arrival process display name.
    pub arrival: String,
    /// Per-link delay policy display name.
    pub delay: String,
    /// Admission policy display name (`"open"` = no backpressure).
    pub admission: String,
    /// Priority split display name (`"uniform"` = no classes).
    pub priority: String,
    /// Fault plan display name (`"none"` = fault-free).
    pub faults: String,
    /// Shard plan display name (`"1"` = unsharded).
    pub shards: String,
    /// Repeat number.
    pub repeat: usize,
    /// Resolved network width (`None` for width-less protocols).
    pub width: Option<usize>,
    /// Whether the run executed and verified.
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub error: Option<String>,
    /// Σ per-operation delays (scaled) — the paper's metric.
    pub total_delay: u64,
    /// Messages transmitted over links.
    pub messages: u64,
    /// Largest receive-queue depth observed (the contention measure).
    pub max_contention: usize,
    /// Completed operations per round over the whole execution.
    pub throughput: f64,
    /// Throughput discounted by the shed fraction of the offered load
    /// (`≤ throughput`; equal when nothing was dropped).
    pub goodput: f64,
    /// Median scaled completion latency (completion − issue).
    pub latency_p50: u64,
    /// 95th-percentile scaled completion latency.
    pub latency_p95: u64,
    /// 99th-percentile scaled completion latency.
    pub latency_p99: u64,
    /// Largest QQC rank displacement of the verified output order against
    /// the canonical linearization of issue order (0 for a failed case).
    pub qqc_max: u64,
    /// Mean QQC rank displacement.
    pub qqc_mean: f64,
    /// Median QQC rank displacement.
    pub qqc_p50: u64,
    /// 95th-percentile QQC rank displacement.
    pub qqc_p95: u64,
    /// 99th-percentile QQC rank displacement.
    pub qqc_p99: u64,
    /// Open-operation backlog high-water mark (0 for one-shot runs).
    pub backlog: usize,
    /// Arrivals shed by admission control.
    pub dropped: u64,
    /// Admission deferrals recorded by a delaying policy.
    pub delayed_admissions: u64,
    /// Messages ferried across shard boundaries (0 when unsharded).
    pub cross_shard_messages: u64,
    /// Full flattened metrics when the run succeeded.
    pub metrics: Option<DelayReport>,
    /// Per-class admission accounting and latency percentiles, when the
    /// case ran under an active priority split.
    pub classes: Option<Vec<ClassMetrics>>,
    /// Crash/recover events that fired, when the case ran under an
    /// active fault plan.
    pub fault_summary: Option<FaultSummary>,
    /// Per-phase wall-clock, when the plan requested [`RunPlan::timing`].
    pub phase_timing: Option<PhaseTimings>,
    /// Per-round phase-barrier digests, when the plan requested
    /// [`RunPlan::checkpoint_every`].
    pub checkpoints: Option<Vec<Checkpoint>>,
    /// Per-node digests at observed barriers, when the plan requested
    /// [`RunPlan::node_hashes`].
    pub node_digests: Option<Vec<NodeDigest>>,
}

/// The plan echoed back in serializable form.
#[derive(Clone, Debug, Serialize)]
pub struct PlanInfo {
    /// Topology display names.
    pub topologies: Vec<String>,
    /// Protocol display names.
    pub protocols: Vec<String>,
    /// Mode selection description.
    pub modes: Vec<String>,
    /// Request pattern display names.
    pub patterns: Vec<String>,
    /// Arrival process display names.
    pub arrivals: Vec<String>,
    /// Per-link delay policy display names.
    pub delays: Vec<String>,
    /// Admission policy display names.
    pub admissions: Vec<String>,
    /// Priority split display names.
    pub priorities: Vec<String>,
    /// Fault plan display names.
    pub faults: Vec<String>,
    /// Shard plan display names.
    pub shards: Vec<String>,
    /// Repeats per cell.
    pub repeats: usize,
    /// Base seed.
    pub seed: u64,
}

/// Best-queuing vs best-counting verdict for one scenario cell.
#[derive(Clone, Debug, Serialize)]
pub struct GroupSummary {
    /// Topology display name.
    pub topology: String,
    /// Request pattern display name.
    pub pattern: String,
    /// Arrival process display name.
    pub arrival: String,
    /// Per-link delay policy this summary covers (summaries never pool
    /// across delay regimes).
    pub delay: String,
    /// Admission policy this summary covers (summaries never pool across
    /// admission policies either — each gets its own shedding verdict).
    pub admission: String,
    /// Priority split this summary covers.
    pub priority: String,
    /// Fault plan this summary covers.
    pub faults: String,
    /// Shard plan this summary covers (summaries never pool across shard
    /// counts either — the per-shard-count crossover verdicts).
    pub shards: String,
    /// Repeat number.
    pub repeat: usize,
    /// Number of processors.
    pub n: usize,
    /// Number of requesters.
    pub k: usize,
    /// Cheapest verified queuing protocol, if any ran.
    pub best_queuing: Option<String>,
    /// Its total delay.
    pub best_queuing_delay: Option<u64>,
    /// Its goodput (useful completions per round net of shed load).
    pub best_queuing_goodput: Option<f64>,
    /// Cheapest verified counting protocol, if any ran.
    pub best_counting: Option<String>,
    /// Its total delay.
    pub best_counting_delay: Option<u64>,
    /// Its goodput.
    pub best_counting_goodput: Option<f64>,
    /// Mean QQC lateness of the best queuing case — the consistency side
    /// of the cost-vs-consistency frontier.
    pub best_queuing_qqc_mean: Option<f64>,
    /// Mean QQC lateness of the best counting case.
    pub best_counting_qqc_mean: Option<f64>,
    /// Cheapest verified relaxed (CRDT) protocol, if any ran — kept out
    /// of `best_counting` so the exact-counting verdicts stay honest.
    pub best_relaxed: Option<String>,
    /// Its total delay (0 by construction: completions are local).
    pub best_relaxed_delay: Option<u64>,
    /// Its mean QQC lateness — the debt side of the zero-cost endpoint.
    pub best_relaxed_qqc_mean: Option<f64>,
    /// Arrivals shed across every verified case of this cell.
    pub dropped: u64,
    /// `best counting / best queuing` total delay — the paper's gap.
    pub gap: Option<f64>,
    /// Whether queuing strictly won this cell.
    pub queuing_wins: Option<bool>,
}

/// Executed sweep: per-case results plus per-scenario summaries.
#[derive(Clone, Debug, Serialize)]
pub struct RunSet {
    /// The plan that produced this set.
    pub plan: PlanInfo,
    /// Per-case outcomes, in cross-product order.
    pub cases: Vec<CaseResult>,
    /// Per-(topology, pattern, repeat) crossover summaries.
    pub summaries: Vec<GroupSummary>,
}

impl RunSet {
    /// Compact JSON encoding of the whole set.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("RunSet serialization is infallible")
    }

    /// Pretty (2-space indented) JSON encoding.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunSet serialization is infallible")
    }

    /// Human-readable per-case table (the CLI's default sweep output).
    pub fn case_table(&self) -> Table {
        Rows::Cases.draw(self, "sweep cases", CASE_COLUMNS)
    }

    /// Human-readable summary table (best queuing vs best counting).
    pub fn summary_table(&self) -> Table {
        Rows::Summaries.draw(self, "queuing vs counting per scenario", SUMMARY_COLUMNS)
    }

    /// The per-case QQC lateness table `--qqc` requests: one row per
    /// case, one column per selected statistic.
    pub fn qqc_table(&self, fields: &[Column]) -> Table {
        let columns = [TOPOLOGY, PROTOCOL, KIND, ARRIVAL, OK];
        let columns: Vec<Column> = columns.into_iter().chain(fields.iter().copied()).collect();
        let mut t = Rows::Cases.draw(
            self,
            "QQC lateness (rank displacement vs issue-order linearization)",
            &columns,
        );
        t.note("lateness compares the verified output order to the canonical linearization of");
        t.note("issue order (stable by issue round), per class when a priority split is active");
        t
    }
}

const MODE: Column = ("mode", |r| format!("{:?}", r.case().mode));
const PATTERN: Column = ("pattern", |r| r.case().pattern.clone());
const DELAY: Column = ("delay", |r| r.case().delay.clone());
const PRIORITY: Column = ("priority", |r| r.case().priority.clone());
const FAULTS: Column = ("faults", |r| r.case().faults.clone());
const REP: Column = ("rep", |r| r.case().repeat.to_string());
const MAX_CONT: Column = ("max cont.", |r| int(r.case().max_contention as u64));
const CASE_COLUMNS: &[Column] = &[
    TOPOLOGY, PROTOCOL, KIND, MODE, PATTERN, ARRIVAL, DELAY, ADMISSION, PRIORITY, FAULTS, SHARDS,
    REP, OK, TOTAL, MESSAGES, X_SHARD, MAX_CONT, THROUGHPUT, GOODPUT, DROPPED, P50, P95, P99,
];

/// A summary cell, `-` when the cell had no verified case of that kind.
fn or_dash<T>(v: Option<T>, cell: fn(T) -> String) -> String {
    v.map_or_else(|| "-".into(), cell)
}

const SUMMARY_COLUMNS: &[Column] = &[
    ("topology", |r| r.summary().topology.clone()),
    ("pattern", |r| r.summary().pattern.clone()),
    ("arrival", |r| r.summary().arrival.clone()),
    ("delay", |r| r.summary().delay.clone()),
    ("admission", |r| r.summary().admission.clone()),
    ("shards", |r| r.summary().shards.clone()),
    ("rep", |r| r.summary().repeat.to_string()),
    ("n", |r| int(r.summary().n as u64)),
    ("best queuing", |r| or_dash(r.summary().best_queuing.clone(), |s| s)),
    ("C_Q", |r| or_dash(r.summary().best_queuing_delay, int)),
    ("best counting", |r| or_dash(r.summary().best_counting.clone(), |s| s)),
    ("C_C", |r| or_dash(r.summary().best_counting_delay, int)),
    ("gap", |r| or_dash(r.summary().gap, f2)),
    ("dropped", |r| int(r.summary().dropped)),
    ("queuing wins", |r| or_dash(r.summary().queuing_wins, tick)),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;

    #[test]
    fn cross_product_shape() {
        let plan = RunPlan::new()
            .topologies([TopoSpec::Mesh2D { side: 3 }, TopoSpec::List { n: 8 }])
            .protocols(registry())
            .modes([ModelMode::Strict, ModelMode::Expanded])
            .repeats(2);
        // 2 topologies × 1 pattern × 2 repeats × 10 protocols × 2 modes.
        assert_eq!(plan.cases().len(), 2 * 2 * 10 * 2);
    }

    #[test]
    fn paper_modes_assign_by_kind() {
        let set = RunPlan::new().topologies([TopoSpec::Mesh2D { side: 3 }]).execute();
        assert_eq!(set.cases.len(), 10);
        for c in &set.cases {
            assert!(c.ok, "{}: {:?}", c.protocol, c.error);
            match c.kind {
                ProtocolKind::Queuing => assert_eq!(c.mode, ModelMode::Expanded),
                ProtocolKind::Counting | ProtocolKind::Relaxed => {
                    assert_eq!(c.mode, ModelMode::Strict)
                }
            }
        }
    }

    #[test]
    fn protocol_calls_append_and_empty_means_all() {
        let set = RunPlan::new()
            .topologies([TopoSpec::List { n: 6 }])
            .protocol(&protocol::Arrow)
            .protocol(&protocol::CentralCounter)
            .execute();
        let names: Vec<_> = set.cases.iter().map(|c| c.protocol.as_str()).collect();
        assert_eq!(names, vec!["arrow", "central-counter"]);

        let all = RunPlan::new().topologies([TopoSpec::List { n: 6 }]).execute();
        assert_eq!(all.cases.len(), registry().len());
        assert_eq!(all.plan.protocols.len(), registry().len());
    }

    #[test]
    fn summaries_report_the_crossover() {
        let set = RunPlan::new().topologies([TopoSpec::Mesh2D { side: 4 }]).execute();
        let s = &set.summaries[0];
        assert_eq!(s.topology, "mesh2d(4x4)");
        assert!(s.queuing_wins.unwrap(), "queuing must win on the mesh");
        assert!(s.gap.unwrap() > 1.0);
        let queuing = set.cases.iter().filter(|c| c.ok && c.kind == ProtocolKind::Queuing);
        assert_eq!(s.best_queuing_delay, queuing.map(|c| c.total_delay).min());
    }

    #[test]
    fn repeats_reseed_random_patterns_only() {
        let set = RunPlan::new()
            .topologies([TopoSpec::Complete { n: 12 }])
            .protocol(&protocol::Arrow)
            .patterns([RequestPattern::Random { density: 0.5, seed: 1 }])
            .repeats(3)
            .execute();
        assert_eq!(set.cases.len(), 3);
        let ks: Vec<usize> = set.cases.iter().map(|c| c.k).collect();
        // Re-seeded repeats draw different request sets (with overwhelming
        // probability for these seeds).
        assert!(ks.windows(2).any(|w| w[0] != w[1]), "repeats identical: {ks:?}");

        let fixed = RunPlan::new()
            .topologies([TopoSpec::Complete { n: 12 }])
            .protocol(&protocol::Arrow)
            .repeats(3)
            .execute();
        let delays: Vec<u64> = fixed.cases.iter().map(|c| c.total_delay).collect();
        assert_eq!(delays[0], delays[1], "non-random pattern must repeat identically");
        assert_eq!(delays[1], delays[2]);
    }

    #[test]
    fn json_is_valid_and_complete() {
        let set = RunPlan::new()
            .topologies([TopoSpec::Mesh2D { side: 3 }])
            .protocol(&protocol::Arrow)
            .protocol(&protocol::CentralCounter)
            .execute();
        let doc = serde_json::from_str(&set.to_json()).expect("valid JSON");
        let cases = doc.get("cases").and_then(|c| c.as_array()).unwrap();
        assert_eq!(cases.len(), 2);
        for case in cases {
            assert!(case.get("total_delay").and_then(|v| v.as_u64()).unwrap() > 0);
            assert!(case.get("messages").and_then(|v| v.as_u64()).unwrap() > 0);
            assert!(case.get("max_contention").is_some());
        }
        let pretty = serde_json::from_str(&set.to_json_pretty()).expect("valid pretty JSON");
        assert_eq!(
            pretty.get("plan").and_then(|p| p.get("repeats")).and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn empty_plan_yields_empty_valid_set() {
        let set = RunPlan::new().execute();
        assert!(set.cases.is_empty());
        assert!(set.summaries.is_empty());
        assert!(serde_json::from_str(&set.to_json()).is_ok());
    }

    #[test]
    fn tables_render() {
        let set = RunPlan::new().topologies([TopoSpec::List { n: 6 }]).execute();
        let cases = set.case_table().to_string();
        assert!(cases.contains("arrow"));
        let summary = set.summary_table().to_string();
        assert!(summary.contains("list(n=6)"));
    }

    #[test]
    fn arrival_and_delay_dimensions_cross_product() {
        let plan = RunPlan::new()
            .topologies([TopoSpec::Mesh2D { side: 3 }])
            .protocol(&protocol::Arrow)
            .arrivals([ArrivalSpec::OneShot, ArrivalSpec::Poisson { rate: 0.5, seed: 1 }])
            .delays([LinkDelay::Unit, LinkDelay::Jitter { max: 3, seed: 9 }]);
        // 1 topology × 1 pattern × 2 arrivals × 1 protocol × 1 mode × 2 delays.
        assert_eq!(plan.cases().len(), 4);
        let set = plan.execute();
        assert_eq!(set.cases.len(), 4);
        assert_eq!(set.summaries.len(), 4, "one summary per (scenario group, delay)");
        // Summaries never pool across delay regimes.
        for s in &set.summaries {
            let expected = set
                .cases
                .iter()
                .filter(|c| {
                    c.ok && c.arrival == s.arrival
                        && c.delay == s.delay
                        && c.kind.label() == "queuing"
                })
                .map(|c| c.total_delay)
                .min();
            assert_eq!(s.best_queuing_delay, expected, "summary pooled across delays: {s:?}");
        }
        for c in &set.cases {
            assert!(c.ok, "{} under {}: {:?}", c.protocol, c.arrival, c.error);
            assert!(c.latency_p50 <= c.latency_p95 && c.latency_p95 <= c.latency_p99);
            assert!(c.throughput > 0.0);
        }
        assert_eq!(set.plan.arrivals.len(), 2);
        assert_eq!(set.plan.delays.len(), 2);
        // Open-system cases track backlog; one-shot cases report 0.
        let open: Vec<_> = set.cases.iter().filter(|c| c.arrival.starts_with("poisson")).collect();
        assert_eq!(open.len(), 2);
        assert!(open.iter().all(|c| c.backlog > 0), "open cases must observe a backlog");
        assert!(set
            .cases
            .iter()
            .filter(|c| c.arrival == "oneshot")
            .all(|c| c.backlog == 0 && c.latency_p99 == c.metrics.as_ref().unwrap().latency_p99));
    }

    #[test]
    fn open_arrivals_reseed_per_repeat() {
        let delays = |seed: u64| -> Vec<u64> {
            RunPlan::new()
                .topologies([TopoSpec::Complete { n: 10 }])
                .protocol(&protocol::Arrow)
                .arrivals([ArrivalSpec::Poisson { rate: 0.4, seed: 1 }])
                .repeats(3)
                .seed(seed)
                .execute()
                .cases
                .iter()
                .map(|c| c.total_delay)
                .collect()
        };
        let a = delays(42);
        // Repeats draw fresh schedules (overwhelmingly different delays).
        assert!(a.windows(2).any(|w| w[0] != w[1]), "repeats identical: {a:?}");
        // Deterministic under the same plan seed.
        assert_eq!(a, delays(42));
    }

    #[test]
    fn shard_dimension_cross_products_and_matches_unsharded() {
        use crate::scenario::{ShardSpec, ShardStrategy};
        let plan = RunPlan::new()
            .topologies([TopoSpec::Torus2D { side: 4 }])
            .shards([ShardSpec::single(), ShardSpec::new(4, ShardStrategy::EdgeCut)]);
        // 1 topology × 1 pattern × 1 arrival × 2 shard plans × 10 protocols.
        assert_eq!(plan.cases().len(), 20);
        let set = plan.execute();
        assert_eq!(set.summaries.len(), 2, "one crossover summary per shard plan");
        for c in &set.cases {
            assert!(c.ok, "{} under shards={}: {:?}", c.protocol, c.shards, c.error);
        }
        // With the default ferry (= intra-shard policy) the sharded runs
        // reproduce the unsharded metrics; only cross-shard traffic differs.
        for c in set.cases.iter().filter(|c| c.shards == "1") {
            let sharded = set
                .cases
                .iter()
                .find(|o| o.shards != "1" && o.protocol == c.protocol && o.mode == c.mode)
                .unwrap();
            assert_eq!(sharded.total_delay, c.total_delay, "{}", c.protocol);
            assert_eq!(sharded.messages, c.messages, "{}", c.protocol);
            assert_eq!(c.cross_shard_messages, 0);
            assert!(sharded.cross_shard_messages > 0, "{}", c.protocol);
        }
        // Per-shard-count summaries agree on the verdict here, and the
        // plan echo lists both shard plans.
        assert_eq!(set.plan.shards, vec!["1".to_string(), "4:edgecut".to_string()]);
        assert_eq!(set.summaries[0].queuing_wins, set.summaries[1].queuing_wins);
    }

    #[test]
    fn slow_ferry_changes_the_execution() {
        use crate::scenario::{ShardSpec, ShardStrategy};
        let base = RunPlan::new()
            .topologies([TopoSpec::Torus2D { side: 4 }])
            .protocol(&protocol::Arrow)
            .shards([ShardSpec::new(4, ShardStrategy::Contiguous)])
            .execute();
        let federated = RunPlan::new()
            .topologies([TopoSpec::Torus2D { side: 4 }])
            .protocol(&protocol::Arrow)
            .shards([ShardSpec::new(4, ShardStrategy::Contiguous)
                .with_inter_delay(LinkDelay::Fixed { delay: 6 })])
            .execute();
        assert!(base.cases[0].ok && federated.cases[0].ok);
        assert!(
            federated.cases[0].total_delay > base.cases[0].total_delay,
            "a slow ferry must stretch delays: {} vs {}",
            federated.cases[0].total_delay,
            base.cases[0].total_delay
        );
        assert!(federated.plan.shards[0].contains("inter=fixed(d=6)"));
    }

    #[test]
    fn every_protocol_survives_a_crash_with_per_class_conservation() {
        // The tentpole acceptance gate: all ten protocols (the CRDT
        // counter included) complete a priority-split crash/recover run,
        // and per-class accounting conserves every arrival (completed +
        // dropped == issued at quiescence under open admission — nothing
        // is still open).
        let set = RunPlan::new()
            .topologies([TopoSpec::Torus2D { side: 3 }])
            .arrivals([ArrivalSpec::Poisson { rate: 0.5, seed: 7 }])
            .priorities([PrioritySpec::Split { frac: 0.25, seed: 11 }])
            .faults([FaultSpec::none().crash(2, 4, 9)])
            .execute();
        assert_eq!(set.cases.len(), 10);
        for c in &set.cases {
            assert!(c.ok, "{}: {:?}", c.protocol, c.error);
            let classes = c.classes.as_ref().expect("active split must attach class metrics");
            let issued: u64 = classes.iter().map(|m| m.issued).sum();
            let completed: u64 = classes.iter().map(|m| m.completed).sum();
            let dropped: u64 = classes.iter().map(|m| m.dropped).sum();
            assert_eq!(issued, c.k as u64, "{}: every requester must issue", c.protocol);
            assert_eq!(
                completed + dropped,
                issued,
                "{}: arrivals leaked through the crash",
                c.protocol
            );
            let f = c.fault_summary.as_ref().expect("active plan must attach fault events");
            assert_eq!((f.crashes, f.recoveries), (1, 1), "{}", c.protocol);
            assert_eq!(f.events.len(), 2, "{}", c.protocol);
        }
        // The dims echo through the plan and the case rows.
        assert_eq!(set.plan.priorities, vec!["split(frac=0.25,seed=11)".to_string()]);
        assert_eq!(set.plan.faults, vec!["crash(node=2,at=4,recover=9)".to_string()]);
        assert!(set.cases.iter().all(|c| c.priority.starts_with("split")));
        assert!(set.summaries.iter().all(|s| s.faults.starts_with("crash")));
    }

    #[test]
    fn uniform_fault_free_plans_attach_no_class_or_fault_payloads() {
        let set = RunPlan::new()
            .topologies([TopoSpec::List { n: 6 }])
            .protocol(&protocol::Arrow)
            .execute();
        let c = &set.cases[0];
        assert!(c.ok);
        assert!(c.classes.is_none());
        assert!(c.fault_summary.is_none());
        assert_eq!(c.priority, "uniform");
        assert_eq!(c.faults, "none");
    }

    #[test]
    fn an_empty_dimension_runs_no_case() {
        let list = || RunPlan::new().topologies([TopoSpec::List { n: 4 }]);
        for plan in [list().delays([]), list().modes([]), RunPlan::new()] {
            let set = plan.execute();
            assert!(set.cases.is_empty());
            assert!(set.summaries.is_empty());
        }
    }

    #[test]
    fn every_case_runs_on_its_own_scenario() {
        // Two values in every scenario dimension and two repeats: each
        // case, run alone on `RunCase::scenario`, reproduces the case the
        // plan ran on its work group's shared scenario.
        use crate::scenario::ShardStrategy;
        let plan = RunPlan::new()
            .topologies([TopoSpec::List { n: 6 }, TopoSpec::Torus2D { side: 3 }])
            .protocol(&protocol::CentralCounter)
            .patterns([RequestPattern::All, RequestPattern::Random { density: 0.5, seed: 3 }])
            .arrivals([ArrivalSpec::OneShot, ArrivalSpec::Poisson { rate: 0.5, seed: 1 }])
            .admissions([AdmissionSpec::Open, AdmissionSpec::DropTail { bound: 2 }])
            .shards([ShardSpec::single(), ShardSpec::new(2, ShardStrategy::Striped)])
            .repeats(2)
            .seed(5);
        let cases = plan.cases();
        let set = plan.execute();
        assert_eq!(cases.len(), 2 * 2 * 2 * 2 * 2 * 2);
        assert_eq!(set.cases.len(), cases.len());
        for (case, ran) in cases.iter().zip(&set.cases) {
            assert_eq!(ran.case, case.index);
            let scenario = case.scenario();
            let alone = run_spec_with(&case.protocol, &scenario, case.mode, case.delay)
                .unwrap_or_else(|e| panic!("case {}: {e}", case.index));
            let m = DelayReport::from_sim_with_order(&alone.alg, &alone.report, &alone.order);
            assert_eq!(
                (scenario.n(), scenario.k(), m.total_delay, m.messages, m.latency_p99),
                (ran.n, ran.k, ran.total_delay, ran.messages, ran.latency_p99),
                "case {}",
                case.index
            );
            assert_eq!(m.cross_shard_messages, ran.cross_shard_messages, "case {}", case.index);
        }
    }

    #[test]
    fn one_shot_default_reproduces_the_batch_reports() {
        // Adding the open-system dimensions must not change what default
        // plans measure: an explicit oneshot+unit sweep equals the default.
        let base = RunPlan::new().topologies([TopoSpec::Mesh2D { side: 3 }]).execute();
        let explicit = RunPlan::new()
            .topologies([TopoSpec::Mesh2D { side: 3 }])
            .arrivals([ArrivalSpec::OneShot])
            .delays([LinkDelay::Unit])
            .execute();
        let key = |s: &RunSet| -> Vec<(String, u64, u64)> {
            s.cases.iter().map(|c| (c.protocol.clone(), c.total_delay, c.messages)).collect()
        };
        assert_eq!(key(&base), key(&explicit));
    }
}
