//! The traced pass: one in-process run per workload that times the calls
//! into each layer's public functions, from the outside in.
//!
//! Spans are recorded around the calls only — the program itself is not
//! instrumented — kept in memory, and written to `out/trace.json` at exit.
//! A workload is traced in passes, each a top-level span; the in-process
//! ones run on one CPU when the workload's end-to-end child does:
//!
//! * `pass.cli` — what the CLI does, as one call: `RunPlan::execute` then
//!   `RunSet::to_json` (or the experiment drivers and table rendering). Its
//!   output must equal the untraced child's stdout byte for byte.
//! * `pass.layers` — the same run layer by layer: scenario build, then per
//!   case `sim.execute`, `verify.order`, `report.metrics`.
//! * `pass.probes` — everything measured by running something again: the
//!   existing phase-timing probe, the graph/scenario pieces and the
//!   checkpoint/replay baseline.
//! * `pass.children` — the sharded workload again as child processes, like
//!   the end-to-end runs, but on both CPUs: threaded lockstep and the
//!   wavefront pipeline.

use crate::alloc::AllocCount;
use crate::check::json;
use crate::measure::{readings, run_rep, Rep};
use crate::sys::{pin_current_thread_to_one_cpu, release_free_memory};
use crate::workloads::{paper_proxy_topologies, same_scenario, Sweep, Workload, PAPER_EXPERIMENTS};
use ccq_repro::core::experiments::{self, Scale};
use ccq_repro::core::plan::RunCase;
use ccq_repro::core::report::{ClassMetrics, FaultSummary};
use ccq_repro::core::run::config_for;
use ccq_repro::prelude::*;
use ccq_repro::replay::{first_divergence, Recording};
use ccq_repro::sim::{SimConfig, SimReport};
use ccq_repro::{bounds, tsp};
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A per-layer metric as `BENCHMARK.json` declares it.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric { name, unit, higher_is_better: false }
}

/// Every per-layer metric, in output order. A metric that does not apply to
/// a workload (e.g. `shard.*` off `shard_lockstep`) reads 0 there.
pub const LAYER_METRICS: [LayerMetric; 69] = [
    lower("graph.build_s", "s"),
    lower("graph.trees_s", "s"),
    lower("graph.partition_s", "s"),
    lower("graph.nodes", "count"),
    lower("graph.edges", "count"),
    lower("scenario.materialize_s", "s"),
    lower("scenario.build_s", "s"),
    lower("sim.execute_s", "s"),
    lower("sim.phase_arrivals_s", "s"),
    lower("sim.phase_mature_s", "s"),
    lower("sim.phase_deliver_s", "s"),
    lower("sim.phase_apply_s", "s"),
    lower("sim.phase_transmit_s", "s"),
    lower("sim.loop_other_s", "s"),
    lower("sim.ns_per_msg", "ns"),
    lower("sim.us_per_round", "us"),
    lower("sim.max_round_us", "us"),
    lower("sim.rounds", "count"),
    lower("sim.msgs", "count"),
    lower("sim.reqs", "count"),
    lower("sim.allocs", "count"),
    lower("sim.alloc_bytes", "bytes"),
    lower("sim.allocs_per_round", "count"),
    lower("sim.timing_overhead_frac", "ratio"),
    lower("proto.arrow_s", "s"),
    lower("proto.arrow_notify_s", "s"),
    lower("proto.central-queue_s", "s"),
    lower("proto.combining-queue_s", "s"),
    lower("proto.central-counter_s", "s"),
    lower("proto.combining-tree_s", "s"),
    lower("proto.counting-network_s", "s"),
    lower("proto.periodic-network_s", "s"),
    lower("proto.toggle-tree_s", "s"),
    lower("proto.crdt-counter_s", "s"),
    lower("shard.execute_s", "s"),
    lower("shard.serial_execute_s", "s"),
    lower("shard.forkjoin_s", "s"),
    lower("shard.forkjoin_frac", "ratio"),
    lower("shard.wavefront_execute_s", "s"),
    LayerMetric { name: "shard.wavefront_speedup", unit: "ratio", higher_is_better: true },
    lower("shard.cross_msgs", "count"),
    lower("shard.us_per_round", "us"),
    lower("verify.order_s", "s"),
    lower("verify.ns_per_req", "ns"),
    lower("report.metrics_s", "s"),
    lower("report.qqc_s", "s"),
    lower("plan.execute_s", "s"),
    lower("plan.overhead_s", "s"),
    lower("plan.json_s", "s"),
    lower("plan.json_bytes", "bytes"),
    lower("cli.overhead_s", "s"),
    lower("probe.checkpoint_execute_s", "s"),
    lower("probe.checkpoint_overhead_frac", "ratio"),
    lower("probe.checkpoints", "count"),
    lower("replay.encode_s", "s"),
    lower("replay.parse_s", "s"),
    lower("replay.divergence_s", "s"),
    lower("replay.bytes", "bytes"),
    lower("exp.fig1_s", "s"),
    lower("exp.t3_s", "s"),
    lower("exp.t5_s", "s"),
    lower("exp.t7_s", "s"),
    lower("exp.t8_s", "s"),
    lower("exp.f2_s", "s"),
    lower("exp.t10_s", "s"),
    lower("exp.render_s", "s"),
    lower("bounds.eval_s", "s"),
    lower("tsp.nn_tour_s", "s"),
    lower("trace.overhead_frac", "ratio"),
];

/// The declared metric called `name`, if any.
fn metric_named(name: &str) -> Option<&'static str> {
    LAYER_METRICS.iter().map(|m| m.name).find(|m| *m == name)
}

/// `|trace.overhead_frac|` beyond which the listing says so: spans around a
/// few dozen calls cost nothing, so more than this is the box or a defect.
const OVERHEAD_NOTE: f64 = 0.10;

/// The checkpoint interval of the probe baseline (`ccq record`'s default).
const CHECKPOINT_EVERY: u64 = 64;

/// Evaluations timed together for `bounds.eval_s` (one is below a timer tick).
const BOUNDS_EVALS: u32 = 1000;

/// One recorded interval; its id is its index in [`Trace::spans`].
#[derive(Serialize)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Id of the enclosing span.
    pub parent: Option<usize>,
    pub workload: &'static str,
    /// Plan case the span belongs to; spans of one case share it.
    pub case: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Exact counts taken at the `sim.execute` boundary of one case.
#[derive(Serialize)]
pub struct CaseCounts {
    pub case: usize,
    pub protocol: String,
    pub rounds: u64,
    pub msgs: u64,
    pub reqs: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Spans and counts of one workload's traced pass, kept in memory.
pub struct Trace {
    pub workload: &'static str,
    pub seed: u64,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub counts: Vec<CaseCounts>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Length of the instrumented in-process run (layers + JSON, or the
    /// experiment drivers + rendering).
    pub in_process_s: f64,
    /// Smallest share of a `case` span its child spans cover.
    pub case_coverage_min: f64,
    /// Whether the plain and the probe-timed execution of every case made
    /// the same number of allocations (expected off the threaded workload).
    pub allocs_repeat: bool,
    pub problems: Vec<String>,
}

impl Trace {
    fn new(workload: &'static str, seed: u64) -> Trace {
        Trace {
            workload,
            seed,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
            metrics: BTreeMap::new(),
            in_process_s: 0.0,
            case_coverage_min: 1.0,
            allocs_repeat: true,
            problems: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one.
    fn enter(&mut self, name: &str, case: Option<usize>) -> usize {
        let start_s = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            workload: self.workload,
            case,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`; returns its length.
    fn exit(&mut self, id: usize) -> f64 {
        let end_s = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_s = end_s;
        self.spans[id].duration()
    }

    /// Record `f` as a leaf span.
    fn timed<R>(&mut self, name: &str, case: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, case);
        let r = f();
        self.exit(id);
        r
    }

    /// Σ duration of all spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration).sum();
        self.spans[id].duration() - children
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|m| m.name == name), "undeclared metric {name}");
        self.metrics.insert(name, value);
    }

    /// Every declared metric with its unit; 0 where this workload has none.
    pub fn all_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .map(|m| (m.name, self.metrics.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    }

    /// This workload's trace as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{},\"case_coverage_min\":{},\"allocs_repeat\":{},\n\
             \"metrics\":{},\n\"counts\":{},\n\"spans\":{}}}",
            json(self.workload),
            self.seed,
            self.case_coverage_min,
            self.allocs_repeat,
            json(&readings(&self.all_metrics())),
            json(&self.counts),
            json(&self.spans),
        )
    }
}

/// Children a traced time is taken from. One child is no reference: on the
/// reference box one repetition in three runs a fifth slower than its
/// neighbours.
pub const CHILDREN: usize = 5;

/// In-process passes per workload, of which the fastest is kept: a pass is
/// tens of milliseconds, and the box slows for longer than that.
pub const PASSES: usize = 5;

/// Run [`CHILDREN`] untraced children on `argv`, each on one CPU when
/// `pinned`, and return the one whose wall time ranks `nth` (0 = fastest,
/// `CHILDREN / 2` = median), carrying the problems of all of them.
pub fn nth_child(ccq: &Path, w: &Workload, argv: &[String], pinned: bool, nth: usize) -> Rep {
    let mut reps: Vec<Rep> = (0..CHILDREN).map(|_| run_rep(ccq, w, argv, pinned)).collect();
    reps.sort_by(|a, b| a.child.wall_s.total_cmp(&b.child.wall_s));
    let problems: Vec<String> = reps.iter().flat_map(|r| r.outcome.problems.clone()).collect();
    let mut chosen = reps.swap_remove(nth);
    chosen.outcome.problems = problems;
    chosen
}

/// One in-process traced pass over a workload. `child` is the untraced
/// reference (the fastest [`nth_child`] of the same workload and seed), whose
/// output the in-process run must reproduce.
pub fn trace_workload(w: &'static Workload, seed: u64, child: &Rep) -> Trace {
    release_free_memory();
    let mut t = Trace::new(w.name, seed);
    let in_process = |t: &mut Trace| match w.sweep {
        Some(sweep) => trace_sweep(t, w, &sweep(seed), seed, child),
        None => trace_tables(t, child),
    };
    let in_process_s = if w.pinned {
        // On a scoped thread, pinned before it does anything: affinity is
        // per thread on Linux, so the rest of this process keeps both CPUs.
        std::thread::scope(|s| {
            let pinned = s.spawn(|| {
                if let Err(e) = pin_current_thread_to_one_cpu() {
                    t.problems.push(format!("cannot pin a thread to one CPU: {e}"));
                }
                in_process(&mut t)
            });
            pinned.join().expect("pinned thread panicked")
        })
    } else {
        in_process(&mut t)
    };
    t.in_process_s = in_process_s;
    // The span-instrumented in-process run against the untraced child.
    t.set("trace.overhead_frac", (in_process_s - child.child.wall_s) / child.child.wall_s);
    t
}

/// Per-case products of the layered pass that later passes compare against.
struct CaseRun {
    allocs: AllocCount,
    report: SimReport,
    order: Vec<usize>,
}

fn case_config(case: &RunCase, scenario: &Scenario) -> SimConfig {
    config_for(case.mode, case.protocol.tree(scenario).max_degree()).with_link_delay(case.delay)
}

/// Returns the length of the instrumented in-process run (layers + JSON).
fn trace_sweep(t: &mut Trace, w: &Workload, sweep: &Sweep, seed: u64, child: &Rep) -> f64 {
    let plan = sweep.plan();
    let cases = plan.cases();
    assert!(cases.windows(2).all(|p| same_scenario(&p[0], &p[1])), "one scenario per workload");

    // Pass 1: what the CLI does.
    let pass = t.enter("pass.cli", None);
    let id = t.enter("plan.execute", None);
    let set = plan.execute();
    let plan_execute_s = t.exit(id);
    let id = t.enter("plan.json", None);
    let json = set.to_json();
    let plan_json_s = t.exit(id);
    t.exit(pass);
    drop(set);
    if child.child.stdout.strip_suffix(b"\n") != Some(json.as_bytes()) {
        t.problems.push("in-process plan JSON differs from the child's stdout".to_string());
    }
    t.set("plan.execute_s", plan_execute_s);
    t.set("plan.json_s", plan_json_s);
    t.set("plan.json_bytes", json.len() as f64);
    t.set("cli.overhead_s", child.child.wall_s - plan_execute_s - plan_json_s);

    // Pass 2: the same run, layer by layer.
    release_free_memory();
    let pass = t.enter("pass.layers", None);
    let mut scenario = t.timed("scenario.build", None, || sweep.scenario_for(&cases[0]));
    let mut runs: Vec<CaseRun> = Vec::new();
    for case in &cases {
        let spec = case.protocol.as_ref();
        let cfg = case_config(case, &scenario);
        let case_span = t.enter("case", Some(case.index));
        // Counted strictly around the call, so the spans' own bookkeeping
        // stays out of the numbers.
        let id = t.enter("sim.execute", Some(case.index));
        let before = AllocCount::now();
        let report = spec.execute(&scenario, cfg);
        let allocs = AllocCount::since(before);
        let execute_s = t.exit(id);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                // Without this case's report the later passes have nothing
                // to compare against: stop tracing, the run is incorrect.
                t.exit(case_span);
                t.exit(pass);
                t.problems.push(format!("case {} ({}): {e}", case.index, spec.name()));
                return 0.0;
            }
        };
        let id = t.enter("verify.order", Some(case.index));
        let order = spec.verify(&scenario, &report);
        t.exit(id);
        let order = order.unwrap_or_else(|e| {
            t.problems.push(format!("case {} ({}): {e}", case.index, spec.name()));
            Vec::new()
        });
        t.timed("report.metrics", Some(case.index), || {
            black_box(DelayReport::from_sim_with_order(spec.name(), &report, &order));
            black_box(ClassMetrics::from_sim_with_order(&report, &order));
            black_box(FaultSummary::from_sim(&report));
        });
        t.exit(case_span);
        let covered = 1.0 - t.self_time(case_span) / t.spans[case_span].duration();
        t.case_coverage_min = t.case_coverage_min.min(covered);
        t.counts.push(CaseCounts {
            case: case.index,
            protocol: spec.name().to_string(),
            rounds: report.rounds,
            msgs: report.messages_sent,
            reqs: report.ops() as u64,
            allocs: allocs.calls,
            alloc_bytes: allocs.bytes,
        });
        if let Some(metric) = metric_named(&format!("proto.{}_s", spec.name().replace('+', "_"))) {
            t.set(metric, execute_s);
        }
        runs.push(CaseRun { allocs, report, order });
    }
    let layers_s = t.exit(pass);
    if t.case_coverage_min < 0.95 {
        t.problems.push(format!("spans cover only {:.3} of a case", t.case_coverage_min));
    }

    let execute_s = t.total("sim.execute");
    let (rounds, msgs, reqs) =
        t.counts.iter().fold((0, 0, 0), |(r, m, q), c| (r + c.rounds, m + c.msgs, q + c.reqs));
    if (rounds, msgs) != (child.outcome.rounds, child.outcome.msgs) {
        t.problems.push(format!(
            "traced pass simulated {rounds} rounds / {msgs} messages, the child {} / {}",
            child.outcome.rounds, child.outcome.msgs
        ));
    }
    let allocs: u64 = t.counts.iter().map(|c| c.allocs).sum();
    t.set("scenario.build_s", t.total("scenario.build"));
    t.set("sim.execute_s", execute_s);
    t.set("sim.ns_per_msg", 1e9 * execute_s / msgs.max(1) as f64);
    t.set("sim.us_per_round", 1e6 * execute_s / rounds.max(1) as f64);
    t.set("sim.rounds", rounds as f64);
    t.set("sim.msgs", msgs as f64);
    t.set("sim.reqs", reqs as f64);
    t.set("sim.allocs", allocs as f64);
    t.set("sim.alloc_bytes", t.counts.iter().map(|c| c.alloc_bytes).sum::<u64>() as f64);
    t.set("sim.allocs_per_round", allocs as f64 / rounds.max(1) as f64);
    t.set("verify.order_s", t.total("verify.order"));
    t.set("verify.ns_per_req", 1e9 * t.total("verify.order") / reqs.max(1) as f64);
    t.set("report.metrics_s", t.total("report.metrics"));
    t.set(
        "plan.overhead_s",
        plan_execute_s
            - t.total("scenario.build")
            - execute_s
            - t.total("verify.order")
            - t.total("report.metrics"),
    );

    // Pass 3: everything that needs something run again.
    let pass = t.enter("pass.probes", None);
    let first = &cases[0];
    trace_graph_layers(t, &[(first.topo.clone(), first.pattern.clone(), first.arrival.clone())]);
    if sweep.shards.is_sharded() {
        let graph = &scenario.graph;
        t.timed("graph.partition", None, || black_box(sweep.shards.partition(graph)));
        t.set("graph.partition_s", t.total("graph.partition"));
    }

    // The existing phase-timing probe, on a second execution of each case.
    scenario.probe = ProbeSpec::OFF.with_timing(true);
    release_free_memory();
    let mut phases = PhaseTimings::default();
    for (case, run) in cases.iter().zip(&runs) {
        let cfg = case_config(case, &scenario);
        let id = t.enter("sim.execute.timed", Some(case.index));
        let before = AllocCount::now();
        let report = case.protocol.execute(&scenario, cfg);
        let again = AllocCount::since(before);
        t.exit(id);
        t.allocs_repeat &= again == run.allocs;
        if let Some(p) = report.ok().and_then(|r| r.phase_timing) {
            phases.arrivals_micros += p.arrivals_micros;
            phases.mature_micros += p.mature_micros;
            phases.deliver_micros += p.deliver_micros;
            phases.apply_micros += p.apply_micros;
            phases.transmit_micros += p.transmit_micros;
            phases.max_round_micros = phases.max_round_micros.max(p.max_round_micros);
        }
        t.timed("report.qqc", Some(case.index), || black_box(run.report.qqc_lateness(&run.order)));
    }
    scenario.probe = ProbeSpec::OFF;
    let timed_s = t.total("sim.execute.timed");
    let in_phases = [
        ("sim.phase_arrivals_s", phases.arrivals_micros),
        ("sim.phase_mature_s", phases.mature_micros),
        ("sim.phase_deliver_s", phases.deliver_micros),
        ("sim.phase_apply_s", phases.apply_micros),
        ("sim.phase_transmit_s", phases.transmit_micros),
    ];
    let mut phase_sum = 0.0;
    for (name, micros) in in_phases {
        t.set(name, micros as f64 * 1e-6);
        phase_sum += micros as f64 * 1e-6;
    }
    // What the probed phases leave of the probed execution: wake-up,
    // quiescence detection and the round skeleton (never below 0: the probe
    // truncates each phase of each round to whole microseconds).
    t.set("sim.loop_other_s", (timed_s - phase_sum).max(0.0));
    t.set("sim.max_round_us", phases.max_round_micros as f64);
    t.set("sim.timing_overhead_frac", (timed_s - execute_s) / execute_s);
    t.set("report.qqc_s", t.total("report.qqc"));

    drop(scenario);
    if sweep.shards.is_sharded() {
        let cross_msgs: u64 = runs.iter().map(|r| r.report.cross_shard_messages).sum();
        t.set("shard.cross_msgs", cross_msgs as f64);
    }
    if w.probe_baseline {
        trace_probe_baseline(t, w, sweep, seed, plan_execute_s);
    }
    t.exit(pass);
    layers_s + plan_json_s
}

/// `ccq-graph` and `core::scenario` piece by piece, summed over `specs`:
/// the public functions `Scenario::build_with` is made of.
fn trace_graph_layers(t: &mut Trace, specs: &[(TopoSpec, RequestPattern, ArrivalSpec)]) {
    let (mut nodes, mut edges) = (0usize, 0usize);
    for (topo, pattern, arrival) in specs {
        let graph = t.timed("graph.build", None, || topo.graph());
        t.timed("graph.trees", None, || {
            black_box((topo.preferred_tree(&graph), topo.counting_tree(&graph)))
        });
        t.timed("scenario.materialize", None, || {
            let requests = pattern.materialize(graph.n());
            black_box(arrival.materialize(&requests));
        });
        nodes += graph.n();
        edges += graph.m();
    }
    t.set("graph.build_s", t.total("graph.build"));
    t.set("graph.trees_s", t.total("graph.trees"));
    t.set("scenario.materialize_s", t.total("scenario.materialize"));
    t.set("graph.nodes", nodes as f64);
    t.set("graph.edges", edges as f64);
}

/// A sharded workload again as child processes on both CPUs (nothing for an
/// unsharded one): threaded lockstep, and the wavefront pipeline. `child`,
/// the workload's own reference, ran on one CPU (the rayon shim's serial
/// path), so the difference to the threaded run is fork/join. The threaded
/// times are the median child's: a threaded child has a fast mode, with its
/// short-lived threads all on one CPU, that the fastest would pick. The
/// times are whole children; process start, set-up, verify and JSON are in
/// all three and are a few milliseconds of each.
pub fn trace_shard_children(t: &mut Trace, ccq: &Path, w: &Workload, seed: u64, child: &Rep) {
    if !w.sweep.is_some_and(|sweep| sweep(seed).shards.is_sharded()) {
        return;
    }
    let argv = (w.argv)(seed);
    let mut wavefront_argv = argv.clone();
    wavefront_argv.push("--wavefront".to_string());
    let pass = t.enter("pass.children", None);
    let threaded =
        t.timed("shard.threaded_children", None, || nth_child(ccq, w, &argv, false, CHILDREN / 2));
    let wavefront = t.timed("shard.wavefront_children", None, || {
        nth_child(ccq, w, &wavefront_argv, false, CHILDREN / 2)
    });
    t.exit(pass);
    for (name, rep) in [("threaded", &threaded), ("wavefront", &wavefront)] {
        t.problems.extend(rep.outcome.problems.iter().map(|p| format!("{name} child: {p}")));
        if rep.outcome.lines != child.outcome.lines {
            t.problems.push(format!("{name} child printed different statistics"));
        }
    }

    let execute_s = threaded.child.wall_s;
    let serial_s = child.child.wall_s;
    let wavefront_s = wavefront.child.wall_s;
    // Clamped at 0: were the threaded run ever the faster one, there would
    // be no fork/join cost to report.
    let forkjoin_s = (execute_s - serial_s).max(0.0);
    t.set("shard.execute_s", execute_s);
    t.set("shard.serial_execute_s", serial_s);
    t.set("shard.forkjoin_s", forkjoin_s);
    t.set("shard.forkjoin_frac", forkjoin_s / execute_s);
    t.set("shard.wavefront_execute_s", wavefront_s);
    t.set("shard.wavefront_speedup", execute_s / wavefront_s);
    t.set("shard.us_per_round", 1e6 * execute_s / child.outcome.rounds.max(1) as f64);
}

/// Probes are off in every workload; this records what turning the
/// checkpoint probe on costs, and the replay tooling's share, as a baseline.
fn trace_probe_baseline(
    t: &mut Trace,
    w: &Workload,
    sweep: &Sweep,
    seed: u64,
    plan_execute_s: f64,
) {
    let plan = sweep.plan().checkpoint_every(CHECKPOINT_EVERY);
    release_free_memory();
    let set = t.timed("probe.checkpoint_execute", None, || plan.execute());
    let checkpoints: usize =
        set.cases.iter().map(|c| c.checkpoints.as_ref().map_or(0, Vec::len)).sum();
    let output = set.to_json();
    drop(set);
    let recording = Recording::new((w.argv)(seed), CHECKPOINT_EVERY, output.clone());
    let text = t.timed("replay.encode", None, || recording.to_json());
    if t.timed("replay.parse", None, || Recording::parse(&text)).ok() != Some(recording) {
        t.problems.push("a recording did not survive encode and parse".to_string());
    }
    if !matches!(
        t.timed("replay.divergence", None, || first_divergence(&output, &output)),
        Ok(None)
    ) {
        t.problems.push("a run diverged from itself".to_string());
    }
    let checkpointed_s = t.total("probe.checkpoint_execute");
    t.set("probe.checkpoint_execute_s", checkpointed_s);
    t.set("probe.checkpoint_overhead_frac", (checkpointed_s - plan_execute_s) / plan_execute_s);
    t.set("probe.checkpoints", checkpoints as f64);
    t.set("replay.encode_s", t.total("replay.encode"));
    t.set("replay.parse_s", t.total("replay.parse"));
    t.set("replay.divergence_s", t.total("replay.divergence"));
    t.set("replay.bytes", text.len() as f64);
}

/// `paper_tables`: the seed-era drivers are opaque from outside, so the
/// spans are one per experiment, plus the layers they call, timed apart.
fn trace_tables(t: &mut Trace, child: &Rep) -> f64 {
    let pass = t.enter("pass.cli", None);
    let mut tables = Vec::new();
    for e in experiments::registry() {
        if !PAPER_EXPERIMENTS.contains(&e.id) {
            continue;
        }
        let name = format!("exp.{}", e.id);
        tables.push((e.id, e.paper_item, t.timed(&name, None, || (e.run)(Scale::Full))));
        let metric = metric_named(&format!("{name}_s")).expect("every experiment has a metric");
        t.set(metric, t.total(&name));
    }
    // Exactly what `ccq run` prints.
    let text = t.timed("exp.render", None, || {
        let mut text = String::new();
        for (id, item, tables) in &tables {
            text.push_str(&format!("## {id} — {item}\n\n"));
            for table in tables {
                text.push_str(&format!("{table}\n"));
            }
        }
        text
    });
    let in_process_s = t.exit(pass);
    if text.as_bytes() != child.child.stdout {
        t.problems.push("in-process tables differ from the child's stdout".to_string());
    }
    t.set("exp.render_s", t.total("exp.render"));
    t.set("cli.overhead_s", child.child.wall_s - in_process_s);

    let pass = t.enter("pass.probes", None);
    let specs: Vec<_> = paper_proxy_topologies()
        .into_iter()
        .map(|topo| (topo, RequestPattern::All, ArrivalSpec::OneShot))
        .collect();
    trace_graph_layers(t, &specs);
    let scenarios: Vec<Scenario> = paper_proxy_topologies()
        .into_iter()
        .map(|topo| t.timed("scenario.build", None, || Scenario::build(topo, RequestPattern::All)))
        .collect();
    t.set("scenario.build_s", t.total("scenario.build"));
    // NN tours on the largest list and tree (t3, t5, f2 call this).
    for s in scenarios
        .iter()
        .filter(|s| matches!(s.spec, TopoSpec::List { .. } | TopoSpec::PerfectTree { .. }))
    {
        t.timed("tsp.nn_tour", None, || {
            black_box(tsp::nn_tour(&s.queuing_tree, s.tail, &s.requests))
        });
    }
    t.set("tsp.nn_tour_s", t.total("tsp.nn_tour"));
    // The closed forms the drivers print beside their measurements.
    t.timed("bounds.eval", None, || {
        for i in 0..BOUNDS_EVALS {
            let n = black_box(4096 + i as usize);
            black_box((
                bounds::counting_lb_diameter(n as u64 - 1),
                bounds::queuing_ub::queuing_ub_general(n, n),
                bounds::star_serialization_lb(n),
                bounds::spread_evolution(8),
                bounds::log_star(bounds::tow(4)),
            ));
        }
    });
    t.set("bounds.eval_s", t.total("bounds.eval"));
    t.exit(pass);
    in_process_s
}

/// Human-readable listing of one trace.
pub fn print_trace(t: &Trace) {
    println!("## {} (seed {})", t.workload, t.seed);
    println!();
    println!("| metric | value | unit | better |");
    println!("|---|---|---|---|");
    for m in &LAYER_METRICS {
        if let Some(value) = t.metrics.get(m.name) {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            println!("| {} | {value:.6} | {} | {better} |", m.name, m.unit);
        }
    }
    println!();
    let overhead = t.metrics.get("trace.overhead_frac").copied().unwrap_or(0.0);
    if overhead.abs() > OVERHEAD_NOTE {
        println!(
            "NOTE the in-process run differs from the untraced child by {:+.1}% of its time: \
             the box moved between the two, or the in-process run does not represent the \
             child. Read this trace's times with that in mind, or trace again.",
            100.0 * overhead
        );
    }
    println!("{} spans.", t.spans.len());
    if !t.counts.is_empty() {
        println!(
            "Child spans cover at least {:.2}% of every case span.",
            100.0 * t.case_coverage_min
        );
        println!(
            "Allocation counts are exact: the plain and the probe-timed execution of every case \
             allocated {} (single-threaded workloads repeat exactly, run to run).",
            if t.allocs_repeat { "identically" } else { "DIFFERENTLY" }
        );
    }
    for p in &t.problems {
        println!("PROBLEM {p}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let mut t = Trace::new("unit", 1);
        let outer = t.enter("outer", None);
        let a = t.enter("inner", Some(0));
        t.exit(a);
        let b = t.enter("inner", Some(1));
        t.exit(b);
        t.exit(outer);
        // Pin the clock readings so the arithmetic is exact.
        for (id, (start, end)) in [(outer, (0.0, 10.0)), (a, (1.0, 4.0)), (b, (5.0, 9.0))] {
            t.spans[id].start_s = start;
            t.spans[id].end_s = end;
        }
        assert_eq!(t.spans[a].parent, Some(outer));
        assert_eq!(t.spans[outer].parent, None);
        assert_eq!(t.total("inner"), 7.0);
        assert_eq!(t.self_time(outer), 3.0);
        assert_eq!(t.self_time(a), 3.0);
    }

    #[test]
    fn every_declared_metric_is_printed_once_and_defaults_to_zero() {
        let mut t = Trace::new("unit", 1);
        t.set("sim.rounds", 12.0);
        let all = t.all_metrics();
        assert_eq!(all.len(), LAYER_METRICS.len());
        let mut names: Vec<&str> = all.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len(), "metric names are unique");
        assert_eq!(all.iter().find(|(n, _, _)| *n == "sim.rounds").unwrap().1, 12.0);
        assert_eq!(all.iter().find(|(n, _, _)| *n == "sim.msgs").unwrap().1, 0.0);
        assert!(serde_json::from_str(&t.to_json()).is_ok());
    }

    #[test]
    fn every_registry_protocol_and_paper_experiment_has_a_metric() {
        for p in registry() {
            let name = format!("proto.{}_s", p.name().replace('+', "_"));
            assert!(LAYER_METRICS.iter().any(|m| m.name == name), "{name}");
        }
        for id in PAPER_EXPERIMENTS {
            let name = format!("exp.{id}_s");
            assert!(LAYER_METRICS.iter().any(|m| m.name == name), "{name}");
        }
    }
}
