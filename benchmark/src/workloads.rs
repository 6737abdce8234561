//! The five workloads: what `ccq` receives on its command line, and the same
//! run described through the library API for the in-process passes. Each is
//! sized to 25–40 ms a repetition: what repeats from run to run on the
//! reference box is a short repetition set against an equally short
//! reference kernel, some hundreds of times a run (README "Noise").
//!
//! Each sweep is written twice on purpose — once as the argv a user would
//! type and once as a [`Sweep`] — because the argv parser lives in the `ccq`
//! binary. The traced pass proves the two agree: the in-process plan's JSON
//! must equal the child's stdout byte for byte.

use ccq_repro::core::plan::{RunCase, RunPlan};
use ccq_repro::core::protocol;
use ccq_repro::prelude::*;
use std::hint::black_box;

/// The seed under which `open_load` gets ISSUE 16's 7 / 5 / 3, and the only
/// seed `expected/` holds digests for.
pub const DEFAULT_SEED: u64 = 7;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the set (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Runnable threads the workload needs at once (its traced pass, when
    /// the end-to-end child is `pinned`).
    pub threads: usize,
    /// Whether the end-to-end child is confined to one CPU, where the
    /// vendored rayon takes its serial path.
    pub pinned: bool,
    /// What `ccq` receives, with every `seed=` derived from the seed.
    pub argv: fn(u64) -> Vec<String>,
    /// The same run for the in-process passes; `None` for `paper_tables`,
    /// whose seed-era drivers bypass `RunPlan`.
    pub sweep: Option<fn(u64) -> Sweep>,
    /// Whether the traced pass also takes the probe/replay baseline here.
    pub probe_baseline: bool,
}

/// A `ccq sweep` invocation in library terms.
pub struct Sweep {
    pub side: usize,
    /// Registry names; empty means `--proto all`.
    pub protocols: &'static [&'static str],
    pub pattern: RequestPattern,
    pub arrival: ArrivalSpec,
    pub delay: LinkDelay,
    pub admission: AdmissionSpec,
    pub priority: PrioritySpec,
    pub shards: ShardSpec,
    pub parallel_apply: bool,
}

impl Sweep {
    fn on_torus(side: usize, protocols: &'static [&'static str]) -> Sweep {
        Sweep {
            side,
            protocols,
            pattern: RequestPattern::All,
            arrival: ArrivalSpec::OneShot,
            delay: LinkDelay::Unit,
            admission: AdmissionSpec::Open,
            priority: PrioritySpec::Uniform,
            shards: ShardSpec::single(),
            parallel_apply: false,
        }
    }

    /// The plan `ccq sweep` builds from the matching argv.
    pub fn plan(&self) -> RunPlan {
        let mut plan = RunPlan::new()
            .topologies([TopoSpec::Torus2D { side: self.side }])
            .patterns([self.pattern.clone()])
            .arrivals([self.arrival.clone()])
            .delays([self.delay])
            .admissions([self.admission])
            .priorities([self.priority])
            .shards([self.shards])
            .parallel_apply(self.parallel_apply);
        for name in self.protocols {
            plan = plan.protocol(protocol::find(name).expect("workload names registry protocols"));
        }
        plan
    }

    /// The scenario `RunPlan::execute` builds for `case`'s work group, with
    /// this sweep's execution strategy.
    pub fn scenario_for(&self, case: &RunCase) -> Scenario {
        Scenario::build_with(case.topo.clone(), case.pattern.clone(), case.arrival.clone())
            .with_admission(case.admission)
            .with_priority(case.priority)
            .with_faults(case.faults.clone())
            .with_shards(case.shards)
            .with_parallel_apply(self.parallel_apply)
    }
}

/// Whether two cases of one plan share a scenario (a `RunPlan` work group).
pub fn same_scenario(a: &RunCase, b: &RunCase) -> bool {
    a.repeat == b.repeat
        && a.topo == b.topo
        && a.pattern.name() == b.pattern.name()
        && a.arrival == b.arrival
        && a.admission == b.admission
        && a.priority == b.priority
        && a.faults == b.faults
        && a.shards == b.shards
}

/// The experiment ids `paper_tables` runs, in registry order. ISSUE 16 sized
/// nine; `t2` (1.8 s) and `t6` (2.2 s) are dropped, so that a repetition
/// (25 ms) is short enough for a run to hold some hundreds of them.
pub const PAPER_EXPERIMENTS: [&str; 7] = ["fig1", "t3", "t5", "t7", "t8", "f2", "t10"];

/// `setup_s` proxy for `paper_tables`: the largest instance of each topology
/// family its drivers build at `Scale::Full` (fig1; f2/t3 lists; t5 trees;
/// t7 stars; t10 mesh). A proxy because the
/// drivers build their scenarios internally, several sizes each.
pub fn paper_proxy_topologies() -> Vec<TopoSpec> {
    vec![
        TopoSpec::Figure1,
        TopoSpec::List { n: 4096 },
        TopoSpec::PerfectTree { m: 2, depth: 10 },
        TopoSpec::Star { n: 1024 },
        TopoSpec::Mesh2D { side: 16 },
    ]
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// One cold build of everything the workload needs before its first
    /// round: every scenario (`Scenario::build_with` + `with_*`) and, when
    /// sharded, the partition. This is one `setup_s` sample.
    pub fn build_scenarios(&self, seed: u64) -> Vec<Scenario> {
        let Some(sweep) = self.sweep else {
            return paper_proxy_topologies()
                .into_iter()
                .map(|t| Scenario::build(t, RequestPattern::All))
                .collect();
        };
        let sweep = sweep(seed);
        let cases = sweep.plan().cases();
        let mut scenarios = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            if i > 0 && same_scenario(&cases[i - 1], case) {
                continue;
            }
            let s = sweep.scenario_for(case);
            if s.shards.is_sharded() {
                black_box(s.shards.partition(&s.graph));
            }
            scenarios.push(s);
        }
        scenarios
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

const DENSE_PROTOCOLS: &[&str] = &[];
const OPEN_PROTOCOLS: &[&str] = &[
    "arrow",
    "arrow+notify",
    "combining-queue",
    "central-counter",
    "combining-tree",
    "counting-network",
    "periodic-network",
    "toggle-tree",
];
const SPARSE_PROTOCOLS: &[&str] = &["central-counter", "combining-tree"];
const SHARD_PROTOCOLS: &[&str] =
    &["counting-network", "central-counter", "combining-tree", "arrow"];

// The three seeds of `open_load` are the benchmark seed with one bit
// flipped each, so that seed 7 gives the sized 7 / 5 / 3.
fn open_seeds(seed: u64) -> (u64, u64, u64) {
    (seed, seed ^ 2, seed ^ 4)
}

/// All workloads, in round-robin order.
pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "oneshot_dense",
        why: "torus2d:16, all ten protocols: few packed rounds, ~0.2 M messages. The ccq-sim \
              deliver/transmit hot loop does nearly all the work; set-up, verify and JSON \
              almost none.",
        threads: 1,
        pinned: false,
        argv: |_| strings(&["sweep", "--topo", "torus2d:16", "--proto", "all", "--json", "-"]),
        sweep: Some(|_| Sweep::on_torus(16, DENSE_PROTOCOLS)),
        probe_baseline: true,
    },
    Workload {
        name: "open_load",
        why: "torus2d:16, the same engine the other way round, 8 x ~26 k nearly empty rounds: \
              arrivals, admission, quiescence and the round skeleton dominate, not the hot loop.",
        threads: 1,
        pinned: false,
        argv: |seed| {
            let (arrival, delay, priority) = open_seeds(seed);
            let mut argv = strings(&["sweep", "--topo", "torus2d:16", "--proto"]);
            argv.push(OPEN_PROTOCOLS.join(","));
            argv.extend([
                "--arrival".to_string(),
                format!("poisson:rate=0.01:seed={arrival}"),
                "--delay".to_string(),
                format!("jitter:max=3:seed={delay}"),
                "--admission".to_string(),
                "adaptive:target=32".to_string(),
                "--priority".to_string(),
                format!("split:frac=0.25:seed={priority}"),
                "--json".to_string(),
                "-".to_string(),
            ]);
            argv
        },
        sweep: Some(|seed| {
            let (arrival, delay, priority) = open_seeds(seed);
            Sweep {
                arrival: ArrivalSpec::Poisson { rate: 0.01, seed: arrival },
                delay: LinkDelay::Jitter { max: 3, seed: delay },
                admission: AdmissionSpec::Adaptive { target_backlog: 32, gain: 1 },
                priority: PrioritySpec::Split { frac: 0.25, seed: priority },
                ..Sweep::on_torus(16, OPEN_PROTOCOLS)
            }
        }),
        probe_baseline: false,
    },
    Workload {
        name: "sparse_scale",
        why: "torus2d:160 (25 600 nodes), 64 requesters: ccq-graph and scenario build (graph, \
              two spanning trees) and membership-sized stores dominate; the only large setup_s \
              and RSS.",
        threads: 1,
        pinned: false,
        argv: |seed| {
            let mut argv = strings(&["sweep", "--topo", "torus2d:160", "--proto"]);
            argv.push(SPARSE_PROTOCOLS.join(","));
            argv.extend([
                "--pattern".to_string(),
                "tail:64".to_string(),
                "--arrival".to_string(),
                format!("poisson:rate=0.5:seed={seed}"),
                "--json".to_string(),
                "-".to_string(),
            ]);
            argv
        },
        sweep: Some(|seed| Sweep {
            pattern: RequestPattern::TailCluster { count: 64 },
            arrival: ArrivalSpec::Poisson { rate: 0.5, seed },
            ..Sweep::on_torus(160, SPARSE_PROTOCOLS)
        }),
        probe_baseline: false,
    },
    Workload {
        name: "shard_lockstep",
        why: "torus2d:16 in 2 shards, lockstep, parallel apply, child on ONE CPU: sim::shard's \
              fabric, ferry and slices without rayon's thread spawns, which on 2 vCPUs time the \
              hypervisor (see per-layer shard.*).",
        threads: 2,
        pinned: true,
        argv: |_| {
            let mut argv = strings(&["sweep", "--topo", "torus2d:16", "--proto"]);
            argv.push(SHARD_PROTOCOLS.join(","));
            argv.extend(strings(&[
                "--shards",
                "2:edgecut:ferry=6",
                "--parallel-apply",
                "--json",
                "-",
            ]));
            argv
        },
        sweep: Some(|_| Sweep {
            shards: ShardSpec::new(2, ShardStrategy::EdgeCut)
                .with_inter_delay(LinkDelay::Fixed { delay: 6 }),
            parallel_apply: true,
            ..Sweep::on_torus(16, SHARD_PROTOCOLS)
        }),
        probe_baseline: false,
    },
    Workload {
        name: "paper_tables",
        why: "run --exp fig1,t3,t5,t7,t8,f2,t10 --full: the paper's product through the \
              seed-era drivers (experiments/, the algorithm facade, ccq-bounds, ccq-tsp, \
              table.rs); none of the sweep/JSON path.",
        threads: 1,
        pinned: false,
        argv: |_| {
            let mut argv = strings(&["run", "--exp"]);
            argv.push(PAPER_EXPERIMENTS.join(","));
            argv.push("--full".to_string());
            argv
        },
        sweep: None,
        probe_baseline: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_sized_argv() {
        let open = (Workload::find("open_load").unwrap().argv)(DEFAULT_SEED).join(" ");
        assert_eq!(
            open,
            "sweep --topo torus2d:16 --proto arrow,arrow+notify,combining-queue,central-counter,\
             combining-tree,counting-network,periodic-network,toggle-tree \
             --arrival poisson:rate=0.01:seed=7 --delay jitter:max=3:seed=5 \
             --admission adaptive:target=32 --priority split:frac=0.25:seed=3 --json -"
        );
        let sparse = (Workload::find("sparse_scale").unwrap().argv)(DEFAULT_SEED).join(" ");
        assert_eq!(
            sparse,
            "sweep --topo torus2d:160 --proto central-counter,combining-tree --pattern tail:64 \
             --arrival poisson:rate=0.5:seed=7 --json -"
        );
        let shard = (Workload::find("shard_lockstep").unwrap().argv)(DEFAULT_SEED).join(" ");
        assert_eq!(
            shard,
            "sweep --topo torus2d:16 --proto counting-network,central-counter,combining-tree,\
             arrow --shards 2:edgecut:ferry=6 --parallel-apply --json -"
        );
        let tables = (Workload::find("paper_tables").unwrap().argv)(DEFAULT_SEED).join(" ");
        assert_eq!(tables, "run --exp fig1,t3,t5,t7,t8,f2,t10 --full");
    }

    #[test]
    fn other_seeds_change_only_the_seed_fields() {
        let w = Workload::find("open_load").unwrap();
        let a = (w.argv)(12);
        assert!(a.contains(&"poisson:rate=0.01:seed=12".to_string()));
        assert!(a.contains(&"jitter:max=3:seed=14".to_string()));
        assert!(a.contains(&"split:frac=0.25:seed=8".to_string()));
        assert_eq!((w.argv)(12), a, "same seed, same inputs");
    }

    #[test]
    fn in_process_plans_mirror_the_argv() {
        for w in &WORKLOADS {
            let Some(sweep) = w.sweep else { continue };
            let sweep = sweep(DEFAULT_SEED);
            let cases = sweep.plan().cases();
            let expected = if sweep.protocols.is_empty() { 10 } else { sweep.protocols.len() };
            assert_eq!(cases.len(), expected, "{}", w.name);
            assert!(cases.windows(2).all(|p| same_scenario(&p[0], &p[1])), "{}", w.name);
            assert!(w.threads >= sweep.shards.k.min(2), "{}", w.name);
        }
    }

    #[test]
    fn paper_experiments_exist_in_registry_order() {
        let registry: Vec<&str> =
            ccq_repro::core::experiments::registry().iter().map(|e| e.id).collect();
        let positions: Vec<usize> = PAPER_EXPERIMENTS
            .iter()
            .map(|id| registry.iter().position(|r| r == id).expect("known experiment"))
            .collect();
        assert!(positions.windows(2).all(|p| p[0] < p[1]), "{positions:?}");
    }
}
