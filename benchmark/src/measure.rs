//! End-to-end measurement: a closed loop of one client that spawns the
//! release `ccq` binary once per repetition, checks what it printed, and
//! then has a child of its own sample the workload's set-up cost. Tracing
//! is off.

use crate::check::{self, Outcome};
use crate::stats::{worsening, Summary};
use crate::sys::{run_child, ChildRun};
use crate::workloads::Workload;
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in output order, each with ISSUE 16's bound of
/// 0.10. When two sets of runs of one binary differ by more, the remedy is
/// more or longer repetitions, not a wider bound (README "Noise").
pub const METRICS: [MetricDef; 5] = [
    MetricDef { name: "wall_s", unit: "s", higher_is_better: false, bound: 0.10 },
    MetricDef { name: "cpu_s", unit: "s", higher_is_better: false, bound: 0.10 },
    MetricDef { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.10 },
    MetricDef { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: 0.10 },
    MetricDef { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.10 },
];

/// Fewest timed repetitions a median is taken over, in every mode.
pub const MIN_REPS: usize = 7;

/// Index of `setup_s` in [`METRICS`] and [`Samples::values`].
const SETUP: usize = 4;

/// How long set-up builds are repeated after each repetition: a few hundred
/// times for a sub-millisecond build, once for `sparse_scale`'s.
const SETUP_WINDOW: Duration = Duration::from_millis(250);

/// One `setup_s` sample: cold builds of the workload's scenario set, one
/// after another for [`SETUP_WINDOW`] (at least one), and the fastest of
/// them. On the reference box a millisecond build reads anything up to
/// double from one build to the next; the fastest of a few hundred repeats
/// to a few percent, and still moves when the build itself gets slower.
pub fn fastest_setup(w: &Workload, seed: u64) -> f64 {
    let window = Instant::now();
    let mut fastest = f64::INFINITY;
    while fastest.is_infinite() || window.elapsed() < SETUP_WINDOW {
        let start = Instant::now();
        let scenarios = black_box(w.build_scenarios(seed));
        fastest = fastest.min(start.elapsed().as_secs_f64());
        drop(scenarios);
    }
    fastest
}

/// One repetition: the child's resource usage and what its output amounts to.
pub struct Rep {
    pub child: ChildRun,
    pub outcome: Outcome,
}

/// Spawn `ccq` on `argv` — the workload's, or a variant of it — and check
/// its output as the workload's.
pub fn run_rep(ccq: &Path, w: &Workload, argv: &[String]) -> Rep {
    let child = match run_child(ccq, argv) {
        Ok(child) => child,
        Err(e) => {
            eprintln!("ccq-benchmark: cannot run {}: {e}", ccq.display());
            std::process::exit(2);
        }
    };
    let stdout = String::from_utf8_lossy(&child.stdout);
    let mut outcome =
        if w.sweep.is_some() { check::check_sweep(&stdout) } else { check::check_tables(&stdout) };
    if child.exit_code != Some(0) {
        outcome.problems.push(format!("ccq exited with {:?}", child.exit_code));
    }
    Rep { child, outcome }
}

/// Everything measured for one workload over the timed repetitions.
#[derive(Default)]
pub struct Samples {
    /// Per-metric sample vectors, indexed like [`METRICS`].
    pub values: [Vec<f64>; 5],
    pub ops_total: u64,
    pub ops_failed: u64,
    pub problems: Vec<String>,
    /// Outcome of the first repetition seen (warm-up included): every later
    /// one must print the same statistics, the simulator being deterministic.
    reference: Option<Outcome>,
}

impl Samples {
    /// Run one repetition, check it against the reference and, when `timed`,
    /// record it.
    pub fn run_rep(&mut self, ccq: &Path, w: &Workload, seed: u64, timed: bool) {
        let rep = run_rep(ccq, w, &(w.argv)(seed));
        let mut problems = rep.outcome.problems.clone();
        match &self.reference {
            None => self.reference = Some(rep.outcome.clone()),
            Some(first) if problems.is_empty() && first.lines != rep.outcome.lines => {
                problems.push("same seed printed different statistics than before".to_string());
            }
            Some(_) => {}
        }
        if timed {
            // A failed repetition fails every operation of it; when it did
            // not even report a count, charge what a good one completes.
            let ops = match rep.outcome.ops {
                0 => self.reference.as_ref().map_or(1, |r| r.ops.max(1)),
                n => n,
            };
            self.ops_total += ops;
            if !problems.is_empty() {
                self.ops_failed += ops;
            }
            let c = &rep.child;
            for (slot, v) in [c.wall_s, c.cpu_s, rep.outcome.ops as f64 / c.wall_s, c.peak_rss_mb]
                .into_iter()
                .enumerate()
            {
                self.values[slot].push(v);
            }
            eprintln!(
                "  {} rep {}: wall {:.3} s, cpu {:.3} s",
                w.name,
                self.reps(),
                c.wall_s,
                c.cpu_s
            );
        }
        self.problems.extend(problems.into_iter().map(|p| format!("{}: {p}", w.name)));
    }

    /// Take this repetition's `setup_s` sample in a `ccq-benchmark setup`
    /// child ([`fastest_setup`]): a process of its own, as every `ccq` run
    /// is, so the sample depends neither on what this process built before
    /// nor on its heap, and this process stays a few MiB small (a child's
    /// `ru_maxrss` starts from its spawner's peak).
    pub fn run_setup(&mut self, w: &Workload, seed: u64, timed: bool) {
        let args = ["setup", "--only", w.name, "--seed", &seed.to_string()].map(String::from);
        let sample = std::env::current_exe()
            .and_then(|exe| run_child(&exe, &args))
            .ok()
            .filter(|child| child.exit_code == Some(0))
            .and_then(|child| String::from_utf8_lossy(&child.stdout).trim().parse::<f64>().ok());
        match sample {
            Some(seconds) if timed => self.values[SETUP].push(seconds),
            Some(_) => {}
            None => self.problems.push(format!("{}: the set-up child failed", w.name)),
        }
    }

    /// Compare the first repetition with `expected/`.
    pub fn check_expected(&mut self, w: &Workload, seed: u64) {
        if let Some(first) = &self.reference {
            self.problems.extend(check::compare_expected(w.name, seed, first));
        }
    }

    pub fn reps(&self) -> usize {
        self.values[0].len()
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.ops_failed == 0 && self.reps() > 0
    }

    /// Median, quartiles and sample count of metric `slot`.
    pub fn summary(&self, slot: usize) -> Summary {
        Summary::of(&self.values[slot]).expect("at least one timed repetition")
    }
}

/// Contract mode: one workload, one warm-up repetition, then timed
/// repetitions (each followed by its set-up samples) for `seconds`, and
/// until there are [`MIN_REPS`] of them.
pub fn measure_one(ccq: &Path, w: &Workload, seed: u64, seconds: u64) -> Samples {
    let mut samples = Samples::default();
    samples.run_rep(ccq, w, seed, false);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while samples.reps() < MIN_REPS || start.elapsed() < budget {
        samples.run_rep(ccq, w, seed, true);
        samples.run_setup(w, seed, true);
    }
    samples.check_expected(w, seed);
    samples
}

/// The order workloads run in during `round`: round-robin, rotating the
/// starting workload, so no workload always follows the same neighbour.
pub fn round_order(workloads: usize, round: usize) -> Vec<usize> {
    (0..workloads).map(|i| (i + round) % workloads).collect()
}

/// One interleaved set: an untimed warm-up round, then `rounds` timed rounds
/// over `workloads`, each repetition followed by its set-up samples.
pub fn measure_set(
    ccq: &Path,
    workloads: &[&'static Workload],
    seed: u64,
    rounds: usize,
) -> Vec<Samples> {
    let mut all: Vec<Samples> = workloads.iter().map(|_| Samples::default()).collect();
    for round in 0..=rounds {
        let timed = round > 0;
        for i in round_order(workloads.len(), round) {
            let w = workloads[i];
            all[i].run_rep(ccq, w, seed, timed);
            all[i].run_setup(w, seed, timed);
        }
        eprintln!("  round {round}/{rounds} done{}", if timed { "" } else { " (warm-up)" });
    }
    for (samples, w) in all.iter_mut().zip(workloads) {
        samples.check_expected(w, seed);
    }
    all
}

/// The human-readable result table of one set.
pub fn print_set(workloads: &[&'static Workload], set: &[Samples]) {
    println!("| workload | metric | median | q1 | q3 | spread | n | unit |");
    println!("|---|---|---|---|---|---|---|---|");
    for (w, samples) in workloads.iter().zip(set) {
        let row = |name: &str, s: Summary, unit: &str| {
            println!(
                "| {} | {name} | {:.6} | {:.6} | {:.6} | {:.2}% | {} | {unit} |",
                w.name,
                s.median,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                s.n
            );
        };
        for (slot, def) in METRICS.iter().enumerate() {
            row(def.name, samples.summary(slot), def.unit);
        }
    }
    println!();
    for (w, samples) in workloads.iter().zip(set) {
        println!(
            "{}: ops_total {} ops_failed {} over {} timed repetitions ({})",
            w.name,
            samples.ops_total,
            samples.ops_failed,
            samples.reps(),
            if w.sweep.is_some() {
                "an operation is a simulated request completed in a verified case"
            } else {
                "an operation is a printed table row"
            }
        );
        for p in &samples.problems {
            println!("  PROBLEM {p}");
        }
    }
}

/// One metric of the driver's result line.
#[derive(Serialize)]
pub struct Reading {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reading>,
}

/// Metrics by name, as both the result line and `trace.json` carry them.
pub fn readings(metrics: &[(&'static str, f64, &'static str)]) -> BTreeMap<String, Reading> {
    metrics
        .iter()
        .map(|&(name, value, unit)| {
            // The driver takes numbers only; a ratio over nothing reads 0.
            let value = if value.is_finite() { value } else { 0.0 };
            (name.to_string(), Reading { value, unit })
        })
        .collect()
}

/// The driver's result line: `correct`, `attempted` (at least 1), `failed`,
/// `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let line =
        ResultLine { correct, attempted: attempted.max(1), failed, metrics: readings(metrics) };
    check::json(&line)
}

/// `agree`: two full sets back to back; per workload and metric both
/// medians, how much worse the second is, and the declared bound. Returns
/// whether every difference stays within its bound.
pub fn agree(ccq: &Path, workloads: &[&'static Workload], seed: u64, rounds: usize) -> bool {
    eprintln!("set 1 of 2");
    let first = measure_set(ccq, workloads, seed, rounds);
    eprintln!("set 2 of 2");
    let second = measure_set(ccq, workloads, seed, rounds);
    println!("| workload | metric | set 1 median | set 2 median | |difference| | bound | within |");
    println!("|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (i, w) in workloads.iter().enumerate() {
        for (slot, def) in METRICS.iter().enumerate() {
            let (a, b) = (first[i].summary(slot).median, second[i].summary(slot).median);
            let diff = worsening(a, b, def.higher_is_better).abs();
            let within = diff <= def.bound;
            ok &= within;
            println!(
                "| {} | {} | {a:.6} | {b:.6} | {:.2}% | {:.0}% | {} |",
                w.name,
                def.name,
                100.0 * diff,
                100.0 * def.bound,
                if within { "yes" } else { "NO" }
            );
        }
    }
    println!();
    for (w, (a, b)) in workloads.iter().zip(first.iter().zip(&second)) {
        println!(
            "{}: ops_failed {} of {} (set 1), {} of {} (set 2)",
            w.name, a.ops_failed, a.ops_total, b.ops_failed, b.ops_total
        );
        for p in a.problems.iter().chain(&b.problems) {
            println!("  PROBLEM {p}");
        }
        ok &= a.correct() && b.correct();
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_the_starting_workload() {
        assert_eq!(round_order(5, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(round_order(5, 1), vec![1, 2, 3, 4, 0]);
        assert_eq!(round_order(5, 7), vec![2, 3, 4, 0, 1]);
        // Over five consecutive rounds every workload starts exactly once.
        let mut starts: Vec<usize> = (3..8).map(|r| round_order(5, r)[0]).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 1, 2, 3, 4]);
        assert_eq!(round_order(1, 9), vec![0]);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_json(true, 0, 0, &[("wall_s", 1.25, "s")]);
        let doc = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(1), "attempted is at least 1");
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }
}
