//! End-to-end measurement: a closed loop of one client that spawns the
//! release `ccq` binary once per repetition and checks what it printed, in
//! blocks of a few seconds, each followed by a child of its own that samples
//! the workload's set-up cost. Tracing is off.
//!
//! A metric's reading is the best of the run's repetitions (the fastest, the
//! smallest). The reference box slows by 20–40 % for milliseconds to seconds
//! at a time, so the median of a run moves by 15–30 % from run to run; the
//! fastest of some hundreds of short repetitions falls between those bursts.
//! Every ten minutes or so the box also runs everything 10–15 % slower for a
//! minute, the fastest repetition included, and now and then the bursts
//! leave no gap at all for minutes, so even the fastest spreads by 15–26 %
//! over ten runs. `wall_rel` holds through all of it: each repetition is
//! divided by the reference kernel run right after it
//! ([`crate::reference`]), which is as long and slows with it, and the
//! reading is the median of those ratios (README "Noise").

use crate::check::{self, Outcome};
use crate::stats::{worsening, Summary};
use crate::sys::{run_child, run_child_on_one_cpu, ChildRun};
use crate::workloads::Workload;
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// An end-to-end metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen, as
    /// `BENCHMARK.json` declares it; `None` for a metric that is printed for
    /// people only and is in neither `BENCHMARK.json` nor the result line.
    pub bound: Option<f64>,
}

/// The end-to-end metrics, in output order. Plain seconds have no bound the
/// PR driver allows (at most 0.25): in a bad ten minutes ten runs of one
/// binary spread by 26 % in `wall_s`. Only `setup_s`, which the driver
/// requires, stays, at 0.25. `wall_rel` spread by 1–5 % in 28 sets of ten
/// runs and by 7 % in two, so its bound is 0.15, not ISSUE 16's 0.10: the
/// driver refuses a benchmark whose own runs spread beyond its bound.
pub const METRICS: [MetricDef; 6] = [
    MetricDef { name: "wall_s", unit: "s", higher_is_better: false, bound: None },
    MetricDef { name: "cpu_s", unit: "s", higher_is_better: false, bound: None },
    MetricDef { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: None },
    MetricDef { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: Some(0.10) },
    MetricDef { name: "setup_s", unit: "s", higher_is_better: false, bound: Some(0.25) },
    MetricDef { name: "wall_rel", unit: "ratio", higher_is_better: false, bound: Some(0.15) },
];

/// Fewest timed blocks a reading is taken over, in every mode.
pub const MIN_BLOCKS: usize = 7;

/// How long one block repeats the workload before it samples set-up.
const BLOCK: Duration = Duration::from_secs(2);

/// Indices of `setup_s` and `wall_rel` in [`METRICS`] and
/// [`Samples::values`].
const SETUP: usize = 4;
const REL: usize = 5;

/// How long set-up builds are repeated after each block: thousands of times
/// for a sub-millisecond build, about thirty for `sparse_scale`'s.
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

/// Spawn `ccq` on `argv` — the workload's, or a variant of it — on one CPU
/// when `pinned`, and check its output as the workload's.
pub fn run_rep(ccq: &Path, w: &Workload, argv: &[String], pinned: bool) -> Rep {
    let child = if pinned { run_child_on_one_cpu(ccq, argv) } else { run_child(ccq, argv) };
    let child = match child {
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

/// Run this binary on `args` — on one CPU when `pinned` — and return the
/// child if it exited with 0.
fn run_own_child(args: &[&str], pinned: bool) -> Option<ChildRun> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let exe = std::env::current_exe().ok()?;
    let child = if pinned { run_child_on_one_cpu(&exe, &args) } else { run_child(&exe, &args) };
    child.ok().filter(|child| child.exit_code == Some(0))
}

/// Everything measured for one workload over the timed repetitions.
#[derive(Default)]
pub struct Samples {
    /// Per-metric sample vectors, indexed like [`METRICS`]: one value per
    /// repetition (for `wall_rel` the repetition over the reference kernel
    /// that followed it), for `setup_s` one per block.
    pub values: [Vec<f64>; 6],
    /// Timed blocks run so far.
    pub blocks: usize,
    pub ops_total: u64,
    pub ops_failed: u64,
    pub problems: Vec<String>,
    /// Outcome of the first repetition seen (warm-up included): every later
    /// one must print the same statistics, the simulator being deterministic.
    first: Option<Outcome>,
}

impl Samples {
    /// Run one repetition and the reference kernel after it, check the
    /// repetition against the first and, when `timed`, record both.
    pub fn run_rep(&mut self, ccq: &Path, w: &Workload, seed: u64, timed: bool) {
        let rep = run_rep(ccq, w, &(w.argv)(seed), w.pinned);
        let mut problems = rep.outcome.problems.clone();
        match &self.first {
            None => self.first = Some(rep.outcome.clone()),
            Some(first) if problems.is_empty() && first.lines != rep.outcome.lines => {
                problems.push("same seed printed different statistics than before".to_string());
            }
            Some(_) => {}
        }
        // The reference kernel, in a child spawned as the repetition was.
        let kernel = run_own_child(&["reference"], w.pinned).map(|child| child.wall_s);
        if kernel.is_none() {
            problems.push("the reference child failed".to_string());
        }
        if timed {
            // A failed repetition fails every operation of it; when it did
            // not even report a count, charge what a good one completes.
            let ops = match rep.outcome.ops {
                0 => self.first.as_ref().map_or(1, |r| r.ops.max(1)),
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
            self.values[REL].push(c.wall_s / kernel.unwrap_or(f64::NAN));
        }
        self.problems.extend(problems.into_iter().map(|p| format!("{}: {p}", w.name)));
    }

    /// One block: repetitions for [`BLOCK`] (at least one), then a set-up
    /// sample.
    pub fn run_block(&mut self, ccq: &Path, w: &Workload, seed: u64, timed: bool) {
        let start = Instant::now();
        let before = self.reps();
        while self.reps() == before || start.elapsed() < BLOCK {
            self.run_rep(ccq, w, seed, timed);
            if !timed {
                break; // a warm-up block is one repetition
            }
        }
        self.run_setup(w, seed, timed);
        if timed {
            self.blocks += 1;
            let fastest = self.values[0][before..].iter().copied().fold(f64::INFINITY, f64::min);
            eprintln!(
                "  {} block {}: {} repetitions, fastest {fastest:.4} s",
                w.name,
                self.blocks,
                self.reps() - before
            );
        }
    }

    /// Take this block's `setup_s` sample in a `ccq-benchmark setup`
    /// child ([`fastest_setup`]): a process of its own, as every `ccq` run
    /// is, so the sample depends neither on what this process built before
    /// nor on its heap, and this process stays a few MiB small (a child's
    /// `ru_maxrss` starts from its spawner's peak).
    pub fn run_setup(&mut self, w: &Workload, seed: u64, timed: bool) {
        let sample =
            run_own_child(&["setup", "--only", w.name, "--seed", &seed.to_string()], false)
                .and_then(|child| {
                    String::from_utf8_lossy(&child.stdout).trim().parse::<f64>().ok()
                });
        match sample {
            Some(seconds) if timed => self.values[SETUP].push(seconds),
            Some(_) => {}
            None => self.problems.push(format!("{}: the set-up child failed", w.name)),
        }
    }

    /// Compare the first repetition with `expected/`.
    pub fn check_expected(&mut self, w: &Workload, seed: u64) {
        if let Some(first) = &self.first {
            self.problems.extend(check::compare_expected(w.name, seed, first));
        }
    }

    pub fn reps(&self) -> usize {
        self.values[0].len()
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.ops_failed == 0 && self.reps() > 0
    }

    /// Extremes, median, quartiles and sample count of metric `slot`.
    pub fn summary(&self, slot: usize) -> Summary {
        Summary::of(&self.values[slot]).expect("at least one timed repetition")
    }

    /// The reading of metric `slot`: the best of its samples; for `wall_rel`
    /// their median.
    pub fn reading(&self, slot: usize) -> f64 {
        let s = self.summary(slot);
        if slot == REL {
            return s.median;
        }
        if METRICS[slot].higher_is_better {
            s.max
        } else {
            s.min
        }
    }
}

/// Contract mode: one workload, a warm-up block, then timed blocks for
/// `seconds`, and until there are [`MIN_BLOCKS`] of them.
pub fn measure_one(ccq: &Path, w: &Workload, seed: u64, seconds: u64) -> Samples {
    let mut samples = Samples::default();
    samples.run_block(ccq, w, seed, false);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while samples.blocks < MIN_BLOCKS || start.elapsed() < budget {
        samples.run_block(ccq, w, seed, true);
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
/// of one block per workload.
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
            all[i].run_block(ccq, w, seed, timed);
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
    println!("| workload | metric | reading | median | q1 | q3 | spread | n | unit |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, samples) in workloads.iter().zip(set) {
        let row = |name: &str, reading: f64, s: Summary, unit: &str| {
            println!(
                "| {} | {name} | {reading:.6} | {:.6} | {:.6} | {:.6} | {:.2}% | {} | {unit} |",
                w.name,
                s.median,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                s.n
            );
        };
        for (slot, def) in METRICS.iter().enumerate() {
            row(def.name, samples.reading(slot), samples.summary(slot), def.unit);
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
/// readings, how much worse the second is, and the declared bound. Returns
/// whether every difference stays within its bound.
pub fn agree(ccq: &Path, workloads: &[&'static Workload], seed: u64, rounds: usize) -> bool {
    eprintln!("set 1 of 2");
    let first = measure_set(ccq, workloads, seed, rounds);
    eprintln!("set 2 of 2");
    let second = measure_set(ccq, workloads, seed, rounds);
    println!("| workload | metric | set 1 | set 2 | |difference| | bound | within |");
    println!("|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (i, w) in workloads.iter().enumerate() {
        for (slot, def) in METRICS.iter().enumerate() {
            let (a, b) = (first[i].reading(slot), second[i].reading(slot));
            let diff = worsening(a, b, def.higher_is_better).abs();
            let (bound, within) = match def.bound {
                Some(bound) if diff <= bound => (format!("{:.0}%", 100.0 * bound), "yes"),
                Some(bound) => (format!("{:.0}%", 100.0 * bound), "NO"),
                None => ("none".to_string(), "-"),
            };
            ok &= within != "NO";
            println!(
                "| {} | {} | {a:.6} | {b:.6} | {:.2}% | {bound} | {within} |",
                w.name,
                def.name,
                100.0 * diff
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
