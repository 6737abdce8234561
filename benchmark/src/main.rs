//! `ccq-benchmark` — the repository's benchmark: five long `ccq` command
//! lines measured end to end, and an outside-in trace of the layers behind
//! them. See `README.md` beside this crate.
//!
//! ```text
//! ccq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload, as the PR driver runs it. `--trace 0` prints the
//!     end-to-end metrics, `--trace 1` the per-layer ones; the last line of
//!     stdout is one JSON object.
//! ccq-benchmark run   [--seed N] [--rounds R] [--only W]
//!     All workloads round-robin: 1 warm-up round + R timed rounds.
//! ccq-benchmark trace [--seed N] [--only W]
//!     The traced pass over all workloads; writes out/trace.json.
//! ccq-benchmark agree [--seed N] [--rounds R] [--only W]
//!     Two `run` sets back to back; exit 1 if they differ by more than a bound.
//! ccq-benchmark bless
//!     Regenerate expected/<workload>.json at the default seed.
//! ccq-benchmark manifest
//!     Print BENCHMARK.json: the declaration of everything above.
//! ```

mod alloc;
mod calib;
mod check;
mod measure;
mod stats;
mod sys;
mod trace;
mod workloads;

use measure::{measure_one, measure_set, run_rep, Samples, METRICS};
use std::path::{Path, PathBuf};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_ROUNDS: usize = 9;
const MIN_ROUNDS: usize = 7;

/// How long the driver lets one run measure (`run_seconds`): seven timed
/// repetitions of the longest workload, and — with the warm-up and the
/// overshoot of the last repetition — 114 runs plus two builds inside the
/// driver's 3420 s.
const RUN_SECONDS: u64 = 18;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["manifest"] {
        // Needs neither a `ccq` binary nor two CPUs.
        print!("{}", manifest());
        return;
    }
    let code = match parse(&args) {
        Ok(cmd) => execute(cmd),
        Err(msg) => {
            eprintln!("ccq-benchmark: {msg}");
            2
        }
    };
    std::process::exit(code);
}

enum Mode {
    /// The driver's contract: one workload for `seconds`, traced or not.
    Single {
        seconds: u64,
        trace: bool,
    },
    Run,
    Trace,
    Agree,
    Bless,
}

struct Cmd {
    mode: Mode,
    seed: u64,
    rounds: usize,
    workloads: Vec<&'static Workload>,
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (sub, flags) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (Some(s), &args[1..]),
        _ => (None, args),
    };
    let (mut workload, mut only, mut seed, mut seconds, mut trace, mut rounds) =
        (None, None, DEFAULT_SEED, None, None, DEFAULT_ROUNDS);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} needs a whole number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--only" => only = Some(value.as_str()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--rounds" => rounds = number()? as usize,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if rounds < MIN_ROUNDS {
        return Err(format!("--rounds must be at least {MIN_ROUNDS}: a median of fewer is noise"));
    }
    let find = |name: &str| {
        Workload::find(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    };
    let selected = match only {
        Some(name) => vec![find(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let mode = match sub {
        None => {
            let name = workload.ok_or("--workload <name> is required (or a subcommand)")?;
            let mode = Mode::Single {
                seconds: seconds.ok_or("--seconds <s> is required with --workload")?,
                trace: trace.ok_or("--trace <0|1> is required with --workload")?,
            };
            return Ok(Cmd { mode, seed, rounds, workloads: vec![find(name)?] });
        }
        Some("run") => Mode::Run,
        Some("trace") => Mode::Trace,
        Some("agree") => Mode::Agree,
        Some("bless") => Mode::Bless,
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
    };
    Ok(Cmd { mode, seed, rounds, workloads: selected })
}

/// The release `ccq` binary: `$CCQ_BIN`, else where cargo put it.
fn ccq_binary() -> Result<PathBuf, String> {
    let path = match std::env::var_os("CCQ_BIN") {
        Some(p) => PathBuf::from(p),
        None => {
            let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
            target.unwrap_or_else(|| PathBuf::from("target")).join("release").join("ccq")
        }
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "no ccq binary at {} — build it (`cargo build --release --offline --bin ccq`, or \
             benchmark/run.sh) or set CCQ_BIN",
            path.display()
        ))
    }
}

/// The environment record every output starts with.
fn print_header(ccq: &Path, cmd: &Cmd) {
    let allowed: Vec<String> = sys::allowed_cpus().iter().map(|c| c.to_string()).collect();
    let size = std::fs::metadata(ccq).map(|m| m.len()).unwrap_or(0);
    println!("# ccq-benchmark");
    println!();
    println!("- nproc: {}", sys::online_cpus());
    println!("- available_parallelism: {}", sys::available_parallelism());
    println!("- cpu affinity: {}", allowed.join(","));
    println!("- ccq binary: {} ({size} bytes)", ccq.display());
    println!("- seed: {}{}", cmd.seed, if cmd.seed == DEFAULT_SEED { " (default)" } else { "" });
    println!("- load: closed loop, one client, one command at a time, tracing off unless stated");
    println!();
}

fn execute(cmd: Cmd) -> i32 {
    let ccq = match ccq_binary() {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("ccq-benchmark: {msg}");
            return 2;
        }
    };
    let nproc = sys::available_parallelism();
    if let Some(w) = cmd.workloads.iter().find(|w| w.threads > nproc) {
        eprintln!(
            "ccq-benchmark: `{}` needs {} runnable threads but only {nproc} are available",
            w.name, w.threads
        );
        return 2;
    }
    print_header(&ccq, &cmd);
    match cmd.mode {
        Mode::Single { seconds, trace: false } => {
            let w = cmd.workloads[0];
            let samples = measure_one(&ccq, w, cmd.seed, seconds);
            measure::print_set(&cmd.workloads, std::slice::from_ref(&samples));
            println!("{}", end_to_end_line(&samples));
            0
        }
        Mode::Single { trace: true, .. } => {
            let traces = trace_all(&ccq, &cmd);
            let t = &traces[0];
            let line = measure::result_json(
                t.problems.is_empty(),
                t.counts.len().max(1) as u64,
                u64::from(!t.problems.is_empty()),
                &t.all_metrics(),
            );
            println!("{line}");
            0
        }
        Mode::Run => {
            let set = measure_set(&ccq, &cmd.workloads, cmd.seed, cmd.rounds);
            measure::print_set(&cmd.workloads, &set);
            for samples in &set {
                println!("{}", end_to_end_line(samples));
            }
            i32::from(!set.iter().all(Samples::correct))
        }
        Mode::Trace => {
            let traces = trace_all(&ccq, &cmd);
            i32::from(!traces.iter().all(|t| t.problems.is_empty()))
        }
        Mode::Agree => {
            let ok = measure::agree(&ccq, &cmd.workloads, cmd.seed, cmd.rounds);
            println!();
            println!(
                "{}",
                if ok { "AGREE: every difference is within its bound" } else { "DISAGREE" }
            );
            i32::from(!ok)
        }
        Mode::Bless => bless(&ccq, &cmd),
    }
}

/// `BENCHMARK.json`, generated from the tables this binary prints from, so
/// the declaration cannot drift from the output.
fn manifest() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", check::json(w.name), check::json(w.why))
        })
        .collect();
    let end_to_end: Vec<String> = METRICS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = trace::LAYER_METRICS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn end_to_end_line(samples: &Samples) -> String {
    let metrics: Vec<_> = METRICS
        .iter()
        .enumerate()
        .map(|(slot, def)| (def.name, samples.summary(slot).median, def.unit))
        .collect();
    measure::result_json(samples.correct(), samples.ops_total, samples.ops_failed, &metrics)
}

/// Trace every selected workload, print each, and write `out/trace.json`.
fn trace_all(ccq: &Path, cmd: &Cmd) -> Vec<trace::Trace> {
    let mut traces = Vec::new();
    for &w in &cmd.workloads {
        // The untraced reference the in-process run is compared with.
        let child = run_rep(ccq, w, cmd.seed);
        let mut t = trace::trace_workload(w, cmd.seed, &child);
        t.problems.extend(child.outcome.problems.iter().cloned());
        t.problems.extend(check::compare_expected(w.name, cmd.seed, &child.outcome));
        trace::print_trace(&t);
        traces.push(t);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let runs: Vec<String> = traces.iter().map(trace::Trace::to_json).collect();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join("trace.json"), format!("[\n{}\n]\n", runs.join(",\n")))
    });
    match written {
        Ok(()) => println!("wrote {}", dir.join("trace.json").display()),
        Err(e) => eprintln!("ccq-benchmark: cannot write {}: {e}", dir.display()),
    }
    traces
}

fn bless(ccq: &Path, cmd: &Cmd) -> i32 {
    for &w in &cmd.workloads {
        let rep = run_rep(ccq, w, DEFAULT_SEED);
        if !rep.outcome.problems.is_empty() {
            eprintln!("ccq-benchmark: refusing to bless `{}`: {:?}", w.name, rep.outcome.problems);
            return 1;
        }
        match check::save_expected(w.name, DEFAULT_SEED, &rep.outcome) {
            Ok(path) => println!("blessed {} ({} operations)", path.display(), rep.outcome.ops),
            Err(e) => {
                eprintln!("ccq-benchmark: cannot write expectation: {e}");
                return 1;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_select_one_workload() {
        let cmd = parse(&args("--workload open_load --seed 3 --seconds 10 --trace 1")).unwrap();
        assert!(matches!(cmd.mode, Mode::Single { seconds: 10, trace: true }));
        assert_eq!((cmd.seed, cmd.workloads.len(), cmd.workloads[0].name), (3, 1, "open_load"));
        assert!(parse(&args("--workload open_load --seed 3 --seconds 10")).is_err());
        assert!(parse(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
    }

    #[test]
    fn subcommands_default_to_every_workload_and_refuse_few_rounds() {
        let cmd = parse(&args("run")).unwrap();
        assert!(matches!(cmd.mode, Mode::Run));
        assert_eq!((cmd.seed, cmd.rounds, cmd.workloads.len()), (DEFAULT_SEED, 9, 5));
        let cmd = parse(&args("agree --rounds 7 --only paper_tables")).unwrap();
        assert_eq!((cmd.rounds, cmd.workloads[0].name), (7, "paper_tables"));
        assert!(parse(&args("run --rounds 6")).is_err_and(|e| e.contains("at least 7")));
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("run --seed")).is_err());
    }

    /// `BENCHMARK.json` at the repository root is `ccq-benchmark manifest`.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        assert_eq!(std::fs::read_to_string(path).unwrap(), manifest());
        let doc = serde_json::from_str(&manifest()).expect("the manifest is JSON");
        assert_eq!(doc.get("workloads").unwrap().as_array().unwrap().len(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
