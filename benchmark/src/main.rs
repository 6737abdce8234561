//! `ccq-benchmark` — the repository's benchmark: five `ccq` command lines
//! measured end to end, and an outside-in trace of the layers behind
//! them. See `README.md` beside this crate.
//!
//! ```text
//! ccq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload, as the PR driver runs it. `--trace 0` prints the
//!     end-to-end metrics, `--trace 1` the per-layer ones; the last line of
//!     stdout is one JSON object.
//! ccq-benchmark run   [--seed N] [--rounds R] [--only W]
//!     All workloads round-robin: 1 warm-up round + R timed rounds of one
//!     two-second block of repetitions per workload.
//! ccq-benchmark trace [--seed N] [--only W]
//!     The traced pass over all workloads; writes out/trace.json.
//! ccq-benchmark agree [--seed N] [--rounds R] [--only W]
//!     Two `run` sets back to back; exit 1 if they differ by more than a bound.
//! ccq-benchmark bless
//!     Regenerate expected/<workload>.json at the default seed.
//! ccq-benchmark setup --only W [--seed N]
//!     One `setup_s` sample, in seconds; the other modes spawn this.
//! ccq-benchmark reference
//!     The reference kernel once; the other modes spawn and time this.
//! ```

mod alloc;
mod check;
mod measure;
mod reference;
mod stats;
mod sys;
mod trace;
mod workloads;

use measure::{measure_one, measure_set, run_rep, Samples, METRICS, MIN_BLOCKS};
use std::path::{Path, PathBuf};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_ROUNDS: usize = 9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    /// One `setup_s` sample of one workload, for the process that spawned it.
    Setup,
    /// The reference kernel once, for the process that spawned and times it.
    Reference,
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
    if rounds < MIN_BLOCKS {
        return Err(format!("--rounds must be at least {MIN_BLOCKS}: fewer are noise"));
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
        Some("setup") if only.is_some() => Mode::Setup,
        Some("setup") => return Err("setup needs --only <workload>".to_string()),
        Some("reference") => Mode::Reference,
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
    for w in &cmd.workloads {
        println!("- {}: {}", w.name, w.why);
    }
    println!();
}

fn execute(cmd: Cmd) -> i32 {
    // These two need no `ccq` binary, and print nothing but a number.
    match cmd.mode {
        Mode::Setup => {
            println!("{}", measure::fastest_setup(cmd.workloads[0], cmd.seed));
            return 0;
        }
        Mode::Reference => {
            println!("{}", reference::kernel());
            return 0;
        }
        _ => {}
    }
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
        Mode::Setup | Mode::Reference => {
            unreachable!("handled before the ccq binary was looked up")
        }
    }
}

fn end_to_end_line(samples: &Samples) -> String {
    let metrics: Vec<_> = METRICS
        .iter()
        .enumerate()
        .filter(|(_, def)| def.bound.is_some())
        .map(|(slot, def)| (def.name, samples.reading(slot), def.unit))
        .collect();
    measure::result_json(samples.correct(), samples.ops_total, samples.ops_failed, &metrics)
}

/// Trace every selected workload, print each, and write `out/trace.json`.
fn trace_all(ccq: &Path, cmd: &Cmd) -> Vec<trace::Trace> {
    let mut traces = Vec::new();
    for &w in &cmd.workloads {
        // The untraced reference the in-process run is compared with.
        let child = trace::nth_child(ccq, w, &(w.argv)(cmd.seed), w.pinned, 0);
        let mut t = (0..trace::PASSES)
            .map(|_| trace::trace_workload(w, cmd.seed, &child))
            .min_by(|a, b| a.in_process_s.total_cmp(&b.in_process_s))
            .expect("at least one pass");
        trace::trace_shard_children(&mut t, ccq, w, cmd.seed, &child);
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
        let rep = run_rep(ccq, w, &(w.argv)(DEFAULT_SEED), w.pinned);
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
        let cmd = parse(&args("setup --only sparse_scale --seed 3")).unwrap();
        assert!(matches!(cmd.mode, Mode::Setup));
        assert_eq!((cmd.seed, cmd.workloads.len(), cmd.workloads[0].name), (3, 1, "sparse_scale"));
        assert!(parse(&args("setup")).is_err_and(|e| e.contains("--only")));
    }

    /// `BENCHMARK.json` declares what this binary prints: the same workloads
    /// with the same reasons, and the same metrics with unit, direction and
    /// bound, in the same order.
    #[test]
    fn benchmark_json_declares_what_is_printed() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        // Every row of `key` as its fields' texts, a row having only those fields.
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let list = doc.get(key).unwrap().as_array().unwrap();
            list.iter()
                .map(|row| {
                    assert_eq!(row.as_object().unwrap().len(), fields.len(), "{key}");
                    fields
                        .iter()
                        .map(|f| row.get(f).unwrap().as_str().unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
        let workloads: Vec<_> =
            WORKLOADS.iter().map(|w| vec![w.name.to_string(), w.why.to_string()]).collect();
        assert_eq!(rows("workloads", &["name", "why"]), workloads);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let per_layer: Vec<_> = trace::LAYER_METRICS
            .iter()
            .map(|m| vec![m.name.to_string(), m.unit.to_string(), better(m.higher_is_better)])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), per_layer);
        let end_to_end = doc.get("end_to_end").unwrap().as_array().unwrap();
        let bounded: Vec<_> = METRICS.iter().filter(|m| m.bound.is_some()).collect();
        assert_eq!(end_to_end.len(), bounded.len());
        for (row, m) in end_to_end.iter().zip(bounded) {
            assert_eq!(row.as_object().unwrap().len(), 4, "{}", m.name);
            assert_eq!(row.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(row.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(row.get("better").unwrap().as_str().unwrap(), better(m.higher_is_better));
            assert_eq!(row.get("bound").unwrap().as_f64(), m.bound, "{}", m.name);
        }
    }
}
