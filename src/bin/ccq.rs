//! `ccq` — the command-line harness over the protocol registry: `list`,
//! `run`, `sweep`, `record`, `replay`, `bisect`.
//!
//! `ccq --help` documents every command and flag. The sweep grammar is not
//! written here: `ccq_core::spec` owns the table and the argv → `RunPlan`
//! parser, and this file only drives the plan and prints.

use ccq_repro::core::experiments::{self, Scale};
use ccq_repro::core::protocol::registry;
use ccq_repro::core::scenario::DEFAULT_RECORD_EVERY;
use ccq_repro::core::spec;
use ccq_repro::replay::{first_divergence, Recording};

/// `println!` for `ccq`'s stdout. A reader that has closed the pipe
/// (`ccq run --exp all | head -1`) ends the process quietly, where
/// `println!` would panic with a backtrace.
macro_rules! say {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

fn write_stdout(line: std::fmt::Arguments) {
    use std::io::Write;
    match writeln!(std::io::stdout(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("ccq: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("bisect") => cmd_bisect(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            say!("{}", usage());
            0
        }
        Some(other) => {
            eprintln!("ccq: unknown command `{other}`\n");
            eprintln!("{}", usage());
            2
        }
    };
    std::process::exit(code);
}

/// The commands, then the sweep grammar as `ccq_core::spec` renders it,
/// then examples (which `tests/cli_ccq.rs` parses, so they stay valid).
fn usage() -> String {
    format!("{COMMANDS}\n{}\n{EXAMPLES}", spec::grammar())
}

const COMMANDS: &str = "\
ccq — counting vs queuing harness

usage:
  ccq list                          show experiments, protocols and the sweep grammar
  ccq run --exp <ids>|all [--full]  run experiment drivers, print tables
                                    (--full = paper scale)
  ccq sweep [sweep flags]           build a RunPlan from the flags below, execute it,
                                    print tables — or JSON with --json; exit 1 when a
                                    case fails verification
  ccq record [sweep flags] --rec PATH [--json -|PATH]
                                    run a sweep, save a .ccqrec recording: the argv
                                    (all sampling is hash-seeded, so the argv IS the
                                    run) plus its JSON, checkpointed every 64 rounds
                                    unless --checkpoint-every says otherwise
  ccq replay <file> [--json -|PATH] re-run a recording's argv, verify byte-identity:
                                    exit 0 faithful, 3 mismatch (naming the first
                                    divergent checkpoint), 2 unreadable recording
  ccq bisect <cfgA> <cfgB> [shared sweep flags]
                                    run one sweep under two configurations (each a
                                    quoted string of extra sweep flags) in
                                    hash-lockstep and report the first divergent
                                    (round, phase, node): exit 0 agree, 3 diverge";

const EXAMPLES: &str = "\
examples:
  ccq run --exp t4
  ccq sweep --topo mesh2d --proto arrow,central-counter --json -
  ccq sweep --topo complete:256,hypercube:8 --proto queuing --repeats 3
  ccq sweep --arrival poisson:rate=0.2 --delay jitter:max=3 --json -
  ccq sweep --topo mesh2d:5 --arrival poisson:rate=0.85 --qqc mean,max,p99
  ccq sweep --arrival poisson:rate=0.8 --admission droptail:bound=16 --json -
  ccq sweep --arrival poisson:rate=0.6 --priority split:frac=0.25 \\
            --admission pernode:bound=8:protect=1 --json -
  ccq sweep --arrival poisson:rate=0.4 --fault crash:at=6:node=3:recover=14 --json -
  ccq sweep --topo torus2d:6 --shards 4:edgecut --json -
  ccq sweep --topo torus2d:6 --shards 1,2:stripe,4:contig --json -
  ccq sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --proto arrow,central-counter --json -
  ccq sweep --topo list:16 --proto arrow --timing --checkpoint-every 8 --json -
  ccq record --topo mesh2d --proto arrow --rec arrow.ccqrec
  ccq replay arrow.ccqrec
  ccq bisect \"--shards 4\" \"\" --topo torus2d:6 --proto arrow
  ccq bisect \"--shards 2:contig:ferry=10\" \"--shards 2:contig\" --topo list:8 --proto arrow";

fn cmd_list() -> i32 {
    say!("experiments (ccq run --exp <id>):");
    for e in experiments::registry() {
        say!("  {:<5} {}", e.id, e.paper_item);
    }
    say!("\nregistry protocols:");
    for p in registry() {
        let width = match p.effective_width(64) {
            Some(_) => "  [accepts :width]",
            None => "",
        };
        say!("  {:<17} {}{}", p.name(), p.kind().label(), width);
    }
    say!("{}", spec::grammar());
    say!("record/replay: ccq record … --rec PATH, ccq replay PATH, ccq bisect <cfgA> <cfgB> …");
    0
}

fn cmd_run(args: &[String]) -> i32 {
    // Like every list-valued sweep flag, a repeated `--exp` accumulates.
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => match it.next() {
                Some(v) => ids.extend(v.split(',').map(str::to_string)),
                None => return fail("--exp needs a value (e.g. t4 or all)"),
            },
            "--full" => scale = Scale::Full,
            other => return fail(&format!("unknown `ccq run` flag `{other}`")),
        }
    }
    if ids.is_empty() {
        return fail("ccq run requires --exp <ids>|all");
    }
    let reg = experiments::registry();
    let selected: Vec<_> = if ids.iter().any(|i| i == "all") {
        reg
    } else {
        let known: Vec<&str> = reg.iter().map(|e| e.id).collect();
        for id in &ids {
            if !known.contains(&id.as_str()) {
                return fail(&format!("unknown experiment `{id}` (known: {})", known.join(", ")));
            }
        }
        reg.into_iter().filter(|e| ids.iter().any(|i| i == e.id)).collect()
    };
    for e in selected {
        say!("## {} — {}\n", e.id, e.paper_item);
        for t in (e.run)(scale) {
            say!("{t}");
        }
    }
    0
}

fn cmd_sweep(args: &[String]) -> i32 {
    let sweep = match spec::sweep(args) {
        Ok(s) => s,
        Err(msg) => return fail(&msg),
    };
    let set = sweep.plan.execute();
    if let Some(target) = sweep.json.as_deref() {
        let json = if sweep.pretty { set.to_json_pretty() } else { set.to_json() };
        if let Err(msg) = emit_json(target, &json) {
            return fail(&msg);
        }
    }
    // With `--json -`, JSON only on stdout so the output pipes into other
    // tools.
    if sweep.json.as_deref() != Some("-") {
        say!("{}", set.case_table());
        say!("{}", set.summary_table());
        if let Some(fields) = &sweep.qqc {
            say!("{}", set.qqc_table(fields));
        }
    }
    let failed = set.cases.iter().filter(|c| !c.ok).count();
    if failed > 0 {
        eprintln!("{failed} case(s) failed verification");
        1
    } else {
        0
    }
}

/// Emit a sweep's JSON to `-` (stdout) or a file, as `--json` asked.
fn emit_json(target: &str, json: &str) -> Result<(), String> {
    if target == "-" {
        say!("{json}");
        return Ok(());
    }
    std::fs::write(target, format!("{json}\n"))
        .map_err(|e| format!("cannot write {target}: {e}"))?;
    eprintln!("wrote {target}");
    Ok(())
}

fn cmd_record(args: &[String]) -> i32 {
    // Split the output flags off; everything else is the run-defining
    // argv the recording stores.
    let mut rec_path: Option<String> = None;
    let mut json: Option<String> = None;
    let mut argv: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rec" => match it.next() {
                Some(v) => rec_path = Some(v.clone()),
                None => return fail("--rec needs a path"),
            },
            "--json" => match it.next() {
                Some(v) => json = Some(v.clone()),
                None => return fail("--json needs `-` or a path"),
            },
            other => argv.push(other.to_string()),
        }
    }
    let Some(rec_path) = rec_path else {
        return fail("ccq record requires --rec <path> (e.g. --rec sweep.ccqrec)");
    };
    // Recordings default to checkpointed runs, so replays verify in
    // hash-lockstep rather than only on final bytes. The flag goes into
    // the stored argv: replay re-runs with the same interval by
    // construction, never by convention.
    if !argv.iter().any(|a| a == "--checkpoint-every") {
        argv.push("--checkpoint-every".to_string());
        argv.push(DEFAULT_RECORD_EVERY.to_string());
    }
    // One reading of the argv: the header's interval is the one the plan
    // ran with, whichever `--checkpoint-every` the parser let win.
    let sweep = match spec::sweep(&argv) {
        Ok(s) => s,
        Err(msg) => return fail(&msg),
    };
    let output = sweep.plan.execute().to_json();
    let rec = Recording::new(argv, sweep.checkpoint_every, output);
    if let Err(e) = std::fs::write(&rec_path, rec.to_json() + "\n") {
        return fail(&format!("cannot write {rec_path}: {e}"));
    }
    eprintln!("recorded {} bytes of output to {rec_path}", rec.output.len());
    if let Some(target) = json.as_deref() {
        if let Err(msg) = emit_json(target, &rec.output) {
            return fail(&msg);
        }
    }
    0
}

fn cmd_replay(args: &[String]) -> i32 {
    let mut path: Option<&str> = None;
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(v) => json = Some(v.clone()),
                None => return fail("--json needs `-` or a path"),
            },
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => return fail(&format!("unknown `ccq replay` argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return fail("ccq replay requires a recording path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let rec = match Recording::parse(&text) {
        Ok(r) => r,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    let replayed = match spec::sweep(&rec.argv) {
        Ok(sweep) => sweep.plan.execute().to_json(),
        Err(msg) => return fail(&msg),
    };
    if let Some(target) = json.as_deref() {
        if let Err(msg) = emit_json(target, &replayed) {
            return fail(&msg);
        }
    }
    if replayed == rec.output {
        eprintln!("replay ok: {} bytes reproduced from {path}", replayed.len());
        return 0;
    }
    eprintln!(
        "replay MISMATCH: recorded {} bytes, replayed {} bytes",
        rec.output.len(),
        replayed.len()
    );
    // When the recording carries checkpoints, localize the drift.
    match first_divergence(&rec.output, &replayed) {
        Ok(Some(div)) => eprintln!("first checkpoint divergence: {div}"),
        Ok(None) => eprintln!("checkpoints agree; the difference is outside probed state"),
        Err(e) => eprintln!("cannot localize: {e}"),
    }
    3
}

fn cmd_bisect(args: &[String]) -> i32 {
    if args.len() < 2 {
        return fail(
            "ccq bisect requires two configuration strings, e.g. \
             ccq bisect \"--shards 4\" \"\" --topo torus2d:6 --proto arrow",
        );
    }
    let (cfg_a, cfg_b, shared) = (&args[0], &args[1], &args[2..]);
    // Each side = shared flags + its own configuration, forced into
    // hash-lockstep: per-round checkpoints with per-node digests (these
    // come last, so they win over any user-supplied interval).
    let argv_for = |cfg: &str| {
        let mut argv: Vec<String> = shared.to_vec();
        argv.extend(cfg.split_whitespace().map(str::to_string));
        argv.extend(["--checkpoint-every".to_string(), "1".to_string()]);
        argv.push("--node-hashes".to_string());
        argv
    };
    let a = match bisect_side(&argv_for(cfg_a)) {
        Ok(v) => v,
        Err(msg) => return fail(&format!("config A (`{cfg_a}`): {msg}")),
    };
    let b = match bisect_side(&argv_for(cfg_b)) {
        Ok(v) => v,
        Err(msg) => return fail(&format!("config B (`{cfg_b}`): {msg}")),
    };
    match first_divergence(&a, &b) {
        Err(e) => fail(&e.to_string()),
        Ok(None) => {
            say!("no divergence: both configurations agree on every checkpoint");
            0
        }
        Ok(Some(div)) => {
            say!("{div}");
            3
        }
    }
}

/// One side of a bisection: the sweep's JSON — or the error of its first
/// case that did not run, which has no checkpoint stream to compare (a
/// rejected configuration is not a divergence at round 0).
fn bisect_side(argv: &[String]) -> Result<String, String> {
    let set = spec::sweep(argv)?.plan.execute();
    match set.cases.iter().find(|c| !c.ok) {
        Some(c) => Err(format!(
            "case {} ({}/{}) failed: {}",
            c.case,
            c.topology,
            c.protocol,
            c.error.as_deref().unwrap_or("no error recorded")
        )),
        None => Ok(set.to_json()),
    }
}

fn fail(msg: &str) -> i32 {
    eprintln!("ccq: {msg}");
    2
}
