//! `ccq` — the command-line harness over the protocol registry.
//!
//! ```text
//! ccq list
//!     Show every experiment, protocol and topology the harness knows.
//!
//! ccq run --exp t4[,t9,...]|all [--full]
//!     Run experiment drivers and print their tables.
//!
//! ccq sweep [--topo <topos>] [--proto <protos>] [--modes <modes>]
//!           [--pattern <patterns>] [--arrival <arrivals>] [--delay <delays>]
//!           [--admission <policies>] [--priority <specs>] [--fault <crashes>]
//!           [--shards <plans>] [--parallel-apply] [--wavefront[:lag=d]]
//!           [--timing] [--checkpoint-every N] [--node-hashes]
//!           [--perturb R:V] [--qqc <fields>]
//!           [--repeats N] [--seed S] [--json -|PATH] [--pretty]
//!     Build a RunPlan, execute it, and print tables — or JSON with
//!     `--json` (`-` writes JSON to stdout and nothing else). Without
//!     `--topo` the sweep runs on the default pair mesh2d:8 + torus2d:4.
//!
//! ccq record [sweep flags] --rec PATH [--json -|PATH]
//!     Run a sweep and save a `.ccqrec` recording: the run-defining argv
//!     (all sampling is hash-seeded, so the argv IS the run) plus the
//!     produced JSON, checkpointed every 64 rounds unless
//!     `--checkpoint-every` says otherwise.
//!
//! ccq replay <file> [--json -|PATH]
//!     Re-execute a recording's argv and verify the output is
//!     byte-identical to what was recorded. Exit 0 on a faithful replay,
//!     3 on mismatch (with the first divergent checkpoint when the
//!     recording has them), 2 on unreadable/malformed recordings.
//!
//! ccq bisect <cfgA> <cfgB> [shared sweep flags]
//!     Run the same sweep under two configurations (each a quoted string
//!     of extra sweep flags) in hash-lockstep — per-round checkpoints
//!     with per-node digests — and report the exact first divergent
//!     (round, phase, node). Exit 0 when the runs agree everywhere,
//!     3 on divergence, 2 on errors.
//!
//! Topologies:  name[:param[:param...]] — e.g. mesh2d:8, complete:256,
//!              tree:2:5, random-regular:64:4:7. Bare names use defaults.
//! Protocols:   registry names (ccq list), width overrides like
//!              counting-network:8, and the groups
//!              all|queuing|counting|relaxed.
//! Modes:       paper (default: queuing expanded, counting strict) or a
//!              list from strict,expanded.
//! Patterns:    all | random:<density>[:seed] | tail:<count>
//! Arrivals:    oneshot | poisson:rate=R[:seed=S]
//!              | bursty:rate=R:on=N:off=N[:seed=S]
//!              | hotspot:rate=R[:s=E][:seed=S]
//! Delays:      unit | fixed:d=N | perlink:max=N[:seed=S]
//!              | jitter:max=N[:seed=S]
//! Admissions:  open | droptail:bound=N | delayretry:bound=N[:backoff=N]
//!              | adaptive:target=N[:gain=N]
//!              | pernode:bound=N[:protect=C] — backpressure against the
//!              live backlog (pernode reads the requester's shard backlog
//!              and always admits classes below `protect`). `--admission
//!              open` runs the same plan as no flag (byte-identical JSON).
//! Priorities:  uniform | split:frac=F[:seed=S] — tag each node with a
//!              priority class (0 = high with probability F, else 1) and
//!              order same-round admissions by relaxed power-of-two-choice
//!              priority selection. Reports gain per-class latency
//!              percentiles. `--priority uniform` runs the same plan as no
//!              flag (byte-identical JSON).
//! Faults:      crash:at=R:node=N:recover=R2 — node N is down for rounds
//!              [R, R2): it neither drains its receive queue nor transmits,
//!              and its own arrivals defer until recovery; protocols
//!              self-stabilize when the frozen queues drain. Repeat the
//!              flag (or comma-join) for up to 4 crash windows composed
//!              into one fault plan. Fault runs refuse `--wavefront` with
//!              a named error.
//! Shards:      k[:strategy][:ferry=D] with strategy one of contig
//!              (default), stripe, edgecut — e.g. 4, 4:edgecut,
//!              2:contig:ferry=10 (fixed D-round inter-shard ferry).
//!              `--shards 1` runs the same plan as no flag
//!              (byte-identical JSON).
//! Apply path:  `--parallel-apply` runs protocol handlers shard-parallel
//!              on their per-node state slices. Pure execution strategy:
//!              the JSON is byte-identical to the serialized sweep.
//! Wavefront:   `--wavefront[:lag=d]` runs the sharded executor's
//!              wavefront pipeline — shards execute up to d rounds ahead
//!              of the inter-shard barrier (bare `--wavefront` takes the
//!              lag from the ferry's minimum delay). Needs `--shards`
//!              with k ≥ 2 and a ferry at least as slow as the lag;
//!              misconfigurations fail with a named error. Byte-identical
//!              JSON to the lockstep sweep.
//! Probes:      `--timing` adds per-phase round timing to each case;
//!              `--checkpoint-every N` hashes engine state at every phase
//!              barrier of every Nth round; `--node-hashes` adds per-node
//!              digests to each checkpointed barrier; `--perturb R:V`
//!              plants a transmit-skip at round R on node V (the bisect
//!              test fault).
//! QQC:         `--qqc <fields>` prints a consistency table after the
//!              sweep: per-case QQC lateness (rank displacement of the
//!              verified output order against the canonical linearization
//!              of issue order), one column per requested field from
//!              max, mean, p50, p95, p99. The JSON always carries all
//!              five `qqc_*` fields per case, flag or no flag.
//! ```

use ccq_repro::core::experiments::{self, Scale};
use ccq_repro::core::plan::RunPlan;
use ccq_repro::core::protocol::{self, registry, ProtocolKind, ProtocolSpec};
use ccq_repro::core::scenario::DEFAULT_RECORD_EVERY;
use ccq_repro::prelude::*;
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
            say!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("ccq: unknown command `{other}`\n");
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
ccq — counting vs queuing harness

usage:
  ccq list                          show experiments, protocols, topologies
  ccq run --exp <ids>|all [--full]  run experiment drivers, print tables
  ccq sweep [--topo <topos>] [--proto <protos>] [--modes paper|strict,expanded]
            [--pattern <patterns>] [--arrival <arrivals>] [--delay <delays>]
            [--admission <policies>] [--priority <uniform|split:frac=F[:seed=S]>]
            [--fault <crash:at=R:node=N:recover=R2>]
            [--shards <k[:strategy][:ferry=D]>]
            [--parallel-apply] [--wavefront[:lag=d]]
            [--timing] [--checkpoint-every N]
            [--node-hashes] [--perturb R:V] [--qqc max,mean,p50,p95,p99]
            [--repeats N] [--seed S] [--json -|PATH] [--pretty]
  ccq record [sweep flags] --rec PATH [--json -|PATH]
                                    run a sweep, save a .ccqrec recording
  ccq replay <file> [--json -|PATH] re-run a recording, verify byte-identity
  ccq bisect <cfgA> <cfgB> [shared sweep flags]
                                    find the first divergent (round, phase,
                                    node) between two configurations

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
  ccq sweep --topo torus2d:6 --shards 4 --parallel-apply --json -
  ccq sweep --topo torus2d:6 --shards 4:ferry=6 --wavefront:lag=4 --json -
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
    say!("\nprotocols (ccq sweep --proto <name>):");
    for p in registry() {
        let width = match p.effective_width(64) {
            Some(_) => "  [accepts :width]",
            None => "",
        };
        say!("  {:<17} {}{}", p.name(), p.kind().label(), width);
    }
    say!("\nprotocol groups: all, queuing, counting, relaxed");
    say!("\ntopologies (ccq sweep --topo <name[:params]>):");
    for (syntax, desc) in TOPOLOGIES {
        say!("  {syntax:<38} {desc}");
    }
    say!("\npatterns: all | random:<density>[:seed] | tail:<count>");
    say!(
        "\narrivals (ccq sweep --arrival): oneshot | poisson:rate=R[:seed=S] | \
         bursty:rate=R:on=N:off=N[:seed=S] | hotspot:rate=R[:s=E][:seed=S]"
    );
    say!(
        "delays (ccq sweep --delay): unit | fixed:d=N | perlink:max=N[:seed=S] | \
         jitter:max=N[:seed=S]"
    );
    say!(
        "admissions (ccq sweep --admission): open | droptail:bound=N | \
         delayretry:bound=N[:backoff=N] | adaptive:target=N[:gain=N] | \
         pernode:bound=N[:protect=C]"
    );
    say!(
        "priorities (ccq sweep --priority): uniform | split:frac=F[:seed=S] — \
         two-class traffic with relaxed-priority admission ordering and \
         per-class latency percentiles"
    );
    say!(
        "faults (ccq sweep --fault): crash:at=R:node=N:recover=R2 — node N down \
         for rounds [R, R2); repeat or comma-join for up to 4 crash windows \
         (incompatible with --wavefront)"
    );
    say!(
        "shards (ccq sweep --shards): k[:strategy][:ferry=D], strategy = contig | stripe | \
         edgecut, ferry=D a fixed inter-shard delay"
    );
    say!(
        "apply path (ccq sweep --parallel-apply): shard-parallel handler application \
         on per-node state slices; JSON byte-identical to the serialized path"
    );
    say!(
        "wavefront (ccq sweep --wavefront[:lag=d]): shards run up to d rounds ahead of \
         the inter-shard barrier (bare flag: lag = ferry minimum delay); needs --shards \
         k>=2 and ferry >= lag; JSON byte-identical to the lockstep path"
    );
    say!("probes (ccq sweep): --timing | --checkpoint-every N | --node-hashes | --perturb R:V");
    say!(
        "consistency (ccq sweep --qqc max,mean,p50,p95,p99): print per-case QQC lateness \
         (rank displacement vs the issue-order linearization) for the chosen fields; \
         the JSON always carries every qqc_* field"
    );
    say!("record/replay: ccq record … --rec PATH, ccq replay PATH, ccq bisect <cfgA> <cfgB> …");
    0
}

const TOPOLOGIES: &[(&str, &str)] = &[
    ("complete[:n=64]", "complete graph K_n"),
    ("list[:n=64]", "path on n vertices"),
    ("mesh2d[:side=8]", "side x side mesh"),
    ("mesh3d[:side=4]", "side^3 mesh"),
    ("hypercube[:dim=6]", "2^dim-vertex hypercube"),
    ("tree[:m=2[:depth=5]]", "perfect m-ary tree"),
    ("star[:n=64]", "star, hub = 0"),
    ("caterpillar[:spine=32[:legs=2]]", "spine with legs leaves each"),
    ("figure1", "the paper's 6-node Figure 1 graph"),
    ("torus2d[:side=8]", "side x side torus"),
    ("random-regular[:n=64[:d=4[:seed=1]]]", "random d-regular graph"),
];

fn cmd_run(args: &[String]) -> i32 {
    let mut exp_ids: Option<Vec<String>> = None;
    let mut scale = Scale::Quick;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => match it.next() {
                Some(v) => exp_ids = Some(v.split(',').map(str::to_string).collect()),
                None => return fail("--exp needs a value (e.g. t4 or all)"),
            },
            "--full" => scale = Scale::Full,
            other => return fail(&format!("unknown `ccq run` flag `{other}`")),
        }
    }
    let Some(ids) = exp_ids else {
        return fail("ccq run requires --exp <ids>|all");
    };
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

/// The sweep flags that shape output only; everything else `parse_sweep`
/// reads goes straight into the [`RunPlan`].
struct SweepOutput {
    json: Option<String>,
    pretty: bool,
    qqc: Option<Vec<String>>,
}

/// The QQC lateness statistics `--qqc` can select, in display order.
const QQC_FIELDS: [&str; 5] = ["max", "mean", "p50", "p95", "p99"];

/// The per-case QQC lateness table `--qqc` requests: one row per case,
/// one column per selected statistic.
fn qqc_table(set: &RunSet, fields: &[String]) -> Table {
    use ccq_repro::core::table::fmt_util::{f2, int, tick};
    let mut headers: Vec<&str> = vec!["topology", "protocol", "kind", "arrival", "ok"];
    for f in fields {
        headers.push(match f.as_str() {
            "max" => "qqc_max",
            "mean" => "qqc_mean",
            "p50" => "qqc_p50",
            "p95" => "qqc_p95",
            _ => "qqc_p99",
        });
    }
    let mut t =
        Table::new("QQC lateness (rank displacement vs issue-order linearization)", &headers);
    for c in &set.cases {
        let mut row = vec![
            c.topology.clone(),
            c.protocol.clone(),
            c.kind.label().into(),
            c.arrival.clone(),
            tick(c.ok),
        ];
        for f in fields {
            row.push(match f.as_str() {
                "max" => int(c.qqc_max),
                "mean" => f2(c.qqc_mean),
                "p50" => int(c.qqc_p50),
                "p95" => int(c.qqc_p95),
                _ => int(c.qqc_p99),
            });
        }
        t.push_row(row);
    }
    t.note("lateness compares the verified output order to the canonical linearization of");
    t.note("issue order (stable by issue round), per class when a priority split is active");
    t
}

/// Parse and execute a sweep argv, returning the compact [`RunSet`] JSON —
/// the byte string recordings store and replays compare against. `sweep`,
/// `record`, `replay` and `bisect` all build their plan in [`parse_sweep`],
/// so a recorded argv re-runs through exactly the path that produced it.
fn execute_sweep(args: &[String]) -> Result<String, String> {
    let (plan, _) = parse_sweep(args)?;
    Ok(plan.execute().to_json())
}

fn cmd_sweep(args: &[String]) -> i32 {
    let (plan, out) = match parse_sweep(args) {
        Ok(p) => p,
        Err(msg) => return fail(&msg),
    };
    let set = plan.execute();

    let failed = set.cases.iter().filter(|c| !c.ok).count();
    match out.json.as_deref() {
        Some("-") => {
            // JSON only on stdout so the output pipes into other tools.
            let json = if out.pretty { set.to_json_pretty() } else { set.to_json() };
            say!("{json}");
        }
        Some(path) => {
            let json = if out.pretty { set.to_json_pretty() } else { set.to_json() };
            if let Err(e) = std::fs::write(path, json + "\n") {
                return fail(&format!("cannot write {path}: {e}"));
            }
            eprintln!("wrote {path}");
            say!("{}", set.case_table());
            say!("{}", set.summary_table());
            if let Some(fields) = &out.qqc {
                say!("{}", qqc_table(&set, fields));
            }
        }
        None => {
            say!("{}", set.case_table());
            say!("{}", set.summary_table());
            if let Some(fields) = &out.qqc {
                say!("{}", qqc_table(&set, fields));
            }
        }
    }
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
    let every = argv
        .windows(2)
        .find(|w| w[0] == "--checkpoint-every")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(0);
    let output = match execute_sweep(&argv) {
        Ok(o) => o,
        Err(msg) => return fail(&msg),
    };
    let rec = Recording::new(argv, every, output);
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
    let replayed = match execute_sweep(&rec.argv) {
        Ok(o) => o,
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
    let (plan, _) = parse_sweep(argv)?;
    let set = plan.execute();
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

/// Build the sweep's [`RunPlan`] as the argv is read: scalar flags go
/// onto the plan at once, comma/repeat lists accumulate here and are set
/// when non-empty (an unset dimension keeps [`RunPlan::new`]'s default).
fn parse_sweep(args: &[String]) -> Result<(RunPlan, SweepOutput), String> {
    let mut plan = RunPlan::new();
    let mut out = SweepOutput { json: None, pretty: false, qqc: None };
    let mut topos = Vec::new();
    let mut protos: Vec<Box<dyn ProtocolSpec>> = Vec::new();
    let mut patterns = Vec::new();
    let mut arrivals = Vec::new();
    let mut delays = Vec::new();
    let mut admissions = Vec::new();
    let mut priorities = Vec::new();
    let mut faults = FaultSpec::none();
    let mut shards = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--topo" => {
                for tok in value("--topo")?.split(',') {
                    topos.push(parse_topo(tok)?);
                }
            }
            "--proto" => {
                for tok in value("--proto")?.split(',') {
                    parse_proto(tok, &mut protos)?;
                }
            }
            "--modes" => {
                let v = value("--modes")?;
                if v != "paper" {
                    let mut modes = Vec::new();
                    for tok in v.split(',') {
                        modes.push(match tok {
                            "strict" => ModelMode::Strict,
                            "expanded" => ModelMode::Expanded,
                            other => return Err(format!("unknown mode `{other}`")),
                        });
                    }
                    plan = plan.modes(modes);
                }
            }
            "--pattern" => {
                for tok in value("--pattern")?.split(',') {
                    patterns.push(parse_pattern(tok)?);
                }
            }
            "--arrival" => {
                for tok in value("--arrival")?.split(',') {
                    arrivals.push(parse_arrival(tok)?);
                }
            }
            "--delay" => {
                for tok in value("--delay")?.split(',') {
                    delays.push(parse_delay(tok)?);
                }
            }
            "--admission" => {
                for tok in value("--admission")?.split(',') {
                    admissions.push(parse_admission(tok)?);
                }
            }
            "--priority" => {
                for tok in value("--priority")?.split(',') {
                    priorities.push(parse_priority(tok)?);
                }
            }
            "--fault" => {
                // Each token adds one crash window; repeated flags and
                // comma-joined tokens compose into a single fault plan.
                for tok in value("--fault")?.split(',') {
                    faults = parse_fault(tok, faults)?;
                }
            }
            "--shards" => {
                for tok in value("--shards")?.split(',') {
                    shards.push(parse_shards(tok)?);
                }
            }
            "--parallel-apply" => plan = plan.parallel_apply(true),
            "--wavefront" => plan = plan.wavefront(Some(0)),
            "--timing" => plan = plan.timing(true),
            "--checkpoint-every" => {
                let every: u64 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "--checkpoint-every needs an integer ≥ 1".to_string())?;
                if every < 1 {
                    return Err("--checkpoint-every needs an integer ≥ 1".to_string());
                }
                plan = plan.checkpoint_every(every);
            }
            "--node-hashes" => plan = plan.node_hashes(true),
            "--qqc" => {
                let mut fields = Vec::new();
                for tok in value("--qqc")?.split(',') {
                    if !QQC_FIELDS.contains(&tok) {
                        return Err(format!(
                            "unknown qqc field `{tok}` (expected one of: {})",
                            QQC_FIELDS.join(", ")
                        ));
                    }
                    if fields.iter().any(|f| f == tok) {
                        return Err(format!("qqc field `{tok}` given twice"));
                    }
                    fields.push(tok.to_string());
                }
                out.qqc = Some(fields);
            }
            "--perturb" => {
                let v = value("--perturb")?;
                let (r, n) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--perturb wants round:node, got `{v}`"))?;
                let round = r.parse().map_err(|_| format!("bad round in `--perturb {v}`"))?;
                let node = n.parse().map_err(|_| format!("bad node in `--perturb {v}`"))?;
                plan = plan.perturb(round, node);
            }
            "--repeats" => {
                let repeats =
                    value("--repeats")?.parse().map_err(|_| "--repeats needs an integer")?;
                plan = plan.repeats(repeats);
            }
            "--seed" => {
                let seed = value("--seed")?.parse().map_err(|_| "--seed needs an integer")?;
                plan = plan.seed(seed);
            }
            "--json" => out.json = Some(value("--json")?.to_string()),
            "--pretty" => out.pretty = true,
            other if other.starts_with("--wavefront:") => {
                let raw = &other["--wavefront:".len()..];
                let Some(lag) = raw.strip_prefix("lag=") else {
                    return Err(format!(
                        "bad `--wavefront` parameter `{raw}` (want --wavefront[:lag=d])"
                    ));
                };
                let lag: u64 = lag
                    .parse()
                    .map_err(|_| format!("bad lag in `{other}` (want --wavefront[:lag=d])"))?;
                if lag < 1 {
                    return Err(
                        "--wavefront:lag=d needs d ≥ 1 (bare --wavefront resolves the lag \
                         from the ferry's minimum delay)"
                            .to_string(),
                    );
                }
                plan = plan.wavefront(Some(lag));
            }
            other => return Err(format!("unknown `ccq sweep` flag `{other}`")),
        }
    }
    if topos.is_empty() {
        // Default pair: one mesh, one beyond-paper torus — so open-system
        // sweeps exercise at least two topologies out of the box.
        topos = vec![TopoSpec::Mesh2D { side: 8 }, TopoSpec::Torus2D { side: 4 }];
    }
    plan = plan.topologies(topos).protocols(protos.iter().map(|p| p.as_ref())).faults([faults]);
    if !patterns.is_empty() {
        plan = plan.patterns(patterns);
    }
    if !arrivals.is_empty() {
        plan = plan.arrivals(arrivals);
    }
    if !delays.is_empty() {
        plan = plan.delays(delays);
    }
    if !admissions.is_empty() {
        plan = plan.admissions(admissions);
    }
    if !priorities.is_empty() {
        plan = plan.priorities(priorities);
    }
    if !shards.is_empty() {
        plan = plan.shards(shards);
    }
    Ok((plan, out))
}

/// Largest shard count the CLI accepts — every shard carries per-node
/// state, so a typo like `--shards 40000000` should fail fast.
const MAX_CLI_SHARDS: usize = 4096;

/// Largest network width / leaf count the CLI accepts — a width-w network
/// is built balancer by balancer before the first round, and past this
/// the build alone takes many seconds.
const MAX_CLI_WIDTH: usize = 4096;

fn parse_shards(token: &str) -> Result<ShardSpec, String> {
    let mut parts = token.split(':');
    let k_raw = parts.next().unwrap_or_default();
    let k: usize = k_raw
        .parse()
        .map_err(|_| format!("bad shard count in `{token}` (want k[:strategy][:ferry=D])"))?;
    if k < 1 {
        return Err(format!("shard count must be ≥ 1 in `{token}`"));
    }
    if k > MAX_CLI_SHARDS {
        return Err(format!("shard count must be ≤ {MAX_CLI_SHARDS} in `{token}`"));
    }
    let mut strategy: Option<ShardStrategy> = None;
    let mut ferry: Option<u64> = None;
    for part in parts {
        if let Some(raw) = part.strip_prefix("ferry=") {
            if ferry.is_some() {
                return Err(format!("field `ferry` given twice in `{token}`"));
            }
            let d: u64 = raw
                .parse()
                .map_err(|_| format!("bad value `{raw}` for field `ferry` in `{token}`"))?;
            ferry = Some(check_bound(token, "ferry", d, 1)?);
            continue;
        }
        let parsed = match part {
            "contig" | "contiguous" => ShardStrategy::Contiguous,
            "stripe" | "striped" => ShardStrategy::Striped,
            "edgecut" => ShardStrategy::EdgeCut,
            other => {
                return Err(format!(
                    "unknown shard strategy `{other}` in `{token}` \
                     (contig | stripe | edgecut, or ferry=D)"
                ))
            }
        };
        if strategy.is_some() {
            return Err(format!("shard strategy given twice in `{token}`"));
        }
        strategy = Some(parsed);
    }
    let mut spec = ShardSpec::new(k, strategy.unwrap_or(ShardStrategy::Contiguous));
    if let Some(d) = ferry {
        spec = spec.with_inter_delay(LinkDelay::Fixed { delay: d });
    }
    Ok(spec)
}

/// Split `key=value` parameters of a spec token, validating keys against
/// `allowed` so error messages can name the offending field.
fn kv_params<'a>(
    token: &'a str,
    parts: &[&'a str],
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    for part in parts {
        let Some((key, value)) = part.split_once('=') else {
            return Err(format!("expected key=value, got `{part}` in `{token}`"));
        };
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown field `{key}` in `{token}` (expected one of: {})",
                allowed.join(", ")
            ));
        }
        if out.iter().any(|&(k, _)| k == key) {
            return Err(format!("field `{key}` given twice in `{token}`"));
        }
        out.push((key, value));
    }
    Ok(out)
}

/// Parse one field of a key=value spec, naming the field on failure.
fn field<T: std::str::FromStr>(
    token: &str,
    params: &[(&str, &str)],
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match params.iter().find(|&&(k, _)| k == key) {
        Some(&(_, raw)) => {
            raw.parse().map_err(|_| format!("bad value `{raw}` for field `{key}` in `{token}`"))
        }
        None => default.ok_or_else(|| format!("missing required field `{key}` in `{token}`")),
    }
}

/// A per-node probability (`rate`, `density`): in (0, 1], which also
/// rejects NaN.
fn check_unit(token: &str, key: &str, v: f64) -> Result<f64, String> {
    if v > 0.0 && v <= 1.0 {
        Ok(v)
    } else {
        Err(format!("field `{key}` must be in (0, 1], got {v} in `{token}`"))
    }
}

fn parse_arrival(token: &str) -> Result<ArrivalSpec, String> {
    let parts: Vec<&str> = token.split(':').collect();
    match parts[0] {
        "oneshot" | "batch" => {
            kv_params(token, &parts[1..], &[])?;
            Ok(ArrivalSpec::OneShot)
        }
        "poisson" => {
            let p = kv_params(token, &parts[1..], &["rate", "seed"])?;
            Ok(ArrivalSpec::Poisson {
                rate: check_unit(token, "rate", field(token, &p, "rate", None)?)?,
                seed: field(token, &p, "seed", Some(1))?,
            })
        }
        "bursty" => {
            let p = kv_params(token, &parts[1..], &["rate", "on", "off", "seed"])?;
            Ok(ArrivalSpec::Bursty {
                rate: check_unit(token, "rate", field(token, &p, "rate", None)?)?,
                on: check_bound(token, "on", field(token, &p, "on", None)?, 1)?,
                off: check_bound(token, "off", field(token, &p, "off", None)?, 0)?,
                seed: field(token, &p, "seed", Some(1))?,
            })
        }
        "hotspot" | "zipf" => {
            let p = kv_params(token, &parts[1..], &["rate", "s", "seed"])?;
            Ok(ArrivalSpec::Hotspot {
                rate: check_unit(token, "rate", field(token, &p, "rate", None)?)?,
                s: field(token, &p, "s", Some(1.1))?,
                seed: field(token, &p, "seed", Some(1))?,
            })
        }
        other => Err(format!(
            "unknown arrival `{other}` (oneshot | poisson:rate=R[:seed=S] | \
             bursty:rate=R:on=N:off=N[:seed=S] | hotspot:rate=R[:s=E][:seed=S])"
        )),
    }
}

/// Largest per-hop delay the CLI accepts — big enough for any plausible
/// heterogeneity study, small enough that round arithmetic cannot overflow.
const MAX_CLI_DELAY: u64 = 1_000_000;

/// Largest admission bound/target the CLI accepts (a backlog can never
/// exceed the processor count, itself capped at `MAX_CLI_N`).
const MAX_CLI_BOUND: u64 = MAX_CLI_N as u64;

fn parse_admission(token: &str) -> Result<AdmissionSpec, String> {
    let parts: Vec<&str> = token.split(':').collect();
    let bound_field = |p: &[(&str, &str)], key: &str| -> Result<usize, String> {
        let v: u64 = field(token, p, key, None)?;
        if v < 1 {
            Err(format!("field `{key}` must be ≥ 1 in `{token}`"))
        } else if v > MAX_CLI_BOUND {
            Err(format!("field `{key}` must be ≤ {MAX_CLI_BOUND} in `{token}`"))
        } else {
            Ok(v as usize)
        }
    };
    match parts[0] {
        "open" => {
            kv_params(token, &parts[1..], &[])?;
            Ok(AdmissionSpec::Open)
        }
        "droptail" => {
            let p = kv_params(token, &parts[1..], &["bound"])?;
            Ok(AdmissionSpec::DropTail { bound: bound_field(&p, "bound")? })
        }
        "delayretry" => {
            let p = kv_params(token, &parts[1..], &["bound", "backoff"])?;
            Ok(AdmissionSpec::DelayRetry {
                bound: bound_field(&p, "bound")?,
                backoff: check_bound(token, "backoff", field(token, &p, "backoff", Some(4))?, 1)?,
            })
        }
        "adaptive" => {
            let p = kv_params(token, &parts[1..], &["target", "gain"])?;
            Ok(AdmissionSpec::Adaptive {
                target_backlog: bound_field(&p, "target")?,
                gain: check_bound(token, "gain", field(token, &p, "gain", Some(1))?, 1)?,
            })
        }
        "pernode" => {
            let p = kv_params(token, &parts[1..], &["bound", "protect"])?;
            Ok(AdmissionSpec::PerNode {
                bound: bound_field(&p, "bound")?,
                protect: field(token, &p, "protect", Some(0))?,
            })
        }
        other => Err(format!(
            "unknown admission `{other}` (open | droptail:bound=N | \
             delayretry:bound=N[:backoff=N] | adaptive:target=N[:gain=N] | \
             pernode:bound=N[:protect=C])"
        )),
    }
}

fn parse_priority(token: &str) -> Result<PrioritySpec, String> {
    let parts: Vec<&str> = token.split(':').collect();
    match parts[0] {
        "uniform" => {
            kv_params(token, &parts[1..], &[])?;
            Ok(PrioritySpec::Uniform)
        }
        "split" => {
            let p = kv_params(token, &parts[1..], &["frac", "seed"])?;
            let frac: f64 = field(token, &p, "frac", None)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("field `frac` must be in [0, 1], got {frac} in `{token}`"));
            }
            Ok(PrioritySpec::Split { frac, seed: field(token, &p, "seed", Some(1))? })
        }
        other => Err(format!("unknown priority `{other}` (uniform | split:frac=F[:seed=S])")),
    }
}

/// Parse one `--fault` token and fold its crash window into `spec`.
fn parse_fault(token: &str, spec: FaultSpec) -> Result<FaultSpec, String> {
    let parts: Vec<&str> = token.split(':').collect();
    match parts[0] {
        "crash" => {
            let p = kv_params(token, &parts[1..], &["at", "node", "recover"])?;
            let at = check_bound(token, "at", field(token, &p, "at", None)?, 1)?;
            let recover = check_bound(token, "recover", field(token, &p, "recover", None)?, 1)?;
            if recover <= at {
                return Err(format!(
                    "field `recover` must be after field `at` in `{token}` \
                     (the node is down for rounds [at, recover))"
                ));
            }
            let node: u64 = field(token, &p, "node", None)?;
            if node >= MAX_CLI_N as u64 {
                return Err(format!("field `node` must be < {MAX_CLI_N} in `{token}`"));
            }
            let spec = spec.crash(node as usize, at, recover);
            // The engine holds a fixed number of crash windows; surface
            // its capacity error at parse time (exit 2, not a case error).
            spec.plan().map_err(|e| format!("`{token}`: {e}"))?;
            Ok(spec)
        }
        other => Err(format!("unknown fault `{other}` (crash:at=R:node=N:recover=R2)")),
    }
}

fn check_bound(token: &str, key: &str, v: u64, min: u64) -> Result<u64, String> {
    if v < min {
        Err(format!("field `{key}` must be ≥ {min} in `{token}`"))
    } else if v > MAX_CLI_DELAY {
        Err(format!("field `{key}` must be ≤ {MAX_CLI_DELAY} in `{token}`"))
    } else {
        Ok(v)
    }
}

fn parse_delay(token: &str) -> Result<LinkDelay, String> {
    let parts: Vec<&str> = token.split(':').collect();
    match parts[0] {
        "unit" => {
            kv_params(token, &parts[1..], &[])?;
            Ok(LinkDelay::Unit)
        }
        "fixed" => {
            let p = kv_params(token, &parts[1..], &["d"])?;
            let d = check_bound(token, "d", field(token, &p, "d", None)?, 1)?;
            Ok(LinkDelay::Fixed { delay: d })
        }
        "perlink" => {
            let p = kv_params(token, &parts[1..], &["max", "seed"])?;
            let max = check_bound(token, "max", field(token, &p, "max", None)?, 1)?;
            Ok(LinkDelay::PerLink { max, seed: field(token, &p, "seed", Some(1))? })
        }
        "jitter" => {
            let p = kv_params(token, &parts[1..], &["max", "seed"])?;
            let max = check_bound(token, "max", field(token, &p, "max", None)?, 0)?;
            Ok(LinkDelay::Jitter { max, seed: field(token, &p, "seed", Some(1))? })
        }
        other => Err(format!(
            "unknown delay `{other}` (unit | fixed:d=N | perlink:max=N[:seed=S] | \
             jitter:max=N[:seed=S])"
        )),
    }
}

/// Largest processor count the CLI will build — keeps typos like
/// `hypercube:40` from attempting terabyte allocations.
const MAX_CLI_N: usize = 1 << 22;

/// Largest edge count the CLI will build: the dense families reach
/// gigabytes of adjacency long before they reach `MAX_CLI_N` processors
/// (`complete:8192`, 33.5 M edges and about 1 GB, still runs).
const MAX_CLI_EDGES: usize = 1 << 26;

fn parse_topo(token: &str) -> Result<TopoSpec, String> {
    let mut parts = token.split(':');
    let name = parts.next().unwrap_or_default();
    let params: Vec<usize> = parts
        .map(|p| p.parse().map_err(|_| format!("bad numeric parameter in `{token}`")))
        .collect::<Result<_, _>>()?;
    if params.contains(&0) {
        return Err(format!("topology parameters must be ≥ 1 in `{token}`"));
    }
    // `ccq list`'s syntax column is the grammar.
    if let Some((syntax, _)) = TOPOLOGIES.iter().find(|t| t.0.split('[').next() == Some(name)) {
        check_arity(token, syntax)?;
    }
    let p = |i: usize, default: usize| params.get(i).copied().unwrap_or(default);
    let spec = match name {
        "complete" => TopoSpec::Complete { n: p(0, 64) },
        "list" => TopoSpec::List { n: p(0, 64) },
        "mesh2d" => TopoSpec::Mesh2D { side: p(0, 8) },
        "mesh3d" => TopoSpec::Mesh3D { side: p(0, 4) },
        "hypercube" => TopoSpec::Hypercube { dim: p(0, 6) },
        "tree" => {
            let m = p(0, 2);
            if m < 2 {
                return Err(format!("tree arity must be ≥ 2 in `{token}` (tree:<arity>:<depth>)"));
            }
            TopoSpec::PerfectTree { m, depth: p(1, 5) }
        }
        "star" => TopoSpec::Star { n: p(0, 64) },
        "caterpillar" => TopoSpec::Caterpillar { spine: p(0, 32), legs: p(1, 2) },
        "figure1" => TopoSpec::Figure1,
        "torus2d" => {
            let side = p(0, 8);
            if side < 3 {
                return Err(format!(
                    "torus side must be ≥ 3 in `{token}` (a shorter ring doubles its own edges)"
                ));
            }
            TopoSpec::Torus2D { side }
        }
        "random-regular" => {
            let (n, d) = (p(0, 64), p(1, 4));
            if d >= n || !(n * d).is_multiple_of(2) {
                return Err(format!(
                    "random-regular needs d < n and n·d even, got n={n} d={d} in `{token}`"
                ));
            }
            TopoSpec::RandomRegular { n, d, seed: p(2, 1) as u64 }
        }
        other => return Err(format!("unknown topology `{other}` (see `ccq list`)")),
    };
    let n = approx_size(&spec);
    if n > MAX_CLI_N {
        return Err(format!("`{token}` would build {n} processors (limit {MAX_CLI_N})"));
    }
    let edges = match spec {
        TopoSpec::Complete { n } => n.saturating_mul(n - 1) / 2,
        TopoSpec::Hypercube { dim } => n.saturating_mul(dim) / 2,
        TopoSpec::RandomRegular { n, d, .. } => n.saturating_mul(d) / 2,
        // Paths, stars, trees, meshes and tori: at most three edges a processor.
        _ => n,
    };
    if edges > MAX_CLI_EDGES {
        return Err(format!("`{token}` would build {edges} edges (limit {MAX_CLI_EDGES})"));
    }
    Ok(spec)
}

/// Processor count a spec resolves to, saturating (pre-build sanity check).
fn approx_size(spec: &TopoSpec) -> usize {
    match *spec {
        TopoSpec::Complete { n } | TopoSpec::List { n } | TopoSpec::Star { n } => n,
        TopoSpec::Mesh2D { side } | TopoSpec::Torus2D { side } => side.saturating_mul(side),
        TopoSpec::Mesh3D { side } => side.saturating_mul(side).saturating_mul(side),
        TopoSpec::Hypercube { dim } => 1usize.checked_shl(dim as u32).unwrap_or(usize::MAX),
        TopoSpec::PerfectTree { m, depth } => {
            let mut n = 1usize;
            let mut level = 1usize;
            for _ in 0..depth {
                level = level.saturating_mul(m);
                n = n.saturating_add(level);
            }
            n
        }
        TopoSpec::Caterpillar { spine, legs } => spine.saturating_mul(legs.saturating_add(1)),
        TopoSpec::Figure1 => 6,
        TopoSpec::RandomRegular { n, .. } => n,
    }
}

fn parse_proto(token: &str, into: &mut Vec<Box<dyn ProtocolSpec>>) -> Result<(), String> {
    match token {
        "all" => {
            into.extend(registry().iter().map(|p| p.clone_spec()));
            return Ok(());
        }
        "queuing" => {
            into.extend(protocol::registry_of(ProtocolKind::Queuing).map(|p| p.clone_spec()));
            return Ok(());
        }
        "counting" => {
            into.extend(protocol::registry_of(ProtocolKind::Counting).map(|p| p.clone_spec()));
            return Ok(());
        }
        "relaxed" => {
            into.extend(protocol::registry_of(ProtocolKind::Relaxed).map(|p| p.clone_spec()));
            return Ok(());
        }
        _ => {}
    }
    let (name, width) = match token.split_once(':') {
        Some((name, w)) => {
            let w: usize =
                w.parse().map_err(|_| format!("bad width in `{token}` (want name:width)"))?;
            (name, Some(w))
        }
        None => (token, None),
    };
    if let Some(w) = width {
        let checked = || {
            if w.is_power_of_two() && (2..=MAX_CLI_WIDTH).contains(&w) {
                Ok(Some(w))
            } else {
                Err(format!(
                    "width must be a power of two in 2..={MAX_CLI_WIDTH}, got {w} in `{token}`"
                ))
            }
        };
        let spec: Box<dyn ProtocolSpec> = match name {
            "counting-network" => Box::new(protocol::CountingNetwork { width: checked()? }),
            "periodic-network" => Box::new(protocol::PeriodicNetwork { width: checked()? }),
            "toggle-tree" => Box::new(protocol::ToggleTree { leaves: checked()? }),
            other => return Err(format!("protocol `{other}` does not take a width")),
        };
        into.push(spec);
        return Ok(());
    }
    match protocol::find(name) {
        Some(spec) => {
            into.push(spec.clone_spec());
            Ok(())
        }
        None => {
            let known: Vec<&str> = registry().iter().map(|p| p.name()).collect();
            Err(format!("unknown protocol `{name}` (known: {})", known.join(", ")))
        }
    }
}

/// Reject parameters beyond those `grammar` spells — one `:` apiece, in
/// the token as in the grammar — instead of silently dropping them.
fn check_arity(token: &str, grammar: &str) -> Result<(), String> {
    if token.matches(':').count() > grammar.matches(':').count() {
        return Err(format!("too many parameters in `{token}` (want {grammar})"));
    }
    Ok(())
}

fn parse_pattern(token: &str) -> Result<RequestPattern, String> {
    let parts: Vec<&str> = token.split(':').collect();
    match parts[0] {
        "all" => check_arity(token, "all").map(|()| RequestPattern::All),
        "random" => {
            check_arity(token, "random:<density>[:seed]")?;
            let density: f64 = parts
                .get(1)
                .ok_or("random pattern needs a density (random:<density>[:seed])")?
                .parse()
                .map_err(|_| format!("bad density in `{token}`"))?;
            let density = check_unit(token, "density", density)?;
            let seed: u64 = match parts.get(2) {
                Some(s) => s.parse().map_err(|_| format!("bad seed in `{token}`"))?,
                None => 1,
            };
            Ok(RequestPattern::Random { density, seed })
        }
        "tail" => {
            check_arity(token, "tail:<count>")?;
            let count: usize = parts
                .get(1)
                .ok_or("tail pattern needs a count (tail:<count>)")?
                .parse()
                .map_err(|_| format!("bad count in `{token}`"))?;
            Ok(RequestPattern::TailCluster { count })
        }
        other => Err(format!("unknown pattern `{other}` (all | random:<d>[:seed] | tail:<n>)")),
    }
}

fn fail(msg: &str) -> i32 {
    eprintln!("ccq: {msg}");
    2
}
