//! End-to-end tests of the `ccq` binary: the acceptance sweeps emit valid
//! JSON on stdout (and nothing else), `list` and `run` work, and bad input
//! fails with a helpful message.

mod common;

use ccq_repro::core::spec;
use common::{assert_all_ok, case_str, case_u64, cases, ccq, json_stdout};

/// Each sweep argv exits 2 and prints exactly `ccq: <message>`, the
/// message `spec::sweep` returns in-process (whose wording the table test
/// in `crates/core/src/spec.rs` pins row by row) — one spawn per family
/// is enough to show the binary adds the prefix and the exit code.
fn assert_exit_2(rows: &[&[&str]]) {
    for args in rows {
        let msg = spec::sweep(args).err().unwrap_or_else(|| panic!("{args:?} should not parse"));
        let out = ccq(&[&["sweep"], *args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        assert_eq!(String::from_utf8_lossy(&out.stderr), format!("ccq: {msg}\n"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn sweep_json_stdout_is_pure_valid_json() {
    let out =
        ccq(&["sweep", "--topo", "mesh2d", "--proto", "arrow,central-counter", "--json", "-"]);
    let doc = json_stdout(&out);
    let cs = cases(&doc);
    assert_eq!(cs.len(), 2);
    let names: Vec<&str> = cs.iter().map(|c| case_str(c, "protocol")).collect();
    assert_eq!(names, vec!["arrow", "central-counter"]);
    for case in cs {
        assert!(case_u64(case, "total_delay") > 0);
        assert!(case_u64(case, "messages") > 0);
        assert!(case.get("max_contention").and_then(|v| v.as_u64()).is_some());
    }
}

#[test]
fn sweep_supports_width_params_topology_params_and_groups() {
    let out = ccq(&[
        "sweep",
        "--topo",
        "mesh2d:4,complete:16",
        "--proto",
        "queuing,counting-network:4",
        "--repeats",
        "2",
        "--seed",
        "5",
        "--json",
        "-",
    ]);
    let doc = json_stdout(&out);
    let cs = cases(&doc);
    // 2 topologies × 2 repeats × (4 queuing + 1 width-pinned network).
    assert_eq!(cs.len(), 2 * 2 * 5);
    assert!(cs.iter().any(|c| {
        case_str(c, "protocol") == "counting-network" && c.get("width").unwrap().as_u64() == Some(4)
    }));
}

#[test]
fn list_names_every_registry_protocol() {
    let out = ccq(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "arrow",
        "central-counter",
        "counting-network",
        "toggle-tree",
        "crdt-counter",
        "relaxed",
        "t4",
        "t13",
        "t14",
        "droptail",
    ] {
        assert!(stdout.contains(name), "missing {name} in ccq list");
    }
    // Exactly the ten registry protocols are listed (one bullet each).
    assert_eq!(ccq_repro::core::protocol::registry().len(), 10);
    for spec in ccq_repro::core::protocol::registry() {
        assert!(stdout.contains(spec.name()), "missing {} in ccq list", spec.name());
    }
}

#[test]
fn run_executes_an_experiment_driver() {
    let out = ccq(&["run", "--exp", "fig1"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Figure 1"), "driver output missing: {stdout}");
    // A repeated `--exp` accumulates like every list-valued sweep flag:
    // both experiments run, in registry order, a duplicate once.
    let listed = ccq(&["run", "--exp", "fig1,t7"]);
    let repeated = ccq(&["run", "--exp", "t7", "--exp", "fig1", "--exp", "t7"]);
    assert!(repeated.status.success(), "stderr: {}", String::from_utf8_lossy(&repeated.stderr));
    assert_eq!(repeated.stdout, listed.stdout, "--exp t7 --exp fig1 must equal --exp fig1,t7");
    let headings = String::from_utf8(repeated.stdout).unwrap();
    let headings: Vec<_> = headings.lines().filter(|l| l.starts_with("## ")).collect();
    assert_eq!(headings.len(), 2, "{headings:?}");
    assert!(headings[0].starts_with("## fig1") && headings[1].starts_with("## t7"));
}

/// A reader that closes the pipe after the first line (`ccq … | head -1`)
/// ends `ccq` quietly: exit 0, no `println!` panic, no backtrace.
#[test]
fn closed_stdout_pipe_ends_the_process_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccq"))
        .args(["run", "--exp", "all"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ccq runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    // The heading is printed before its experiment runs, so nearly all of
    // the output is still to come when the pipe closes.
    drop(stdout);
    let out = child.wait_with_output().expect("ccq exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("## fig1"), "unexpected first line: {first}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "a closed pipe must not be reported: {stderr}");
}

#[test]
fn open_system_sweep_reports_latency_percentiles() {
    // The PR-2 acceptance command: no --topo (defaults to two topologies),
    // all registry protocols, Poisson arrivals on jittered links.
    let out =
        ccq(&["sweep", "--arrival", "poisson:rate=0.2", "--delay", "jitter:max=3", "--json", "-"]);
    let doc = json_stdout(&out);
    let cs = cases(&doc);
    // All 10 registry protocols on the 2 default topologies.
    assert_eq!(cs.len(), 20);
    let topologies: std::collections::BTreeSet<&str> =
        cs.iter().map(|c| case_str(c, "topology")).collect();
    assert!(topologies.len() >= 2, "expected ≥ 2 topologies, got {topologies:?}");
    let protocols: std::collections::BTreeSet<&str> =
        cs.iter().map(|c| case_str(c, "protocol")).collect();
    assert_eq!(protocols.len(), 10, "expected all registry protocols, got {protocols:?}");
    assert_all_ok(&doc);
    for case in cs {
        assert!(case_str(case, "arrival").starts_with("poisson"));
        assert!(case_str(case, "delay").starts_with("jitter"));
        assert!(case.get("throughput").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let (p50, p95, p99) = (
            case_u64(case, "latency_p50"),
            case_u64(case, "latency_p95"),
            case_u64(case, "latency_p99"),
        );
        assert!(p50 <= p95 && p95 <= p99, "unordered percentiles: {case:?}");
        if case_str(case, "protocol") == "crdt-counter" {
            // Coordination-free completion: nothing ever queues.
            assert_eq!(case_u64(case, "backlog"), 0);
        } else {
            assert!(case_u64(case, "backlog") > 0);
        }
    }
}

#[test]
fn backpressure_acceptance_sweep_reports_goodput_and_drops() {
    // The PR-4 acceptance command: all 10 protocols × default topologies
    // under the AIMD throttle — ordered percentiles, goodput ≤ throughput,
    // and (a delaying policy) zero drops.
    let out = ccq(&[
        "sweep",
        "--arrival",
        "poisson:rate=0.8",
        "--admission",
        "adaptive:target=32",
        "--json",
        "-",
    ]);
    let doc = json_stdout(&out);
    let cs = cases(&doc);
    assert_eq!(cs.len(), 20, "10 protocols × 2 default topologies");
    assert_all_ok(&doc);
    let protocols: std::collections::BTreeSet<&str> =
        cs.iter().map(|c| case_str(c, "protocol")).collect();
    assert_eq!(protocols.len(), 10);
    for case in cs {
        assert_eq!(case_str(case, "admission"), "adaptive(target=32,gain=1)");
        let (p50, p95, p99) = (
            case_u64(case, "latency_p50"),
            case_u64(case, "latency_p95"),
            case_u64(case, "latency_p99"),
        );
        assert!(p50 <= p95 && p95 <= p99, "unordered percentiles: {case:?}");
        let thr = case.get("throughput").and_then(|v| v.as_f64()).unwrap();
        let goodput = case.get("goodput").and_then(|v| v.as_f64()).unwrap();
        assert!(goodput <= thr + 1e-12, "goodput > throughput: {case:?}");
        assert_eq!(case_u64(case, "dropped"), 0, "adaptive must not shed: {case:?}");
    }
    let plan = doc.get("plan").unwrap();
    assert_eq!(
        plan.get("admissions").and_then(|v| v.as_array()).unwrap().len(),
        1,
        "plan echoes the admission dimension"
    );
}

#[test]
fn admission_open_is_byte_identical_to_no_flag() {
    // The acceptance criterion: `--admission open` must not perturb a
    // sweep's JSON in any way.
    let base = ccq(&["sweep", "--arrival", "poisson:rate=0.8", "--json", "-"]);
    let open =
        ccq(&["sweep", "--arrival", "poisson:rate=0.8", "--admission", "open", "--json", "-"]);
    assert!(base.status.success() && open.status.success());
    assert_eq!(base.stdout, open.stdout, "--admission open changed the JSON bytes");
    // And under the open policy nothing is ever dropped.
    for case in cases(&json_stdout(&open)) {
        assert_eq!(case_u64(case, "dropped"), 0);
        assert_eq!(case_u64(case, "delayed_admissions"), 0);
    }
}

#[test]
fn droptail_sweep_sheds_and_reports_drop_counters() {
    let out = ccq(&[
        "sweep",
        "--topo",
        "mesh2d:6",
        "--arrival",
        "poisson:rate=0.9",
        "--admission",
        "droptail:bound=8",
        "--json",
        "-",
    ]);
    let doc = json_stdout(&out);
    assert_all_ok(&doc);
    for case in cases(&doc) {
        assert_eq!(case_str(case, "admission"), "droptail(bound=8)");
        assert!(case_u64(case, "backlog") <= 8, "backlog above the drop bound: {case:?}");
        let thr = case.get("throughput").and_then(|v| v.as_f64()).unwrap();
        let goodput = case.get("goodput").and_then(|v| v.as_f64()).unwrap();
        if case_str(case, "protocol") == "crdt-counter" {
            // Instant completion keeps the backlog at zero, so the bound
            // never triggers: the relaxed counter sheds nothing even at
            // high load.
            assert_eq!(case_u64(case, "dropped"), 0, "crdt-counter shed: {case:?}");
            assert!((goodput - thr).abs() < 1e-12, "crdt goodput gap: {case:?}");
            continue;
        }
        assert!(case_u64(case, "dropped") > 0, "high load over bound 8 must shed: {case:?}");
        assert!(goodput < thr, "shedding must open a goodput gap: {case:?}");
    }
}

#[test]
fn malformed_arrival_delay_and_admission_specs_fail_loudly() {
    assert_exit_2(&[
        &["--arrival", "warp-drive"],
        // Used to exit 0 and draw a schedule from NaN weights.
        &["--topo", "list:8", "--proto", "arrow", "--arrival", "hotspot:rate=0.5:s=nan"],
        &["--delay", "fixed:d=0"],
        &["--admission", "droptail:bound=0"],
    ]);
}

#[test]
fn unknown_inputs_fail_loudly() {
    let bad_proto = ccq(&["sweep", "--topo", "mesh2d", "--proto", "nope"]);
    assert_eq!(bad_proto.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_proto.stderr).contains("unknown protocol"));

    let bad_topo = ccq(&["sweep", "--topo", "klein-bottle"]);
    assert_eq!(bad_topo.status.code(), Some(2));

    let bad_exp = ccq(&["run", "--exp", "t99"]);
    assert_eq!(bad_exp.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_exp.stderr).contains("unknown experiment"));

    // The engine's reference paths are not options: their old flags (and
    // the no-op `run --quick`) are unknown, by name.
    for args in [
        &["sweep", "--dense-scan"][..],
        &["sweep", "--serial-transmit"],
        &["run", "--exp", "t4", "--quick"],
    ] {
        let out = ccq(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        let flag = args[args.len() - 1];
        assert!(stderr.contains(&format!("flag `{flag}`")), "{args:?}: stderr `{stderr}`");
    }
}

#[test]
fn sweep_writes_json_files() {
    let dir = std::env::temp_dir().join("ccq_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.json");
    let out = ccq(&[
        "sweep",
        "--topo",
        "list:8",
        "--proto",
        "arrow",
        "--json",
        path.to_str().unwrap(),
        "--pretty",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(serde_json::from_str(written.trim()).is_ok(), "file must hold valid JSON");
    // Human tables still go to stdout in file mode.
    assert!(String::from_utf8_lossy(&out.stdout).contains("sweep cases"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn shards_one_is_byte_identical_to_no_flag() {
    // The PR-3 acceptance criterion: `--shards 1` must not perturb a
    // sweep's JSON in any way.
    let base = ccq(&["sweep", "--topo", "torus2d:6", "--json", "-"]);
    let sharded = ccq(&["sweep", "--topo", "torus2d:6", "--shards", "1", "--json", "-"]);
    assert!(base.status.success() && sharded.status.success());
    assert_eq!(base.stdout, sharded.stdout, "--shards 1 changed the JSON bytes");
}

#[test]
fn shards_four_completes_every_protocol_with_cross_shard_counts() {
    let out = ccq(&["sweep", "--topo", "torus2d:6", "--shards", "4", "--json", "-"]);
    let doc = json_stdout(&out);
    let cs = cases(&doc);
    assert_eq!(cs.len(), 10, "all registry protocols");
    assert_all_ok(&doc);
    for case in cs {
        assert_eq!(case_str(case, "shards"), "4");
        assert!(case_u64(case, "cross_shard_messages") > 0, "no cross-shard traffic: {case:?}");
    }
    let plan_shards = doc.get("plan").and_then(|p| p.get("shards")).and_then(|v| v.as_array());
    let plan_shards: Vec<&str> = plan_shards.unwrap().iter().map(|v| v.as_str().unwrap()).collect();
    assert_eq!(plan_shards, vec!["4"]);
}

#[test]
fn shards_accepts_strategies_and_lists() {
    let out = ccq(&[
        "sweep",
        "--topo",
        "mesh2d:4",
        "--proto",
        "arrow",
        "--shards",
        "1,2:stripe,4:edgecut",
        "--json",
        "-",
    ]);
    let doc = json_stdout(&out);
    let cs = cases(&doc);
    assert_eq!(cs.len(), 3, "one arrow case per shard plan");
    let shard_names: Vec<&str> = cs.iter().map(|c| case_str(c, "shards")).collect();
    assert_eq!(shard_names, vec!["1", "2:stripe", "4:edgecut"]);
    // Identical totals across plans (default ferry), distinct traffic.
    let totals: std::collections::BTreeSet<u64> =
        cs.iter().map(|c| case_u64(c, "total_delay")).collect();
    assert_eq!(totals.len(), 1, "default-ferry shard plans must agree on delays");
    assert_eq!(case_u64(&cs[0], "cross_shard_messages"), 0);
    // Summaries are per shard plan.
    assert_eq!(doc.get("summaries").and_then(|s| s.as_array()).unwrap().len(), 3);
}

#[test]
fn parallel_apply_is_byte_identical_to_the_serialized_sweep() {
    // `--parallel-apply` is a retired spelling: `--shards 4
    // --parallel-apply` JSON equals the same sweep without the flag, byte
    // for byte, because every sharded round runs the serialized walk.
    let base = ccq(&["sweep", "--shards", "4", "--json", "-"]);
    let retired = ccq(&["sweep", "--shards", "4", "--parallel-apply", "--json", "-"]);
    assert!(base.status.success() && retired.status.success());
    assert_eq!(base.stdout, retired.stdout, "--parallel-apply changed the JSON bytes");
    // And every one of the 10 × 2 default cases verified.
    let doc = json_stdout(&retired);
    assert_eq!(cases(&doc).len(), 20);
    assert_all_ok(&doc);
}

#[test]
fn parallel_apply_composes_with_shards_arrivals_and_admission() {
    let flags = |parallel: bool| {
        let mut f = vec![
            "sweep",
            "--topo",
            "mesh2d:5",
            "--arrival",
            "poisson:rate=0.7",
            "--admission",
            "droptail:bound=8",
            "--shards",
            "3:edgecut",
            "--json",
            "-",
        ];
        if parallel {
            f.insert(1, "--parallel-apply");
        }
        f
    };
    let serial = ccq(&flags(false));
    let retired = ccq(&flags(true));
    assert!(serial.status.success() && retired.status.success());
    assert_eq!(
        serial.stdout, retired.stdout,
        "--parallel-apply diverged under open arrivals + backpressure + sharding"
    );
    assert_all_ok(&json_stdout(&retired));
}

#[test]
fn usage_and_list_document_parallel_apply() {
    let help = ccq(&[]);
    let help_text = String::from_utf8_lossy(&help.stdout).to_string();
    let list = ccq(&["list"]);
    let list_text = String::from_utf8_lossy(&list.stdout).to_string();
    // Both flags keep a row, and it names the flag as retired, in both texts.
    for flag in ["--parallel-apply", "--wavefront"] {
        for text in [&help_text, &list_text] {
            let row = text.lines().find(|l| l.trim_start().starts_with(flag));
            assert!(row.is_some_and(|r| r.contains("retired")), "{flag} row: {row:?}");
        }
    }
    for removed in ["--dense-scan", "--serial-transmit"] {
        assert!(!help_text.contains(removed), "usage still names {removed}");
        assert!(!list_text.contains(removed), "ccq list still names {removed}");
    }
}

#[test]
fn wavefront_is_byte_identical_to_the_lockstep_sweep() {
    // A slow-ferry sweep under the retired `--wavefront` spelling equals
    // its lockstep twin byte for byte: the flag is accepted and ignored.
    let base = ccq(&["sweep", "--topo", "torus2d:6", "--shards", "4:ferry=6", "--json", "-"]);
    let wave = ccq(&[
        "sweep",
        "--topo",
        "torus2d:6",
        "--shards",
        "4:ferry=6",
        "--wavefront:lag=4",
        "--json",
        "-",
    ]);
    assert!(base.status.success() && wave.status.success());
    assert_eq!(base.stdout, wave.stdout, "--wavefront changed the JSON bytes");
    // The bare spelling agrees too.
    let auto = ccq(&[
        "sweep",
        "--topo",
        "torus2d:6",
        "--shards",
        "4:ferry=6",
        "--wavefront",
        "--json",
        "-",
    ]);
    assert!(auto.status.success());
    assert_eq!(base.stdout, auto.stdout, "bare --wavefront changed the JSON bytes");
    let doc = json_stdout(&wave);
    assert_eq!(cases(&doc).len(), 10, "all registry protocols");
    assert_all_ok(&doc);
}

#[test]
fn timing_reports_transmit_and_apply_micros_separately_under_wavefront() {
    // `--timing` reports every phase of a sharded slow-ferry sweep; the
    // retired `--wavefront:lag=4` spelling runs the same lockstep rounds.
    // Handlers run inside the deliver phase, so `apply_micros` reads 0.
    let out = ccq(&[
        "sweep",
        "--topo",
        "torus2d:6",
        "--proto",
        "arrow",
        "--shards",
        "4:ferry=6",
        "--wavefront:lag=4",
        "--timing",
        "--json",
        "-",
    ]);
    let doc = json_stdout(&out);
    assert_all_ok(&doc);
    for case in cases(&doc) {
        let timing = case.get("phase_timing").expect("phase_timing field");
        for f in ["transmit_micros", "apply_micros", "mature_micros", "max_round_micros"] {
            assert!(timing.get(f).and_then(|v| v.as_u64()).is_some(), "{f} missing: {timing:?}");
        }
        assert_eq!(timing.get("apply_micros").and_then(|v| v.as_u64()), Some(0), "{timing:?}");
    }
}

#[test]
fn malformed_wavefront_flags_fail_loudly() {
    assert_exit_2(&[&["--wavefront:lag=0"], &["--wavefront:lag=oops"], &["--wavefront:depth=3"]]);
}

/// The arrow sweep on `torus2d:4` that the retired-spelling tests extend.
const ARROW_SWEEP: [&str; 7] = ["sweep", "--topo", "torus2d:4", "--proto", "arrow", "--json", "-"];

/// `--wavefront[:lag=d]` is a retired spelling: it parses, so old argvs
/// and recordings still run, and changes nothing. The arrow sweep plus
/// `extra` exits 0 and prints the same bytes with `flag` as without it.
fn assert_retired_spelling_runs_lockstep(flag: &str, extra: &[&str]) {
    let lockstep = ccq(&[&ARROW_SWEEP[..], extra].concat());
    let retired = ccq(&[&ARROW_SWEEP[..], extra, &[flag]].concat());
    assert_eq!(retired.status.code(), Some(0), "{flag} {extra:?} should run");
    assert_eq!(lockstep.status.code(), Some(0), "{extra:?} should run");
    assert_eq!(retired.stdout, lockstep.stdout, "{flag} {extra:?} changed the JSON bytes");
    assert_all_ok(&json_stdout(&retired));
}

/// Run the arrow sweep plus `extra`, expect verification to fail, and
/// return the one case's error message.
fn arrow_case_error(extra: &[&str]) -> String {
    let args = [&ARROW_SWEEP[..], extra].concat();
    let out = ccq(&args);
    assert_eq!(out.status.code(), Some(1), "{args:?} should fail verification");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc: serde_json::Value =
        serde_json::from_str(stdout.trim()).expect("JSON on stdout even for failing cases");
    cases(&doc)[0].get("error").and_then(|e| e.as_str()).expect("case error").to_string()
}

#[test]
fn wavefront_misconfigured_runs_fail_with_named_errors() {
    // The argvs the deleted wavefront executor refused — unsharded, a
    // ferry faster than the lag, per-message jitter — run the lockstep
    // sweep under the retired spelling.
    assert_retired_spelling_runs_lockstep("--wavefront", &[]);
    assert_retired_spelling_runs_lockstep("--wavefront:lag=5", &["--shards", "4:ferry=2"]);
    assert_retired_spelling_runs_lockstep(
        "--wavefront:lag=3",
        &["--shards", "4:ferry=6", "--delay", "jitter:max=3"],
    );
    // A run misconfigured on its own still fails per case with the same
    // named error, and the spelling neither hides nor rewords it.
    let bad = ["--shards", "4:ferry=6", "--fault", "crash:at=3:node=99:recover=7"];
    let msg = arrow_case_error(&bad);
    assert!(msg.contains("node 99") && msg.contains("16 nodes"), "unhelpful error: {msg}");
    assert_eq!(arrow_case_error(&[&bad[..], &["--wavefront:lag=4"]].concat()), msg);
}

#[test]
fn fault_with_wavefront_is_a_named_case_error() {
    // The fault plan the wavefront executor refused now runs lockstep
    // under the retired spelling ...
    assert_retired_spelling_runs_lockstep(
        "--wavefront:lag=2",
        &["--shards", "2:ferry=4", "--fault", "crash:at=3:node=1:recover=7"],
    );
    // ... and a fault plan that cannot run is still a case error naming
    // the crash, with or without the spelling.
    for flag in ["--wavefront", "--wavefront:lag=2"] {
        let msg = arrow_case_error(&[
            "--shards",
            "2:ferry=4",
            "--fault",
            "crash:at=3:node=16:recover=7",
            flag,
        ]);
        assert!(msg.contains("fault") && msg.contains("node 16"), "{flag}: unhelpful: {msg}");
    }
}

#[test]
fn perturbation_at_a_missing_node_is_a_named_error() {
    // A perturbation that can never fire is not planted silently: the
    // sweep's case errs naming the node and n, and a bisection refuses to
    // call the unplanted fault "no divergence".
    let out =
        ccq(&["sweep", "--topo", "list:3", "--proto", "arrow", "--perturb", "1:99", "--json", "-"]);
    assert_eq!(out.status.code(), Some(1), "the case should fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc: serde_json::Value = serde_json::from_str(stdout.trim()).expect("JSON on stdout");
    let msg = cases(&doc)[0].get("error").and_then(|e| e.as_str()).expect("case error");
    assert!(msg.contains("node 99") && msg.contains("3 nodes"), "unhelpful error: {msg}");

    let out = ccq(&["bisect", "--perturb 1:99", "", "--topo", "list:3", "--proto", "arrow"]);
    assert_eq!(out.status.code(), Some(2), "bisect must not report agreement");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--perturb 1:99") && stderr.contains("node 99"), "{stderr}");
    assert!(out.stdout.is_empty(), "no verdict on stdout");
}

#[test]
fn backpressure_composes_with_shards() {
    // The tentpole's sharding criterion: admission is evaluated against
    // the global backlog, so a sharded backpressured sweep reproduces the
    // unsharded drop pattern exactly (default ferry).
    let flags = [
        "sweep",
        "--topo",
        "torus2d:4",
        "--arrival",
        "poisson:rate=0.9",
        "--admission",
        "droptail:bound=6",
        "--json",
        "-",
    ];
    let base = ccq(&flags);
    let mut sharded_flags = flags[..flags.len() - 2].to_vec();
    sharded_flags.extend(["--shards", "2", "--json", "-"]);
    let sharded = ccq(&sharded_flags);
    let (bdoc, sdoc) = (json_stdout(&base), json_stdout(&sharded));
    assert_all_ok(&bdoc);
    assert_all_ok(&sdoc);
    let key = |doc: &serde_json::Value| -> Vec<(String, u64, u64)> {
        cases(doc)
            .iter()
            .map(|c| {
                (
                    case_str(c, "protocol").to_string(),
                    case_u64(c, "dropped"),
                    case_u64(c, "total_delay"),
                )
            })
            .collect()
    };
    assert_eq!(key(&bdoc), key(&sdoc), "sharding changed the admission outcome");
    assert!(cases(&bdoc).iter().any(|c| case_u64(c, "dropped") > 0), "no shedding to compare");
}

#[test]
fn malformed_shards_specs_fail_loudly() {
    assert_exit_2(&[&["--shards", "4:mitosis"]]);
}

#[test]
fn unbuildable_topologies_widths_and_densities_fail_loudly() {
    assert_exit_2(&[
        &["--topo", "torus2d:2", "--json", "-"],
        &["--proto", "counting-network:3", "--json", "-"],
        &["--pattern", "random:nan", "--json", "-"],
        // A zero count is refused, not clamped to one run.
        &["--repeats", "0", "--json", "-"],
        &["--checkpoint-every", "0", "--json", "-"],
    ]);
    // The widest width the CLI accepts still runs.
    let widest =
        ccq(&["sweep", "--topo", "mesh2d:3", "--proto", "counting-network:4096", "--json", "-"]);
    assert_all_ok(&json_stdout(&widest));
}

#[test]
fn heterogeneous_sweep_reports_classes_and_fault_counters() {
    let out = ccq(&[
        "sweep",
        "--topo",
        "torus2d:3",
        "--proto",
        "arrow,combining-tree",
        "--arrival",
        "poisson:rate=0.5",
        "--priority",
        "split:frac=0.25:seed=11",
        "--fault",
        "crash:at=4:node=2:recover=9",
        "--admission",
        "pernode:bound=8:protect=1",
        "--json",
        "-",
    ]);
    let doc = json_stdout(&out);
    assert_all_ok(&doc);
    for case in cases(&doc) {
        assert_eq!(case_str(case, "priority"), "split(frac=0.25,seed=11)");
        assert_eq!(case_str(case, "faults"), "crash(node=2,at=4,recover=9)");
        assert_eq!(case_str(case, "admission"), "pernode(bound=8,protect=1)");
        let classes = case.get("classes").and_then(|c| c.as_array()).expect("classes array");
        assert_eq!(classes.len(), 2, "two priority classes");
        for m in classes {
            for field in [
                "class",
                "issued",
                "completed",
                "dropped",
                "latency_p50",
                "latency_p95",
                "latency_p99",
            ] {
                assert!(m.get(field).and_then(|v| v.as_u64()).is_some(), "missing {field}: {m:?}");
            }
            // Per-class conservation at quiescence.
            let get = |f: &str| m.get(f).unwrap().as_u64().unwrap();
            assert_eq!(get("completed") + get("dropped"), get("issued"), "{m:?}");
        }
        let faults = case.get("fault_summary").expect("fault summary");
        assert_eq!(faults.get("crashes").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(faults.get("recoveries").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(faults.get("events").and_then(|e| e.as_array()).map(|e| e.len()), Some(2));
    }
    // The plan echoes both sweep dimensions.
    let plan = doc.get("plan").expect("plan info");
    assert_eq!(
        plan.get("priorities").and_then(|v| v.index(0)).and_then(|v| v.as_str()),
        Some("split(frac=0.25,seed=11)")
    );
    assert_eq!(
        plan.get("faults").and_then(|v| v.index(0)).and_then(|v| v.as_str()),
        Some("crash(node=2,at=4,recover=9)")
    );
}

#[test]
fn uniform_priority_and_no_fault_are_byte_identical_to_no_flags() {
    let plain = ccq(&["sweep", "--topo", "mesh2d:4", "--proto", "arrow", "--json", "-"]);
    let flagged = ccq(&[
        "sweep",
        "--topo",
        "mesh2d:4",
        "--proto",
        "arrow",
        "--priority",
        "uniform",
        "--json",
        "-",
    ]);
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&flagged.stdout),
        "--priority uniform changed the JSON"
    );
    // Fault-free heterogeneous payloads stay out of the JSON entirely.
    let doc = json_stdout(&plain);
    for case in cases(&doc) {
        assert!(
            case.get("classes").is_none_or(|c| c == &serde_json::Value::Null),
            "classes on a uniform run"
        );
        assert!(
            case.get("fault_summary").is_none_or(|f| f == &serde_json::Value::Null),
            "fault summary on a fault-free run"
        );
    }
}

#[test]
fn malformed_priority_fault_and_pernode_specs_fail_loudly() {
    assert_exit_2(&[
        &["--priority", "split"],
        // One crash window per flag: the fifth overflows the fault plan.
        &[
            "--fault",
            "crash:at=1:node=0:recover=2,crash:at=1:node=1:recover=2",
            "--fault",
            "crash:at=1:node=2:recover=2,crash:at=1:node=3:recover=2",
            "--fault",
            "crash:at=1:node=4:recover=2",
        ],
        &["--admission", "pernode:bound=0"],
    ]);
}

#[test]
fn sweep_json_always_carries_qqc_fields_and_crdt_tops_the_queuing_family() {
    // The consistency tentpole's CLI contract: the five qqc_* fields ride
    // in every case's JSON with no flag required, they are internally
    // ordered, and at a near-saturation rate the coordination-free
    // crdt-counter owes at least as much lateness as every queuing
    // protocol — the debt the paper's messages buy away.
    let out =
        ccq(&["sweep", "--topo", "mesh2d:5", "--arrival", "poisson:rate=0.85", "--json", "-"]);
    let doc = json_stdout(&out);
    let cs = cases(&doc);
    assert_eq!(cs.len(), 10, "all registry protocols");
    assert_all_ok(&doc);
    let mut crdt_mean = None;
    let mut queuing_means = Vec::new();
    for case in cs {
        let mean = case.get("qqc_mean").and_then(|v| v.as_f64()).expect("qqc_mean");
        let (max, p50, p95, p99) = (
            case_u64(case, "qqc_max"),
            case_u64(case, "qqc_p50"),
            case_u64(case, "qqc_p95"),
            case_u64(case, "qqc_p99"),
        );
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "unordered qqc stats: {case:?}");
        assert!(0.0 <= mean && mean <= max as f64, "mean outside [0, max]: {case:?}");
        match case_str(case, "kind") {
            "Relaxed" => crdt_mean = Some(mean),
            "Queuing" => queuing_means.push((case_str(case, "protocol").to_string(), mean)),
            _ => {}
        }
    }
    let crdt = crdt_mean.expect("a relaxed case");
    assert!(crdt > 0.0, "crdt-counter owes no lateness under load");
    for (name, mean) in queuing_means {
        assert!(crdt >= mean, "crdt qqc_mean {crdt} below {name}'s {mean}");
    }
}

#[test]
fn qqc_flag_prints_the_selected_lateness_columns() {
    let out = ccq(&[
        "sweep",
        "--topo",
        "mesh2d:4",
        "--proto",
        "arrow,crdt-counter",
        "--arrival",
        "poisson:rate=0.6",
        "--qqc",
        "mean,max",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["QQC lateness", "qqc_mean", "qqc_max", "crdt-counter"] {
        assert!(stdout.contains(needle), "missing {needle} in --qqc output");
    }
    assert!(!stdout.contains("qqc_p50"), "unselected column printed");
}

#[test]
fn malformed_qqc_fields_fail_loudly() {
    assert_exit_2(&[&["--qqc", "mean,median"]]);
}

#[test]
fn run_executes_the_consistency_experiment() {
    let out = ccq(&["run", "--exp", "t14"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["cost-vs-consistency frontier", "qqc_mean", "crdt-counter", "one-shot strict"] {
        assert!(stdout.contains(needle), "t14 output missing {needle}");
    }
}

#[test]
fn usage_and_list_document_priority_faults_and_pernode() {
    let usage = ccq(&["--help"]);
    let text = String::from_utf8(usage.stdout).unwrap();
    for needle in ["--priority", "--fault", "pernode"] {
        assert!(text.contains(needle), "usage misses {needle}");
    }
    let list = ccq(&["list"]);
    let text = String::from_utf8(list.stdout).unwrap();
    for needle in ["split:frac=F", "crash:at=R:node=N:recover=R2", "pernode:bound=N"] {
        assert!(text.contains(needle), "ccq list misses {needle}");
    }
}

/// Split a command line the way a shell would, as far as the docs need:
/// a double-quoted stretch is one word (and may be empty), whitespace
/// separates the rest, and a word starting with `#` ends the line.
fn shell_words(line: &str) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for (i, piece) in line.split('"').enumerate() {
        if i % 2 == 1 {
            words.push(piece.to_string());
        } else {
            words.extend(piece.split_whitespace().map(str::to_string));
        }
    }
    let end = words.iter().position(|w| w.starts_with('#')).unwrap_or(words.len());
    words.truncate(end);
    words
}

/// Push every `ccq sweep|record|bisect …` command among `lines` through
/// `spec::sweep` — parse only — and fail naming the command. `\`
/// continuations are joined; `record` loses `--rec PATH` / `--json X` as
/// `cmd_record` strips them, `bisect` becomes its two sides as
/// `cmd_bisect` splits them. Returns how many commands parsed.
fn assert_documented_sweeps_parse<'a>(lines: impl Iterator<Item = &'a str>) -> usize {
    let mut commands: Vec<String> = Vec::new();
    let mut continued = false;
    for line in lines.map(str::trim) {
        let (text, more) = match line.strip_suffix('\\') {
            Some(head) => (head, true),
            None => (line, false),
        };
        match commands.last_mut() {
            Some(last) if continued => *last += text,
            _ => commands.push(text.to_string()),
        }
        continued = more;
    }
    let mut parsed = 0;
    for command in commands {
        let words = shell_words(&command);
        let argvs: Vec<Vec<String>> = match words.iter().map(String::as_str).collect::<Vec<_>>()[..]
        {
            ["ccq", "sweep", ..] => vec![words[2..].to_vec()],
            ["ccq", "record", ..] => {
                let mut argv = Vec::new();
                let mut it = words[2..].iter();
                while let Some(w) = it.next() {
                    match w.as_str() {
                        "--rec" | "--json" => drop(it.next()),
                        _ => argv.push(w.clone()),
                    }
                }
                vec![argv]
            }
            ["ccq", "bisect", a, b, ..] => [a, b]
                .map(|cfg| {
                    let side = cfg.split_whitespace().map(str::to_string);
                    words[4..].iter().cloned().chain(side).collect()
                })
                .to_vec(),
            _ => continue,
        };
        for argv in argvs {
            if let Err(e) = spec::sweep(&argv) {
                panic!("documented command `{command}` does not parse: {e}");
            }
        }
        parsed += 1;
    }
    parsed
}

/// The `examples:` of `ccq --help` are commands the parser accepts.
#[test]
fn help_examples_parse() {
    let help = ccq(&["--help"]);
    let text = String::from_utf8(help.stdout).unwrap();
    let examples = text.split("examples:").nth(1).expect("an examples section");
    assert_eq!(examples.lines().filter(|l| l.trim_start().starts_with("ccq ")).count(), 16);
    assert_eq!(assert_documented_sweeps_parse(examples.lines()), 14, "sweep/record/bisect lines");
}

/// Every `ccq sweep|record|bisect` command in README's fenced blocks is
/// one the parser accepts — a renamed or removed flag fails here, by line.
#[test]
fn readme_commands_parse() {
    let mut fenced = false;
    let lines = include_str!("../README.md").lines().filter(|line| {
        if line.starts_with("```") {
            fenced = !fenced;
            return false;
        }
        fenced
    });
    let parsed = assert_documented_sweeps_parse(lines);
    assert!(parsed >= 20, "only {parsed} README commands found: the extraction is broken");
}
