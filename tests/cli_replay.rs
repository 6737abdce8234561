//! CLI contract of `ccq record`, `ccq replay` and `ccq bisect`: the happy
//! paths byte-compare, and every error path exits with a clean diagnostic
//! (2 = usage/file error, 3 = divergence/mismatch) rather than a panic.

mod common;

use common::{cases, ccq, json_stdout};
use std::path::{Path, PathBuf};
use std::process::Output;

/// A per-test scratch path under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccq-cli-replay-{}-{name}", std::process::id()))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The far-cluster list sweep the replay tests record: multi-round, so
/// checkpoints and perturbations have rounds to land on.
const SWEEP: &[&str] = &["--topo", "list:9", "--proto", "arrow", "--pattern", "tail:3"];

fn record_to(path: &Path, extra: &[&str]) -> Output {
    let mut args = vec!["record"];
    args.extend_from_slice(SWEEP);
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--rec", path.to_str().unwrap()]);
    ccq(&args)
}

#[test]
fn record_then_replay_is_byte_identical() {
    let rec = scratch("roundtrip.ccqrec");
    // The second and third argvs hold the retired `--wavefront:lag=4` and
    // `--parallel-apply` spellings, as recordings made before their
    // retirement do: they still replay.
    for extra in [
        &[][..],
        &["--shards", "4:ferry=6", "--wavefront:lag=4"],
        &["--shards", "4", "--parallel-apply"],
    ] {
        let out = record_to(&rec, &[extra, &["--json", "-"]].concat());
        let doc = json_stdout(&out);
        assert!(!cases(&doc).is_empty());
        // The recording itself announces what it captured.
        assert!(stderr_of(&out).contains("recorded"), "{}", stderr_of(&out));

        let replay = ccq(&["replay", rec.to_str().unwrap(), "--json", "-"]);
        assert_eq!(replay.status.code(), Some(0), "{extra:?}: {}", stderr_of(&replay));
        assert!(stderr_of(&replay).contains("replay ok"), "{}", stderr_of(&replay));
        // `--json -` on both sides emits the same bytes.
        assert_eq!(stdout_of(&replay), stdout_of(&out));
    }
    std::fs::remove_file(&rec).ok();
}

#[test]
fn recordings_default_to_checkpointed_runs() {
    let rec = scratch("default-ckpt.ccqrec");
    record_to(&rec, &["--json", "-"]);
    let text = std::fs::read_to_string(&rec).unwrap();
    // The stored argv carries the checkpoint interval explicitly, so a
    // future replay needs no out-of-band convention.
    assert!(text.contains("--checkpoint-every"), "argv lacks the interval: {text}");

    // The header's interval is the spacing of the checkpoints the run
    // recorded — also when the argv repeats the flag and the last one wins
    // (the header used to read the first, 8, over a run checkpointed at
    // rounds 0, 2, 4, …).
    for (extra, every) in
        [(&[][..], 64), (&["--checkpoint-every", "8", "--checkpoint-every", "2"], 2)]
    {
        let out = ccq(&[
            &["record", "--topo", "list:200", "--proto", "central-counter"],
            extra,
            &["--rec", rec.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        let header: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&rec).unwrap()).unwrap();
        assert_eq!(header.get("checkpoint_every").and_then(|v| v.as_u64()), Some(every));
        let output = header.get("output").and_then(|v| v.as_str()).expect("recorded output");
        let doc: serde_json::Value = serde_json::from_str(output).unwrap();
        let rounds: Vec<u64> = cases(&doc)[0]
            .get("checkpoints")
            .and_then(|c| c.as_array())
            .expect("a checkpointed case")
            .iter()
            .map(|c| c.get("round").and_then(|r| r.as_u64()).unwrap())
            .collect();
        assert!(rounds.len() >= 3, "too few checkpoints to show a spacing: {rounds:?}");
        assert!(rounds.windows(2).all(|w| w[1] - w[0] == every), "{every}: {rounds:?}");
    }
    std::fs::remove_file(&rec).ok();
}

#[test]
fn replay_of_a_tampered_recording_exits_3() {
    let rec = scratch("tampered.ccqrec");
    let out = record_to(&rec, &["--seed", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    // Flip the recorded seed: the argv now reproduces a *different* run
    // than the stored output.
    let text = std::fs::read_to_string(&rec).unwrap();
    let tampered = text.replace("\"--seed\",\"1\"", "\"--seed\",\"2\"");
    assert_ne!(tampered, text, "seed token not found in recording");
    std::fs::write(&rec, tampered).unwrap();

    let replay = ccq(&["replay", rec.to_str().unwrap()]);
    assert_eq!(replay.status.code(), Some(3), "{}", stderr_of(&replay));
    assert!(stderr_of(&replay).contains("MISMATCH"), "{}", stderr_of(&replay));
    std::fs::remove_file(&rec).ok();
}

#[test]
fn malformed_and_truncated_recordings_exit_2() {
    let rec = scratch("malformed.ccqrec");
    std::fs::write(&rec, "this is not a recording").unwrap();
    let out = ccq(&["replay", rec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("malformed"), "{}", stderr_of(&out));

    // A recording chopped mid-document fails just as cleanly.
    record_to(&rec, &[]);
    let text = std::fs::read_to_string(&rec).unwrap();
    std::fs::write(&rec, &text[..text.len() / 2]).unwrap();
    let out = ccq(&["replay", rec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));

    // A well-formed recording whose argv holds a flag the CLI no longer
    // has is refused by name — never executed as if the flag were absent.
    let stale = text.replace("\"argv\":[", "\"argv\":[\"--dense-scan\",");
    assert_ne!(stale, text, "argv array not found in recording");
    std::fs::write(&rec, stale).unwrap();
    let out = ccq(&["replay", rec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("flag `--dense-scan`"), "{}", stderr_of(&out));

    // Missing file.
    let out = ccq(&["replay", "/nonexistent/path.ccqrec"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("cannot read"), "{}", stderr_of(&out));
    std::fs::remove_file(&rec).ok();
}

#[test]
fn version_mismatch_names_both_versions() {
    let rec = scratch("future.ccqrec");
    std::fs::write(
        &rec,
        r#"{"version":99,"format":"ccqrec","argv":[],"checkpoint_every":0,"output":""}"#,
    )
    .unwrap();
    let out = ccq(&["replay", rec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("99") && err.contains("version"), "{err}");
    std::fs::remove_file(&rec).ok();
}

#[test]
fn bisect_of_identical_configs_reports_no_divergence() {
    let out = ccq(&["bisect", "", "", "--topo", "list:8", "--proto", "arrow"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stdout_of(&out).contains("no divergence"), "{}", stdout_of(&out));
}

#[test]
fn bisect_parallel_apply_against_serialized_agrees() {
    // The retired `--parallel-apply` spelling hashes the same states as
    // the argv without it, unsharded and on four shards.
    for (with, without) in [("--parallel-apply", ""), ("--shards 4 --parallel-apply", "--shards 4")]
    {
        let out = ccq(&["bisect", with, without, "--topo", "torus2d:3", "--proto", "arrow"]);
        assert_eq!(out.status.code(), Some(0), "{with}: {}", stderr_of(&out));
        assert!(stdout_of(&out).contains("no divergence"), "{with}: {}", stdout_of(&out));
    }
}

#[test]
fn bisect_localizes_a_planted_perturbation() {
    let mut args = vec!["bisect", "--perturb 2:4", ""];
    args.extend_from_slice(SWEEP);
    let out = ccq(&args);
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(text.contains("round 2"), "{text}");
    assert!(text.contains("phase transmit"), "{text}");
    assert!(text.contains("node 4"), "{text}");
}

#[test]
fn bisect_slow_ferry_diverges() {
    let out = ccq(&[
        "bisect",
        "--shards 2:contig:ferry=10",
        "--shards 2:contig",
        "--topo",
        "list:8",
        "--proto",
        "arrow",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    assert!(stdout_of(&out).contains("diverges at round"), "{}", stdout_of(&out));
}

#[test]
fn bisect_usage_and_config_errors_exit_2() {
    // One config string is not enough.
    let out = ccq(&["bisect", "--shards 2"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("two configuration"), "{}", stderr_of(&out));

    // A bad flag inside a config string names the offending side.
    let out = ccq(&["bisect", "--no-such-flag", "", "--topo", "list:8", "--proto", "arrow"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("config A"), "{}", stderr_of(&out));
}

#[test]
fn record_without_rec_path_exits_2() {
    let out = ccq(&["record", "--topo", "list:8", "--proto", "arrow"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--rec"), "{}", stderr_of(&out));
}

#[test]
fn probe_flags_surface_in_sweep_json() {
    let mut args = vec!["sweep"];
    args.extend_from_slice(SWEEP);
    args.extend_from_slice(&[
        "--timing",
        "--checkpoint-every",
        "1",
        "--node-hashes",
        "--json",
        "-",
    ]);
    let doc = json_stdout(&ccq(&args));
    for case in cases(&doc) {
        let timing = case.get("phase_timing").expect("phase_timing field");
        assert!(timing.get("max_round_micros").is_some(), "{timing:?}");
        let ckpts = case.get("checkpoints").and_then(|c| c.as_array()).expect("checkpoints");
        assert!(!ckpts.is_empty());
        let digests = case.get("node_digests").and_then(|c| c.as_array()).expect("node digests");
        assert!(!digests.is_empty());
    }

    // Without probe flags the fields stay null — the unprobed JSON shape.
    let mut args = vec!["sweep"];
    args.extend_from_slice(SWEEP);
    args.extend_from_slice(&["--json", "-"]);
    let doc = json_stdout(&ccq(&args));
    for case in cases(&doc) {
        assert!(matches!(case.get("phase_timing"), Some(serde_json::Value::Null)));
        assert!(matches!(case.get("checkpoints"), Some(serde_json::Value::Null)));
    }
}
