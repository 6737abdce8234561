//! Correctness checks on what `ccq` printed, and the blessed expectations
//! under `expected/`.
//!
//! The simulator is deterministic, so a change meant only to speed it up
//! must leave every simulated statistic identical. The digest covers chosen
//! statistics rather than whole-stdout bytes, so a PR that adds a JSON field
//! does not fail the benchmark.

use crate::workloads::DEFAULT_SEED;
use ccq_repro::sim::fnv1a;
use serde::Serialize;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// The per-case statistics the digest covers, in digest order.
const DIGEST_FIELDS: [&str; 11] = [
    "total_delay",
    "messages",
    "max_contention",
    "latency_p50",
    "latency_p95",
    "latency_p99",
    "qqc_max",
    "backlog",
    "dropped",
    "delayed_admissions",
    "cross_shard_messages",
];

/// What one repetition's output amounts to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Operations completed: simulated requests that completed in a verified
    /// case (Σ `k − dropped`) for a sweep, printed table rows for tables.
    pub ops: u64,
    /// The comparable fingerprint: `<protocol> <digest>` per sweep case, or
    /// the table and row counts.
    pub lines: Vec<String>,
    /// Simulated rounds and messages over all cases (sweeps only).
    pub rounds: u64,
    pub msgs: u64,
    /// Every failed check, in words. Empty means the output is correct.
    pub problems: Vec<String>,
}

/// FNV-1a digest of one sweep case's simulated statistics.
pub fn case_digest(case: &Value) -> Result<String, String> {
    let protocol =
        case.get("protocol").and_then(Value::as_str).ok_or("case has no `protocol` string")?;
    let mut text = format!("protocol={protocol}");
    for field in DIGEST_FIELDS {
        let v = case
            .get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("case `{protocol}` has no integer `{field}`"))?;
        text.push_str(&format!(";{field}={v}"));
    }
    Ok(format!("{protocol} {:016x}", fnv1a(text.as_bytes())))
}

/// Check a `ccq sweep --json -` document: every case `ok`, digests taken.
pub fn check_sweep(stdout: &str) -> Outcome {
    let mut out = Outcome::default();
    let doc = match serde_json::from_str(stdout) {
        Ok(doc) => doc,
        Err(e) => {
            out.problems.push(format!("stdout is not JSON: {e}"));
            return out;
        }
    };
    let Some(cases) = doc.get("cases").and_then(Value::as_array) else {
        out.problems.push("JSON has no `cases` array".to_string());
        return out;
    };
    if cases.is_empty() {
        out.problems.push("sweep ran no case".to_string());
    }
    for (i, case) in cases.iter().enumerate() {
        match case_digest(case) {
            Ok(line) => out.lines.push(line),
            Err(e) => out.problems.push(format!("case {i}: {e}")),
        }
        if case.get("ok").and_then(Value::as_bool) != Some(true) {
            let error = case.get("error").and_then(Value::as_str).unwrap_or("no error text");
            out.problems.push(format!("case {i} is not ok: {error}"));
            continue;
        }
        let num = |key: &str| case.get(key).and_then(Value::as_u64).unwrap_or(0);
        out.ops += num("k").saturating_sub(num("dropped"));
        let metric =
            |key: &str| case.get("metrics").and_then(|m| m.get(key)).and_then(Value::as_u64);
        out.rounds += metric("rounds").unwrap_or(0);
        out.msgs += metric("messages").unwrap_or(0);
    }
    out
}

/// Rows and failed ticks of the markdown tables `ccq run --exp` prints.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TableScan {
    pub tables: u64,
    pub rows: u64,
    /// `(line number, row text)` of every row with a `NO` tick.
    pub failed_ticks: Vec<(usize, String)>,
}

/// Scan table text: a table is a header row, a `|---|` rule, then body rows.
pub fn scan_tables(text: &str) -> TableScan {
    let mut scan = TableScan::default();
    let mut in_body = false;
    for (i, line) in text.lines().enumerate() {
        if !line.starts_with('|') {
            in_body = false;
            continue;
        }
        if line.starts_with("|-") {
            scan.tables += 1;
            in_body = true;
            continue;
        }
        if !in_body {
            continue; // header row
        }
        scan.rows += 1;
        if line.split('|').any(|cell| cell.trim() == "NO") {
            scan.failed_ticks.push((i + 1, line.to_string()));
        }
    }
    scan
}

/// Check `ccq run --exp …` output: tables present, no failed tick.
pub fn check_tables(stdout: &str) -> Outcome {
    let scan = scan_tables(stdout);
    let mut out = Outcome {
        ops: scan.rows,
        lines: vec![format!("tables {}", scan.tables), format!("rows {}", scan.rows)],
        ..Outcome::default()
    };
    if scan.rows == 0 {
        out.problems.push("no table row printed".to_string());
    }
    for (line, row) in scan.failed_ticks {
        out.problems.push(format!("failed tick on line {line}: {row}"));
    }
    out
}

/// Where `expected/<workload>.json` lives (beside this crate's manifest).
pub fn expected_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected").join(format!("{workload}.json"))
}

/// The blessed `(ops, lines)` of a workload at the default seed.
pub fn load_expected(workload: &str) -> Result<(u64, Vec<String>), String> {
    let path = expected_path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run `ccq-benchmark bless`)", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let ops = doc.get("ops").and_then(Value::as_u64).ok_or("expected file has no `ops`")?;
    let lines = doc
        .get("lines")
        .and_then(Value::as_array)
        .ok_or("expected file has no `lines`")?
        .iter()
        .map(|v| v.as_str().map(str::to_string).ok_or("non-string line in expected file"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ops, lines))
}

/// Write `expected/<workload>.json` (only `ccq-benchmark bless` calls this).
pub fn save_expected(workload: &str, seed: u64, outcome: &Outcome) -> std::io::Result<PathBuf> {
    let path = expected_path(workload);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    let lines: Vec<String> = outcome.lines.iter().map(|l| format!("    {}", json(l))).collect();
    let text = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"ops\": {},\n  \"lines\": [\n{}\n  ]\n}}\n",
        json(workload),
        outcome.ops,
        lines.join(",\n")
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

/// `value` as compact JSON.
pub fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serialization is infallible")
}

/// Problems found comparing an outcome with the blessed expectation. Only
/// the default seed has one; other seeds keep the `ok`/tick checks alone.
pub fn compare_expected(workload: &str, seed: u64, outcome: &Outcome) -> Vec<String> {
    if seed != DEFAULT_SEED {
        return Vec::new();
    }
    match load_expected(workload) {
        Err(e) => vec![e],
        Ok((ops, lines)) => {
            let mut problems = Vec::new();
            if ops != outcome.ops {
                problems.push(format!("{workload}: {} operations, expected {ops}", outcome.ops));
            }
            if lines != outcome.lines {
                problems.push(format!(
                    "{workload}: simulated statistics differ from expected/{workload}.json:\n  \
                     got      {:?}\n  expected {:?}",
                    outcome.lines, lines
                ));
            }
            problems
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASE: &str = r#"{"case":0,"protocol":"arrow","k":16,"ok":true,"error":null,
        "total_delay":96,"messages":40,"max_contention":2,"latency_p50":5,"latency_p95":9,
        "latency_p99":9,"qqc_max":0,"backlog":0,"dropped":1,"delayed_admissions":0,
        "cross_shard_messages":0,"metrics":{"rounds":12,"messages":40}}"#;

    #[test]
    fn digest_covers_the_chosen_statistics_only() {
        let base = serde_json::from_str(CASE).unwrap();
        let digest = case_digest(&base).unwrap();
        assert!(digest.starts_with("arrow "));
        assert_eq!(digest.len(), "arrow ".len() + 16);
        // A new field leaves the digest alone; a changed statistic does not.
        let extended = CASE.replacen("\"case\":0", "\"case\":0,\"new_field\":7", 1);
        assert_eq!(case_digest(&serde_json::from_str(&extended).unwrap()).unwrap(), digest);
        let changed = CASE.replacen("\"messages\":40", "\"messages\":41", 1);
        assert_ne!(case_digest(&serde_json::from_str(&changed).unwrap()).unwrap(), digest);
        let missing = CASE.replacen("\"qqc_max\":0,", "", 1);
        assert!(case_digest(&serde_json::from_str(&missing).unwrap()).is_err());
    }

    #[test]
    fn sweep_check_counts_completed_requests_and_flags_failures() {
        let doc = format!("{{\"cases\":[{CASE}]}}");
        let out = check_sweep(&doc);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!((out.ops, out.rounds, out.msgs, out.lines.len()), (15, 12, 40, 1));

        let failed = doc.replacen("\"ok\":true,\"error\":null", "\"ok\":false,\"error\":\"x\"", 1);
        let out = check_sweep(&failed);
        assert_eq!(out.ops, 0);
        assert!(out.problems[0].contains("not ok: x"), "{:?}", out.problems);

        assert!(!check_sweep("not json").problems.is_empty());
        assert!(!check_sweep("{\"cases\":[]}").problems.is_empty());
    }

    #[test]
    fn table_scan_counts_rows_and_finds_failed_ticks() {
        let text = "## t3 — x\n\n### title\n\n| n | ok |\n|---|----|\n| 1 | yes |\n| 2 | NO  |\n\
                    > NO in a note is not a tick\n\n### second\n\n| a |\n|---|\n| NOPE |\n";
        let scan = scan_tables(text);
        assert_eq!((scan.tables, scan.rows), (2, 3));
        assert_eq!(scan.failed_ticks, vec![(8, "| 2 | NO  |".to_string())]);
        let out = check_tables(text);
        assert_eq!(out.ops, 3);
        assert_eq!(out.lines, vec!["tables 2".to_string(), "rows 3".to_string()]);
        assert_eq!(out.problems.len(), 1);
        assert!(!check_tables("no tables here").problems.is_empty());
    }
}
