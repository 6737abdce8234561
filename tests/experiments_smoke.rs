//! Smoke test: every experiment driver runs at quick scale and produces
//! well-formed tables (this is what guards `cargo run -p ccq-bench --bin
//! tables` staying green) — the paper-item drivers tick every bound, and
//! every table drawn from a sweep reruns from the CLI.

use ccq_repro::core::experiments::{
    registry, t11_openload, t12_sharded, t13_backpressure, t14_consistency, t15_heterogeneous,
    t4_crossover, t9_ablation, Scale, SweepTable,
};
use ccq_repro::core::spec;
use ccq_repro::core::table::fmt_util::tick;
use std::process::Command;

/// The experiments that regenerate a paper item. Their tick columns are
/// the paper's claims (measured ≥ lower bound, arrow ≤ 2×NN-TSP, queuing
/// wins, …), so a `NO` there is a failed theorem, not a data point — the
/// extension drivers (t9–t15) tick observations that may legitimately
/// read `NO`.
const PAPER_ITEMS: [&str; 10] = ["fig1", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "f2"];

#[test]
fn every_experiment_runs_and_produces_tables() {
    for exp in registry() {
        let tables = (exp.run)(Scale::Quick);
        assert!(!tables.is_empty(), "{} produced no tables", exp.id);
        for t in &tables {
            assert!(!t.headers.is_empty(), "{}: empty header", exp.id);
            assert!(!t.rows.is_empty(), "{}: empty rows in '{}'", exp.id, t.title);
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "{}: ragged row in '{}'", exp.id, t.title);
                assert!(
                    !PAPER_ITEMS.contains(&exp.id) || !row.contains(&tick(false)),
                    "{}: the paper's claim fails in '{}': {row:?}",
                    exp.id,
                    t.title
                );
            }
            // Render without panicking and with content.
            let rendered = t.to_string();
            assert!(rendered.contains(&t.title));
        }
    }
}

#[test]
fn experiment_ids_cover_design_doc_index() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    for expected in ["fig1", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "f2", "t9"] {
        assert!(ids.contains(&expected), "missing experiment {expected}");
    }
}

/// Every driver's sweep tables.
const SWEEP_TABLES: [&[SweepTable]; 7] = [
    &t4_crossover::TABLES,
    &t9_ablation::TABLES,
    &t11_openload::TABLES,
    &t12_sharded::TABLES,
    &t13_backpressure::TABLES,
    &t14_consistency::TABLES,
    &t15_heterogeneous::TABLES,
];

#[test]
fn every_sweep_table_is_a_ccq_sweep() {
    // README shows each table's Quick argv; continued lines joined.
    let readme = include_str!("../README.md").replace("\\\n", " ");
    let readme = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    for table in SWEEP_TABLES.into_iter().flatten() {
        let (_, set) = table.run(Scale::Quick);
        let argv = table.argv(Scale::Quick);
        let out = Command::new(env!("CARGO_BIN_EXE_ccq"))
            .arg("sweep")
            .args(&argv)
            .args(["--json", "-"])
            .output()
            .expect("ccq runs");
        assert!(out.status.success(), "{}: ccq sweep {argv:?} failed", table.title);
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(stdout, set.to_json() + "\n", "{}: `ccq sweep {argv:?}` differs", table.title);
        let shown = format!("ccq sweep {}", argv.join(" "));
        assert!(readme.contains(&shown), "{}: README does not show `{shown}`", table.title);
        let full = table.argv(Scale::Full);
        if let Err(e) = spec::sweep(&full) {
            panic!("{}: the Full argv {full:?} does not parse: {e}", table.title);
        }
    }
}
