//! Smoke test: every experiment driver runs at quick scale and produces
//! well-formed tables (this is what guards `cargo run -p ccq-bench --bin
//! tables` staying green) — and the paper-item drivers tick every bound.

use ccq_repro::core::experiments::{registry, Scale};
use ccq_repro::core::table::fmt_util::tick;

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
