//! Theorem 3.6 — the `Ω(α²)` counting floor on diameter-`α` graphs.
//!
//! The list (`α = n−1`) gives `Ω(n²)`; the 2-D mesh (`α = 2(√n−1)`) gives
//! `Ω(n)·Ω(√n) = Ω(n^{1.5})`. The table compares the exact bound
//! `Σ_{j=1}^{⌊α/2⌋} j` with the measured delay of the two tree-based
//! counting algorithms (the counting network's embedding is wasteful on
//! high-diameter graphs and is omitted here; it appears in t1/t9).

use crate::experiments::Scale;
use crate::prelude::*;
use crate::protocol;
use crate::table::fmt_util::{f2, int, tick};
use ccq_bounds::counting_lb_diameter;
use ccq_graph::bfs;

/// Run the Theorem 3.6 audit.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut specs: Vec<TopoSpec> = Vec::new();
    for n in scale.pick(vec![32, 128], vec![64, 256, 1024, 4096]) {
        specs.push(TopoSpec::List { n });
    }
    for side in scale.pick(vec![6, 10], vec![8, 16, 32, 64]) {
        specs.push(TopoSpec::Mesh2D { side });
    }

    let mut t = Table::new(
        "t2 — counting lower bound Ω(α²) on high-diameter graphs (Theorem 3.6)",
        &["topology", "n", "α", "LB α²-sum", "central", "combining", "best/LB", "meas ≥ LB"],
    );
    for spec in specs {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let alpha = bfs::diameter_two_sweep(&s.graph, 0) as u64;
        let lb = counting_lb_diameter(alpha);
        let central = run_spec(&protocol::CentralCounter, &s, ModelMode::Strict).expect("verifies");
        let combining =
            run_spec(&protocol::CombiningTree, &s, ModelMode::Strict).expect("verifies");
        let dc = central.report.total_delay();
        let dm = combining.report.total_delay();
        let best = dc.min(dm);
        t.push_row(vec![
            spec.name(),
            int(s.n() as u64),
            int(alpha),
            int(lb),
            int(dc),
            int(dm),
            f2(best as f64 / lb.max(1) as f64),
            tick(best >= lb),
        ]);
    }
    t.note("LB = Σ_{j=1}^{⌊α/2⌋} j; on the list this is Ω(n²), on the 2-D mesh Ω(n√n)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_at_or_above_bound() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row.last().unwrap(), "yes", "row {row:?}");
        }
    }

    #[test]
    fn list_bound_quadruples_when_n_doubles() {
        let t = &run(Scale::Quick)[0];
        let lists: Vec<u64> = t
            .rows
            .iter()
            .filter(|r| r[0].starts_with("list"))
            .map(|r| r[3].replace('_', "").parse().unwrap())
            .collect();
        assert!(lists.len() >= 2);
        let ratio = lists[1] as f64 / lists[0] as f64;
        assert!(ratio > 10.0, "list LB should scale ~quadratically, got ×{ratio}");
    }
}
