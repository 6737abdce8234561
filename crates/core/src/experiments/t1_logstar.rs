//! Theorem 3.5 — the `Ω(n log* n)` counting floor on any graph.
//!
//! With `R = V` on the complete graph (the most powerful topology), every
//! counting algorithm's measured total delay must sit at or above the exact
//! bound `Σ_{k≥⌈n/2⌉} min{t : tow(2t) ≥ k}`. The table reports all three
//! counting algorithms and the ratio of the best one to the bound.

use crate::experiments::Scale;
use crate::prelude::*;
use crate::protocol;
use crate::table::fmt_util::{f2, int, tick};
use ccq_bounds::counting_lb_general;

/// Run the Theorem 3.5 audit.
pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = scale.pick(vec![16, 64, 128], vec![16, 64, 256, 1024, 4096]);
    let mut t = Table::new(
        "t1 — counting lower bound Ω(n log* n) on K_n (Theorem 3.5)",
        &["n", "LB Σ latencies", "central", "combining", "network", "best/LB", "meas ≥ LB"],
    );
    for n in sizes {
        let s = Scenario::build(TopoSpec::Complete { n }, RequestPattern::All);
        let lb = counting_lb_general(n);
        let mut best = u64::MAX;
        let mut cells = Vec::new();
        for spec in [
            &protocol::CentralCounter,
            &protocol::CombiningTree,
            &protocol::CountingNetwork { width: None },
        ] {
            let out = run_spec(spec, &s, ModelMode::Strict).expect("counting verifies");
            let d = out.report.total_delay();
            best = best.min(d);
            cells.push(int(d));
        }
        t.push_row(vec![
            int(n as u64),
            int(lb),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            f2(best as f64 / lb.max(1) as f64),
            tick(best >= lb),
        ]);
    }
    t.note("LB = Σ_{k≥⌈n/2⌉} min{t : tow(2t) ≥ k} (exact form of Theorem 3.5)");
    t.note(
        "every algorithm must satisfy measured ≥ LB; the best/LB ratio shows remaining headroom",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_always_at_or_above_bound() {
        let tables = run(Scale::Quick);
        for row in &tables[0].rows {
            assert_eq!(row.last().unwrap(), "yes", "row {row:?}");
        }
    }

    #[test]
    fn bound_grows_with_n() {
        let tables = run(Scale::Quick);
        let lbs: Vec<u64> =
            tables[0].rows.iter().map(|r| r[1].replace('_', "").parse().unwrap()).collect();
        assert!(lbs.windows(2).all(|w| w[0] < w[1]));
    }
}
