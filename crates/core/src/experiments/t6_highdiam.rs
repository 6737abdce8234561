//! Theorem 4.13 — high-diameter graphs with constant-degree spanning
//! trees: `C_Q = O(n log n)` while `C_C = Ω(α²)`.
//!
//! Families: the list (`α = n − 1`) and caterpillars (`α = Θ(n)`, interior
//! degree 4). Queuing (arrow, measured) is compared against its
//! `2·(⌈lg k⌉+1)·n` Corollary 4.2 ceiling; counting (best tree-based
//! algorithm, measured) against its `Ω(α²)` floor. The gap column shows the
//! measured separation.

use crate::experiments::Scale;
use crate::prelude::*;
use crate::protocol;
use crate::table::fmt_util::{f2, int, tick};
use ccq_bounds::{counting_lb_diameter, queuing_ub::queuing_ub_general};
use ccq_graph::bfs;

/// Run the Theorem 4.13 comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut specs: Vec<TopoSpec> = Vec::new();
    for n in scale.pick(vec![64, 256], vec![256, 1024, 4096]) {
        specs.push(TopoSpec::List { n });
    }
    for spine in scale.pick(vec![32, 64], vec![128, 512, 1024]) {
        specs.push(TopoSpec::Caterpillar { spine, legs: 3 });
    }

    let mut t = Table::new(
        "t6 — high-diameter graphs: queuing O(n log n) vs counting Ω(α²) (Theorem 4.13)",
        &[
            "topology",
            "n",
            "α",
            "arrow",
            "C_Q ceiling",
            "arrow ≤ ceil",
            "counting LB",
            "counting meas",
            "gap C_C/C_Q",
        ],
    );
    for spec in specs {
        let s = Scenario::build(spec.clone(), RequestPattern::All);
        let alpha = bfs::diameter_two_sweep(&s.graph, 0) as u64;
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).expect("verifies");
        let qd = q.report.total_delay();
        let ceiling = {
            // The expanded-step scale factor is part of the measured delay;
            // apply the same constant to the ceiling for a like-for-like
            // comparison.
            let scale_c = q.report.delay_scale;
            queuing_ub_general(s.n(), s.k()) * scale_c
        };
        let lb = counting_lb_diameter(alpha);
        let central = run_spec(&protocol::CentralCounter, &s, ModelMode::Strict).expect("ok");
        let combining = run_spec(&protocol::CombiningTree, &s, ModelMode::Strict).expect("ok");
        let cd = central.report.total_delay().min(combining.report.total_delay());
        t.push_row(vec![
            spec.name(),
            int(s.n() as u64),
            int(alpha),
            int(qd),
            int(ceiling),
            tick(qd <= ceiling),
            int(lb),
            int(cd),
            f2(cd as f64 / qd.max(1) as f64),
        ]);
    }
    t.note("C_Q ceiling = 2(⌈lg k⌉+1)n × expanded-step scale (Corollary 4.2)");
    t.note("counting LB = Theorem 3.6's Ω(α²) sum; counting meas = min(central, combining)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queuing_under_ceiling_everywhere() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row[5], "yes", "Corollary 4.2 ceiling violated: {row:?}");
        }
    }

    #[test]
    fn counting_measured_above_its_floor() {
        for row in &run(Scale::Quick)[0].rows {
            let lb: u64 = row[6].replace('_', "").parse().unwrap();
            let meas: u64 = row[7].replace('_', "").parse().unwrap();
            assert!(meas >= lb, "counting below Ω(α²): {row:?}");
        }
    }

    #[test]
    fn queuing_beats_counting() {
        for row in &run(Scale::Quick)[0].rows {
            let gap: f64 = row[8].parse().unwrap();
            assert!(gap > 1.0, "no separation on {row:?}");
        }
    }
}
