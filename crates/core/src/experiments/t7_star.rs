//! Section 5 — the star graph: counting is *not* harder than queuing.
//!
//! Every message serializes at the hub, so both problems cost `Θ(n²)`. We
//! run the arrow protocol (on the star spanning tree, strict model — the
//! hub's contention is the phenomenon) and the counting algorithms, and
//! check that the measured ratio stays bounded as `n` grows: no asymptotic
//! separation, unlike every other benched topology.

use crate::experiments::Scale;
use crate::prelude::*;
use crate::protocol;
use crate::table::fmt_util::{f2, int, tick};
use ccq_bounds::star_serialization_lb;

/// Run the star-graph comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = scale.pick(vec![32, 64, 128], vec![64, 256, 1024]);
    let mut t = Table::new(
        "t7 — the star: both problems are Θ(n²) (Section 5)",
        &["n", "Θ(n²) floor", "arrow", "central cnt", "combining", "ratio C_C/C_Q", "both ≥ floor"],
    );
    let mut ratios = Vec::new();
    // Hub contention of the last (largest) size's arrow run, formatted once
    // its outcomes are dropped (a string made while they live raised peak RSS).
    let mut contention = None;
    for n in sizes {
        let s = Scenario::build(TopoSpec::Star { n }, RequestPattern::All);
        let floor = star_serialization_lb(n);
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Strict).expect("verifies");
        let qd = q.report.total_delay();
        let central = run_spec(&protocol::CentralCounter, &s, ModelMode::Strict).expect("ok");
        let combining = run_spec(&protocol::CombiningTree, &s, ModelMode::Strict).expect("ok");
        let cd = central.report.total_delay().min(combining.report.total_delay());
        let ratio = cd as f64 / qd.max(1) as f64;
        ratios.push(ratio);
        contention = q.report.busiest_node().map(|(hub, cnt)| {
            (hub, cnt, q.report.messages_sent, q.report.contention_concentration())
        });
        t.push_row(vec![
            int(n as u64),
            int(floor),
            int(qd),
            int(central.report.total_delay()),
            int(combining.report.total_delay()),
            f2(ratio),
            tick(qd >= floor / 2 && cd >= floor / 2),
        ]);
    }
    let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
        / ratios.iter().cloned().fold(f64::MAX, f64::min);
    t.note(format!(
        "ratio spread across sizes: ×{:.2} — bounded, i.e. no asymptotic separation (contrast t4/t6)",
        spread
    ));
    t.note("floor = Σ_{i<n} i: the hub admits one message per round (§5: C_C(S) = C_Q(S) = Θ(n²))");
    if let Some((hub, cnt, sent, conc)) = contention {
        t.note(format!(
            "contention profile (arrow, largest n): node {hub} received {cnt} of {sent} messages \
             ({:.0}% concentration) — the serialization is literal",
            conc * 100.0
        ));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_problems_quadratic_on_star() {
        let t = &run(Scale::Quick)[0];
        // Ratio bounded: max/min < 4 across a 4× size range.
        let ratios: Vec<f64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 4.0, "ratio not bounded: {ratios:?}");
    }

    #[test]
    fn measured_above_half_floor() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row.last().unwrap(), "yes", "row {row:?}");
        }
    }

    #[test]
    fn arrow_quadratic_growth() {
        let t = &run(Scale::Quick)[0];
        let arrows: Vec<u64> =
            t.rows.iter().map(|r| r[2].replace('_', "").parse().unwrap()).collect();
        // 32 → 128 quadruples n: delay should grow ≫ 4×.
        let first = arrows.first().copied().unwrap() as f64;
        let last = arrows.last().copied().unwrap() as f64;
        assert!(last / first > 8.0, "arrow on star not quadratic: {arrows:?}");
    }
}
