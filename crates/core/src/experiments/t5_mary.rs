//! Theorems 4.7/4.12 + Figure 3 — perfect m-ary trees: the NN-TSP is
//! `O(n)`, so the arrow protocol beats counting there too.
//!
//! Audits, per tree: the tour cost against the explicit Theorem 4.7 bound
//! `2d(d+1) + 8n` (binary case), the per-level Lemma 4.9 inequality
//! `cost(ℓ) ≤ 4n·2^ℓ/2^d + 2d`, and the arrow protocol against
//! `2 × NN-TSP` (Theorem 4.1).

use crate::experiments::Scale;
use crate::prelude::*;
use crate::protocol;
use crate::table::fmt_util::{f2, int, tick};
use ccq_tsp::{check_level_costs, nn_tour, perfect::theorem_4_7_bound};

/// Run the perfect-tree audits.
pub fn run(scale: Scale) -> Vec<Table> {
    let cases: Vec<(usize, usize)> = scale.pick(
        vec![(2, 4), (2, 6), (3, 3)],
        vec![(2, 4), (2, 6), (2, 8), (2, 10), (3, 3), (3, 5), (4, 3), (4, 4)],
    );
    let mut t = Table::new(
        "t5 — NN-TSP and arrow on perfect m-ary trees (Theorems 4.7/4.12, Fig. 3)",
        &[
            "m",
            "depth",
            "n",
            "NN-TSP",
            "TSP/n",
            "4.7 bound",
            "lvl ok (L4.9)",
            "arrow",
            "arrow ≤ 2·TSP",
        ],
    );
    for (m, depth) in cases {
        let s = Scenario::build(TopoSpec::PerfectTree { m, depth }, RequestPattern::All);
        let tour = nn_tour(&s.queuing_tree, s.tail, &s.requests);
        // Lemma 4.9's statement is for the binary case.
        let level_ok =
            if m == 2 { check_level_costs(&s.queuing_tree, &tour).is_none() } else { true };
        let bound = if m == 2 {
            theorem_4_7_bound(&s.queuing_tree)
        } else {
            // Theorem 4.12: same shape; generous explicit constant.
            (m as u64 + 6) * s.n() as u64
        };
        let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).expect("verifies");
        let measured = out.report.total_delay_unscaled();
        t.push_row(vec![
            int(m as u64),
            int(depth as u64),
            int(s.n() as u64),
            int(tour.cost()),
            f2(tour.cost() as f64 / s.n() as f64),
            int(bound),
            tick(level_ok && tour.cost() <= bound),
            int(measured),
            tick(measured <= 2 * tour.cost()),
        ]);
    }
    t.note("TSP/n stays bounded — the linear-cost claim of Theorem 4.7/4.12");
    t.note("lvl ok: per-level cost(ℓ) ≤ 4n·2^ℓ/2^d + 2d (Lemma 4.9, binary case)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bounds_hold() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row[6], "yes", "tour bound violated: {row:?}");
            assert_eq!(row[8], "yes", "Theorem 4.1 violated: {row:?}");
        }
    }

    #[test]
    fn tour_per_node_bounded_by_constant() {
        for row in &run(Scale::Quick)[0].rows {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio < 8.0, "TSP/n = {ratio} too large: {row:?}");
        }
    }
}
