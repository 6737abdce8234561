//! Theorem 4.1 + Lemma 4.3 — the arrow protocol on a list costs at most
//! `2 × NN-TSP ≤ 6n`.
//!
//! For each size and request density we compute the actual NN tour from the
//! tail, run the arrow protocol in the expanded-step model Theorem 4.1
//! assumes, and report `measured / (2 × NN-TSP)` (must be ≤ 1) alongside
//! Lemma 4.3's absolute `3n` tour bound.

use crate::experiments::Scale;
use crate::prelude::*;
use crate::protocol;
use crate::table::fmt_util::{f2, int, tick};
use ccq_tsp::nn_tour;

/// Run the Theorem 4.1 / Lemma 4.3 audit on lists.
pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = scale.pick(vec![64, 256], vec![256, 1024, 4096]);
    let densities = [0.25, 0.5, 1.0];
    let mut t = Table::new(
        "t3 — arrow on the list vs 2×NN-TSP (Theorem 4.1) and 3n (Lemma 4.3)",
        &["n", "density", "|R|", "NN-TSP", "3n", "tour ≤ 3n", "arrow", "arrow/(2·TSP)", "≤ 2·TSP"],
    );
    for n in sizes {
        // One list per size; each density swaps in its request set.
        let mut s = Scenario::build(TopoSpec::List { n }, RequestPattern::Custom(Vec::new()));
        for &density in &densities {
            let pattern = if density >= 1.0 {
                RequestPattern::All
            } else {
                RequestPattern::Random { density, seed: 1000 + n as u64 }
            };
            s = s.with_pattern(pattern);
            let tour = nn_tour(&s.queuing_tree, s.tail, &s.requests);
            let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).expect("verifies");
            let measured = out.report.total_delay_unscaled();
            let bound = 2 * tour.cost();
            t.push_row(vec![
                int(n as u64),
                f2(density),
                int(s.k() as u64),
                int(tour.cost()),
                int(3 * n as u64),
                tick(tour.cost() <= 3 * n as u64),
                int(measured),
                f2(measured as f64 / bound.max(1) as f64),
                tick(measured <= bound),
            ]);
        }
    }
    t.note("arrow measured in the expanded-step model of Theorem 4.1 (unscaled rounds)");
    t.note("Lemma 4.3 bounds the tour by 3n for every request set; Theorem 4.1 doubles it");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_4_1_bound_holds() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row.last().unwrap(), "yes", "Theorem 4.1 violated: {row:?}");
        }
    }

    #[test]
    fn lemma_4_3_bound_holds() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row[5], "yes", "Lemma 4.3 violated: {row:?}");
        }
    }

    #[test]
    fn arrow_total_is_linear_in_n_at_full_density() {
        let t = &run(Scale::Quick)[0];
        let full: Vec<(u64, u64)> = t
            .rows
            .iter()
            .filter(|r| r[1] == "1.00")
            .map(|r| {
                (r[0].replace('_', "").parse().unwrap(), r[6].replace('_', "").parse().unwrap())
            })
            .collect();
        assert!(full.len() >= 2);
        let (n0, d0) = full[0];
        let (n1, d1) = full[1];
        // Linear: delay ratio tracks the size ratio (within 2×).
        let size_ratio = n1 as f64 / n0 as f64;
        let delay_ratio = d1 as f64 / d0 as f64;
        assert!(delay_ratio < 2.0 * size_ratio, "not linear: {delay_ratio} vs {size_ratio}");
    }
}
