//! Figure 2 + Lemma 4.4 — the runs decomposition of NN tours on a list.
//!
//! Every NN tour's run-end distances `x₁, x₂, …` must satisfy `x₂ ≥ x₁`
//! and `xᵢ ≥ xᵢ₋₁ + xᵢ₋₂` (Fibonacci growth), which is what caps the tour
//! at `3n` (Lemma 4.3). The table sweeps densities; a worked small example
//! is attached as a note (the Figure 2 objects made concrete).

use crate::experiments::Scale;
use crate::prelude::*;
use crate::table::fmt_util::{f2, int, tick};
use ccq_tsp::{decompose_runs, nn_tour};

/// Run the runs-decomposition audit.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = scale.pick(256, 2048);
    let densities = [0.05, 0.2, 0.5, 0.9, 1.0];
    let mut t = Table::new(
        "f2 — runs decomposition of NN tours on the list (Figure 2, Lemma 4.4)",
        &["n", "density", "|R|", "#runs", "cost = Σx", "≤ 3n", "Fibonacci ok"],
    );
    // One list; each density swaps in its request set.
    let mut s = Scenario::build(TopoSpec::List { n }, RequestPattern::Custom(Vec::new()));
    for (i, &density) in densities.iter().enumerate() {
        let pattern = if density >= 1.0 {
            RequestPattern::All
        } else {
            RequestPattern::Random { density, seed: 7 + i as u64 }
        };
        s = s.with_pattern(pattern);
        let start = n / 3; // off-center start exercises both directions
        let tour = nn_tour(&s.queuing_tree, start, &s.requests);
        let d = decompose_runs(start, &tour.order);
        assert_eq!(d.x_sum(), tour.cost(), "Σx must equal the tour cost");
        t.push_row(vec![
            int(n as u64),
            f2(density),
            int(s.k() as u64),
            int(d.runs.len() as u64),
            int(d.x_sum()),
            tick(d.x_sum() <= 3 * n as u64),
            tick(d.fibonacci_violation().is_none()),
        ]);
    }

    // Worked example: n = 20, sparse requests, annotated x-sequence.
    let t20 = ccq_graph::spanning::path_tree_from_order(&(0..20).collect::<Vec<_>>());
    let targets = vec![2usize, 3, 8, 14, 19];
    let tour = nn_tour(&t20, 5, &targets);
    let d = decompose_runs(5, &tour.order);
    t.note(format!(
        "worked example (n=20, start 5, R={targets:?}): order {:?}, runs {:?}, x = {:?}",
        tour.order,
        d.runs.iter().map(|r| (r.first, r.last)).collect::<Vec<_>>(),
        d.x
    ));
    t.note("#runs stays O(log n): Fibonacci growth exhausts the list quickly".to_string());
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_audits_pass() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row[5], "yes", "3n bound violated: {row:?}");
            assert_eq!(row[6], "yes", "Lemma 4.4 violated: {row:?}");
        }
    }

    #[test]
    fn run_count_is_logarithmic() {
        for row in &run(Scale::Quick)[0].rows {
            let n: u64 = row[0].replace('_', "").parse().unwrap();
            let runs: u64 = row[3].replace('_', "").parse().unwrap();
            // Fibonacci growth ⇒ #runs ≲ log_φ(n) + O(1); allow slack 4×.
            let cap = 4 * (64 - n.leading_zeros() as u64 + 2);
            assert!(runs <= cap, "too many runs ({runs}) for n={n}");
        }
    }
}
