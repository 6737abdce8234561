//! Theorem 4.5 / Lemma 4.6 — on every Hamilton-path topology (complete
//! graph, d-dimensional mesh, hypercube), concurrent queuing beats
//! concurrent counting.
//!
//! Each table is one `ccq sweep` over the protocol registry: the arrow
//! protocol plus every counting protocol run on each topology under the
//! paper's mode convention (queuing expanded, counting strict), and the
//! plan's per-scenario summaries provide the `gap = C_C / C_Q` column the
//! paper predicts exceeds 1 everywhere here and grows with `n`.

use super::{Scale, SweepTable};
use crate::table::fmt_util::int;
use crate::table::*;

const COLUMNS: &[Column] = &[
    ("topology", |r| r.summary().topology.clone()),
    ("n", |r| int(r.summary().n as u64)),
    ("arrow (C_Q)", |r| r.summary().best_queuing_delay.map(int).unwrap_or_default()),
    ("best counting", |r| r.summary().best_counting_delay.map(int).unwrap_or_default()),
    ("alg", |r| r.summary().best_counting.clone().unwrap_or_default()),
    GAP,
    WINS,
];

/// The paper's Hamilton-path topologies, then (t4b) two beyond its list:
/// a torus (Hamilton path inherited from its mesh subgraph) and random
/// regular graphs (BFS tree, Corollary 4.2).
pub const TABLES: [SweepTable; 2] = [
    SweepTable {
        title: "t4 — queuing vs counting on Hamilton-path topologies (Theorem 4.5 / Lemma 4.6)",
        argv: [
            "--topo complete:16,complete:64,mesh2d:4,mesh2d:8,mesh3d:3,hypercube:4,hypercube:6 \
             --proto arrow,counting",
            "--topo complete:64,complete:256,complete:1024,mesh2d:8,mesh2d:16,mesh2d:32,\
             mesh3d:4,mesh3d:8,hypercube:6,hypercube:8,hypercube:10 --proto arrow,counting",
        ],
        rows: Rows::Summaries,
        columns: COLUMNS,
        notes: &[
            "arrow runs on the Hamilton-path spanning tree (expanded steps, delays ×scale)",
            "counting = min over all five registry counting protocols (strict model)",
            "paper verdict: C_Q = O(n) = o(C_C) on all rows (Theorem 4.5)",
        ],
    },
    SweepTable {
        title: "t4b — beyond the paper: torus and random-regular topologies",
        argv: [
            "--topo torus2d:6,random-regular:32:4:12 --proto arrow,counting",
            "--topo torus2d:8,torus2d:16,random-regular:128:4:12,random-regular:512:4:12 \
             --proto arrow,counting",
        ],
        rows: Rows::Summaries,
        columns: COLUMNS,
        notes: &[
            "the paper's argument extends: any Hamilton-path graph is a Theorem 4.5 case, and",
            "constant-degree BFS trees put random-regular graphs under Corollary 4.2's ceiling",
        ],
    },
];

/// Run the crossover comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    super::draw(&TABLES, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::spec;

    #[test]
    fn queuing_wins_on_every_hamilton_topology() {
        for row in &run(Scale::Quick)[0].rows {
            assert_eq!(row.last().unwrap(), "yes", "queuing lost on {row:?}");
        }
    }

    #[test]
    fn queuing_wins_beyond_the_paper_too() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        for row in &tables[1].rows {
            assert_eq!(row.last().unwrap(), "yes", "queuing lost on {row:?}");
        }
    }

    #[test]
    fn gap_grows_with_n_on_complete_graphs() {
        let t = &run(Scale::Quick)[0];
        let gaps: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0].starts_with("complete"))
            .map(|r| r[5].parse().unwrap())
            .collect();
        assert!(gaps.len() >= 2);
        assert!(gaps[1] > gaps[0], "gap should grow: {gaps:?}");
    }

    #[test]
    fn plan_summaries_match_direct_runs() {
        // The registry-driven sweep must agree with run_best_counting.
        let argv = ["--topo", "mesh2d:4", "--proto", "arrow,counting"];
        let set = spec::sweep(&argv).unwrap().plan.execute();
        let s = Scenario::build(TopoSpec::Mesh2D { side: 4 }, RequestPattern::All);
        let best = crate::run::run_best_counting(&s, ModelMode::Strict).unwrap();
        assert_eq!(set.summaries[0].best_counting_delay, Some(best.report.total_delay()));
        assert_eq!(set.summaries[0].best_counting.as_deref(), Some(best.alg.as_str()));
    }
}
