//! Extension (paper §1.2 related work, Kuhn–Wattenhofer SPAA '04): the
//! **long-lived** scenario — requests arrive over time instead of all at
//! round 0.
//!
//! We sweep the inter-arrival gap on a mesh's Hamilton-path tree, running
//! the plain [`ArrowProtocol`] on an open schedule
//! ([`Simulator::with_arrivals`]) — the same arrivals phase every registry
//! protocol uses for open arrivals. At gap 0 this is the paper's one-shot
//! case (concurrent requests chase each other and the 2×NN-TSP ceiling
//! applies); as the gap grows each request finds a settled tail and pays
//! the full sequential distance. The mean per-operation delay therefore
//! *rises* with the gap until it saturates at the sequential regime —
//! concurrency is a locality optimization for the arrow protocol, not a
//! cost.

use crate::experiments::Scale;
use crate::prelude::*;
use crate::table::fmt_util::{f2, int};
use ccq_graph::NodeId;
use ccq_queuing::{verify_total_order, ArrowProtocol};
use ccq_sim::{Arrivals, Protocol, Round, SimConfig, Simulator};

/// Run the long-lived arrival sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let side = scale.pick(8, 16);
    let s = Scenario::build(TopoSpec::Mesh2D { side }, RequestPattern::All);
    let n = s.n();
    let mut t = Table::new(
        "t10 — long-lived arrow: arrival gap vs per-op delay (extension; §1.2 related work)",
        &["inter-arrival gap", "ops", "mean delay/op", "total adjusted delay", "messages"],
    );
    for gap in [0u64, 1, 4, 16, 64] {
        // Requests sweep the node ids in a shuffled-but-deterministic order
        // (stride walk) so consecutive arrivals are not tree-adjacent.
        let stride = (n / 2) | 1;
        let schedule: Vec<(Round, NodeId)> =
            (0..n).map(|i| (i as u64 * gap, (i * stride) % n)).collect();
        let arrow = ArrowProtocol::new(&s.queuing_tree, s.tail, &s.requests);
        let cfg = SimConfig::expanded(s.queuing_tree.max_degree() + 1);
        let sim = Simulator::new(&s.graph, arrow, cfg).with_arrivals(Arrivals::new(schedule));
        let (rep, arrow) = sim.run_with_state().expect("long-lived run");
        let pred_of: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        verify_total_order(arrow.requests(), &pred_of).expect("valid total order");
        // The schedule's issues are recorded, so the report's completion
        // latencies are already (completion − issue) × scale.
        let adjusted: u64 = rep.latencies().iter().sum();
        t.push_row(vec![
            int(gap),
            int(rep.ops() as u64),
            f2(adjusted as f64 / rep.ops().max(1) as f64),
            int(adjusted),
            int(rep.messages_sent),
        ]);
    }
    t.note("delay/op = (completion − issue) × expanded-step scale, averaged over all ops");
    t.note("gap 0 = the paper's one-shot scenario; large gaps = sequential execution");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_rows_and_valid_orders() {
        let t = &run(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn sequential_regime_costs_at_least_one_shot() {
        let t = &run(Scale::Quick)[0];
        let mean = |row: &Vec<String>| -> f64 { row[2].parse().unwrap() };
        let first = mean(&t.rows[0]);
        let last = mean(&t.rows[t.rows.len() - 1]);
        assert!(last >= first, "sequential per-op delay {last} should be ≥ concurrent {first}");
    }
}
