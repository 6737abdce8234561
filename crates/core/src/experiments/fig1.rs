//! Figure 1 — the worked example: counting hands out ranks, queuing hands
//! out predecessor identities, over the same request set.
//!
//! The figure's six nodes `a..f` are our `0..5`; the solid (requesting)
//! nodes are `{a, e, c} = {0, 4, 2}`. We run a real counting algorithm and
//! the arrow protocol and print, per requester, the rank and the
//! predecessor — the two faces of the same total order.

use crate::experiments::Scale;
use crate::prelude::*;
use crate::protocol;
use ccq_graph::{spanning, topology};
use ccq_queuing::INITIAL_TOKEN;

/// Run the Figure 1 demonstration.
pub fn run(_scale: Scale) -> Vec<Table> {
    let graph = topology::figure1();
    let tree = spanning::bfs_tree(&graph, 0);
    let requests = vec![0, 2, 4];
    let scenario = Scenario {
        spec: TopoSpec::Figure1,
        graph,
        queuing_tree: tree.clone(),
        counting_tree: tree,
        requests: requests.clone(),
        tail: 0,
        arrival: ArrivalSpec::OneShot,
        schedule: ArrivalSpec::OneShot.materialize(&requests),
        admission: AdmissionSpec::Open,
        priority: PrioritySpec::Uniform,
        faults: FaultSpec::none(),
        shards: ShardSpec::single(),
        probe: ProbeSpec::OFF,
        partition: Default::default(),
    };

    let counting = run_spec(&protocol::CombiningTree, &scenario, ModelMode::Strict)
        .expect("counting must verify");
    let queuing =
        run_spec(&protocol::Arrow, &scenario, ModelMode::Strict).expect("queuing must verify");

    let name = |v: usize| char::from(b'a' + v as u8).to_string();
    let ranks = counting.report.value_by_node(6);
    let preds = queuing.report.value_by_node(6);

    let mut t = Table::new(
        "fig1 — counting vs queuing semantics (paper Figure 1)",
        &["node", "requests?", "count received", "predecessor received"],
    );
    for v in 0..6usize {
        let is_req = requests.contains(&v);
        let count = ranks[v].map(|r| r.to_string()).unwrap_or_else(|| "-".into());
        let pred = match preds[v] {
            None => "-".into(),
            Some(p) if p == INITIAL_TOKEN => "t0 (initial token)".into(),
            Some(p) => name(p as usize),
        };
        t.push_row(vec![name(v), if is_req { "yes".into() } else { "no".into() }, count, pred]);
    }
    t.note(format!(
        "counting order (by rank): {:?}",
        counting.order.iter().map(|&v| name(v)).collect::<Vec<_>>()
    ));
    t.note(format!(
        "queuing order (chain from t0): {:?}",
        queuing.order.iter().map(|&v| name(v)).collect::<Vec<_>>()
    ));
    t.note("non-requesting nodes receive nothing, as in the figure".to_string());
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_produces_consistent_orders() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 6);
        // Exactly three requesters got a count.
        let counted = t.rows.iter().filter(|r| r[2] != "-").count();
        assert_eq!(counted, 3);
        let preded = t.rows.iter().filter(|r| r[3] != "-").count();
        assert_eq!(preded, 3);
        // Exactly one operation queued behind the initial token.
        let heads = t.rows.iter().filter(|r| r[3].contains("t0")).count();
        assert_eq!(heads, 1);
    }
}
