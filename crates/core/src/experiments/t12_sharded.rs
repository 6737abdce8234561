//! Extension (multi-shard executor): queuing vs counting as the shard
//! count `K` grows on a torus.
//!
//! The paper's gap is an argument about where coordination state must
//! live; a federated system — the graph split across `K` shards with
//! cross-shard messages ferried through a slower inter-shard transport —
//! is where its bounds should bite hardest. This driver sweeps `K` twice:
//!
//! * with the **default ferry** (same delay as intra-shard wires), where
//!   sharded executions are operationally identical to the unsharded run
//!   and the sweep measures pure *cross-shard traffic*: how much of each
//!   protocol's message volume would cross boundaries, per partition
//!   strategy;
//! * with a **slow ferry** (a fixed multi-round inter-shard delay), the
//!   federated regime, where the crossover gap `C_C / C_Q` shows how each
//!   side degrades when coordination crosses shards.

use crate::experiments::Scale;
use crate::plan::RunPlan;
use crate::prelude::*;
use crate::table::fmt_util::{f2, int, tick};
use ccq_sim::LinkDelay;

/// Run the sharded crossover sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let side = scale.pick(6, 16);
    let topo = TopoSpec::Torus2D { side };
    let ks = scale.pick(vec![1, 2, 4], vec![1, 2, 4, 8, 16]);

    // Sweep 1: default ferry — cross-shard traffic per strategy.
    let mut specs: Vec<ShardSpec> = Vec::new();
    for &k in &ks {
        specs.push(ShardSpec::new(k, ShardStrategy::Contiguous));
        if k > 1 {
            specs.push(ShardSpec::new(k, ShardStrategy::Striped));
            specs.push(ShardSpec::new(k, ShardStrategy::EdgeCut));
        }
    }
    let set = RunPlan::new().topologies([topo.clone()]).shards(specs).execute();
    let mut t = Table::new(
        "t12 — cross-shard traffic on the torus (default ferry; execution equals unsharded)",
        &["shards", "protocol", "kind", "messages", "x-shard", "x-shard %"],
    );
    for c in &set.cases {
        let pct = if c.messages > 0 {
            100.0 * c.cross_shard_messages as f64 / c.messages as f64
        } else {
            0.0
        };
        t.push_row(vec![
            c.shards.clone(),
            c.protocol.clone(),
            c.kind.label().into(),
            int(c.messages),
            int(c.cross_shard_messages),
            f2(pct),
        ]);
    }
    t.note("default ferry = intra-shard delay policy, so every row completes and verifies with");
    t.note("delays identical to K=1; the x-shard column is the federated coordination surface");

    // Sweep 2: slow ferry — the federated crossover as K grows.
    let ferry = LinkDelay::Fixed { delay: scale.pick(4, 8) };
    let federated: Vec<ShardSpec> = ks
        .iter()
        .map(|&k| {
            let s = ShardSpec::new(k, ShardStrategy::EdgeCut);
            if k > 1 {
                s.with_inter_delay(ferry)
            } else {
                s
            }
        })
        .collect();
    let fed = RunPlan::new().topologies([topo]).shards(federated).execute();

    let mut t2 = Table::new(
        "t12b — queuing vs counting under a slow inter-shard ferry (federated regime)",
        &["shards", "best queuing", "C_Q", "best counting", "C_C", "gap C_C/C_Q", "queuing wins"],
    );
    for s in &fed.summaries {
        t2.push_row(vec![
            s.shards.clone(),
            s.best_queuing.clone().unwrap_or_default(),
            s.best_queuing_delay.map(int).unwrap_or_default(),
            s.best_counting.clone().unwrap_or_default(),
            s.best_counting_delay.map(int).unwrap_or_default(),
            s.gap.map(f2).unwrap_or_default(),
            s.queuing_wins.map(tick).unwrap_or_default(),
        ]);
    }
    t2.note("ferry = fixed multi-round delay on cross-shard wires (edge-cut partitions)");
    t2.note("K=1 is the unsharded baseline; the gap tracks how counting's denser cross-shard");
    t2.note("coordination pays the ferry toll more often than queuing's token-chasing does");
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_both_tables_with_all_protocols() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        // Sweep 1: 7 shard specs × 10 protocols.
        assert_eq!(tables[0].rows.len(), 7 * 10);
        // Sweep 2: one summary row per K.
        assert_eq!(tables[1].rows.len(), 3);
    }

    #[test]
    fn unsharded_rows_have_zero_cross_shard_traffic() {
        let t = &run(Scale::Quick)[0];
        for row in t.rows.iter().filter(|r| r[0] == "1") {
            assert_eq!(row[4], "0", "unsharded row ferried messages: {row:?}");
        }
        // And every sharded row of a connected protocol crosses at least once.
        for row in t.rows.iter().filter(|r| r[0].starts_with('4')) {
            let x: u64 = row[4].replace('_', "").parse().unwrap();
            assert!(x > 0, "sharded row with no crossings: {row:?}");
        }
    }

    #[test]
    fn edgecut_ferries_no_more_than_striping() {
        let t = &run(Scale::Quick)[0];
        let total = |shards: &str| -> u64 {
            t.rows
                .iter()
                .filter(|r| r[0] == shards)
                .map(|r| r[4].replace('_', "").parse::<u64>().unwrap())
                .sum()
        };
        assert!(
            total("4:edgecut") <= total("4:stripe"),
            "edge-cut partition should not ferry more than striping"
        );
    }

    #[test]
    fn queuing_keeps_winning_under_the_ferry() {
        let t2 = &run(Scale::Quick)[1];
        for row in &t2.rows {
            assert_eq!(row[6], "yes", "queuing lost: {row:?}");
        }
    }
}
