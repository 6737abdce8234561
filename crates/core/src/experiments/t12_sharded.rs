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

use super::{Scale, SweepTable};
use crate::table::fmt_util::{f2, int};
use crate::table::*;

const X_SHARD_PCT: Column = ("x-shard %", |r| {
    let c = r.case();
    f2(100.0 * c.cross_shard_messages as f64 / c.messages.max(1) as f64)
});

/// t12 sweeps `K` under the default ferry with every strategy at each
/// `K > 1`; t12b sweeps it over edge-cut partitions under a slow ferry.
pub const TABLES: [SweepTable; 2] = [
    SweepTable {
        title: "t12 — cross-shard traffic on the torus (default ferry; execution equals unsharded)",
        argv: [
            "--topo torus2d:6 --shards 1,2,2:stripe,2:edgecut,4,4:stripe,4:edgecut",
            "--topo torus2d:16 --shards 1,2,2:stripe,2:edgecut,4,4:stripe,4:edgecut,\
             8,8:stripe,8:edgecut,16,16:stripe,16:edgecut",
        ],
        rows: Rows::Cases,
        columns: &[SHARDS, PROTOCOL, KIND, MESSAGES, X_SHARD, X_SHARD_PCT],
        notes: &[
            "default ferry = intra-shard delay policy, so every row completes and verifies with",
            "delays identical to K=1; the x-shard column is the federated coordination surface",
        ],
    },
    SweepTable {
        title: "t12b — queuing vs counting under a slow inter-shard ferry (federated regime)",
        argv: [
            "--topo torus2d:6 --shards 1:edgecut,2:edgecut:ferry=4,4:edgecut:ferry=4",
            "--topo torus2d:16 --shards 1:edgecut,2:edgecut:ferry=8,4:edgecut:ferry=8,\
             8:edgecut:ferry=8,16:edgecut:ferry=8",
        ],
        rows: Rows::Summaries,
        columns: &[
            ("shards", |r| r.summary().shards.clone()),
            ("best queuing", |r| r.summary().best_queuing.clone().unwrap_or_default()),
            ("C_Q", |r| r.summary().best_queuing_delay.map(int).unwrap_or_default()),
            ("best counting", |r| r.summary().best_counting.clone().unwrap_or_default()),
            ("C_C", |r| r.summary().best_counting_delay.map(int).unwrap_or_default()),
            GAP,
            WINS,
        ],
        notes: &[
            "ferry = fixed multi-round delay on cross-shard wires (edge-cut partitions)",
            "K=1 is the unsharded baseline; the gap tracks how counting's denser cross-shard",
            "coordination pays the ferry toll more often than queuing's token-chasing does",
        ],
    },
];

/// Run the sharded crossover sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    super::draw(&TABLES, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::fmt_util::parse;

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
            let x: u64 = parse(&row[4]);
            assert!(x > 0, "sharded row with no crossings: {row:?}");
        }
    }

    #[test]
    fn edgecut_ferries_no_more_than_striping() {
        let t = &run(Scale::Quick)[0];
        let total = |shards: &str| -> u64 {
            t.rows.iter().filter(|r| r[0] == shards).map(|r| parse::<u64>(&r[4])).sum()
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
