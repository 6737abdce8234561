//! Extension: **the cost-vs-consistency frontier** — QQC lateness across
//! every registry protocol as the open-system load rises.
//!
//! The paper prices coordination (counting costs more than queuing) but
//! never asks what the extra messages buy. Quantitative quiescent
//! consistency (Jagadeesan–Riely, arXiv:1402.4043) supplies the missing
//! axis: each completion's rank displacement against a canonical
//! linearization of issue order. The sweep separates three regimes:
//!
//! * **per-request protocols** (arrow, central queue/counter, the network
//!   counters) serve close to issue order when idle and drift as
//!   contention queues requests — their lateness *rises with load*;
//! * **single-wave combiners** (combining-queue, combining-tree) close one
//!   batch whose order the tree structure fixes, so they pay a large,
//!   load-independent scramble (~`k/3`) even at near-idle rates — batching
//!   trades consistency for message economy at every load;
//! * the **`crdt-counter`** anchors the far end of the frontier: zero
//!   rounds of coordination on every completion (latency exactly 0 at any
//!   rate), and near saturation — arrivals packed tighter than gossip can
//!   propagate — its locally-merged ranks tie so heavily that the
//!   worst-case linearization consistent with them is the *maximal*
//!   lateness of all ten protocols. That debt is what the paper's
//!   coordination cost buys away.
//!
//! The one-shot strict table pins the degenerate base point: with every
//! issue at round 0 there is no issue order to violate, and all ten
//! protocols report lateness exactly 0 — consistency debt needs load to
//! exist.

use super::{Scale, SweepTable};
use crate::table::*;

const LAT_P50: Column = ("lat_p50", P50.1);
const LAT_P99: Column = ("lat_p99", P99.1);

/// t14 ramps the Poisson rate; the top rate sits just under saturation:
/// `rate = 1` degenerates to the one-shot batch (every gap 0), where
/// same-round ties erase all lateness. t14b is the one-shot strict base
/// point.
pub const TABLES: [SweepTable; 2] = [
    SweepTable {
        title: "t14 — the cost-vs-consistency frontier: QQC lateness × load (extension)",
        argv: [
            "--topo mesh2d:5 --arrival poisson:rate=0.2:seed=7,poisson:rate=0.85:seed=7",
            "--topo mesh2d:8 --arrival poisson:rate=0.1:seed=7,poisson:rate=0.3:seed=7,\
             poisson:rate=0.6:seed=7,poisson:rate=0.92:seed=7",
        ],
        rows: Rows::Cases,
        columns: &[ARRIVAL, PROTOCOL, KIND, OK, LAT_P50, LAT_P99, QQC_MEAN, QQC_MAX, QQC_P99],
        notes: &[
            "qqc = per-completion rank displacement vs the canonical linearization of issue order",
            "per-request protocols drift as load queues them; single-wave combiners pay a fixed",
            "batch scramble at any load; crdt-counter completes in 0 rounds at every rate and is",
            "maximal at the near-saturation top of the ramp, where merged ranks carry no order",
        ],
    },
    SweepTable {
        title: "t14b — one-shot strict base point: no issue order, no lateness",
        argv: ["--topo mesh2d:5 --modes strict", "--topo mesh2d:8 --modes strict"],
        rows: Rows::Cases,
        columns: &[PROTOCOL, KIND, OK, TOTAL, QQC_MEAN, QQC_MAX],
        notes: &[
            "every issue lands at round 0, so the canonical order is the output order itself:",
            "lateness is exactly 0 for all ten protocols — consistency debt needs load to exist",
        ],
    },
];

/// Run the consistency-frontier sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    super::draw(&TABLES, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::fmt_util::parse;

    #[test]
    fn produces_rows_and_all_cases_verify() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        // The ramp, read from the table's own argv.
        let rates = TABLES[0].quick_values("--arrival").len();
        assert_eq!(tables[0].rows.len(), rates * 10, "rates × 10 protocols");
        assert_eq!(tables[1].rows.len(), 10, "one one-shot row per protocol");
        for t in &tables {
            let ok_col = if t.rows[0].len() == 9 { 3 } else { 2 };
            for row in &t.rows {
                assert_eq!(row[ok_col], "yes", "case failed verification: {row:?}");
            }
        }
    }

    #[test]
    fn crdt_counter_is_the_zero_cost_maximal_debt_endpoint() {
        let t = &run(Scale::Quick)[0];
        // Zero coordination messages on the completion path: every
        // crdt-counter operation completes in the round it issues, at
        // every rate (gossip is background traffic).
        for row in t.rows.iter().filter(|r| r[1] == "crdt-counter") {
            assert_eq!(parse::<u64>(&row[4]), 0, "crdt completion waited on a message: {row:?}");
            assert_eq!(parse::<u64>(&row[5]), 0, "crdt completion waited on a message: {row:?}");
        }
        // At the near-saturation top of the ramp the crdt-counter's
        // lateness is maximal across all ten protocols — in particular it
        // dominates every queuing protocol, the debt the paper's
        // coordination cost buys away.
        let top = t.rows.last().unwrap()[0].clone();
        let qqc_of = |proto: &str| -> f64 {
            let row = t.rows.iter().find(|r| r[0] == top && r[1] == proto).unwrap();
            parse::<f64>(&row[6])
        };
        let crdt = qqc_of("crdt-counter");
        assert!(crdt > 0.0, "crdt-counter reported no lateness under load");
        for row in t.rows.iter().filter(|r| r[0] == top && r[1] != "crdt-counter") {
            assert!(
                crdt >= parse::<f64>(&row[6]),
                "crdt lateness {} below {}'s {}: {row:?}",
                crdt,
                &row[1],
                &row[6]
            );
        }
    }

    #[test]
    fn per_request_lateness_grows_while_combiners_pay_a_flat_scramble() {
        let t = &run(Scale::Quick)[0];
        let (low, top) = (t.rows.first().unwrap()[0].clone(), t.rows.last().unwrap()[0].clone());
        let qqc_of = |arrival: &str, proto: &str| -> f64 {
            let row = t.rows.iter().find(|r| r[0] == arrival && r[1] == proto).unwrap();
            parse::<f64>(&row[6])
        };
        let combiners = ["combining-queue", "combining-tree"];
        let per_request = [
            "arrow",
            "arrow+notify",
            "central-queue",
            "central-counter",
            "counting-network",
            "periodic-network",
            "toggle-tree",
        ];
        // Near idle, every per-request protocol serves close to issue
        // order while the single-wave combiners already pay the batch
        // scramble the tree structure fixes.
        for p in per_request {
            for c in combiners {
                assert!(
                    qqc_of(&low, p) < qqc_of(&low, c),
                    "{p} ({}) not below combiner {c} ({}) at the low rate",
                    qqc_of(&low, p),
                    qqc_of(&low, c)
                );
            }
        }
        // And the per-request family drifts as the load rises: its mean
        // lateness grows from the bottom of the ramp to the top.
        let family_mean = |arrival: &str| -> f64 {
            per_request.iter().map(|p| qqc_of(arrival, p)).sum::<f64>() / per_request.len() as f64
        };
        assert!(
            family_mean(&top) > family_mean(&low),
            "per-request lateness did not grow: {} -> {}",
            family_mean(&low),
            family_mean(&top)
        );
    }

    #[test]
    fn one_shot_strict_lateness_is_exactly_zero_for_all_ten() {
        let t2 = &run(Scale::Quick)[1];
        assert_eq!(t2.rows.len(), 10);
        for row in &t2.rows {
            assert_eq!(parse::<f64>(&row[4]), 0.0, "one-shot lateness nonzero: {row:?}");
            assert_eq!(parse::<u64>(&row[5]), 0, "one-shot lateness nonzero: {row:?}");
        }
        // The one-shot strict scenario is where the paper's cost gap
        // lives: the queuing rows must still be cheaper than counting.
        let best = |kind: &str| -> u64 {
            t2.rows.iter().filter(|r| r[1] == kind).map(|r| parse::<u64>(&r[3])).min().unwrap()
        };
        assert!(best("queuing") < best("counting"));
        // And the relaxed counter's total delay is identically zero.
        let crdt = t2.rows.iter().find(|r| r[0] == "crdt-counter").unwrap();
        assert_eq!(parse::<u64>(&crdt[3]), 0);
    }
}
