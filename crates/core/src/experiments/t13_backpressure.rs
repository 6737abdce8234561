//! Extension: **adaptive backpressure** — what each admission policy buys,
//! per protocol, when the open-system load rises.
//!
//! The paper's gap is a statement about contention: counting protocols
//! collapse under load that queuing absorbs. Admission control turns that
//! collapse into a measurable trade — "The Power of Choice in Priority
//! Scheduling" (Alistarh et al.) relaxes exactness for throughput the same
//! way, and quantitative quiescent consistency (Jagadeesan–Riely) asks how
//! far a loaded run drifts from the ideal schedule. Here the drift is
//! explicit: `DropTail` sheds arrivals over a backlog bound (goodput falls
//! below throughput), `DelayRetry` defers them (admission latency grows),
//! and `Adaptive` AIMD-throttles the arrival stream against the live
//! backlog (backlog pinned at the target, makespan stretches). The
//! expected shape: per-request protocols (arrow, central) keep their
//! backlog under any bound and shed little, while the single-wave
//! combining protocols and the network counters pin the backlog at the
//! bound and shed — or defer — almost everything that arrives after it.

use super::{Scale, SweepTable};
use crate::table::fmt_util::int;
use crate::table::*;

const DELAYED: Column = ("delayed", |r| int(r.case().delayed_admissions));
const COLUMNS: &[Column] = &[
    ARRIVAL, ADMISSION, PROTOCOL, KIND, OK, THROUGHPUT, GOODPUT, DROPPED, DELAYED, P50, P99,
    BACKLOG,
];

/// t13 runs every policy at one load; t13b open vs droptail as the
/// Poisson rate rises. Both run at the same backlog bound / AIMD target.
pub const TABLES: [SweepTable; 2] = [
    SweepTable {
        title: "t13 — backpressure: admission policies × protocols at fixed load (extension)",
        argv: [
            "--topo mesh2d:5 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=0.6:seed=7 \
             --admission open,droptail:bound=8,delayretry:bound=8:backoff=4,adaptive:target=8:gain=1",
            "--topo mesh2d:10 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=0.5:seed=7 \
             --admission open,droptail:bound=24,delayretry:bound=24:backoff=4,\
             adaptive:target=24:gain=1",
        ],
        rows: Rows::Cases,
        columns: COLUMNS,
        notes: &[
            "bound/target = {bound} open ops; goodput = throughput × retained/offered",
            "droptail sheds over the bound; delayretry defers; adaptive AIMD-throttles arrivals",
            "single-wave combining protocols pin the backlog, so active policies bite them hardest",
        ],
    },
    SweepTable {
        title: "t13b — the throughput-vs-latency trade under rising Poisson rate",
        argv: [
            "--topo mesh2d:5 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=0.2:seed=7,poisson:rate=0.6:seed=7,poisson:rate=1.0:seed=7 \
             --admission open,droptail:bound=8",
            "--topo mesh2d:10 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=0.1:seed=7,poisson:rate=0.3:seed=7,poisson:rate=0.6:seed=7,\
             poisson:rate=1.0:seed=7 --admission open,droptail:bound=24",
        ],
        rows: Rows::Cases,
        columns: COLUMNS,
        notes: &[
            "rising rate widens the open-vs-droptail goodput gap for backlog-pinning protocols",
            "p-percentiles are over retained (admitted) operations only — drops never issue",
        ],
    },
];

/// Run the backpressure sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    super::draw(&TABLES, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AdmissionSpec;
    use crate::spec;
    use crate::table::fmt_util::parse;

    #[test]
    fn produces_rows_and_all_cases_verify() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 4 * 6, "4 policies × 6 protocols");
        assert_eq!(tables[1].rows.len(), 3 * 2 * 6, "3 rates × 2 policies × 6 protocols");
        for t in &tables {
            for row in &t.rows {
                assert_eq!(row[4], "yes", "case failed verification: {row:?}");
            }
        }
    }

    #[test]
    fn goodput_never_exceeds_throughput_and_open_never_drops() {
        for t in &run(Scale::Quick) {
            for row in &t.rows {
                let (thr, goodput, dropped) =
                    (parse::<f64>(&row[5]), parse::<f64>(&row[6]), parse::<u64>(&row[7]));
                assert!(goodput <= thr + 1e-9, "goodput > throughput: {row:?}");
                if row[1] == "open" {
                    assert_eq!(dropped, 0, "open policy dropped arrivals: {row:?}");
                    assert_eq!(parse::<u64>(&row[8]), 0, "open policy delayed arrivals: {row:?}");
                }
            }
        }
    }

    #[test]
    fn droptail_bounds_the_backlog_and_sheds_from_wave_protocols() {
        let t = &run(Scale::Quick)[0];
        // The drop bound, read from the table's own argv.
        let bound = TABLES[0]
            .quick_values("--admission")
            .into_iter()
            .find_map(|a| match spec::admission(a).unwrap() {
                AdmissionSpec::DropTail { bound } => Some(bound as u64),
                _ => None,
            })
            .unwrap();
        for row in &t.rows {
            if row[1].starts_with("droptail") {
                assert!(
                    parse::<u64>(&row[11]) <= bound,
                    "backlog exceeded the drop bound: {row:?}"
                );
            }
        }
        // Single-wave combining protocols complete nothing until the wave
        // closes, so droptail must shed from them at this load.
        for proto in ["combining-queue", "combining-tree"] {
            let dropped: Vec<u64> = t
                .rows
                .iter()
                .filter(|r| r[1].starts_with("droptail") && r[2] == proto)
                .map(|r| parse(&r[7]))
                .collect();
            assert!(dropped.iter().all(|&d| d > 0), "{proto} shed nothing: {dropped:?}");
        }
    }

    #[test]
    fn delaying_policies_drop_nothing_and_defer_instead() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            if row[1].starts_with("delayretry") || row[1].starts_with("adaptive") {
                assert_eq!(parse::<u64>(&row[7]), 0, "delaying policy dropped: {row:?}");
            }
        }
        // At this load somebody must actually have been deferred.
        let deferred: u64 = t
            .rows
            .iter()
            .filter(|r| r[1].starts_with("adaptive"))
            .map(|r| parse::<u64>(&r[8]))
            .sum();
        assert!(deferred > 0, "adaptive policy never throttled anything");
    }
}
