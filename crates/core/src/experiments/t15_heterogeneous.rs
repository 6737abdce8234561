//! Extension: **heterogeneous traffic** — priority classes, per-node
//! admission budgets, and crash/recover fault injection.
//!
//! The paper's protocols serve a homogeneous request stream; real
//! deployments do not. Two questions the paper leaves open: (1) can a
//! small high-priority class keep its tail latency while background load
//! saturates the fabric, and (2) do the protocols survive a node that
//! freezes mid-run and comes back? "The Power of Choice in Priority
//! Scheduling" (Alistarh et al.) answers (1) for relaxed priority queues
//! with power-of-two-choice sampling — we apply the same relaxation to
//! same-round admission ordering, and shield class 0 with a per-node
//! admission budget (`pernode:bound=B:protect=1`) that reads the
//! requester's *shard* backlog, so federated slow-ferry regimes cannot
//! hide local congestion behind the global counter. For (2), a crash is a
//! fail-pause: the node neither drains its receive queue nor transmits
//! for rounds `[at, recover)`, and its own arrivals defer until recovery;
//! no state is reset, so the protocols self-stabilize by draining the
//! frozen queues — the run ends quiescent with every request conserved.

use super::{Scale, SweepTable};
use crate::report::ClassMetrics;
use crate::table::fmt_util::{int, tick};
use crate::table::*;

/// A class's metric in a case row, `0` when the class is absent.
fn class_cell(r: &Row, class: u8, metric: fn(&ClassMetrics) -> u64) -> String {
    int(r.case().classes.iter().flatten().find(|m| m.class == class).map_or(0, metric))
}

/// t15 ramps the load under a protected class; t15b runs every protocol
/// through one crash/recover window, one row per class.
pub const TABLES: [SweepTable; 2] = [
    SweepTable {
        title: "t15 — protected class p99 while background load saturates (extension)",
        argv: [
            "--topo mesh2d:5 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=0.1:seed=7,poisson:rate=0.6:seed=7 \
             --admission pernode:bound=4:protect=1 --priority split:frac=0.15:seed=5",
            "--topo mesh2d:8 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=0.1:seed=7,poisson:rate=0.3:seed=7,poisson:rate=0.6:seed=7 \
             --admission pernode:bound=8:protect=1 --priority split:frac=0.15:seed=5",
        ],
        rows: Rows::Cases,
        columns: &[
            ARRIVAL,
            PROTOCOL,
            KIND,
            OK,
            ("c0 issued", |r| class_cell(r, 0, |m| m.issued)),
            ("c0 dropped", |r| class_cell(r, 0, |m| m.dropped)),
            ("c1 dropped", |r| class_cell(r, 1, |m| m.dropped)),
            ("c0 p99", |r| class_cell(r, 0, |m| m.latency_p99)),
            ("c1 p99", |r| class_cell(r, 1, |m| m.latency_p99)),
            ("p99 (all)", P99.1),
        ],
        notes: &[
            "15% of nodes are class 0 (high); pernode:bound={bound}:protect=1 always admits \
             class 0 and sheds class 1 over the requester's shard backlog",
            "class-0 p99 stays within 2x across the ramp while class 1 absorbs the shedding",
        ],
    },
    SweepTable {
        title: "t15b — every protocol through a crash/recover cycle, conservation per class",
        argv: [
            "--topo torus2d:3 --arrival poisson:rate=0.5:seed=7 \
             --priority split:frac=0.25:seed=11 --fault crash:at=4:node=2:recover=9",
            "--topo torus2d:6 --arrival poisson:rate=0.5:seed=7 \
             --priority split:frac=0.25:seed=11 --fault crash:at=4:node=2:recover=16",
        ],
        rows: Rows::Classes,
        columns: &[
            PROTOCOL,
            KIND,
            OK,
            ("faults", |r| int(r.case().fault_summary.as_ref().map_or(0, |f| f.events.len() as u64))),
            ("class", |r| int(u64::from(r.class().class))),
            ("issued", |r| int(r.class().issued)),
            ("completed", |r| int(r.class().completed)),
            ("dropped", |r| int(r.class().dropped)),
            ("conserved", |r| tick(r.class().completed + r.class().dropped == r.class().issued)),
        ],
        notes: &[
            "node {node} is down for rounds [{at}, {recover}): its queues freeze and its \
             arrivals defer; no state resets — recovery is a drain, not a repair",
            "conserved: completed + dropped == issued per class (the run ends quiescent)",
        ],
    },
];

/// Run the heterogeneous-traffic sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    super::draw(&TABLES, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::table::fmt_util::parse;

    #[test]
    fn produces_rows_and_all_cases_verify() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 2 * 6, "2 rates x 6 protocols");
        // 10 registry protocols x 2 classes through the crash run.
        assert_eq!(tables[1].rows.len(), 10 * 2);
        for row in &tables[0].rows {
            assert_eq!(row[3], "yes", "case failed verification: {row:?}");
        }
        for row in &tables[1].rows {
            assert_eq!(row[2], "yes", "case failed verification: {row:?}");
        }
    }

    #[test]
    fn high_priority_p99_stays_flat_as_background_load_saturates() {
        let t = &run(Scale::Quick)[0];
        // The ramp's ends, read from the table's own argv.
        let ramp: Vec<String> = TABLES[0]
            .quick_values("--arrival")
            .into_iter()
            .map(|a| spec::arrival(a).unwrap().name())
            .collect();
        let (lo, hi) = (&ramp[0], &ramp[ramp.len() - 1]);
        for proto in
            ["arrow", "central-queue", "combining-queue", "central-counter", "combining-tree"]
        {
            let p99_at = |arrival: &str| {
                t.rows
                    .iter()
                    .find(|r| r[1] == proto && r[0] == arrival)
                    .map(|r| parse::<u64>(&r[7]))
                    .unwrap_or_else(|| panic!("no row for {proto} at {arrival}"))
            };
            let (base, loaded) = (p99_at(lo), p99_at(hi));
            // A 6x offered-load increase moves the protected class's p99
            // by at most 2x (small floor guards tiny-sample baselines).
            assert!(
                loaded <= 2 * base.max(8),
                "{proto}: class-0 p99 {base} -> {loaded} under load"
            );
        }
        // The background class pays for it: somebody must have been shed
        // at the top of the ramp.
        let shed: u64 = t.rows.iter().filter(|r| &r[0] == hi).map(|r| parse::<u64>(&r[6])).sum();
        assert!(shed > 0, "saturation shed no background arrivals");
    }

    #[test]
    fn crash_recover_conserves_every_class_for_every_protocol() {
        let t = &run(Scale::Quick)[1];
        for row in &t.rows {
            assert_eq!(row[8], "yes", "class not conserved through the crash: {row:?}");
            assert_eq!(parse::<u64>(&row[3]), 2, "expected one crash + one recovery: {row:?}");
        }
        // Both classes issued work in every protocol's run.
        for row in &t.rows {
            assert!(parse::<u64>(&row[5]) > 0, "class issued nothing: {row:?}");
        }
    }
}
