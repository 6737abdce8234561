//! Extension: the **open-system** workload — requests arriving over time
//! on delayed links, instead of the paper's one-shot batch.
//!
//! Quantitative quiescent consistency (Jagadeesan–Riely) motivates asking
//! *how far* behaviour drifts under load, not only whether quiescence is
//! reached: we sweep the Poisson arrival rate on a mesh (plus a hotspot
//! mix, the skewed regime of "power of choice" priority scheduling) and
//! report throughput, completion-latency percentiles and the backlog
//! high-water mark per protocol. The expected shape: per-request protocols
//! (arrow, central) degrade gracefully as the rate falls — each arrival
//! finds a settled system — while the single-wave combining protocols hold
//! every early requester hostage to the last straggler, so their tail
//! latency *grows* as arrivals spread out.

use super::{Scale, SweepTable};
use crate::plan::CaseResult;
use crate::protocol::ProtocolKind::{self, Counting, Queuing};
use crate::table::fmt_util::{f2, int, tick};
use crate::table::*;

const COLUMNS: &[Column] = &[ARRIVAL, PROTOCOL, KIND, OK, THROUGHPUT, P50, P95, P99, BACKLOG];

/// The cheapest verified case of `kind` by p95 latency in a summary row's
/// group (its topology and arrival).
fn best_p95<'a>(r: &Row<'a>, kind: ProtocolKind) -> Option<&'a CaseResult> {
    let Row::Summary(s, set) = *r else { unreachable!("t11c draws summary rows") };
    set.cases
        .iter()
        .filter(|c| c.ok && c.kind == kind && c.topology == s.topology && c.arrival == s.arrival)
        .min_by_key(|c| c.latency_p95)
}

/// A cell of [`best_p95`]'s case, empty when no case of `kind` verified.
fn best(r: &Row, kind: ProtocolKind, cell: fn(&CaseResult) -> String) -> String {
    best_p95(r, kind).map(cell).unwrap_or_default()
}

/// Best counting p95 / best queuing p95.
fn p95_gap(r: &Row) -> Option<f64> {
    let (q, c) = (best_p95(r, Queuing)?, best_p95(r, Counting)?);
    Some(c.latency_p95 as f64 / q.latency_p95.max(1) as f64)
}

/// t11 sweeps the Poisson rate on one mesh, t11b two skewed mixes on it.
///
/// t11c is the open-system crossover: arrival rate × topology, best
/// queuing vs best counting per cell (the ROADMAP "crossover under load"
/// item — t11 and t11b fix one mesh; this sweeps the load on two
/// topologies). The open-system comparison is by **p95 completion
/// latency** (completion − issue), not total delay: under spread-out
/// arrivals, total delay is dominated by the arrival times themselves,
/// while latency measures what each requester actually waited.
pub const TABLES: [SweepTable; 3] = [
    SweepTable {
        title: "t11 — open-system load: Poisson arrival rate vs latency percentiles (extension)",
        argv: [
            "--topo mesh2d:6 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=1.0:seed=7,poisson:rate=0.3:seed=7,poisson:rate=0.1:seed=7",
            "--topo mesh2d:12 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival poisson:rate=1.0:seed=7,poisson:rate=0.5:seed=7,poisson:rate=0.2:seed=7,\
             poisson:rate=0.05:seed=7",
        ],
        rows: Rows::Cases,
        columns: COLUMNS,
        notes: &[
            "latency = (completion − issue) × expanded-step scale; backlog = peak open ops",
            "rate 1.0 ≈ the paper's one-shot batch; lower rates = sparser open-system load",
            "combining protocols run one wave: early arrivals wait for stragglers (p95 grows)",
        ],
    },
    SweepTable {
        title: "t11b — skewed open-system mixes: bursts and hotspot arrival order",
        argv: [
            "--topo mesh2d:6 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival bursty:rate=0.8:on=8:off=24:seed=7,hotspot:rate=0.3:s=1.5:seed=7",
            "--topo mesh2d:12 \
             --proto arrow,central-queue,combining-queue,central-counter,combining-tree,toggle-tree \
             --arrival bursty:rate=0.8:on=8:off=24:seed=7,hotspot:rate=0.3:s=1.5:seed=7",
        ],
        rows: Rows::Cases,
        columns: COLUMNS,
        notes: &["bursty = on/off arrival windows; hotspot = Zipf-skewed arrival order over nodes"],
    },
    SweepTable {
        title: "t11c — crossover under load: arrival rate × topology (all registry protocols)",
        argv: [
            "--topo mesh2d:5,torus2d:4 \
             --arrival poisson:rate=1.0:seed=7,poisson:rate=0.5:seed=7,poisson:rate=0.1:seed=7",
            "--topo mesh2d:10,torus2d:8 \
             --arrival poisson:rate=1.0:seed=7,poisson:rate=0.6:seed=7,poisson:rate=0.3:seed=7,\
             poisson:rate=0.1:seed=7,poisson:rate=0.02:seed=7",
        ],
        rows: Rows::Summaries,
        columns: &[
            ("topology", |r| r.summary().topology.clone()),
            ("arrival", |r| r.summary().arrival.clone()),
            ("best queuing", |r| best(r, Queuing, |c| c.protocol.clone())),
            ("p95_Q", |r| best(r, Queuing, |c| int(c.latency_p95))),
            ("best counting", |r| best(r, Counting, |c| c.protocol.clone())),
            ("p95_C", |r| best(r, Counting, |c| int(c.latency_p95))),
            ("gap", |r| p95_gap(r).map(f2).unwrap_or_default()),
            ("wins", |r| p95_gap(r).map(|g| tick(g > 1.0)).unwrap_or_default()),
        ],
        notes: &[
            "gap = best counting p95 latency / best queuing p95 latency; > 1 = queuing wins",
            "the batch end (rate 1.0) is the paper's regime: queuing wins; sparse arrivals",
            "invert it — a lone central counter beats the token walk when nothing contends",
        ],
    },
];

/// Run the open-system load sweep.
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
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 3 * 6, "3 rates × 6 protocols");
        assert_eq!(tables[1].rows.len(), 2 * 6, "2 mixes × 6 protocols");
        assert_eq!(tables[2].rows.len(), 2 * 3, "2 topologies × 3 rates");
        for t in &tables[..2] {
            for row in &t.rows {
                assert_eq!(row[3], "yes", "case failed verification: {row:?}");
            }
        }
    }

    #[test]
    fn crossover_rate_ordering_is_pinned() {
        // The ROADMAP regression, pinned on both topologies: the p95
        // latency gap (counting / queuing) falls monotonically as the
        // arrival rate falls — queuing wins the paper's batch regime
        // (gap > 1 at rate 1.0) and *loses* the sparse open-system regime
        // (gap < 1 at rate 0.1), where a lone central counter serves
        // uncontended arrivals faster than the arrow's token walk.
        let t = &run(Scale::Quick)[2];
        for topo_prefix in ["mesh2d", "torus2d"] {
            let rows: Vec<_> = t.rows.iter().filter(|r| r[0].starts_with(topo_prefix)).collect();
            assert_eq!(rows.len(), 3, "{topo_prefix}: expected 3 rate rows");
            // Rows are emitted in declared rate order: 1.0, 0.5, 0.1.
            let gaps: Vec<f64> = rows.iter().map(|r| parse(&r[6])).collect();
            assert!(
                gaps.windows(2).all(|w| w[0] > w[1]),
                "{topo_prefix}: gap must fall with the rate: {gaps:?}"
            );
            assert!(gaps[0] > 1.0, "{topo_prefix}: queuing must win the batch: {gaps:?}");
            assert!(gaps[2] < 1.0, "{topo_prefix}: counting must win the sparse regime: {gaps:?}");
            assert_eq!(rows[0][7], "yes");
            assert_eq!(rows[2][7], "NO");
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        // Only t11/t11b carry the p50/p95/p99 columns (t11c is the gap
        // table).
        for t in &run(Scale::Quick)[..2] {
            for row in &t.rows {
                let (p50, p95, p99) = (parse::<u64>(&row[5]), parse(&row[6]), parse(&row[7]));
                assert!(p50 <= p95 && p95 <= p99, "unordered percentiles: {row:?}");
            }
        }
    }

    #[test]
    fn sparse_arrivals_shrink_arrow_backlog() {
        // At rate 1.0 nearly everything is open at once; at the sparsest
        // rate the arrow protocol drains between arrivals.
        let t = &run(Scale::Quick)[0];
        let arrow_backlog: Vec<u64> =
            t.rows.iter().filter(|r| r[1] == "arrow").map(|r| parse(&r[8])).collect();
        assert_eq!(arrow_backlog.len(), 3);
        assert!(
            arrow_backlog.last().unwrap() < arrow_backlog.first().unwrap(),
            "backlog should fall with the rate: {arrow_backlog:?}"
        );
    }
}
