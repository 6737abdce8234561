//! Design ablations: how much do the paper's specific choices matter?
//!
//! * **Spanning tree for arrow** (Theorem 4.5 picks a Hamilton path; what
//!   happens on other trees of `K_n`?)
//! * **Strict vs expanded steps** (the §2.1 reduction in practice).
//! * **Completion convention** (pairing-at-predecessor vs notify-origin).
//! * **Network-style counter construction × width** (bitonic vs periodic vs
//!   toggle tree; the contention/depth trade-off).
//! * **Request density** (the arrow's cost tracks the NN-TSP of `R`).
//! * **Asynchronous link jitter** (the §2.1 asynchronous regime).
//! * **Queuing algorithm choice** (arrow vs combining-queue vs central).
//!
//! The three sweep-shaped ablations (t9b modes, t9d widths, t9g queuing
//! algorithms) are [`SweepTable`]s: a `ccq sweep` argv and a column list.
//! t9a, t9c, t9e and t9f stay functions: t9a and t9f ablate the spanning
//! tree and the simulator config, which no registry entry parameterizes
//! (so they instantiate a raw `ArrowProtocol`), t9e pairs each run with
//! its scenario's NN-TSP tour, and t9c compares two runs' orders.

use super::{Scale, SweepTable};
use crate::plan::CaseResult;
use crate::prelude::*;
use crate::protocol;
use crate::report::DelayReport;
use crate::run::RunOutcome;
use crate::table::fmt_util::{f2, int, tick};
use crate::table::*;
use ccq_graph::{spanning, NodeId, Tree};
use ccq_queuing::{verify_total_order, ArrowProtocol};
use ccq_sim::{run_protocol, SimConfig};
use ccq_tsp::nn_tour;

fn arrow_on_tree(s: &Scenario, tree: &Tree, cfg: SimConfig) -> RunOutcome {
    let proto = ArrowProtocol::new(tree, tree.root(), &s.requests);
    let report = run_protocol(&s.graph, proto, cfg).expect("sim ok");
    let pred_of: Vec<(NodeId, u64)> =
        report.completions.iter().map(|c| (c.node, c.value)).collect();
    let order = verify_total_order(&s.requests, &pred_of).expect("valid order");
    RunOutcome { alg: "arrow".into(), report, order }
}

fn tree_ablation(scale: Scale) -> Table {
    let n = scale.pick(64, 256);
    let s = Scenario::build(TopoSpec::Complete { n }, RequestPattern::All);
    let trees: Vec<(&str, Tree)> = vec![
        ("hamilton-path", spanning::path_tree_from_order(&spanning::hamilton_path_complete(n))),
        ("balanced-binary", spanning::balanced_binary_tree(n)),
        ("random-bfs", spanning::random_bfs_tree(&s.graph, 0, 42)),
        ("star", spanning::star_tree(n, 0)),
    ];
    let mut t = Table::new(
        "t9a — arrow spanning-tree choice on K_n (why Theorem 4.5 uses a Hamilton path)",
        &["tree", "max deg", "NN-TSP", "total delay (scaled)", "delay/n"],
    );
    for (name, tree) in trees {
        let deg = tree.max_degree();
        let tour = nn_tour(&tree, tree.root(), &s.requests);
        let cfg = SimConfig::expanded(deg + 1);
        let out = arrow_on_tree(&s, &tree, cfg);
        let d = out.report.total_delay();
        t.push_row(vec![
            name.into(),
            int(deg as u64),
            int(tour.cost()),
            int(d),
            f2(d as f64 / n as f64),
        ]);
    }
    t.note("expanded-step scale = max degree + 1, so high-degree trees pay their degree twice:");
    t.note("in the TSP cost (no locality) and in the step scale — the Hamilton path avoids both");
    t
}

fn notify_ablation(scale: Scale) -> Table {
    let side = scale.pick(8, 16);
    let s = Scenario::build(TopoSpec::Mesh2D { side }, RequestPattern::All);
    let mut t = Table::new(
        "t9c — completion convention: pairing-at-predecessor vs notify-origin",
        &["convention", "total delay", "messages", "same total order"],
    );
    let base = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).expect("ok");
    let notif = run_spec(&protocol::ArrowNotify, &s, ModelMode::Expanded).expect("ok");
    let same = base.order == notif.order;
    t.push_row(vec![
        "pairing (HTW)".into(),
        int(base.report.total_delay()),
        int(base.report.messages_sent),
        tick(same),
    ]);
    t.push_row(vec![
        "notify-origin".into(),
        int(notif.report.total_delay()),
        int(notif.report.messages_sent),
        tick(same),
    ]);
    t.note("notify-origin roughly doubles cost but cannot change the order — shape unchanged");
    t
}

fn density_ablation(scale: Scale) -> Table {
    let n = scale.pick(128, 512);
    let patterns: Vec<(f64, RequestPattern)> = [0.1, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .enumerate()
        .map(|(i, density)| {
            let p = if density >= 1.0 {
                RequestPattern::All
            } else {
                RequestPattern::Random { density, seed: 77 + i as u64 }
            };
            (density, p)
        })
        .collect();
    let mut t = Table::new(
        "t9e — arrow cost tracks the NN-TSP of R, not |R| (density sweep on K_n)",
        &["density", "|R|", "NN-TSP(R)", "total (raw)", "raw/(2·TSP)"],
    );
    // One K_n; each density swaps in its request set, which serves both
    // the tour (the Theorem 4.1 ceiling) and the registry run.
    let mut s = Scenario::build(TopoSpec::Complete { n }, RequestPattern::Custom(Vec::new()));
    for (density, pattern) in patterns {
        s = s.with_pattern(pattern);
        let tour = nn_tour(&s.queuing_tree, s.tail, &s.requests);
        let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded)
            .expect("arrow verifies at every density");
        let raw = out.report.total_delay_unscaled();
        t.push_row(vec![
            f2(density),
            int(s.k() as u64),
            int(tour.cost()),
            int(raw),
            f2(raw as f64 / (2 * tour.cost()).max(1) as f64),
        ]);
    }
    t.note(
        "once R spans the path the TSP (and hence the arrow's cost) is Θ(n) regardless of |R| —",
    );
    t.note("Theorem 4.1's 2×TSP ceiling holds at every density");
    t
}

fn jitter_ablation(scale: Scale) -> Table {
    let side = scale.pick(6, 12);
    let s = Scenario::build(TopoSpec::Mesh2D { side }, RequestPattern::All);
    let mut t = Table::new(
        "t9f — asynchronous link jitter: arrow under variable delays (§2.1 asynchrony)",
        &["max extra delay", "total delay", "vs jitter-0", "order valid"],
    );
    let mut base = 0u64;
    for jmax in [0u64, 1, 3, 7] {
        let cfg = SimConfig::strict().with_jitter(jmax, 99);
        let out = arrow_on_tree(&s, &s.queuing_tree, cfg);
        let d = out.report.total_delay();
        if jmax == 0 {
            base = d;
        }
        t.push_row(vec![
            int(jmax),
            int(d),
            f2(d as f64 / base.max(1) as f64),
            tick(out.order.len() == s.k()),
        ]);
    }
    t.note("link delays become 1 + U[0, max] per message (FIFO per link preserved);");
    t.note("the arrow stays correct — §2.1: the lower bounds carry to the asynchronous model");
    t
}

/// A verified case's full metrics.
fn metrics(case: &CaseResult) -> &DelayReport {
    case.metrics.as_ref().expect("every ablation case verifies")
}

/// t9b, t9d and t9g, in that order.
pub const TABLES: [SweepTable; 3] = [
    SweepTable {
        title: "t9b — strict vs expanded steps for arrow on the list (§2.1 reduction)",
        argv: [
            "--topo list:128 --proto arrow --modes strict,expanded",
            "--topo list:512 --proto arrow --modes strict,expanded",
        ],
        rows: Rows::Cases,
        columns: &[
            ("mode", |r| format!("{:?}", r.case().mode).to_lowercase()),
            ("raw rounds Σ", |r| int(metrics(r.case()).total_delay_unscaled)),
            ("scaled Σ", |r| int(r.case().total_delay)),
            MESSAGES,
        ],
        notes: &[
            "the scaled strict/expanded totals agree within the constant the paper's reduction predicts",
        ],
    },
    SweepTable {
        title: "t9d — network-style counters: construction × width (contention vs depth)",
        argv: [
            "--topo complete:64 --proto counting-network:2,periodic-network:2,toggle-tree:2,\
             counting-network:4,periodic-network:4,toggle-tree:4,counting-network:8,\
             periodic-network:8,toggle-tree:8,counting-network:16,periodic-network:16,\
             toggle-tree:16,counting-network:32,periodic-network:32,toggle-tree:32 --modes strict",
            "--topo complete:256 --proto counting-network:2,periodic-network:2,toggle-tree:2,\
             counting-network:4,periodic-network:4,toggle-tree:4,counting-network:8,\
             periodic-network:8,toggle-tree:8,counting-network:16,periodic-network:16,\
             toggle-tree:16,counting-network:32,periodic-network:32,toggle-tree:32 --modes strict",
        ],
        rows: Rows::Cases,
        columns: &[
            ("structure", |r| {
                let structure = match r.case().protocol.as_str() {
                    "counting-network" => "bitonic",
                    "periodic-network" => "periodic",
                    other => other,
                };
                structure.into()
            }),
            ("width", |r| int(r.case().width.expect("network protocols have widths") as u64)),
            TOTAL,
            ("max queue", |r| int(r.case().max_contention as u64)),
            MESSAGES,
        ],
        notes: &[
            "wider networks reduce per-balancer contention but add depth; the toggle tree's root",
            "serializes everything regardless of width — none escapes Ω(n log* n)",
        ],
    },
    SweepTable {
        title: "t9g — queuing algorithms compared on the mesh (the arrow's locality advantage)",
        argv: [
            "--topo mesh2d:8 --proto arrow,combining-queue,central-queue --modes expanded",
            "--topo mesh2d:16 --proto arrow,combining-queue,central-queue --modes expanded",
        ],
        rows: Rows::Cases,
        columns: &[
            ("algorithm", |r| r.case().protocol.clone()),
            TOTAL,
            ("max delay", |r| int(metrics(r.case()).max_delay)),
            MESSAGES,
            ("max queue", |r| int(r.case().max_contention as u64)),
        ],
        notes: &[
            "all three produce valid total orders; only the arrow exploits requester locality —",
            "tree aggregation and central homes pay Θ(depth)/Θ(distance) per op unconditionally",
        ],
    },
];

/// Run all ablations.
pub fn run(scale: Scale) -> Vec<Table> {
    let [modes, widths, queuing] = TABLES.each_ref().map(|t| t.run(scale).0);
    vec![
        tree_ablation(scale),
        modes,
        notify_ablation(scale),
        widths,
        density_ablation(scale),
        jitter_ablation(scale),
        queuing,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_seven_tables() {
        assert_eq!(run(Scale::Quick).len(), 7);
    }

    #[test]
    fn arrow_beats_other_queuing_algorithms() {
        let (t, _) = TABLES[2].run(Scale::Quick);
        let delay = |name: &str| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[1].replace('_', "").parse().unwrap())
                .unwrap()
        };
        assert!(delay("arrow") <= delay("combining-queue"));
        assert!(delay("arrow") <= delay("central-queue"));
    }

    #[test]
    fn jitter_never_speeds_up_and_stays_valid() {
        let t = jitter_ablation(Scale::Quick);
        for row in &t.rows {
            assert_eq!(row[3], "yes", "order invalid under jitter: {row:?}");
            let rel: f64 = row[2].parse().unwrap();
            assert!(rel >= 0.99, "jitter sped things up? {row:?}");
        }
    }

    #[test]
    fn hamilton_path_is_best_tree() {
        let t = tree_ablation(Scale::Quick);
        let delay = |name: &str| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[3].replace('_', "").parse().unwrap())
                .unwrap()
        };
        assert!(delay("hamilton-path") <= delay("star"));
        assert!(delay("hamilton-path") <= delay("random-bfs"));
    }

    #[test]
    fn notify_costs_more_but_orders_agree() {
        let t = notify_ablation(Scale::Quick);
        assert_eq!(t.rows[0][3], "yes");
        assert_eq!(t.rows[1][3], "yes");
        let base: u64 = t.rows[0][1].replace('_', "").parse().unwrap();
        let notif: u64 = t.rows[1][1].replace('_', "").parse().unwrap();
        assert!(notif >= base);
    }

    #[test]
    fn density_sweep_respects_tsp_ceiling() {
        // Theorem 4.1's 2×TSP bound must hold at every density.
        let t = density_ablation(Scale::Quick);
        for row in &t.rows {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio <= 1.0, "arrow above 2×TSP: {row:?}");
        }
    }

    #[test]
    fn density_sweep_totals_are_theta_n() {
        // Totals stay within a constant band across densities (all ≈ Θ(n)).
        let t = density_ablation(Scale::Quick);
        let totals: Vec<u64> =
            t.rows.iter().map(|r| r[3].replace('_', "").parse().unwrap()).collect();
        let max = *totals.iter().max().unwrap() as f64;
        let min = *totals.iter().min().unwrap() as f64;
        assert!(max / min < 4.0, "totals not Θ(n)-flat: {totals:?}");
    }

    #[test]
    fn width_table_covers_all_constructions() {
        let (t, _) = TABLES[1].run(Scale::Quick);
        assert_eq!(t.rows.len(), 15, "3 constructions × 5 widths");
        for label in ["bitonic", "periodic", "toggle-tree"] {
            assert_eq!(t.rows.iter().filter(|r| r[0] == label).count(), 5);
        }
    }
}
