//! One experiment driver per paper table/figure/theorem.
//!
//! Each driver regenerates the empirical analogue of a paper item (the
//! table below is the index) and returns printable [`Table`]s pairing
//! measured total delays with the corresponding closed-form bounds.
//!
//! **Drivers run protocols through the registry, not by enum dispatch**:
//! use [`crate::protocol::run_spec`] with a [`crate::protocol::ProtocolSpec`]
//! for a single run, [`crate::protocol::registry`] /
//! [`crate::protocol::registry_of`] to iterate protocol families.
//!
//! **A table shaped like a sweep is a [`SweepTable`]**, not code: the
//! `ccq sweep` argv at each [`Scale`], which [`Rows`] of the run set it
//! draws (cases, classes of cases, or summaries), a list of [`Column`]s
//! (each a header and a one-line `fn(&Row) -> String`; the shared ones
//! live in [`crate::table`]) and its notes. To add one, write that value
//! into a driver's `TABLES`, and let the driver's `run` draw them. The
//! table then reruns from the CLI: `ccq sweep <its Quick argv>` prints the
//! run set it was drawn from, which `tests/experiments_smoke.rs` checks
//! for every table. [`t4_crossover`], the sweeps of [`t9_ablation`] and
//! [`t11_openload`]–[`t15_heterogeneous`] are built this way.
//!
//! | id | paper item |
//! |----|-----------|
//! | [`fig1`] | Figure 1 — the worked counting/queuing example |
//! | [`t1_logstar`] | Theorem 3.5 — `Ω(n log* n)` counting floor |
//! | [`t2_diameter`] | Theorem 3.6 — `Ω(α²)` on high-diameter graphs |
//! | [`t3_list_arrow`] | Theorem 4.1 + Lemma 4.3 — arrow ≤ 2×NN-TSP ≤ 6n on lists |
//! | [`t4_crossover`] | Theorem 4.5 / Lemma 4.6 — Hamilton-path topologies |
//! | [`t5_mary`] | Theorems 4.7/4.12 + Fig. 3 — perfect m-ary trees |
//! | [`t6_highdiam`] | Theorem 4.13 — high diameter + constant degree |
//! | [`t7_star`] | §5 — the star tie |
//! | [`t8_recurrence`] | Lemmas 3.2–3.4 — information-spread recurrences |
//! | [`f2_runs`] | Figure 2 + Lemma 4.4 — runs decomposition |
//! | [`t9_ablation`] | design ablations (trees, modes, widths, densities) |
//! | [`t10_longlived`] | extension: long-lived arrivals (§1.2 related work) |
//! | [`t11_openload`] | extension: open-system load (arrival processes × latency percentiles) |
//! | [`t12_sharded`] | extension: multi-shard executor (cross-shard traffic × federated ferry) |
//! | [`t13_backpressure`] | extension: admission control (drop/delay/AIMD × throughput-latency trade) |
//! | [`t14_consistency`] | extension: the cost-vs-consistency frontier (QQC lateness × load, CRDT baseline) |
//! | [`t15_heterogeneous`] | extension: heterogeneous traffic (priority classes × per-node admission × crash/recover) |

pub mod f2_runs;
pub mod fig1;
pub mod t10_longlived;
pub mod t11_openload;
pub mod t12_sharded;
pub mod t13_backpressure;
pub mod t14_consistency;
pub mod t15_heterogeneous;
pub mod t1_logstar;
pub mod t2_diameter;
pub mod t3_list_arrow;
pub mod t4_crossover;
pub mod t5_mary;
pub mod t6_highdiam;
pub mod t7_star;
pub mod t8_recurrence;
pub mod t9_ablation;

use crate::plan::RunSet;
use crate::spec;
use crate::table::{Column, Rows, Table};

/// Sweep size selector: `Quick` keeps each driver under ~1 s (used by
/// tests); `Full` runs the paper-scale sweeps (used by the bench harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps for CI/tests.
    Quick,
    /// Full, paper-scale sweeps (`ccq run --full`).
    Full,
}

impl Scale {
    /// Choose between quick/full variants.
    pub fn pick<T: Clone>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A table that is one `ccq sweep`: the argv, the rows it draws from the
/// run set, and the columns that turn a row into cells.
pub struct SweepTable {
    /// Title (experiment id and what the table shows).
    pub title: &'static str,
    /// The `ccq sweep` argv, whitespace-separated: `[Quick, Full]`.
    pub argv: [&'static str; 2],
    /// Which rows of the run set become table rows.
    pub rows: Rows,
    /// The columns, in order.
    pub columns: &'static [Column],
    /// Notes under the table; `{key}` reads the argv's first `key=V`.
    pub notes: &'static [&'static str],
}

impl SweepTable {
    /// The argv at `scale`, one token per element.
    pub fn argv(&self, scale: Scale) -> Vec<&'static str> {
        scale.pick(self.argv[0], self.argv[1]).split_whitespace().collect()
    }

    /// Run the sweep at `scale` and draw the table, with the set it was
    /// drawn from.
    pub fn run(&self, scale: Scale) -> (Table, RunSet) {
        let set = spec::sweep(&self.argv(scale)).expect("a table's argv parses").plan.execute();
        let mut t = self.rows.draw(&set, self.title, self.columns);
        let argv = scale.pick(self.argv[0], self.argv[1]);
        t.notes = self.notes.iter().map(|note| fill(note, argv)).collect();
        (t, set)
    }
}

/// `note` with each `{key}` replaced by the value of `argv`'s first
/// `key=V`.
fn fill(note: &str, argv: &str) -> String {
    let mut out = note.to_string();
    for (key, value) in argv.split([' ', ',', ':']).filter_map(|f| f.split_once('=')) {
        out = out.replace(&format!("{{{key}}}"), value);
    }
    out
}

/// Draw a driver's sweep tables at `scale`.
fn draw(tables: &[SweepTable], scale: Scale) -> Vec<Table> {
    tables.iter().map(|t| t.run(scale).0).collect()
}

/// An experiment in the registry.
pub struct Experiment {
    /// Short id (e.g. `t4`).
    pub id: &'static str,
    /// The paper item it regenerates.
    pub paper_item: &'static str,
    /// Driver.
    pub run: fn(Scale) -> Vec<Table>,
}

/// All experiments, in presentation order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment { id: "fig1", paper_item: "Figure 1", run: fig1::run },
        Experiment { id: "t1", paper_item: "Theorem 3.5", run: t1_logstar::run },
        Experiment { id: "t2", paper_item: "Theorem 3.6", run: t2_diameter::run },
        Experiment { id: "t3", paper_item: "Theorem 4.1 + Lemma 4.3", run: t3_list_arrow::run },
        Experiment { id: "t4", paper_item: "Theorem 4.5 / Lemma 4.6", run: t4_crossover::run },
        Experiment { id: "t5", paper_item: "Theorems 4.7/4.12 + Figure 3", run: t5_mary::run },
        Experiment { id: "t6", paper_item: "Theorem 4.13", run: t6_highdiam::run },
        Experiment { id: "t7", paper_item: "Section 5 (star)", run: t7_star::run },
        Experiment { id: "t8", paper_item: "Lemmas 3.2-3.4", run: t8_recurrence::run },
        Experiment { id: "f2", paper_item: "Figure 2 + Lemma 4.4", run: f2_runs::run },
        Experiment { id: "t9", paper_item: "ablations", run: t9_ablation::run },
        Experiment { id: "t10", paper_item: "long-lived extension", run: t10_longlived::run },
        Experiment { id: "t11", paper_item: "open-system load extension", run: t11_openload::run },
        Experiment { id: "t12", paper_item: "multi-shard extension", run: t12_sharded::run },
        Experiment { id: "t13", paper_item: "backpressure extension", run: t13_backpressure::run },
        Experiment {
            id: "t14",
            paper_item: "consistency-frontier extension",
            run: t14_consistency::run,
        },
        Experiment {
            id: "t15",
            paper_item: "heterogeneous traffic extension",
            run: t15_heterogeneous::run,
        },
    ]
}

#[cfg(test)]
impl SweepTable {
    /// The Quick argv's comma-separated values of `flag`.
    fn quick_values(&self, flag: &str) -> Vec<&'static str> {
        let argv = self.argv(Scale::Quick);
        let at = argv.iter().position(|a| *a == flag).expect("the flag is in the argv");
        argv[at + 1].split(',').collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let reg = registry();
        let mut ids: Vec<_> = reg.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
    }

    #[test]
    fn a_note_reads_the_first_value_of_its_key() {
        let argv = "--admission droptail:bound=8,pernode:bound=4 --fault crash:at=4:node=2";
        assert_eq!(fill("bound {bound}, node {node} at {at}", argv), "bound 8, node 2 at 4");
        assert_eq!(fill("no {key} here", argv), "no {key} here");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
