//! One experiment driver per paper table/figure/theorem.
//!
//! Each driver regenerates the empirical analogue of a paper item (the
//! table below is the index) and returns printable [`Table`]s pairing
//! measured total delays with the corresponding closed-form bounds.
//!
//! **Drivers run protocols through the registry, not by enum dispatch**:
//! use [`crate::protocol::run_spec`] with a [`crate::protocol::ProtocolSpec`]
//! for a single run, [`crate::protocol::registry`] /
//! [`crate::protocol::registry_of`] to iterate protocol families, and a
//! [`crate::plan::RunPlan`] for anything shaped like a sweep (topology ×
//! protocol × mode × pattern cross-products) — it parallelizes across
//! scenarios, deduplicates scenario construction and hands back both
//! per-case metrics and queuing-vs-counting summaries
//! ([`t4_crossover`] and [`t9_ablation`] are the reference ports).
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

use crate::table::Table;

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
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
