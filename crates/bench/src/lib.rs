//! Shared helpers for the benchmark harness.
//!
//! The crate has two faces:
//!
//! * `benches/` — criterion wall-time benchmarks of the implementation
//!   itself (engine round throughput, NN-TSP);
//! * `src/bin/tables.rs` — the paper-table regenerator: runs every
//!   experiment in [`ccq_core::experiments`] and prints its measured-vs-
//!   bound tables (the ones `ccq run --exp` prints).

use ccq_core::experiments::{registry, Scale};
use ccq_core::Table;

/// Run one experiment by id (e.g. `"t4"`). Returns `None` for unknown ids.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Vec<Table>> {
    registry().into_iter().find(|e| e.id == id).map(|e| (e.run)(scale))
}

/// All experiment ids in presentation order.
pub fn experiment_ids() -> Vec<&'static str> {
    registry().into_iter().map(|e| e.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_ids_resolve() {
        assert!(run_experiment("t8", Scale::Quick).is_some());
        assert!(run_experiment("nope", Scale::Quick).is_none());
    }

    #[test]
    fn id_list_matches_registry() {
        assert_eq!(experiment_ids().len(), registry().len());
    }
}
