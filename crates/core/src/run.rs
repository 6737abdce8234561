//! The vocabulary of a verified run — [`ModelMode`], [`RunError`],
//! [`RunOutcome`], [`config_for`] — and [`run_best_counting`].
//!
//! Execution itself lives behind the [`crate::protocol`] registry: every
//! run goes through [`crate::protocol::run_spec`].

use crate::protocol::{self, run_spec, ProtocolKind};
use crate::scenario::Scenario;
use ccq_graph::NodeId;
use ccq_sim::{SimConfig, SimError, SimReport};
use serde::Serialize;

/// Execution model for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum ModelMode {
    /// 1 send + 1 receive per round (paper's base model §2.1).
    Strict,
    /// Expanded steps sized to the protocol's tree degree (paper §4): the
    /// step constant is max degree + 1, which also scales the delays.
    Expanded,
}

/// Why a run failed.
#[derive(Debug)]
pub enum RunError {
    /// The simulator aborted.
    Sim(SimError),
    /// The protocol produced an invalid total order.
    Order(ccq_queuing::OrderError),
    /// The protocol produced an invalid rank set.
    Ranks(ccq_counting::RankError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Order(e) => write!(f, "invalid total order: {e}"),
            RunError::Ranks(e) => write!(f, "invalid ranks: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A verified run.
#[derive(Clone, Debug, Serialize)]
pub struct RunOutcome {
    /// Algorithm display name.
    pub alg: String,
    /// The simulator's report (delays, messages, contention).
    pub report: SimReport,
    /// For queuing: requesters in queue order. For counting: requesters in
    /// rank order.
    pub order: Vec<NodeId>,
}

/// The simulator configuration a mode implies on a tree of the given degree.
pub fn config_for(mode: ModelMode, max_degree: usize) -> SimConfig {
    match mode {
        ModelMode::Strict => SimConfig::strict(),
        ModelMode::Expanded => SimConfig::expanded(max_degree.max(1) + 1),
    }
}

/// Run every counting protocol in the registry and return the outcome with
/// the smallest total delay — the honest competitor against the `Ω` lower
/// bounds.
pub fn run_best_counting(scenario: &Scenario, mode: ModelMode) -> Result<RunOutcome, RunError> {
    let mut best: Option<RunOutcome> = None;
    for spec in protocol::registry_of(ProtocolKind::Counting) {
        let out = run_spec(spec, scenario, mode)?;
        let better = match &best {
            None => true,
            Some(b) => out.report.total_delay() < b.report.total_delay(),
        };
        if better {
            best = Some(out);
        }
    }
    Ok(best.expect("registry has at least one counting protocol"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{RequestPattern, TopoSpec};

    fn mesh_scenario() -> Scenario {
        Scenario::build(TopoSpec::Mesh2D { side: 4 }, RequestPattern::All)
    }

    #[test]
    fn arrow_on_mesh_verifies() {
        let s = mesh_scenario();
        let out = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        assert_eq!(out.order.len(), 16);
        assert_eq!(out.alg, "arrow");
    }

    #[test]
    fn all_queuing_algs_agree_on_validity() {
        let s = mesh_scenario();
        for spec in [&protocol::Arrow, &protocol::ArrowNotify, &protocol::CentralQueue] {
            let out = run_spec(spec, &s, ModelMode::Strict).unwrap();
            assert_eq!(out.order.len(), 16, "{}", spec.name());
        }
    }

    #[test]
    fn all_counting_algs_verify() {
        let s = mesh_scenario();
        for spec in [
            &protocol::CentralCounter,
            &protocol::CombiningTree,
            &protocol::CountingNetwork { width: Some(4) },
        ] {
            let out = run_spec(spec, &s, ModelMode::Strict).unwrap();
            assert_eq!(out.order.len(), 16, "{}", spec.name());
        }
    }

    #[test]
    fn best_counting_picks_minimum() {
        let s = mesh_scenario();
        let best = run_best_counting(&s, ModelMode::Strict).unwrap();
        for spec in [&protocol::CentralCounter, &protocol::CombiningTree] {
            let out = run_spec(spec, &s, ModelMode::Strict).unwrap();
            assert!(best.report.total_delay() <= out.report.total_delay());
        }
    }

    #[test]
    fn queuing_beats_counting_on_the_mesh() {
        // The headline claim, in miniature.
        let s = mesh_scenario();
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let c = run_best_counting(&s, ModelMode::Strict).unwrap();
        assert!(
            q.report.total_delay() < c.report.total_delay(),
            "arrow {} vs counting {}",
            q.report.total_delay(),
            c.report.total_delay()
        );
    }

    #[test]
    fn subset_requests_ok() {
        let s = Scenario::build(
            TopoSpec::Complete { n: 12 },
            RequestPattern::Random { density: 0.5, seed: 8 },
        );
        let q = run_spec(&protocol::Arrow, &s, ModelMode::Expanded).unwrap();
        let c = run_spec(&protocol::CombiningTree, &s, ModelMode::Strict).unwrap();
        assert_eq!(q.order.len(), s.k());
        assert_eq!(c.order.len(), s.k());
    }
}
