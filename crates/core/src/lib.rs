//! Public API of the counting-vs-queuing reproduction.
//!
//! This crate ties the substrates together:
//!
//! * [`scenario`] — named topologies with their paper-preferred spanning
//!   trees, and request-set generators (the sets `R ⊆ V` of §2.2);
//! * [`protocol`] — the [`protocol::ProtocolSpec`] registry: one enum
//!   variant per runnable protocol, a plain `Copy` value whose methods give
//!   its name, kind, instantiation and output verification, executed via
//!   [`protocol::run_spec`];
//! * [`plan`] — [`plan::RunPlan`] sweep builder: cross-products of
//!   topologies × protocols × modes × patterns × repeats, executed
//!   rayon-parallel into a JSON-serializable [`plan::RunSet`];
//! * [`spec`] — the text grammar of a sweep, written once: argv →
//!   [`spec::Sweep`] (a [`plan::RunPlan`] plus output flags), the table
//!   `ccq list` / `ccq --help` render, and every parse diagnostic;
//! * [`run`] — the vocabulary of a verified run ([`run::ModelMode`],
//!   [`run::RunOutcome`], [`run::RunError`]) and [`run::run_best_counting`];
//! * [`report`] — per-run summaries and queuing-vs-counting comparisons;
//! * [`table`] — plain-text/markdown table rendering for the harness;
//! * [`experiments`] — one driver per paper table/figure/theorem (the
//!   [`experiments`] module docs hold the index).
//!
//! ## Quick start
//!
//! ```
//! use ccq_core::prelude::*;
//!
//! // Sweep a 4×4 mesh with every registry protocol; queuing must win.
//! let set = RunPlan::new().topologies([TopoSpec::Mesh2D { side: 4 }]).execute();
//! assert!(set.summaries[0].queuing_wins.unwrap());
//!
//! // Or drive one protocol directly.
//! let scenario = Scenario::build(TopoSpec::Mesh2D { side: 4 }, RequestPattern::All);
//! let q = run_spec(&ccq_core::protocol::Arrow, &scenario, ModelMode::Expanded).unwrap();
//! assert_eq!(q.order.len(), 16);
//! ```

#![warn(unreachable_pub)]

pub mod experiments;
pub mod plan;
pub mod protocol;
pub mod report;
pub mod run;
pub mod scenario;
pub mod spec;
pub mod table;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::plan::{CaseResult, GroupSummary, RunPlan, RunSet};
    pub use crate::protocol::{
        default_width, registry, registry_of, run_spec, run_spec_with, ProtocolKind, ProtocolSpec,
    };
    pub use crate::report::DelayReport;
    pub use crate::run::{ModelMode, RunOutcome};
    pub use crate::scenario::{
        AdmissionSpec, ArrivalSpec, FaultSpec, PrioritySpec, RequestPattern, Scenario, ShardSpec,
        ShardStrategy, TopoSpec,
    };
    pub use crate::table::Table;
    pub use ccq_sim::{
        fnv1a, AdmissionPolicy, Checkpoint, CrashFault, FaultEvent, FaultKind, FaultPlan,
        LinkDelay, NodeDigest, Phase, PhaseTimings, ProbeSpec,
    };
}

pub use prelude::*;
