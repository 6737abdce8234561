//! Synchronous message-passing network simulator implementing the model of
//! Busch & Tirthapura §2.1, generalized to open-system workloads:
//!
//! * time proceeds in **rounds**; all links are reliable FIFO, with delay 1
//!   by default or a [`LinkDelay`] policy (per-link constants, seeded
//!   per-message jitter — the §2.1 asynchronous regime);
//! * requests may all start at round 0 (the paper's one-shot batch) or
//!   arrive over time via an [`ArrivalSpec`] schedule the run issues from
//!   ([`Simulator::with_arrivals`]), optionally gated by an [`AdmissionPolicy`]
//!   (backpressure: drop, delay or AIMD-throttle arrivals against the
//!   live backlog — see [`admission`]);
//! * per round, each processor may **send at most `c`** messages and
//!   **receive at most `c`** messages ([`SimConfig::step`]: `c = 1` in the
//!   strict model; a larger `c` in the "expanded time step" model the paper
//!   uses for constant-degree spanning trees, with reported delays scaled
//!   by `c`);
//! * messages that arrive faster than the receive budget queue up at the
//!   receiver — this measured serialization is exactly the network
//!   contention that drives the paper's lower bounds (e.g. the star graph's
//!   `Θ(n²)` in §5).
//!
//! Protocols implement [`Protocol`] — a read-only shared view lent with one
//! processor's slice at a time, a request set, and an issue and a message
//! handler that each touch only that processor's slice — and are
//! executed by
//! [`Simulator::run`], which returns a [`SimReport`] with per-operation
//! delays, message counts and queue statistics. [`Simulator::with_cut`]
//! runs the same loop under a shard plan, giving the links between shards
//! an inter-shard ferry's delay and counting the messages that cross them —
//! with reports byte-identical to the unsharded run's whenever the ferry's
//! delay policy matches the run's (see [`shard`]).
//!
//! ```
//! use ccq_sim::{run_protocol, Protocol, SimConfig, SliceApi};
//! use ccq_graph::{topology, NodeId};
//!
//! /// Node 0's operation sends a token that hops along the path, completing
//! /// at the far end; every node counts the tokens it saw.
//! struct Relay { n: usize, seen: Vec<u64> }
//! impl Protocol for Relay {
//!     type Msg = ();
//!     type Shared = usize; // the path length
//!     type Slice<'s> = &'s mut u64; // one node's counter
//!     fn nodes(&self) -> usize { self.seen.len() }
//!     fn at(&mut self, v: NodeId) -> (&usize, &mut u64) { (&self.n, &mut self.seen[v]) }
//!     fn requests(&self) -> &[NodeId] { &[0] }
//!     fn issue(_: &usize, _: &mut u64, api: &mut SliceApi<()>, _at: NodeId) { api.send(1, ()); }
//!     fn on_message(n: &usize, seen: &mut u64, api: &mut SliceApi<()>, at: NodeId, _from: NodeId, _m: ()) {
//!         *seen += 1;
//!         if at + 1 < *n { api.send(at + 1, ()); } else { api.complete(at, 0); }
//!     }
//! }
//!
//! let g = topology::path(5);
//! let report = run_protocol(&g, Relay { n: 5, seen: vec![0; 5] }, SimConfig::strict()).unwrap();
//! assert_eq!(report.completions[0].round, 4); // one hop per round
//! ```

#![warn(unreachable_pub)]

pub mod admission;
pub mod arrival;
pub mod engine;
pub mod probe;
pub mod protocol;
pub mod report;
pub mod scheduler;
pub mod shard;
pub mod state;
pub mod trace;
pub mod transport;

pub use admission::{Admission, AdmissionController, AdmissionPolicy};
pub use arrival::{ArrivalSpec, Arrivals};
pub use engine::{SimError, Simulator};
pub use probe::{fnv1a, Checkpoint, NodeDigest, Phase, PhaseTimings, ProbeSpec};
pub use protocol::{Protocol, SimApi, SliceApi};
pub use report::{
    nearest_rank, Completion, CrashFault, Dropped, FaultEvent, FaultKind, FaultPlan, Issue,
    IssueRounds, Lateness, LinkDelay, SimConfig, SimReport,
};
pub use trace::{TraceEvent, TraceKind};

/// Simulation time, in rounds (time steps of the synchronous model).
pub type Round = u64;

/// Convenience: run `protocol` on `graph` under `config`.
pub fn run_protocol<P: Protocol>(
    graph: &ccq_graph::Graph,
    protocol: P,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    Simulator::new(graph, protocol, config).run()
}
