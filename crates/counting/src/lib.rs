//! Distributed counting protocols (paper §1, §3).
//!
//! In distributed counting, processors increment a conceptually-shared
//! counter; each requester receives the **rank** of its operation — the
//! counts handed out over request set `R` must be exactly `{1, …, |R|}`.
//! Theorem 3.5 proves *every* counting algorithm costs `Ω(n log* n)` total
//! delay; this crate provides the strongest practical algorithms to measure
//! against that floor (and against the arrow protocol's queuing cost):
//!
//! * [`central`] — the naive centralized counter: requests route to a root
//!   which serializes them (the `Θ(n²)` straw-man; on the star graph §5
//!   this is also asymptotically optimal);
//! * [`combining`] — the software-combining tree: request counts aggregate
//!   up a spanning tree, rank intervals split back down — `O(depth)` per
//!   operation, `O(n·depth)` total;
//! * [`network`] — **balancing networks** embedded onto the processors,
//!   tokens acquiring ranks at output wires: the bitonic and periodic
//!   **counting networks** (Aspnes–Herlihy–Shavit '94, the paper's
//!   reference \[1\]) and the toggle tree (diffracting-tree skeleton), a
//!   network of one-input balancers — an exact distributed sequencer with
//!   a measured root bottleneck;
//! * [`crdt`] — the coordination-free CRDT counter: increments complete
//!   instantly with locally-merged (*relaxed*, duplicable) ranks and
//!   gossip outward — the zero-cost / maximal-consistency-debt baseline
//!   the exact protocols are measured against;
//! * [`ranks`] — verification that an execution handed out exactly
//!   `{1, …, |R|}` (or, relaxed, ranks within `1..=|R|`).
//!
//! The central and combining counters share their mechanisms with
//! `ccq-queuing`'s `central-queue` and `combining-queue`: the walk and the
//! wave are written once there, generic over a hand-out trait
//! ([`CentralHandOut`](ccq_queuing::central::CentralHandOut),
//! [`CombiningHandOut`](ccq_queuing::combining::CombiningHandOut)). This
//! crate contributes only the counter's hand-out, [`Rank`] — a requester
//! learns its rank instead of its predecessor — so
//! [`CentralCounterProtocol`] and [`CombiningTreeProtocol`] are the two
//! mechanisms instantiated with it.

#![warn(unreachable_pub)]

pub mod central;
pub mod combining;
pub mod crdt;
pub mod network;
pub mod ranks;

pub use central::CentralCounterProtocol;
pub use combining::CombiningTreeProtocol;
pub use crdt::CrdtCounterProtocol;
pub use network::{BalancingNetwork, CountingNetworkProtocol};
pub use ranks::{verify_ranks, verify_relaxed_ranks, Rank, RankError};
