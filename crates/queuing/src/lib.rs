//! Distributed queuing protocols (paper §4).
//!
//! In distributed queuing, processors issue operations that must be arranged
//! into a total order; each requester learns the **identity of its
//! predecessor** in that order. This crate implements:
//!
//! * [`arrow`] — the **arrow protocol** (Raymond '89; Demmer–Herlihy '98):
//!   path reversal on a spanning tree, whose one-shot concurrent cost is
//!   bounded by twice the nearest-neighbour TSP cost (Theorem 4.1, from
//!   Herlihy–Tirthapura–Wattenhofer '01);
//! * [`central`] — the central mechanism: every request routes to one home
//!   node, which serializes them, and the answer routes back;
//! * [`combining`] — the combining mechanism: one wave of subtree summaries
//!   up a spanning tree, the hand-out split back down in preorder;
//! * [`sequential`] — a sequential reference executor used to validate the
//!   concurrent implementation and to connect to the TSP analysis;
//! * [`order`] — verification that an execution produced a valid total
//!   order (exactly one chain, every requester exactly once).
//!
//! Long-lived arrivals need nothing of these protocols beyond
//! [`ccq_sim::Protocol::issue`]: a run given an open schedule
//! ([`ccq_sim::Simulator::with_arrivals`]) issues each operation at its
//! round, on any of them as built.
//!
//! The central and combining mechanisms are shared with `ccq-counting`:
//! each is written once, generic over a hand-out trait
//! ([`central::CentralHandOut`], [`combining::CombiningHandOut`]) — what a
//! requester must learn, the paper's axis between the two problems. This
//! crate contributes the queue's hand-out, [`Predecessor`], which makes
//! them `central-queue` ([`CentralQueueProtocol`]) and `combining-queue`
//! ([`CombiningQueueProtocol`]); `ccq-counting`'s `Rank` makes them
//! `central-counter` and `combining-tree`.
//!
//! Operation identifiers are the origin node's id (one operation per node in
//! the one-shot scenario); the pre-existing queue tail is
//! [`order::INITIAL_TOKEN`].

#![warn(unreachable_pub)]

pub mod arrow;
pub mod central;
pub mod combining;
pub mod order;
pub mod sequential;

pub use arrow::{ArrowMsg, ArrowProtocol};
pub use central::CentralQueueProtocol;
pub use combining::CombiningQueueProtocol;
pub use order::{verify_total_order, OrderError, Predecessor, INITIAL_TOKEN};
pub use sequential::sequential_arrow_cost;
