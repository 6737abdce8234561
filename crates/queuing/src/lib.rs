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
//! * [`central`] — a centralized-home baseline that serializes at one node;
//!   (long-lived arrivals are handled generically by [`ccq_sim::Paced`]
//!   wrapping any of these protocols as built);
//! * [`sequential`] — a sequential reference executor used to validate the
//!   concurrent implementation and to connect to the TSP analysis;
//! * [`order`] — verification that an execution produced a valid total
//!   order (exactly one chain, every requester exactly once).
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
pub use order::{verify_total_order, OrderError, INITIAL_TOKEN};
pub use sequential::sequential_arrow_cost;
