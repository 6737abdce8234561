//! Balancing networks: counting networks (Aspnes–Herlihy–Shavit, JACM '94
//! — the paper's reference \[1\] and the most prominent distributed
//! counting solution) and the toggle tree.
//!
//! A *balancing network* is a DAG of **balancers**, each with one or two
//! inputs and two outputs; each balancer forwards its 1st, 3rd, 5th…
//! token to its top output and the 2nd, 4th, 6th… to its bottom output.
//! A balancing network of width `w` (`w` output wires) is a **counting
//! network** when, at quiescence, its output-wire token counts
//! `y₀ … y_{w−1}` always satisfy the *step property*
//! `0 ≤ yᵢ − yⱼ ≤ 1 for i < j`. Output wire `j` then hands its `c`-th
//! token the count `j + 1 + (c−1)·w`, and `k` tokens receive exactly
//! `{1, …, k}`.
//!
//! * [`net`] — the shared representation, sequential token semantics and
//!   the step-property checker;
//! * [`bitonic()`](bitonic()) — the `Bitonic[w]` construction (depth `½·lg w·(lg w+1)`);
//! * [`periodic()`](periodic()) — the `Periodic[w]` construction (depth `lg² w`);
//! * [`toggle_tree()`](toggle_tree()) — the toggle tree: one-input
//!   balancers in a binary tree, an exact sequencer with a root bottleneck;
//! * [`protocol`] — any of them embedded onto the processors of `G`:
//!   balancers are hosted round-robin, tokens travel as messages (BFS
//!   next-hop routing towards hosts; Euler-tour tree routing for the rank
//!   replies), contention measured by the simulator.

pub mod bitonic;
pub mod net;
pub mod periodic;
pub mod protocol;
pub mod toggle;

pub use bitonic::bitonic;
pub use net::{has_step_property, BalancingNetwork, SeqNetwork, WireDest};
pub use periodic::periodic;
pub use protocol::CountingNetworkProtocol;
pub use toggle::toggle_tree;
