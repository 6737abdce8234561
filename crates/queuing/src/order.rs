//! Verification that a queuing execution produced a valid total order.
//!
//! A correct one-shot queuing over request set `R` yields, for every
//! requester, the identity of its predecessor, such that the "predecessor"
//! relation forms a single chain: `t₀ ← a₁ ← a₂ ← … ← a_|R|`, where `t₀` is
//! the pre-existing tail ([`INITIAL_TOKEN`]) and each `aᵢ` is the operation
//! of a distinct requester.

use ccq_graph::NodeId;

/// Identity of the queue's pre-existing tail operation (the initial token
/// held at the tail node before any request is issued).
pub const INITIAL_TOKEN: u64 = u64::MAX;

/// What a queue requester learns: its predecessor's identity. The hand-out
/// that makes the central and combining mechanisms queues.
#[derive(Clone, Copy, Debug)]
pub struct Predecessor;

/// Why an execution's output is not a valid total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderError {
    /// A requester finished without a predecessor, or a non-requester
    /// produced output.
    WrongParticipants { missing: Vec<NodeId>, unexpected: Vec<NodeId> },
    /// A requester completed more than once.
    DuplicateCompletion { node: NodeId },
    /// Two operations were given the same predecessor.
    PredecessorClash { pred: u64, a: NodeId, b: NodeId },
    /// No operation (or more than one) queued behind the initial token.
    BadHead { heads: Vec<NodeId> },
    /// A predecessor identity is neither the initial token nor a requester.
    UnknownPredecessor { node: NodeId, pred: u64 },
    /// Following successors from the initial token does not reach every
    /// operation (the relation has a cycle or a second chain).
    BrokenChain { reached: usize, expected: usize },
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::WrongParticipants { missing, unexpected } => {
                write!(f, "wrong participants: missing {missing:?}, unexpected {unexpected:?}")
            }
            OrderError::DuplicateCompletion { node } => write!(f, "node {node} completed twice"),
            OrderError::PredecessorClash { pred, a, b } => {
                write!(f, "operations of {a} and {b} share predecessor {pred}")
            }
            OrderError::BadHead { heads } => {
                write!(f, "expected exactly one head behind the initial token, got {heads:?}")
            }
            OrderError::UnknownPredecessor { node, pred } => {
                write!(f, "node {node} has unknown predecessor {pred}")
            }
            OrderError::BrokenChain { reached, expected } => {
                write!(f, "chain covers {reached} of {expected} operations")
            }
        }
    }
}

impl std::error::Error for OrderError {}

/// Verify the output of a queuing execution.
///
/// * `requests` — the set `R` of requesting nodes;
/// * `pred_of` — pairs `(origin, predecessor identity)` as completed.
///
/// On success, returns the reconstructed total order (origins, head first) —
/// precisely the order-reconstruction a totally-ordered-multicast receiver
/// performs from piggybacked predecessor identities (paper §1).
pub fn verify_total_order(
    requests: &[NodeId],
    pred_of: &[(NodeId, u64)],
) -> Result<Vec<NodeId>, OrderError> {
    // Node-indexed tables over the requesters' id range; an id past it is
    // no requester. Every pass below walks `pred_of`, so the offender an
    // error names is the first in completion order.
    let len = requests.iter().max().map_or(0, |&m| m + 1);
    let mut requester = vec![false; len];
    for &v in requests {
        requester[v] = true;
    }
    let is_requester = |v: u64| v < len as u64 && requester[v as usize];

    // Every completion comes from a requester; no duplicates.
    let mut done = vec![false; len];
    let mut unexpected = Vec::new();
    for &(node, _) in pred_of {
        if !is_requester(node as u64) {
            unexpected.push(node);
        } else if std::mem::replace(&mut done[node], true) {
            return Err(OrderError::DuplicateCompletion { node });
        }
    }
    let missing: Vec<NodeId> = requests.iter().copied().filter(|&v| !done[v]).collect();
    if !missing.is_empty() || !unexpected.is_empty() {
        return Err(OrderError::WrongParticipants { missing, unexpected });
    }

    // Predecessors are distinct and known; build the successor table. The
    // initial token is excluded so that a duplicated head is reported as
    // `BadHead` rather than a generic clash.
    let mut succ: Vec<Option<NodeId>> = vec![None; len];
    let mut heads = Vec::new();
    for &(node, p) in pred_of {
        if p == INITIAL_TOKEN {
            heads.push(node);
            continue;
        }
        if !is_requester(p) {
            return Err(OrderError::UnknownPredecessor { node, pred: p });
        }
        if let Some(other) = succ[p as usize].replace(node) {
            let (a, b) = (other.min(node), other.max(node));
            return Err(OrderError::PredecessorClash { pred: p, a, b });
        }
    }

    // Exactly one head (predecessor = initial token) unless R is empty.
    if requests.is_empty() {
        return if heads.is_empty() { Ok(Vec::new()) } else { Err(OrderError::BadHead { heads }) };
    }
    if heads.len() != 1 {
        heads.sort_unstable();
        return Err(OrderError::BadHead { heads });
    }

    // Follow the chain; it must visit every operation exactly once.
    let mut order = Vec::with_capacity(requests.len());
    let mut cur = heads[0];
    loop {
        order.push(cur);
        match succ[cur] {
            Some(next) => cur = next,
            None => break,
        }
        if order.len() > requests.len() {
            return Err(OrderError::BrokenChain { reached: order.len(), expected: requests.len() });
        }
    }
    if order.len() != requests.len() {
        return Err(OrderError::BrokenChain { reached: order.len(), expected: requests.len() });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_chain_accepted() {
        // Order: 2, 0, 1.
        let out = verify_total_order(&[0, 1, 2], &[(2, INITIAL_TOKEN), (0, 2), (1, 0)]).unwrap();
        assert_eq!(out, vec![2, 0, 1]);
    }

    #[test]
    fn empty_request_set() {
        assert_eq!(verify_total_order(&[], &[]).unwrap(), Vec::<NodeId>::new());
    }

    #[test]
    fn singleton() {
        let out = verify_total_order(&[5], &[(5, INITIAL_TOKEN)]).unwrap();
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn missing_completion_rejected() {
        let err = verify_total_order(&[0, 1], &[(0, INITIAL_TOKEN)]).unwrap_err();
        assert!(matches!(err, OrderError::WrongParticipants { .. }));
    }

    #[test]
    fn duplicate_completion_rejected() {
        let err = verify_total_order(&[0, 1], &[(0, INITIAL_TOKEN), (0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, OrderError::DuplicateCompletion { node: 0 });
    }

    #[test]
    fn clash_rejected() {
        let err =
            verify_total_order(&[0, 1, 2], &[(0, INITIAL_TOKEN), (1, 0), (2, 0)]).unwrap_err();
        assert_eq!(err, OrderError::PredecessorClash { pred: 0, a: 1, b: 2 });
    }

    #[test]
    fn two_heads_rejected() {
        let err =
            verify_total_order(&[0, 1], &[(0, INITIAL_TOKEN), (1, INITIAL_TOKEN)]).unwrap_err();
        assert_eq!(err, OrderError::BadHead { heads: vec![0, 1] });
    }

    #[test]
    fn cycle_rejected() {
        // 0 ← 1 ← 2 ← 0 plus a proper head 3: heads ok, chain short.
        let err = verify_total_order(&[0, 1, 2, 3], &[(3, INITIAL_TOKEN), (0, 2), (1, 0), (2, 1)])
            .unwrap_err();
        assert!(matches!(err, OrderError::BrokenChain { .. }));
    }

    #[test]
    fn unknown_pred_rejected() {
        let err = verify_total_order(&[0, 1], &[(0, INITIAL_TOKEN), (1, 9)]).unwrap_err();
        assert_eq!(err, OrderError::UnknownPredecessor { node: 1, pred: 9 });
    }

    #[test]
    fn non_requester_output_rejected() {
        let err = verify_total_order(&[0], &[(0, INITIAL_TOKEN), (7, 0)]).unwrap_err();
        assert!(matches!(err, OrderError::WrongParticipants { .. }));
    }

    #[test]
    fn two_offenders_name_the_first_in_completion_order_every_time() {
        // Two clashes and two unknown predecessors: whichever comes first
        // among the completions is the error, on every call.
        let cases = [
            (
                vec![(0, INITIAL_TOKEN), (1, 0), (3, 1), (4, 1), (2, 0)],
                OrderError::PredecessorClash { pred: 1, a: 3, b: 4 },
            ),
            (
                vec![(0, INITIAL_TOKEN), (3, 9), (1, 0), (2, 7), (4, 1)],
                OrderError::UnknownPredecessor { node: 3, pred: 9 },
            ),
        ];
        for (pred_of, first) in cases {
            for _ in 0..64 {
                assert_eq!(verify_total_order(&[0, 1, 2, 3, 4], &pred_of), Err(first.clone()));
            }
        }
    }
}
