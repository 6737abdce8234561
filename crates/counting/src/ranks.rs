//! Verification that a counting execution handed out exactly `{1, …, |R|}`.

use ccq_graph::NodeId;

/// What a counter requester learns: its rank. The hand-out that makes
/// `ccq-queuing`'s central and combining mechanisms counters.
#[derive(Clone, Copy, Debug)]
pub struct Rank;

/// Why a counting execution's output is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankError {
    /// A requester finished without a rank, or a non-requester got one.
    WrongParticipants { missing: Vec<NodeId>, unexpected: Vec<NodeId> },
    /// A requester completed more than once.
    DuplicateCompletion { node: NodeId },
    /// Two requesters received the same rank.
    DuplicateRank { rank: u64, a: NodeId, b: NodeId },
    /// A rank outside `1..=|R|` was handed out.
    RankOutOfRange { node: NodeId, rank: u64, expected_max: u64 },
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::WrongParticipants { missing, unexpected } => {
                write!(f, "wrong participants: missing {missing:?}, unexpected {unexpected:?}")
            }
            RankError::DuplicateCompletion { node } => write!(f, "node {node} completed twice"),
            RankError::DuplicateRank { rank, a, b } => {
                write!(f, "nodes {a} and {b} both received rank {rank}")
            }
            RankError::RankOutOfRange { node, rank, expected_max } => {
                write!(f, "node {node} received rank {rank} outside 1..={expected_max}")
            }
        }
    }
}

impl std::error::Error for RankError {}

/// The participant check both verifiers share, over node-indexed tables:
/// every completion comes from a requester, and every requester completes
/// exactly once. Walks `ranks` in completion order, so a duplicate
/// completion names the first node to complete twice.
fn check_participants(requests: &[NodeId], ranks: &[(NodeId, u64)]) -> Result<(), RankError> {
    let len = requests.iter().max().map_or(0, |&m| m + 1);
    let mut requester = vec![false; len];
    for &v in requests {
        requester[v] = true;
    }
    let mut done = vec![false; len];
    let mut unexpected = Vec::new();
    for &(node, _) in ranks {
        if !requester.get(node).copied().unwrap_or(false) {
            unexpected.push(node);
        } else if std::mem::replace(&mut done[node], true) {
            return Err(RankError::DuplicateCompletion { node });
        }
    }
    let missing: Vec<NodeId> = requests.iter().copied().filter(|&v| !done[v]).collect();
    if !missing.is_empty() || !unexpected.is_empty() {
        return Err(RankError::WrongParticipants { missing, unexpected });
    }
    Ok(())
}

/// Verify counting output: `ranks` holds `(requester, rank)` pairs, in
/// completion order. An error names the first offender in that order.
///
/// On success returns the requesters in rank order (rank 1 first).
pub fn verify_ranks(
    requests: &[NodeId],
    ranks: &[(NodeId, u64)],
) -> Result<Vec<NodeId>, RankError> {
    check_participants(requests, ranks)?;
    let k = requests.len() as u64;
    let mut owner: Vec<Option<NodeId>> = vec![None; requests.len() + 1];
    for &(node, r) in ranks {
        if r < 1 || r > k {
            return Err(RankError::RankOutOfRange { node, rank: r, expected_max: k });
        }
        if let Some(other) = owner[r as usize].replace(node) {
            let (a, b) = (other.min(node), other.max(node));
            return Err(RankError::DuplicateRank { rank: r, a, b });
        }
    }
    // k distinct ranks in 1..=k ⇒ exactly {1..k}.
    Ok(owner[1..].iter().map(|v| v.expect("k distinct ranks in 1..=k")).collect())
}

/// Verify *relaxed* counting output: every requester still completes
/// exactly once with a rank in `1..=|R|`, but duplicate ranks are legal —
/// a coordination-free counter hands out whatever its local merge has
/// heard, so distinct requesters may observe the same count.
///
/// On success returns the requesters sorted by `(rank, node id)` — the
/// deterministic relaxed analogue of rank order, with node id breaking
/// the ties a strict counter could never produce. This order is what QQC
/// lateness charges the relaxation against.
pub fn verify_relaxed_ranks(
    requests: &[NodeId],
    ranks: &[(NodeId, u64)],
) -> Result<Vec<NodeId>, RankError> {
    check_participants(requests, ranks)?;
    let k = requests.len() as u64;
    if let Some(&(node, rank)) = ranks.iter().find(|&&(_, r)| r < 1 || r > k) {
        return Err(RankError::RankOutOfRange { node, rank, expected_max: k });
    }
    let mut order = ranks.to_vec();
    order.sort_unstable_by_key(|&(v, r)| (r, v));
    Ok(order.into_iter().map(|(v, _)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_permutation_accepted() {
        let order = verify_ranks(&[3, 5, 9], &[(5, 1), (9, 2), (3, 3)]).unwrap();
        assert_eq!(order, vec![5, 9, 3]);
    }

    #[test]
    fn empty_ok() {
        assert!(verify_ranks(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn missing_rejected() {
        let err = verify_ranks(&[1, 2], &[(1, 1)]).unwrap_err();
        assert!(matches!(err, RankError::WrongParticipants { .. }));
    }

    #[test]
    fn duplicate_rank_rejected() {
        let err = verify_ranks(&[1, 2], &[(1, 1), (2, 1)]).unwrap_err();
        assert_eq!(err, RankError::DuplicateRank { rank: 1, a: 1, b: 2 });
    }

    #[test]
    fn zero_rank_rejected() {
        let err = verify_ranks(&[1], &[(1, 0)]).unwrap_err();
        assert!(matches!(err, RankError::RankOutOfRange { .. }));
    }

    #[test]
    fn gap_detected_via_range() {
        // Ranks {1, 3} for two requesters: 3 > k = 2.
        let err = verify_ranks(&[1, 2], &[(1, 1), (2, 3)]).unwrap_err();
        assert!(matches!(err, RankError::RankOutOfRange { .. }));
    }

    #[test]
    fn double_completion_rejected() {
        let err = verify_ranks(&[1, 2], &[(1, 1), (1, 2), (2, 2)]).unwrap_err();
        assert_eq!(err, RankError::DuplicateCompletion { node: 1 });
    }

    #[test]
    fn non_requester_rejected() {
        let err = verify_ranks(&[1], &[(1, 1), (4, 2)]).unwrap_err();
        assert!(matches!(err, RankError::WrongParticipants { .. }));
    }

    #[test]
    fn two_offenders_name_the_first_in_completion_order_every_time() {
        let requests = [1, 2, 3, 4, 5, 6];
        let clashes = [(3, 2), (1, 4), (6, 2), (2, 1), (5, 4), (4, 3)];
        let strays = [(3, 2), (1, 9), (6, 0), (2, 1), (5, 4), (4, 3)];
        for _ in 0..64 {
            assert_eq!(
                verify_ranks(&requests, &clashes),
                Err(RankError::DuplicateRank { rank: 2, a: 3, b: 6 })
            );
            let first = RankError::RankOutOfRange { node: 1, rank: 9, expected_max: 6 };
            assert_eq!(verify_ranks(&requests, &strays), Err(first.clone()));
            assert_eq!(verify_relaxed_ranks(&requests, &strays), Err(first));
        }
    }

    #[test]
    fn relaxed_accepts_duplicates_sorted_by_rank_then_node() {
        // A strict verifier rejects this; the relaxed one orders by
        // (rank, node id).
        let order = verify_relaxed_ranks(&[3, 5, 9], &[(9, 1), (3, 1), (5, 2)]).unwrap();
        assert_eq!(order, vec![3, 9, 5]);
        assert!(verify_relaxed_ranks(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn relaxed_still_rejects_structural_errors() {
        let err = verify_relaxed_ranks(&[1, 2], &[(1, 1)]).unwrap_err();
        assert!(matches!(err, RankError::WrongParticipants { .. }));
        let err = verify_relaxed_ranks(&[1, 2], &[(1, 1), (1, 2), (2, 2)]).unwrap_err();
        assert_eq!(err, RankError::DuplicateCompletion { node: 1 });
        let err = verify_relaxed_ranks(&[1], &[(1, 1), (4, 1)]).unwrap_err();
        assert!(matches!(err, RankError::WrongParticipants { .. }));
        let err = verify_relaxed_ranks(&[1, 2], &[(1, 0), (2, 1)]).unwrap_err();
        assert!(matches!(err, RankError::RankOutOfRange { .. }));
        let err = verify_relaxed_ranks(&[1, 2], &[(1, 3), (2, 1)]).unwrap_err();
        assert!(matches!(err, RankError::RankOutOfRange { .. }));
    }
}
