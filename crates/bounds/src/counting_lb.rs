//! Lower bounds on concurrent counting.
//!
//! These are *proven floors*: any counting algorithm's measured total delay
//! must lie at or above them (the experiment harness asserts exactly that).

use crate::tower::latency_lb_for_count;

/// Theorem 3.5 (general graphs): with all `n` processors counting, the
/// processor that outputs count `k` has latency ≥ `min{t : tow(2t) ≥ k}`.
/// Summing over the top half of the counts (`k = ⌈n/2⌉ .. n`, the
/// `⌊n/2 + 1⌋` processors the paper sums) gives an `Ω(n log* n)` total.
///
/// Returns the exact sum, valid on **any** topology.
pub fn counting_lb_general(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let lo = n.div_ceil(2);
    (lo..=n).map(|k| latency_lb_for_count(k as u128) as u64).sum()
}

/// Theorem 3.6 (diameter `α` graphs): node receiving count `k > n − α/2`
/// has latency ≥ `α/2 + k − n`; summing gives
/// `α/2 + (α/2 − 1) + … + 1 = Ω(α²)`.
///
/// Returns the exact triangular sum `Σ_{j=1}^{⌊α/2⌋} j`.
pub fn counting_lb_diameter(alpha: u64) -> u64 {
    let h = alpha / 2;
    h * (h + 1) / 2
}

/// §5 star-graph serialization: the hub receives at most one message per
/// round, so the `n − 1` leaf operations (which must each be heard by — or
/// routed through — the hub) finish at distinct rounds `≥ 1, 2, …, n−1`,
/// giving a `Θ(n²)` floor of `Σ_{i=1}^{n−1} i`.
pub fn star_serialization_lb(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    let m = (n - 1) as u64;
    m * (m + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_lb_small_values() {
        assert_eq!(counting_lb_general(0), 0);
        // n = 1: count 1 → latency ≥ 0.
        assert_eq!(counting_lb_general(1), 0);
        // n = 2: counts 1, 2 → 0 + 1.
        assert_eq!(counting_lb_general(2), 1);
        // n = 4: counts 2, 3, 4 → 1 + 1 + 1.
        assert_eq!(counting_lb_general(4), 3);
        // n = 8: counts 4..8 → 1 + 2 + 2 + 2 + 2 = 9.
        assert_eq!(counting_lb_general(8), 9);
    }

    #[test]
    fn general_lb_grows_superlinearly_with_log_star() {
        // Between n = 16 and n = 2·65536 the per-op bound steps from 2 to 3.
        let per_op_16 = counting_lb_general(16) as f64 / 16.0;
        let per_op_busy = counting_lb_general(200_000) as f64 / 200_000.0;
        assert!(per_op_busy > per_op_16);
    }

    #[test]
    fn general_lb_monotone() {
        let mut prev = 0;
        for n in 1..200 {
            let b = counting_lb_general(n);
            assert!(b >= prev, "n={n}");
            prev = b;
        }
    }

    #[test]
    fn diameter_lb_values() {
        assert_eq!(counting_lb_diameter(0), 0);
        assert_eq!(counting_lb_diameter(1), 0);
        assert_eq!(counting_lb_diameter(2), 1);
        // α = 10 → Σ 1..5 = 15.
        assert_eq!(counting_lb_diameter(10), 15);
        // List on n nodes: α = n − 1 → ~ n²/8.
        let n = 1001u64;
        assert_eq!(counting_lb_diameter(n - 1), 500 * 501 / 2);
    }

    #[test]
    fn star_lb_values() {
        assert_eq!(star_serialization_lb(0), 0);
        assert_eq!(star_serialization_lb(1), 0);
        assert_eq!(star_serialization_lb(2), 1);
        assert_eq!(star_serialization_lb(10), 45);
    }

    #[test]
    fn quadratic_shapes() {
        // Both quadratic bounds scale ×4 when the argument doubles.
        let d1 = counting_lb_diameter(100) as f64;
        let d2 = counting_lb_diameter(200) as f64;
        assert!((d2 / d1 - 4.0).abs() < 0.1);
        let s1 = star_serialization_lb(100) as f64;
        let s2 = star_serialization_lb(200) as f64;
        assert!((s2 / s1 - 4.0).abs() < 0.1);
    }
}
