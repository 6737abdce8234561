//! The `Periodic[w]` counting network (AHS '94 §4): `log₂ w` identical
//! `Block[w]` stages.
//!
//! `Block[w]` for `w = 2^d` has `d` layers with the *balanced-merger*
//! (Dowd–Perl–Rudolph–Saks) wiring: layer `ℓ` (0-indexed) splits the wires
//! into aligned groups of size `w / 2^ℓ` and joins **mirror pairs** within
//! each group (`j` with `g − 1 − j`). Repeating the block `d` times yields
//! a counting network of depth `d²` (deeper than `Bitonic[w]`'s
//! `d(d+1)/2`, but with the *periodic* structure that allows pipelined
//! implementations — the trade-off studied in the t9 ablations).
//!
//! The mirror wiring is essential: replacing it with the shift-butterfly
//! pattern (pairs at distance `g/2`) does **not** give a counting network —
//! the regression test below pins this down.

use super::net::{BalancingNetwork, Builder};

/// One balanced-merger block over the current wire fronts.
fn block(b: &mut Builder, wires: &mut [usize]) {
    let w = wires.len();
    let mut g = w;
    while g >= 2 {
        for start in (0..w).step_by(g) {
            for j in 0..g / 2 {
                let (lo, hi) = (start + j, start + g - 1 - j);
                let (t, bo) = b.balancer(wires[lo], wires[hi]);
                wires[lo] = t;
                wires[hi] = bo;
            }
        }
        g /= 2;
    }
}

/// Build `Periodic[width]`; `width` must be a power of two ≥ 2.
pub fn periodic(width: usize) -> BalancingNetwork {
    assert!(width >= 2 && width.is_power_of_two(), "width must be a power of two ≥ 2");
    let d = width.trailing_zeros() as usize;
    let mut b = Builder::new(width, width * d * d / 2);
    let mut wires: Vec<usize> = (0..width).collect();
    for _ in 0..d {
        block(&mut b, &mut wires);
    }
    b.finish(wires, "periodic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::net::{has_step_property, SeqNetwork};

    #[test]
    fn construction_sizes() {
        // Periodic[w]: depth d², size w·d²/2 for d = lg w.
        for (w, d) in [(2usize, 1usize), (4, 2), (8, 3), (16, 4), (32, 5)] {
            let net = periodic(w);
            assert_eq!(net.depth(), d * d, "depth of Periodic[{w}]");
            assert_eq!(net.balancers().len(), w * d * d / 2, "size of Periodic[{w}]");
            assert_eq!(net.name(), "periodic");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        periodic(12);
    }

    #[test]
    fn deeper_than_bitonic_from_width_8() {
        for w in [8usize, 16, 32] {
            assert!(periodic(w).depth() > super::super::bitonic::bitonic(w).depth(), "w={w}");
        }
    }

    #[test]
    fn sequential_tokens_satisfy_step_property_throughout() {
        for w in [2usize, 4, 8, 16] {
            let net = periodic(w);
            let mut seq = SeqNetwork::new(&net);
            for t in 0..w * 12 {
                seq.feed(t % w);
                assert!(
                    has_step_property(seq.exit_counts()),
                    "w={w} violated after {} tokens: {:?}",
                    t + 1,
                    seq.exit_counts()
                );
            }
        }
    }

    #[test]
    fn counts_are_a_permutation() {
        let net = periodic(8);
        let mut seq = SeqNetwork::new(&net);
        let mut got: Vec<u64> = (0..45).map(|t| seq.next_count((t * 3) % 8)).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=45).collect::<Vec<_>>());
    }

    #[test]
    fn shift_butterfly_would_not_count() {
        // Regression pin: the shift-pattern "butterfly block" (pairs at
        // distance g/2 instead of mirror pairs) violates the step property
        // under an adversarial feed — the mirror wiring is load-bearing.
        use crate::network::net::Builder;
        let w = 8usize;
        let d = 3;
        let mut b = Builder::new(w, w * d * d / 2);
        let mut wires: Vec<usize> = (0..w).collect();
        for _ in 0..d {
            for level in 0..d {
                let dist = w >> (level + 1);
                for i in 0..w {
                    if (i / dist).is_multiple_of(2) {
                        let (t, bo) = b.balancer(wires[i], wires[i + dist]);
                        wires[i] = t;
                        wires[i + dist] = bo;
                    }
                }
            }
        }
        let bad = b.finish(wires, "shift-butterfly");
        let mut seq = SeqNetwork::new(&bad);
        let mut violated = false;
        // Heavy skew through one input exposes the imbalance quickly.
        for _ in 0..w * 16 {
            seq.feed(0);
            if !has_step_property(seq.exit_counts()) {
                violated = true;
                break;
            }
        }
        assert!(violated, "expected the shift butterfly to violate the step property");
    }

    #[test]
    fn random_and_skewed_distributions_step_property() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for w in [4usize, 8, 16] {
            let net = periodic(w);
            let mut seq = SeqNetwork::new(&net);
            // Random phase…
            for _ in 0..w * 10 {
                seq.feed(rng.random_range(0..w));
            }
            // …then a skewed burst through one input.
            for _ in 0..w * 5 {
                seq.feed(0);
            }
            assert!(has_step_property(seq.exit_counts()), "w={w}");
        }
    }
}
