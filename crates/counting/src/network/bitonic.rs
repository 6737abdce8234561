//! The `Bitonic[w]` counting network construction (AHS '94).
//!
//! Recursive structure:
//!
//! * `Bitonic[2]` — a single balancer;
//! * `Bitonic[w]` — two `Bitonic[w/2]` on the top/bottom halves, feeding a
//!   `Merger[w]`;
//! * `Merger[w]` — when `w = 2`, one balancer; otherwise two `Merger[w/2]`:
//!   one merging the *even* top sub-sequence with the *odd* bottom
//!   sub-sequence, the other the odd top with the even bottom; their
//!   outputs are recombined pairwise by a final column of `w/2` balancers
//!   (balancer `i` takes the `i`-th output of each half-merger and yields
//!   final wires `2i`, `2i+1`).
//!
//! Depth: `½·log₂w·(log₂w + 1)`; size: `w·depth/2` balancers.

use super::net::{BalancingNetwork, Builder};

fn bitonic_rec(b: &mut Builder, inputs: &[usize]) -> Vec<usize> {
    let w = inputs.len();
    if w == 1 {
        return inputs.to_vec();
    }
    let half = w / 2;
    let top = bitonic_rec(b, &inputs[..half]);
    let bot = bitonic_rec(b, &inputs[half..]);
    merger(b, &top, &bot)
}

fn merger(b: &mut Builder, top: &[usize], bot: &[usize]) -> Vec<usize> {
    let k = top.len();
    debug_assert_eq!(k, bot.len());
    if k == 1 {
        let (t, bo) = b.balancer(top[0], bot[0]);
        return vec![t, bo];
    }
    let even = |s: &[usize]| s.iter().copied().step_by(2).collect::<Vec<_>>();
    let odd = |s: &[usize]| s.iter().copied().skip(1).step_by(2).collect::<Vec<_>>();
    let z = {
        let (a, c) = (even(top), odd(bot));
        merger(b, &a, &c)
    };
    let zp = {
        let (a, c) = (odd(top), even(bot));
        merger(b, &a, &c)
    };
    let mut out = Vec::with_capacity(2 * k);
    for i in 0..k {
        let (t, bo) = b.balancer(z[i], zp[i]);
        out.push(t);
        out.push(bo);
    }
    out
}

/// Build `Bitonic[width]`; `width` must be a power of two ≥ 2.
pub fn bitonic(width: usize) -> BalancingNetwork {
    assert!(width >= 2 && width.is_power_of_two(), "width must be a power of two ≥ 2");
    let lg = width.trailing_zeros() as usize;
    let mut b = Builder::new(width, width * lg * (lg + 1) / 4);
    let inputs: Vec<usize> = (0..width).collect();
    let outputs = bitonic_rec(&mut b, &inputs);
    b.finish(outputs, "bitonic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::net::{has_step_property, SeqNetwork, WireDest};

    #[test]
    fn construction_sizes() {
        // Bitonic[w] has w·d/2 balancers at depth d = ½ lg w (lg w + 1).
        for (w, depth) in [(2usize, 1usize), (4, 3), (8, 6), (16, 10), (32, 15)] {
            let net = bitonic(w);
            assert_eq!(net.depth(), depth, "depth of Bitonic[{w}]");
            assert_eq!(net.balancers().len(), w * depth / 2, "size of Bitonic[{w}]");
            assert_eq!(net.name(), "bitonic");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        bitonic(6);
    }

    #[test]
    fn every_wire_has_a_destination() {
        let net = bitonic(16);
        let mut outputs_seen = [false; 16];
        for w in 0..net.wire_dest.len() {
            match net.wire_dest(w) {
                WireDest::Balancer(b) => assert!(b < net.balancers().len()),
                WireDest::Output(j) => {
                    assert!(j < 16, "dangling wire {w}");
                    outputs_seen[j] = true;
                }
            }
        }
        assert!(outputs_seen.iter().all(|&b| b));
    }

    #[test]
    fn sequential_tokens_satisfy_step_property_throughout() {
        let net = bitonic(8);
        let mut seq = SeqNetwork::new(&net);
        for t in 0..100 {
            seq.feed(t % 8);
            assert!(
                has_step_property(seq.exit_counts()),
                "violated after {} tokens: {:?}",
                t + 1,
                seq.exit_counts()
            );
        }
    }

    #[test]
    fn counts_are_a_permutation() {
        let net = bitonic(8);
        let mut seq = SeqNetwork::new(&net);
        let k = 50;
        let mut got: Vec<u64> = (0..k).map(|t| seq.next_count(t % 8)).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=k as u64).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_input_distribution_still_counts() {
        let net = bitonic(4);
        let mut seq = SeqNetwork::new(&net);
        let mut got: Vec<u64> = (0..17).map(|_| seq.next_count(0)).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=17).collect::<Vec<_>>());
        assert!(has_step_property(seq.exit_counts()));
    }

    #[test]
    fn random_input_distribution_step_property() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for w in [2usize, 4, 8, 16] {
            let net = bitonic(w);
            let mut seq = SeqNetwork::new(&net);
            for _ in 0..w * 20 {
                seq.feed(rng.random_range(0..w));
            }
            assert!(has_step_property(seq.exit_counts()), "w={w}");
        }
    }

    #[test]
    fn output_producer_is_final_column() {
        // Each output's recorded exit site is the balancer producing it,
        // and those are the last w/2 balancers, two outputs each.
        let net = bitonic(8);
        let len = net.balancers().len();
        for j in 0..8 {
            let b = net.exit_site(j);
            let bal = net.balancers()[b];
            assert!(bal.out_top == net.output_wire(j) || bal.out_bot == net.output_wire(j));
            assert!(b >= len - 4, "output {j} leaves balancer {b} of {len}");
        }
    }
}
