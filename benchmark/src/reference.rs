//! The reference kernel: a fixed piece of work that `wall_rel` divides by.
//!
//! The reference box runs everything 10–15 % slower for a minute at a time,
//! and 20–40 % slower in bursts, so seconds taken minutes apart do not
//! compare to better than that. A `ccq-benchmark reference` child runs right
//! after every `ccq` repetition, spawned the same way and about as long
//! (so that a burst is as likely to hit the one as the other), and slows
//! with it; the ratio of the two stays.
//!
//! The kernel is a toy of what the simulator does — per-node queues, a
//! staged batch sorted each round, a hash map of what was seen — so it leans
//! on the same mix of arithmetic, cache and allocator (this binary's, which
//! counts: `alloc.rs`). **It must never change**: every `wall_rel` ever
//! recorded is in units of it.

use std::collections::{HashMap, VecDeque};

const SIDE: usize = 64;
const ROUNDS: usize = 240;

/// Random walks of 586 tokens over a 64 × 64 torus for 240 rounds; returns a
/// checksum so that none of it can be optimised away. About 25 ms.
pub fn kernel() -> u64 {
    let n = SIDE * SIDE;
    let mut inbox: Vec<VecDeque<u64>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut seen: HashMap<u64, u32> = HashMap::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for v in (0..n).step_by(7) {
        inbox[v].push_back(v as u64);
    }
    let mut sum = 0u64;
    for _ in 0..ROUNDS {
        let mut staged: Vec<(usize, u64)> = Vec::new();
        for (v, queue) in inbox.iter_mut().enumerate() {
            while let Some(m) = queue.pop_front() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (x, y) = (v % SIDE, v / SIDE);
                let to = match state >> 62 {
                    0 => (x + 1) % SIDE + y * SIDE,
                    1 => (x + SIDE - 1) % SIDE + y * SIDE,
                    2 => x + ((y + 1) % SIDE) * SIDE,
                    _ => x + ((y + SIDE - 1) % SIDE) * SIDE,
                };
                *seen.entry(m ^ ((to as u64) << 20)).or_insert(0) += 1;
                staged.push((to, m.wrapping_add(state >> 40)));
            }
        }
        staged.sort_unstable();
        for (to, m) in staged {
            sum = sum.wrapping_add(m);
            inbox[to].push_back(m);
        }
    }
    sum ^ seen.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum pins the work: a change to the kernel changes it.
    #[test]
    fn the_kernel_is_the_one_every_wall_rel_was_measured_against() {
        assert_eq!(kernel(), CHECKSUM);
    }

    const CHECKSUM: u64 = 141_789_023_733_194;
}
