//! Calibration against the box's own drift.
//!
//! The reference box does not run at one speed. For tens of seconds to
//! minutes at a time everything on it runs 20–100 % slower — this benchmark,
//! a Python loop, a compiler — with no steal time reported, and not always
//! for the same reason: sometimes a pure ALU loop slows threefold, sometimes
//! only code that misses its caches does. Medians, minima and longer
//! repetitions do not help, because whole runs fall inside one slow stretch:
//! two sets of ten 18 s runs of the same binary differed by 55 % in median.
//!
//! What does help is measuring the box while measuring the program. A fixed
//! reference kernel is timed immediately before and after every repetition,
//! and the repetition's times are scaled by how much slower than nominal the
//! kernel ran around it. The kernel has three parts, one per resource the
//! box's neighbours take away — core cycles (a dependent arithmetic chain),
//! cache (a pointer chase through 8 MiB) and memory bandwidth (a pass over
//! 64 MiB) — and the factor is the geometric mean of the three slowdowns.
//! On the series above it brought the 55 % down to 9 %.
//!
//! Times reported as end-to-end metrics are therefore *calibrated seconds*:
//! seconds on a box whose reference kernel runs at its nominal speed. The
//! kernel lives here, outside the code under test, so no change to the
//! repository can move the unit. The raw seconds are printed beside them.

use std::hint::black_box;
use std::time::Instant;

const ALU_ITERATIONS: u64 = 20_000_000;
const RING_SLOTS: usize = 2 * 1024 * 1024; // × 4 B = 8 MiB, around one L3 share
const CHASE_STEPS: usize = 1_500_000;
const STREAM_WORDS: usize = 8 * 1024 * 1024; // × 8 B = 64 MiB, far beyond any cache
const STREAM_PASSES: usize = 2;

/// What each part takes on the reference box when it is calm. These only fix
/// the unit: every time metric scales with them, no comparison depends on
/// them.
const NOMINAL_S: [f64; 3] = [0.037, 0.085, 0.022];

/// The reference kernel and the reading that closed the last operation.
pub struct Calibrator {
    ring: Vec<u32>,
    last: [f64; 3],
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator { ring: single_cycle(RING_SLOTS), last: [0.0; 3] };
        c.last = c.probe();
        c
    }

    /// Time the three parts of the reference kernel, in seconds.
    fn probe(&mut self) -> [f64; 3] {
        let start = Instant::now();
        let mut x = black_box(1u64);
        for _ in 0..ALU_ITERATIONS {
            // Not affine, so the compiler cannot shorten the chain.
            x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(x);
        let alu = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut slot = 0u32;
        for _ in 0..CHASE_STEPS {
            slot = self.ring[slot as usize];
        }
        black_box(slot);
        let chase = start.elapsed().as_secs_f64();

        // Allocated (and faulted in) per probe and freed after it, so that
        // this process stays small while a child runs: see
        // `sys::forget_own_peak_rss`.
        let mut stream = vec![1u64; STREAM_WORDS];
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..STREAM_PASSES {
            for word in stream.iter_mut() {
                *word = word.wrapping_add(1);
                sum = sum.wrapping_add(*word);
            }
        }
        black_box(sum);
        [alu, chase, start.elapsed().as_secs_f64()]
    }

    /// Run `f` between two probes — the closing probe of one operation opens
    /// the next — and return its result with the factor that turns seconds
    /// measured inside it into calibrated seconds.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.last;
        let r = f();
        self.last = self.probe();
        (r, factor(before, self.last))
    }
}

/// Calibration factor of an operation bracketed by the readings `before` and
/// `after`: the geometric mean, over the kernel's parts, of nominal time over
/// the mean of the two readings.
pub fn factor(before: [f64; 3], after: [f64; 3]) -> f64 {
    let product: f64 = (0..3).map(|i| NOMINAL_S[i] / ((before[i] + after[i]) / 2.0)).product();
    product.cbrt()
}

/// A permutation of `0..n` that is one single cycle (Sattolo's shuffle), so a
/// chase through it visits every slot before it repeats.
fn single_cycle(n: usize) -> Vec<u32> {
    let mut ring: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ring.swap(i, (state % i as u64) as usize);
    }
    ring
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_box_at_nominal_speed_is_left_alone_and_a_slow_one_scaled_back() {
        assert!((factor(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        // Every part twice as slow around the repetition: its seconds count half.
        let slow = NOMINAL_S.map(|s| 2.0 * s);
        assert!((factor(slow, slow) - 0.5).abs() < 1e-12);
        // One part of three eight times as slow: the geometric mean halves.
        let one = [8.0 * NOMINAL_S[0], NOMINAL_S[1], NOMINAL_S[2]];
        assert!((factor(one, one) - 0.5).abs() < 1e-12);
        // Before and after count equally.
        let fast = NOMINAL_S.map(|s| 0.5 * s);
        let slower = NOMINAL_S.map(|s| 1.5 * s);
        assert!((factor(fast, slower) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_ring_is_one_cycle() {
        let ring = single_cycle(1000);
        let (mut slot, mut steps) = (0u32, 0);
        loop {
            slot = ring[slot as usize];
            steps += 1;
            if slot == 0 {
                break;
            }
        }
        assert_eq!(steps, 1000);
    }

    #[test]
    fn the_closing_probe_of_one_operation_opens_the_next() {
        let mut c = Calibrator::new();
        let (value, f) = c.bracket(|| 7);
        assert_eq!(value, 7);
        assert!(f > 0.0 && f.is_finite());
        let closing = c.last;
        let (_, f2) = c.bracket(|| ());
        assert_eq!(f2, factor(closing, c.last));
    }
}
