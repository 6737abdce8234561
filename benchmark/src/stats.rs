//! Order statistics over timing samples.

/// Extremes, median and quartiles of a sample, the quartiles as `statistics.quantiles(values, n=4)`
/// of Python computes them (the "exclusive" method), so the numbers printed
/// here are the numbers the PR driver recomputes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub max: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` for an empty sample. A single value is its
    /// own median and both quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Summary { min: v[0], max: v[0], median: v[0], q1: v[0], q3: v[0], n }),
            _ => Some(Summary {
                min: v[0],
                max: v[n - 1],
                median: quantile(&v, 2),
                q1: quantile(&v, 1),
                q3: quantile(&v, 3),
                n,
            }),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The `i`-th of the three quartile cut points of sorted `v` (`len ≥ 2`).
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Relative amount by which `second` is worse than `first` (positive =
/// worse), given the metric's direction.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!((s.min, s.max), (1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let s = Summary::of(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
    }

    #[test]
    fn degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(2.0, 2.2, false) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 1.8, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
    }
}
