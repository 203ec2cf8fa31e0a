//! Small statistics helpers used by the stochastic-pseudobands error
//! analysis and by the benchmark harness (timing summaries).

/// Running mean / variance accumulator (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Minimum sample (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Maximum absolute difference between two equal-length slices.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Relative error `|a - b| / max(|b|, floor)`.
pub fn rel_err(a: f64, b: f64, floor: f64) -> f64 {
    (a - b).abs() / b.abs().max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut st = RunningStats::new();
        for &x in &xs {
            st.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 =
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((st.mean() - mean).abs() < 1e-12);
        assert!((st.variance() - var).abs() < 1e-12);
        assert_eq!(st.count(), 8);
        assert_eq!(st.min(), 2.0);
        assert_eq!(st.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let st = RunningStats::new();
        assert_eq!(st.mean(), 0.0);
        assert_eq!(st.variance(), 0.0);
    }

    #[test]
    fn diff_metrics() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 2.0];
        assert!((max_abs_diff(&a, &b) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn relative_error_floor() {
        assert_eq!(rel_err(1.0, 0.0, 1e-10), 1e10);
        assert!((rel_err(1.1, 1.0, 1e-10) - 0.1).abs() < 1e-12);
    }
}
