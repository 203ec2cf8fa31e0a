//! Order statistics over timing samples. Plain std.

/// Sorted copy of `samples` (ascending). Timing samples are finite.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile of already sorted data, `q` in [0, 1].
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `samples`; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Arithmetic mean; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nearest-rank percentile (`p` in (0, 100]): the smallest sample with
/// at least `p` percent of the samples at or below it. With fewer than
/// `100 / (100 - p)` samples this is the largest sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile. A tail percentile is trusted with ten or more.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Median, quartiles and count of one sample set, for printing.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let v = sorted(samples);
        Self {
            n: v.len(),
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} (q1 {:.6}, q3 {:.6}, n = {})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile_and_tail_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(3000, 95.0), 150);
        // few samples: p95 degrades to the slowest one, nothing beyond it
        assert_eq!(percentile(&[1.0, 9.0, 3.0], 95.0), 9.0);
        assert_eq!(samples_beyond(3, 95.0), 0);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }
}
