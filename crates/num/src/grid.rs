//! Frequency and energy grids.
//!
//! The full-frequency polarizability is sampled on an imaginary/real
//! frequency grid (paper Sec. 5.2, "the additional calculation of 19
//! frequencies"), and the off-diagonal GPP kernel generalizes the internal
//! energy argument of `Sigma_lm(E)` to a uniform grid `{E_i}` spanning the
//! bandwidth of the `N_Sigma` states (Sec. 5.6).

/// A uniform real grid over `[start, end]` with `n >= 1` points.
#[derive(Clone, Debug, PartialEq)]
pub struct UniformGrid {
    /// First grid point.
    pub start: f64,
    /// Last grid point.
    pub end: f64,
    /// Grid values.
    pub points: Vec<f64>,
}

impl UniformGrid {
    /// Builds a uniform grid with `n` points; `n = 1` yields the midpoint.
    pub fn new(start: f64, end: f64, n: usize) -> Self {
        assert!(n >= 1, "grid needs at least one point");
        assert!(end >= start, "grid interval reversed");
        let points = if n == 1 {
            vec![0.5 * (start + end)]
        } else {
            let step = (end - start) / (n - 1) as f64;
            (0..n).map(|i| start + step * i as f64).collect()
        };
        Self { start, end, points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the grid is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Grid spacing (0 for a single point).
    pub fn step(&self) -> f64 {
        if self.points.len() < 2 {
            0.0
        } else {
            self.points[1] - self.points[0]
        }
    }

    /// Index of the grid point closest to `x`.
    pub fn nearest(&self, x: f64) -> usize {
        if self.points.len() == 1 {
            return 0;
        }
        let step = self.step();
        let i = ((x - self.points[0]) / step).round();
        (i.max(0.0) as usize).min(self.points.len() - 1)
    }
}

/// Gauss-Legendre nodes and weights on `[0, 1]`, used for the frequency
/// integral `int_0^inf dw` of Eq. 2 after the rational mapping
/// `w = w0 * t / (1 - t)`.
pub fn gauss_legendre_unit(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    // Newton iteration on Legendre polynomials over [-1, 1], then map.
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Initial guess (Abramowitz & Stegun 22.16.6).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            // Evaluate P_n(x) and P'_n(x) by recurrence.
            let mut p0 = 1.0;
            let mut p1 = x;
            for k in 2..=n {
                let kf = k as f64;
                let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
                p0 = p1;
                p1 = p2;
            }
            let p = if n == 1 { x } else { p1 };
            let pm1 = if n == 1 { 1.0 } else { p0 };
            dp = n as f64 * (x * p - pm1) / (x * x - 1.0);
            let dx = p / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    // Map [-1, 1] -> [0, 1].
    for i in 0..n {
        nodes[i] = 0.5 * (nodes[i] + 1.0);
        weights[i] *= 0.5;
    }
    (nodes, weights)
}

/// Frequency quadrature for `int_0^inf f(w) dw` via the rational map
/// `w = w0 t / (1 - t)`, `dw = w0 / (1-t)^2 dt`.
pub fn semi_infinite_quadrature(n: usize, w0: f64) -> (Vec<f64>, Vec<f64>) {
    let (t, wt) = gauss_legendre_unit(n);
    let mut freqs = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for i in 0..n {
        let one_minus = 1.0 - t[i];
        freqs.push(w0 * t[i] / one_minus);
        weights.push(wt[i] * w0 / (one_minus * one_minus));
    }
    (freqs, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_points() {
        let g = UniformGrid::new(0.0, 1.0, 5);
        assert_eq!(g.points, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(g.len(), 5);
        assert!(!g.is_empty());
        assert!((g.step() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn single_point_grid_is_midpoint() {
        let g = UniformGrid::new(-2.0, 4.0, 1);
        assert_eq!(g.points, vec![1.0]);
        assert_eq!(g.step(), 0.0);
        assert_eq!(g.nearest(100.0), 0);
    }

    #[test]
    fn nearest_and_clamping() {
        let g = UniformGrid::new(0.0, 10.0, 11);
        assert_eq!(g.nearest(3.4), 3);
        assert_eq!(g.nearest(3.6), 4);
        assert_eq!(g.nearest(-5.0), 0);
        assert_eq!(g.nearest(50.0), 10);
    }

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        // n-point GL is exact for degree 2n-1.
        let (x, w) = gauss_legendre_unit(6);
        assert_eq!(x.len(), 6);
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-13, "weights must sum to 1");
        for deg in 0..12u32 {
            let num: f64 = x
                .iter()
                .zip(&w)
                .map(|(xi, wi)| wi * xi.powi(deg as i32))
                .sum();
            let exact = 1.0 / (deg as f64 + 1.0);
            assert!(
                (num - exact).abs() < 1e-12,
                "degree {deg}: {num} vs {exact}"
            );
        }
    }

    #[test]
    fn semi_infinite_quadrature_integrates_lorentzian() {
        // int_0^inf w0^2/(w^2 + w0^2) dw = pi w0 / 2
        let w0: f64 = 2.5;
        let (f, w) = semi_infinite_quadrature(64, w0);
        let num: f64 = f
            .iter()
            .zip(&w)
            .map(|(fi, wi)| wi * w0 * w0 / (fi * fi + w0 * w0))
            .sum();
        let exact = std::f64::consts::PI * w0 / 2.0;
        assert!((num - exact).abs() < 1e-6, "{num} vs {exact}");
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_point_grid_panics() {
        let _ = UniformGrid::new(0.0, 1.0, 0);
    }
}
