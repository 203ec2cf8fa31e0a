//! Pade analytic continuation (Thiele's continued fractions).
//!
//! Full-frequency GW codes often evaluate the self-energy on the
//! imaginary axis (where integrands are smooth) and continue it to real
//! frequencies with a Pade approximant; this module provides the standard
//! N-point Thiele construction used for that step, plus a robust
//! evaluator. Complements the real-axis sampled path of
//! `bgw-core::sigma::fullfreq`.

use crate::complex::Complex64;

/// Why a Pade construction is unusable for analytic continuation.
///
/// Thiele reciprocal differences divide by `(z_j - z_i) g(z_j)`; repeated
/// nodes or non-finite inputs turn the whole coefficient table into
/// garbage that `eval` would silently continue. The imaginary-axis Sigma
/// path is load-bearing on this, so the failure is typed, not a NaN that
/// surfaces three stages later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PadeError {
    /// Two interpolation nodes coincide (indices into the node list).
    DuplicateNodes {
        /// First of the coincident pair.
        i: usize,
        /// Second of the coincident pair.
        j: usize,
    },
    /// A sample value is NaN or infinite.
    NonFiniteSample {
        /// Index of the bad sample.
        index: usize,
    },
    /// A continued-fraction coefficient came out non-finite (degenerate
    /// reciprocal differences despite distinct nodes).
    NonFiniteCoefficient {
        /// Index of the bad coefficient.
        index: usize,
    },
}

impl std::fmt::Display for PadeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateNodes { i, j } => {
                write!(
                    f,
                    "Pade nodes {i} and {j} coincide — continuation is degenerate"
                )
            }
            Self::NonFiniteSample { index } => {
                write!(f, "Pade sample {index} is not finite")
            }
            Self::NonFiniteCoefficient { index } => {
                write!(f, "Pade coefficient {index} is not finite")
            }
        }
    }
}

impl std::error::Error for PadeError {}

/// An N-point Pade approximant through `(z_i, f_i)` samples.
#[derive(Clone, Debug)]
pub struct PadeApproximant {
    /// Interpolation nodes.
    nodes: Vec<Complex64>,
    /// Thiele continued-fraction coefficients `a_i`.
    coeffs: Vec<Complex64>,
}

impl PadeApproximant {
    /// Builds the Thiele continued-fraction interpolant. Nodes must be
    /// distinct; near-degenerate reciprocal differences are regularized.
    ///
    /// Panics on the conditions [`PadeApproximant::try_new`] reports;
    /// continuation paths that must not abort use `try_new`.
    pub fn new(nodes: &[Complex64], values: &[Complex64]) -> Self {
        match Self::try_new(nodes, values) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`PadeApproximant::new`]: validates the nodes and samples
    /// up front and the coefficient table afterwards, so a degenerate
    /// frequency grid (e.g. an all-zero `i w` grid) or a NaN that leaked
    /// into the samples becomes a typed [`PadeError`] instead of a
    /// silently garbage continuation.
    pub fn try_new(nodes: &[Complex64], values: &[Complex64]) -> Result<Self, PadeError> {
        assert_eq!(nodes.len(), values.len());
        assert!(!nodes.is_empty(), "need at least one sample");
        for (i, zi) in nodes.iter().enumerate() {
            for (j, zj) in nodes.iter().enumerate().skip(i + 1) {
                if (*zi - *zj).abs() < 1e-14 {
                    return Err(PadeError::DuplicateNodes { i, j });
                }
            }
        }
        if let Some(index) = values
            .iter()
            .position(|v| !v.re.is_finite() || !v.im.is_finite())
        {
            return Err(PadeError::NonFiniteSample { index });
        }
        let n = nodes.len();
        // g[0][j] = f_j; g[i][j] = (g[i-1][i-1] - g[i-1][j]) /
        //                          ((z_j - z_{i-1}) g[i-1][j])
        let mut g = values.to_vec();
        let mut coeffs = Vec::with_capacity(n);
        coeffs.push(g[0]);
        for i in 1..n {
            let gi_prev = g[i - 1];
            for j in (i..n).rev() {
                let dz = nodes[j] - nodes[i - 1];
                let denom = dz * g[j];
                let denom = if denom.abs() < 1e-300 {
                    Complex64::new(1e-300, 0.0)
                } else {
                    denom
                };
                g[j] = (gi_prev - g[j]) / denom;
            }
            coeffs.push(g[i]);
        }
        if let Some(index) = coeffs
            .iter()
            .position(|c| !c.re.is_finite() || !c.im.is_finite())
        {
            return Err(PadeError::NonFiniteCoefficient { index });
        }
        Ok(Self {
            nodes: nodes.to_vec(),
            coeffs,
        })
    }

    /// Evaluates the continued fraction at `z` (bottom-up recursion).
    pub fn eval(&self, z: Complex64) -> Complex64 {
        let n = self.coeffs.len();
        let mut acc = Complex64::ZERO;
        for i in (1..n).rev() {
            let term = self.coeffs[i] * (z - self.nodes[i - 1]);
            let denom = Complex64::ONE + acc;
            let denom = if denom.abs() < 1e-300 {
                Complex64::new(1e-300, 0.0)
            } else {
                denom
            };
            acc = term / denom;
        }
        self.coeffs[0] / (Complex64::ONE + acc)
    }

    /// Number of interpolation points.
    pub fn order(&self) -> usize {
        self.coeffs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn interpolates_samples_exactly() {
        // rational function f(z) = (z + 2) / (z^2 + 3)
        let f = |z: Complex64| (z + 2.0) / (z * z + 3.0);
        let nodes: Vec<Complex64> = (0..6).map(|k| c64(0.0, 0.5 + k as f64)).collect();
        let values: Vec<Complex64> = nodes.iter().map(|&z| f(z)).collect();
        let p = PadeApproximant::new(&nodes, &values);
        for (&z, &v) in nodes.iter().zip(&values) {
            assert!((p.eval(z) - v).abs() < 1e-9, "node {z}");
        }
        assert_eq!(p.order(), 6);
    }

    #[test]
    fn reproduces_rational_functions_off_grid() {
        // Pade is exact (to roundoff) for rational functions of matching
        // degree, even far from the nodes — the key continuation property.
        let f = |z: Complex64| (z * z + c64(1.0, 0.5)) / (z * z * z + z.scale(4.0) + 2.0);
        let nodes: Vec<Complex64> = (0..10).map(|k| c64(0.0, 0.3 + 0.4 * k as f64)).collect();
        let values: Vec<Complex64> = nodes.iter().map(|&z| f(z)).collect();
        let p = PadeApproximant::new(&nodes, &values);
        for &x in &[0.5, 1.5, 3.0, -2.0] {
            let z = c64(x, 0.1);
            let err = (p.eval(z) - f(z)).abs();
            assert!(err < 1e-7, "z = {z}: err {err}");
        }
    }

    #[test]
    fn continues_single_pole_to_real_axis() {
        // f(z) = 1 / (z - p) with a real pole p: sample on the imaginary
        // axis, continue to the real axis, recover the pole position from
        // the Lorentzian peak of Im f.
        let pole = 1.3;
        let f = |z: Complex64| (z - pole).inv();
        let iw: Vec<f64> = (0..12).map(|k| 0.2 + 0.35 * k as f64).collect();
        let vals: Vec<Complex64> = iw.iter().map(|&w| f(c64(0.0, w))).collect();
        let nodes: Vec<Complex64> = iw.iter().map(|&w| c64(0.0, w)).collect();
        let p = PadeApproximant::new(&nodes, &vals);
        let eta = 0.02;
        let mut best = (0.0, 0.0f64);
        for i in 0..400 {
            let w = i as f64 * 0.01;
            let c = p.eval(c64(w, eta));
            if -c.im > best.1 {
                best = (w, -c.im);
            }
        }
        assert!(
            (best.0 - pole).abs() < 0.03,
            "continued pole at {} vs true {pole}",
            best.0
        );
    }

    #[test]
    fn duplicate_nodes_are_a_typed_error() {
        let z = c64(0.0, 1.0);
        let err = PadeApproximant::try_new(&[z, c64(0.0, 2.0), z], &[Complex64::ONE; 3])
            .expect_err("duplicates must fail");
        assert_eq!(err, PadeError::DuplicateNodes { i: 0, j: 2 });
        // including the all-identical grid a zero w_max produces
        let err = PadeApproximant::try_new(&[Complex64::ZERO; 4], &[Complex64::ONE; 4])
            .expect_err("all-zero grid must fail");
        assert!(matches!(err, PadeError::DuplicateNodes { .. }));
    }

    #[test]
    fn non_finite_samples_are_a_typed_error() {
        let nodes = [c64(0.0, 1.0), c64(0.0, 2.0)];
        let err = PadeApproximant::try_new(&nodes, &[Complex64::ONE, c64(f64::NAN, 0.0)])
            .expect_err("NaN sample must fail");
        assert_eq!(err, PadeError::NonFiniteSample { index: 1 });
        let err = PadeApproximant::try_new(&nodes, &[c64(f64::INFINITY, 0.0), Complex64::ONE])
            .expect_err("infinite sample must fail");
        assert_eq!(err, PadeError::NonFiniteSample { index: 0 });
    }

    #[test]
    fn single_point_is_constant() {
        let p = PadeApproximant::new(&[c64(0.0, 1.0)], &[c64(2.5, -1.0)]);
        assert!((p.eval(c64(5.0, 0.0)) - c64(2.5, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn sigma_like_causal_structure_is_preserved() {
        // a causal self-energy model: Sigma(z) = a + b/(z + w0) with
        // w0 > 0 (pole on the negative real axis, retarded-analytic in the
        // upper half plane). Continuation must keep Im Sigma <= 0 just
        // above the positive real axis where the model has no poles.
        let (a, b, w0) = (c64(-0.3, 0.0), c64(0.4, 0.0), 2.0);
        let f = |z: Complex64| a + b / (z + w0);
        let iw: Vec<f64> = (0..8).map(|k| 0.5 + 0.5 * k as f64).collect();
        let nodes: Vec<Complex64> = iw.iter().map(|&w| c64(0.0, w)).collect();
        let vals: Vec<Complex64> = nodes.iter().map(|&z| f(z)).collect();
        let p = PadeApproximant::new(&nodes, &vals);
        for i in 0..20 {
            let w = 0.2 + i as f64 * 0.2;
            let c = p.eval(c64(w, 0.05));
            let exact = f(c64(w, 0.05));
            assert!((c - exact).abs() < 1e-6, "w = {w}");
        }
    }
}
