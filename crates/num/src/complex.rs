//! Double-precision complex arithmetic.
//!
//! This is the scalar type underneath every GW kernel in the workspace: the
//! plane-wave matrix elements `M`, the polarizability `chi`, the dielectric
//! matrix `eps` and the self-energy `Sigma` are all dense complex objects.
//! The layout is `repr(C)` `[re, im]` so that a `&[Complex64]` can be viewed
//! as an interleaved `&[f64]` stream, matching what a ZGEMM kernel expects.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor for [`Complex64`].
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit `i`.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a new complex number.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// `exp(i theta)`, a unit-modulus phase factor (used by stochastic
    /// pseudobands and FFT twiddles).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64(c, s)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared modulus `|z|^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|` computed with `hypot` for overflow safety.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses the plain `conj/|z|^2` form: GW kernels replace divisions by a
    /// single reciprocal of the squared modulus (paper Sec. 5.5.1, item 4),
    /// and all magnitudes in this workspace are well within range.
    #[inline]
    pub fn inv(self) -> Self {
        let d = 1.0 / self.norm_sqr();
        c64(self.re * d, -self.im * d)
    }

    /// Complex exponential `exp(z)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        let (s, c) = self.im.sin_cos();
        c64(r * c, r * s)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) * 0.5).sqrt();
        let im = ((m - self.re) * 0.5).sqrt() * self.im.signum();
        c64(re, im)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Self::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Self::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// Fused multiply-add `self + a * b`.
    ///
    /// The GPP kernels are FMA-dominated (paper Sec. 5.5.1 reports >57% FMA
    /// instructions); `f64::mul_add` maps onto hardware FMA when available.
    #[inline(always)]
    pub fn mul_add(self, a: Complex64, b: Complex64) -> Self {
        c64(
            a.re.mul_add(b.re, (-a.im).mul_add(b.im, self.re)),
            a.re.mul_add(b.im, a.im.mul_add(b.re, self.im)),
        )
    }

    /// Fused `self + conj(a) * b`, the contraction pattern of
    /// `sum_G M^G* ... M^G` sums in Eqs. 2 and 4.
    #[inline(always)]
    pub fn conj_mul_add(self, a: Complex64, b: Complex64) -> Self {
        c64(
            a.re.mul_add(b.re, a.im.mul_add(b.im, self.re)),
            a.re.mul_add(b.im, (-a.im).mul_add(b.re, self.im)),
        )
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = f.precision() {
            write!(f, "{:.*}{:+.*}i", p, self.re, p, self.im)
        } else {
            write!(f, "{}{:+}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w^-1 by definition
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: f64) -> Self {
        c64(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: f64) -> Self {
        c64(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        self.scale(1.0 / rhs)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        c64(self + rhs.re, rhs.im)
    }
}

impl Sub<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self - rhs.re, -rhs.im)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        rhs.inv().scale(self)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, &b| a + b)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Complex64::ZERO + Complex64::ONE, c64(1.0, 0.0));
        assert_eq!(Complex64::I * Complex64::I, c64(-1.0, 0.0));
        assert_eq!(Complex64::real(3.5), c64(3.5, 0.0));
        assert_eq!(Complex64::from(2.0), c64(2.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::cis(0.7).scale(2.0);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
        let u = Complex64::cis(1.3);
        assert!((u.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn field_ops() {
        let a = c64(1.5, -2.0);
        let b = c64(-0.5, 3.0);
        assert!(close(a + b - b, a, 1e-12));
        assert!(close(a * b / b, a, 1e-12));
        assert!(close(a * a.inv(), Complex64::ONE, 1e-12));
        assert!(close(-a + a, Complex64::ZERO, 1e-15));
    }

    #[test]
    fn mixed_real_ops() {
        let a = c64(1.0, 2.0);
        assert_eq!(a + 1.0, c64(2.0, 2.0));
        assert_eq!(1.0 + a, c64(2.0, 2.0));
        assert_eq!(a - 1.0, c64(0.0, 2.0));
        assert_eq!(2.0 - a, c64(1.0, -2.0));
        assert_eq!(a * 2.0, c64(2.0, 4.0));
        assert_eq!(2.0 * a, c64(2.0, 4.0));
        assert!(close(a / 2.0, c64(0.5, 1.0), 1e-15));
        assert!(close(2.0 / a * a, c64(2.0, 0.0), 1e-12));
    }

    #[test]
    fn conj_and_norm() {
        let a = c64(3.0, 4.0);
        assert_eq!(a.conj(), c64(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!(close(a * a.conj(), c64(25.0, 0.0), 1e-12));
    }

    #[test]
    fn exp_and_sqrt() {
        let z = c64(0.3, -1.1);
        let e = z.exp();
        // exp(a+bi) = e^a (cos b + i sin b)
        assert!((e.abs() - z.re.exp()).abs() < 1e-12);
        let s = z.sqrt();
        assert!(close(s * s, z, 1e-12));
        // branch: sqrt of negative real is +i * sqrt(|x|)
        let m = c64(-4.0, 0.0).sqrt();
        assert!(close(m, c64(0.0, 2.0), 1e-12));
        assert_eq!(Complex64::ZERO.sqrt(), Complex64::ZERO);
    }

    #[test]
    fn powi_matches_repeated_mul() {
        let z = c64(0.9, 0.4);
        let mut acc = Complex64::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc, 1e-12), "n = {n}");
            acc *= z;
        }
        assert!(close(z.powi(-3) * z.powi(3), Complex64::ONE, 1e-12));
        assert_eq!(z.powi(0), Complex64::ONE);
    }

    #[test]
    fn fma_patterns() {
        let acc = c64(1.0, 1.0);
        let a = c64(2.0, -1.0);
        let b = c64(0.5, 3.0);
        assert!(close(acc.mul_add(a, b), acc + a * b, 1e-12));
        assert!(close(acc.conj_mul_add(a, b), acc + a.conj() * b, 1e-12));
    }

    #[test]
    fn assign_ops() {
        let mut a = c64(1.0, 1.0);
        a += c64(1.0, 0.0);
        a -= c64(0.0, 1.0);
        a *= c64(2.0, 0.0);
        a /= c64(2.0, 0.0);
        a *= 3.0;
        assert_eq!(a, c64(6.0, 0.0));
    }

    #[test]
    fn sums_and_products() {
        let v = vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(2.0, 2.0)];
        let s: Complex64 = v.iter().sum();
        assert_eq!(s, c64(3.0, 3.0));
        let s2: Complex64 = v.iter().copied().sum();
        assert_eq!(s2, s);
        let p: Complex64 = v.into_iter().product();
        assert!(close(
            p,
            c64(1.0, 0.0) * c64(0.0, 1.0) * c64(2.0, 2.0),
            1e-12
        ));
    }

    #[test]
    fn nan_and_finite() {
        assert!(c64(f64::NAN, 0.0).is_nan());
        assert!(!c64(1.0, 2.0).is_nan());
        assert!(c64(1.0, 2.0).is_finite());
        assert!(!c64(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{:.2}", c64(1.0, 2.0)), "1.00+2.00i");
    }
}
