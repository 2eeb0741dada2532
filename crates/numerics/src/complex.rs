//! A minimal double-precision complex number type.
//!
//! The workspace deliberately avoids external linear-algebra crates, so the
//! complex arithmetic used by the FFT, face-splitting product and GEMM
//! kernels lives here. The layout is `repr(C)` with `re` before `im`, i.e.
//! the interleaved layout used by FFTW/LAPACK, so byte-size accounting in
//! the workload descriptors (16 B per element) matches what a production
//! plane-wave code would move through memory.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + i*im`.
///
/// # Examples
///
/// ```
/// use ndft_numerics::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// assert_eq!(a * b, Complex64::new(5.0, 5.0));
/// assert_eq!(a.conj(), Complex64::new(1.0, -2.0));
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Returns `e^{i*theta}` (a point on the unit circle).
    ///
    /// This is the twiddle-factor constructor used throughout the FFT.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (sin, cos) = theta.sin_cos();
        Complex64 { re: cos, im: sin }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `re^2 + im^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Multiplicative inverse.
    ///
    /// Returns an all-NaN value when `self` is zero, mirroring `1.0 / 0.0`
    /// semantics for floats rather than panicking.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Fused multiply-add: `self * b + c`.
    #[inline]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Complex64 {
            re: self.re * b.re - self.im * b.im + c.re,
            im: self.re * b.im + self.im * b.re + c.im,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Returns true when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns true when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let re = ((r + self.re) / 2.0).sqrt();
        let im = ((r - self.re) / 2.0).sqrt();
        Complex64 {
            re,
            im: if self.im < 0.0 { -im } else { im },
        }
    }

    /// Complex exponential `e^{self}`.
    pub fn exp(self) -> Self {
        Complex64::cis(self.im).scale(self.re.exp())
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{:+}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    // Division *is* multiplication by the inverse — not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64 {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
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

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(2.5, -3.5);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z * z.inv(), Complex64::ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(
            Complex64::I * Complex64::I,
            Complex64::new(-1.0, 0.0)
        ));
    }

    #[test]
    fn conj_properties() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 4.0);
        assert!(close((a * b).conj(), a.conj() * b.conj()));
        assert!(close((a + b).conj(), a.conj() + b.conj()));
        assert!((a * a.conj()).im.abs() < EPS);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex64::cis(theta);
            assert!((z.abs() - 1.0).abs() < EPS);
            assert!((z.re - theta.cos()).abs() < EPS && (z.im - theta.sin()).abs() < EPS);
        }
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = Complex64::new(3.0, 4.0);
        let b = Complex64::new(-1.0, 2.0);
        assert!(close(a / b, a * b.inv()));
        assert!(close((a / b) * b, a));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (0.0, 2.0),
            (-1.0, 0.0),
            (3.0, -4.0),
            (-5.0, 12.0),
        ] {
            let z = Complex64::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z), "sqrt({z:?})^2 = {:?}", r * r);
        }
    }

    #[test]
    fn exp_of_zero_is_one() {
        assert!(close(Complex64::ZERO.exp(), Complex64::ONE));
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = Complex64::new(0.0, std::f64::consts::PI).exp();
        assert!(close(z, Complex64::new(-1.0, 0.0)));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(0.25, 3.0);
        let c = Complex64::new(-1.0, 1.0);
        assert!(close(a.mul_add(b, c), a * b + c));
    }

    #[test]
    fn sum_over_iterator() {
        let v = [Complex64::new(1.0, 1.0); 10];
        let s: Complex64 = v.iter().sum();
        assert!(close(s, Complex64::new(10.0, 10.0)));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let z = Complex64::new(1.0, -2.0);
        assert_eq!(format!("{z}"), "1-2i");
        assert_eq!(format!("{z:?}"), "(1-2i)");
    }

    #[test]
    fn real_scaling() {
        let z = Complex64::new(2.0, -4.0);
        assert!(close(z * 0.5, Complex64::new(1.0, -2.0)));
        assert!(close(0.5 * z, z / 2.0));
    }
}
