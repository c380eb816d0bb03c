//! Offline stand-in for `num-complex`: the `Complex<f64>` subset the mbrpa
//! library crates call. Formulas follow the published crate (`hypot` norm,
//! `norm_sqr` division, the branch-cut-aware `sqrt`), so results match it to
//! rounding; `#[repr(C)]` is load-bearing (`mbrpa-simd` reinterprets
//! `[Complex64]` as interleaved `[f64]`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

#[repr(C)]
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Complex<T> {
    pub re: T,
    pub im: T,
}

pub type Complex64 = Complex<f64>;

impl<T> Complex<T> {
    #[inline]
    pub const fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }
}

impl Complex<f64> {
    #[inline]
    pub fn conj(&self) -> Self {
        Self::new(self.re, -self.im)
    }
    #[inline]
    pub fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }
    #[inline]
    pub fn norm(&self) -> f64 {
        self.re.hypot(self.im)
    }
    #[inline]
    pub fn arg(&self) -> f64 {
        self.im.atan2(self.re)
    }
    #[inline]
    pub fn scale(&self, t: f64) -> Self {
        Self::new(self.re * t, self.im * t)
    }
    #[inline]
    pub fn unscale(&self, t: f64) -> Self {
        Self::new(self.re / t, self.im / t)
    }
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }
    #[inline]
    pub fn ln(self) -> Self {
        Self::new(self.norm().ln(), self.arg())
    }
    pub fn sqrt(self) -> Self {
        // lint: allow(float_cmp) — exact-zero test selects the branch cut, as in the published crate
        if self.im == 0.0 {
            if self.re.is_sign_positive() {
                Self::new(self.re.sqrt(), self.im)
            } else {
                // on the negative real axis keep the sign of the zero imaginary part
                let im = (-self.re).sqrt();
                Self::new(0.0, if self.im.is_sign_positive() { im } else { -im })
            }
        // lint: allow(float_cmp) — exact-zero test: a purely imaginary argument has a closed form
        } else if self.re == 0.0 {
            let x = (self.im.abs() / 2.0).sqrt();
            Self::new(x, if self.im.is_sign_positive() { x } else { -x })
        } else {
            Self::from_polar(self.norm().sqrt(), self.arg() / 2.0)
        }
    }
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex<f64> {
    #[inline]
    fn from(re: f64) -> Self {
        Self::new(re, 0.0)
    }
}

impl Add for Complex<f64> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }
}
impl Sub for Complex<f64> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }
}
impl Mul for Complex<f64> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}
impl Div for Complex<f64> {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        let n = o.norm_sqr();
        Self::new(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )
    }
}
impl Neg for Complex<f64> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex<f64> {
    type Output = Self;
    #[inline]
    fn add(self, t: f64) -> Self {
        Self::new(self.re + t, self.im)
    }
}
impl Sub<f64> for Complex<f64> {
    type Output = Self;
    #[inline]
    fn sub(self, t: f64) -> Self {
        Self::new(self.re - t, self.im)
    }
}
impl Mul<f64> for Complex<f64> {
    type Output = Self;
    #[inline]
    fn mul(self, t: f64) -> Self {
        self.scale(t)
    }
}
impl Div<f64> for Complex<f64> {
    type Output = Self;
    #[inline]
    fn div(self, t: f64) -> Self {
        self.unscale(t)
    }
}
impl Mul<Complex<f64>> for f64 {
    type Output = Complex<f64>;
    #[inline]
    fn mul(self, z: Complex<f64>) -> Complex<f64> {
        z.scale(self)
    }
}

macro_rules! assign_ops {
    ($($aop:ident $af:ident $f:ident),*) => {$(
        impl $aop for Complex<f64> {
            #[inline]
            fn $af(&mut self, o: Complex<f64>) { *self = (*self).$f(o); }
        }
        impl $aop<f64> for Complex<f64> {
            #[inline]
            fn $af(&mut self, t: f64) { *self = (*self).$f(t); }
        }
    )*};
}
assign_ops!(AddAssign add_assign add, SubAssign sub_assign sub, MulAssign mul_assign mul, DivAssign div_assign div);

impl Sum for Complex<f64> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::new(0.0, 0.0), |a, b| a + b)
    }
}
impl fmt::Display for Complex<f64> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, im) = if self.im.is_sign_negative() {
            ('-', -self.im)
        } else {
            ('+', self.im)
        };
        match f.precision() {
            Some(p) => write!(f, "{:.p$}{sign}{im:.p$}i", self.re),
            None => write!(f, "{}{sign}{im}i", self.re),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_on_samples() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 0.75);
        let q = a / b;
        assert!((q * b - a).norm() < 1e-14);
        let r = a.sqrt();
        assert!((r * r - a).norm() < 1e-14);
        assert!(r.re >= 0.0);
        assert!((a.ln().exp() - a).norm() < 1e-14);
    }

    #[test]
    fn sqrt_negative_real_axis() {
        let r = Complex64::new(-4.0, 0.0).sqrt();
        assert_eq!((r.re, r.im), (0.0, 2.0));
        let r = Complex64::new(-4.0, -0.0).sqrt();
        assert_eq!((r.re, r.im), (0.0, -2.0));
    }
}
