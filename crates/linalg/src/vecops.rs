//! Slice-level vector kernels shared by the dense and iterative layers.
//!
//! Every reduction and update here routes through `mbrpa-simd` on the
//! scalar's flat component view, so the same runtime-dispatched
//! microkernels (and the same bit-exact lane-split accumulation order)
//! back both the `f64` and `Complex64` instantiations.

use crate::scalar::Scalar;

/// Charge `flops` real scalar FLOPs to the vector-reduction family.
/// Kept separate from `linalg.gemm_flops` so the per-kernel GF/s rows in
/// `-profile` summaries stay honest (see `Report::derived_rates`).
#[inline]
fn count_reduce(flops: usize) {
    mbrpa_obs::add("solver.reduce.vec_flops", flops as u64);
}

/// Unconjugated dot product `xᵀ y` (the bilinear form used by COCG).
#[inline]
pub fn dot_t<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let (xc, yc) = (T::as_components(x), T::as_components(y));
    if T::COMPONENTS == 1 {
        count_reduce(2 * xc.len());
        T::from_components(mbrpa_simd::dot(xc, yc), 0.0)
    } else {
        count_reduce(4 * xc.len());
        let (re, im) = mbrpa_simd::dot_t_c64(xc, yc);
        T::from_components(re, im)
    }
}

/// Conjugated dot product `xᴴ y` (the sesquilinear inner product). Real
/// vectors take the dispatched dot; complex ones, which only the GMRES
/// baseline and complex QR use, one plain `Σ conj(xᵢ)·yᵢ` loop.
#[inline]
pub fn dot_h<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let (xc, yc) = (T::as_components(x), T::as_components(y));
    if T::COMPONENTS == 1 {
        count_reduce(2 * xc.len());
        T::from_components(mbrpa_simd::dot(xc, yc), 0.0)
    } else {
        count_reduce(4 * xc.len());
        x.iter()
            .zip(y)
            .fold(T::zero(), |acc, (&xi, &yi)| acc + xi.conj() * yi)
    }
}

/// Euclidean norm `‖x‖₂` (componentwise sum of squares for complex).
#[inline]
pub fn norm2<T: Scalar>(x: &[T]) -> f64 {
    let xc = T::as_components(x);
    count_reduce(2 * xc.len());
    mbrpa_simd::nrm2_sq(xc).sqrt()
}

/// `y += alpha * x`, without the FLOP accounting — for call sites whose
/// FLOPs are already charged to another counter (`matmul_nt` charges
/// `linalg.gemm_flops` for its whole product up front).
#[inline]
pub(crate) fn axpy_uncounted<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    let xc = T::as_components(x);
    let yc = T::as_components_mut(y);
    if T::COMPONENTS == 1 {
        mbrpa_simd::axpy(alpha.re(), xc, yc);
    } else {
        mbrpa_simd::axpy_c64(alpha.re(), alpha.im(), xc, yc);
    }
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    count_reduce(if T::COMPONENTS == 1 { 2 } else { 4 } * T::as_components(x).len());
    axpy_uncounted(alpha, x, y);
}

/// `x *= alpha`.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    let xc = T::as_components_mut(x);
    count_reduce(if T::COMPONENTS == 1 { 1 } else { 3 } * xc.len());
    if T::COMPONENTS == 1 {
        mbrpa_simd::scal(alpha.re(), xc);
    } else {
        mbrpa_simd::scal_c64(alpha.re(), alpha.im(), xc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_complex::Complex64;

    #[test]
    fn dot_products_differ_for_complex() {
        let x = [Complex64::new(0.0, 1.0), Complex64::new(2.0, 0.0)];
        let y = [Complex64::new(0.0, 1.0), Complex64::new(1.0, 1.0)];
        // xᵀy = (i)(i) + 2(1+i) = -1 + 2 + 2i = 1 + 2i
        assert_eq!(dot_t(&x, &y), Complex64::new(1.0, 2.0));
        // xᴴy = (-i)(i) + 2(1+i) = 1 + 2 + 2i = 3 + 2i
        assert_eq!(dot_h(&x, &y), Complex64::new(3.0, 2.0));
    }

    #[test]
    fn real_dots_agree() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot_t(&x, &y), 32.0);
        assert_eq!(dot_h(&x, &y), 32.0);
        assert!((norm2(&x) - 14.0_f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn axpy_and_scal() {
        let x = [1.0, -1.0];
        let mut y = [10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 8.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [6.0, 4.0]);
    }
}
