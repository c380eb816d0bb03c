//! Thin QR orthonormalization via modified Gram–Schmidt with
//! reorthogonalization (MGS2).
//!
//! Used to orthonormalize the random initial subspace `V₀` (improving the
//! conditioning of the Rayleigh–Ritz mass matrix `M_s = VᵀV`) and by the
//! Arnoldi process inside the GMRES baseline. MGS with a second pass has
//! loss of orthogonality bounded near machine precision for the
//! well-conditioned blocks met here, while staying simple and allocation
//! light.

use crate::dense::Mat;
use crate::scalar::Scalar;
use crate::vecops;

/// Result of a thin QR factorization `A = Q R`.
#[derive(Clone, Debug)]
pub struct ThinQr<T: Scalar> {
    /// Orthonormal columns (`QᴴQ = I`), same shape as the input.
    pub q: Mat<T>,
    /// Upper-triangular factor (`cols × cols`).
    pub r: Mat<T>,
    /// Columns whose norm collapsed below the rank tolerance (replaced by
    /// zero columns in `q`; `r` has a zero diagonal there).
    pub deficient: Vec<usize>,
}

/// Relative tolerance under which a column is declared linearly dependent.
const RANK_TOL: f64 = 1e-12;

/// Thin QR by twice-iterated modified Gram–Schmidt.
pub fn thin_qr<T: Scalar>(a: &Mat<T>) -> ThinQr<T> {
    let (_m, n) = a.shape();
    let mut q = a.clone();
    let mut r = Mat::<T>::zeros(n, n);
    let mut deficient = Vec::new();

    for j in 0..n {
        let norm_before = vecops::norm2(q.col(j));
        // two orthogonalization passes against previous columns
        for _pass in 0..2 {
            for i in 0..j {
                let (qi, qj) = q.cols_mut2(i, j);
                let h = vecops::dot_h(qi, qj);
                vecops::axpy(-h, qi, qj);
                r[(i, j)] += h;
            }
        }
        let norm = vecops::norm2(q.col(j));
        if norm <= RANK_TOL * norm_before.max(1.0) {
            deficient.push(j);
            q.col_mut(j).iter_mut().for_each(|x| *x = T::zero());
            r[(j, j)] = T::zero();
        } else {
            let inv = T::from_re(1.0 / norm);
            vecops::scal(inv, q.col_mut(j));
            r[(j, j)] = T::from_re(norm);
        }
    }

    ThinQr { q, r, deficient }
}

/// Orthonormalize in place and discard `R`; returns the indices of
/// rank-deficient columns.
pub fn orthonormalize_columns<T: Scalar>(a: &mut Mat<T>) -> Vec<usize> {
    let qr = thin_qr(a);
    *a = qr.q;
    qr.deficient
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use num_complex::Complex64;

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
        let mut state = seed | 1;
        Mat::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        })
    }

    #[test]
    fn q_is_orthonormal_and_reconstructs() {
        let a = pseudo_random(50, 8, 11);
        let qr = thin_qr(&a);
        assert!(qr.deficient.is_empty());
        let qtq = matmul(&qr.q.conj_transpose(), &qr.q);
        assert!(qtq.max_abs_diff(&Mat::identity(8)) < 1e-13);
        let back = matmul(&qr.q, &qr.r);
        assert!(back.max_abs_diff(&a) < 1e-13);
        // R upper triangular
        for j in 0..8 {
            for i in j + 1..8 {
                assert_eq!(qr.r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn complex_orthonormalization() {
        let a = Mat::from_fn(40, 5, |i, j| {
            Complex64::new(
                ((i * 7 + j * 3) % 13) as f64 - 6.0,
                ((i * 5 + j * 11) % 17) as f64 - 8.0,
            )
        });
        let qr = thin_qr(&a);
        let qhq = matmul(&qr.q.conj_transpose(), &qr.q);
        assert!(qhq.max_abs_diff(&Mat::identity(5)) < 1e-12);
        let back = matmul(&qr.q, &qr.r);
        assert!(back.max_abs_diff(&a) < 1e-11);
    }

    #[test]
    fn detects_dependent_column() {
        let mut a = pseudo_random(30, 4, 3);
        // make column 2 a combination of columns 0 and 1
        for i in 0..30 {
            a[(i, 2)] = 2.0 * a[(i, 0)] - 0.5 * a[(i, 1)];
        }
        let qr = thin_qr(&a);
        assert_eq!(qr.deficient, vec![2]);
        assert_eq!(qr.r[(2, 2)], 0.0);
        // remaining columns still orthonormal
        for j in [0usize, 1, 3] {
            let n = vecops::norm2(qr.q.col(j));
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn orthonormalize_in_place() {
        let mut a = pseudo_random(25, 6, 17);
        let deficient = orthonormalize_columns(&mut a);
        assert!(deficient.is_empty());
        let g = matmul(&a.conj_transpose(), &a);
        assert!(g.max_abs_diff(&Mat::identity(6)) < 1e-13);
    }
}
