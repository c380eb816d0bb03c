//! LU factorization with partial pivoting, generic over real/complex scalars.
//!
//! Block COCG's two `s × s` complex-symmetric solves per iteration
//! (`α = μ⁻¹ρ`, `β = ρ⁻¹ρ₊`) and block Lanczos's `[E_k | M_k] =
//! Δ_k⁻¹[I | Z_k]` factor and solve in one pass with
//! [`factor_solve_in_place`], on pooled buffers, and [`solve`] runs the
//! same pass on copies for one-off systems: the library has one Gaussian
//! elimination. The two-step `Lu` (factors and pivots kept for later
//! solves) lives in this module's tests, where it referees the fused pass
//! bit for bit. Sizes are small (the block size), so a straightforward
//! right-looking factorization is appropriate; no blocking or parallelism
//! is needed here.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::fcmp::exactly_zero;
use crate::scalar::Scalar;

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
#[cfg(test)]
#[derive(Clone, Debug)]
pub struct Lu<T: Scalar> {
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: Mat<T>,
    /// Row interchanges: step `k` swapped rows `k` and `piv[k]`.
    piv: Vec<usize>,
    /// `min|pivot| / max|pivot|` over the elimination.
    pivot_ratio: f64,
}

#[cfg(test)]
impl<T: Scalar> Lu<T> {
    /// Factor a square matrix. Fails with [`LinalgError::Singular`] when a
    /// pivot column is exactly zero.
    pub fn factor(a: &Mat<T>) -> Result<Self, LinalgError> {
        let mut lu = a.clone();
        let mut piv = Vec::new();
        let pivot_ratio = Self::factor_in_place(&mut lu, &mut piv)?;
        Ok(Self {
            lu,
            piv,
            pivot_ratio,
        })
    }

    /// Factor the square matrix `a` in place into packed L and U, writing
    /// the row interchanges into `piv` (cleared first, so one vector serves
    /// every call). Returns the pivot ratio `min|pivot| / max|pivot|`, a
    /// crude reciprocal-condition estimate (0 for an empty matrix). Fails
    /// with [`LinalgError::Singular`] when a pivot column is exactly zero,
    /// leaving `a` and `piv` partly eliminated.
    pub fn factor_in_place(a: &mut Mat<T>, piv: &mut Vec<usize>) -> Result<f64, LinalgError> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::DimensionMismatch {
                expected: "square".into(),
                got: format!("{n}x{m}"),
            });
        }
        piv.clear();
        let mut min_pivot = f64::INFINITY;
        let mut max_pivot: f64 = 0.0;

        for kcol in 0..n {
            // pivot search in column kcol, rows kcol..
            let mut best = kcol;
            let mut best_abs = a[(kcol, kcol)].abs();
            for i in kcol + 1..n {
                let v = a[(i, kcol)].abs();
                if v > best_abs {
                    best = i;
                    best_abs = v;
                }
            }
            if exactly_zero(best_abs) {
                return Err(LinalgError::Singular { pivot: kcol });
            }
            min_pivot = min_pivot.min(best_abs);
            max_pivot = max_pivot.max(best_abs);
            piv.push(best);
            if best != kcol {
                for j in 0..n {
                    let tmp = a[(kcol, j)];
                    a[(kcol, j)] = a[(best, j)];
                    a[(best, j)] = tmp;
                }
            }
            let pivot = a[(kcol, kcol)];
            for i in kcol + 1..n {
                let lik = a[(i, kcol)] / pivot;
                a[(i, kcol)] = lik;
                if lik != T::zero() {
                    for j in kcol + 1..n {
                        let ukj = a[(kcol, j)];
                        a[(i, j)] -= lik * ukj;
                    }
                }
            }
        }

        Ok(if exactly_zero(max_pivot) {
            0.0
        } else {
            min_pivot / max_pivot
        })
    }

    /// Overwrite `x` with the solution of `A x = b`, where `x` holds `b` on
    /// entry and `lu`/`piv` are what [`Lu::factor_in_place`] left of `A`.
    pub fn solve_in_place(lu: &Mat<T>, piv: &[usize], x: &mut [T]) {
        let n = lu.rows();
        assert_eq!(x.len(), n);
        for (k, &p) in piv.iter().enumerate() {
            x.swap(k, p);
        }
        // forward substitution with unit lower L
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // back substitution with U
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= lu[(i, j)] * x[j];
            }
            x[i] = acc / lu[(i, i)];
        }
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Crude reciprocal-condition estimate `min|pivot| / max|pivot|` (the
    /// ratio [`Lu::factor_in_place`] returns).
    pub fn rcond_estimate(&self) -> f64 {
        self.pivot_ratio
    }

    /// Solve `A x = b` for a single right-hand side, in place: `x` holds
    /// `b` on entry and the solution on return.
    pub fn solve_vec(&self, x: &mut [T]) {
        Self::solve_in_place(&self.lu, &self.piv, x);
    }

    /// Solve `A X = B` for a block of right-hand sides.
    pub fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        assert_eq!(b.rows(), self.order());
        let mut x = b.clone();
        for j in 0..x.cols() {
            self.solve_vec(x.col_mut(j));
        }
        x
    }
}

/// [`Lu::factor_in_place`] of the `s × s` matrix `a` and
/// [`Lu::solve_in_place`] of every column of the `s`-row block `x` on it,
/// both column-major slices: the same operations in the same order, so
/// the same bits, without a pivot vector. `x` takes each row interchange
/// and each forward-substitution update as the elimination goes, which
/// gives every entry its updates in the same order; the back substitution
/// runs row by row across the columns. Returns the pivot ratio, or
/// [`LinalgError::Singular`] with `a` and `x` partly eliminated; the solve
/// is made whatever the ratio.
pub fn factor_solve_in_place<T: Scalar>(
    s: usize,
    a: &mut [T],
    x: &mut [T],
) -> Result<f64, LinalgError> {
    let (mut min_pivot, mut max_pivot) = (f64::INFINITY, 0.0f64);
    for k in 0..s {
        let col = (k..s).map(|i| (i, a[i + s * k].abs()));
        let (best, best_abs) = col
            .reduce(|b, v| if v.1 > b.1 { v } else { b })
            .unwrap_or((k, 0.0));
        if exactly_zero(best_abs) {
            return Err(LinalgError::Singular { pivot: k });
        }
        (min_pivot, max_pivot) = (min_pivot.min(best_abs), max_pivot.max(best_abs));
        if best != k {
            for part in [&mut *a, &mut *x] {
                part.chunks_exact_mut(s).for_each(|col| col.swap(k, best));
            }
        }
        // the multipliers of step k into column k, then its updates; the
        // right-hand sides take every one, zero multipliers included
        let (head, rest) = a.split_at_mut(s * (k + 1));
        let (pivot, l) = (head[s * k + k], &mut head[s * k + k + 1..]);
        l.iter_mut().for_each(|lik| *lik /= pivot);
        for col in rest.chunks_exact_mut(s) {
            let ukj = col[k];
            for (aij, &lik) in col[k + 1..].iter_mut().zip(&*l) {
                if lik != T::zero() {
                    *aij -= lik * ukj;
                }
            }
        }
        for col in x.chunks_exact_mut(s) {
            let xk = col[k];
            col[k + 1..]
                .iter_mut()
                .zip(&*l)
                .for_each(|(xi, &lik)| *xi -= lik * xk);
        }
    }
    for i in (0..s).rev() {
        let pivot = a[i + s * i];
        for col in x.chunks_exact_mut(s) {
            let mut acc = col[i];
            for j in i + 1..s {
                acc -= a[i + s * j] * col[j];
            }
            col[i] = acc / pivot;
        }
    }
    Ok(if exactly_zero(max_pivot) {
        0.0
    } else {
        min_pivot / max_pivot
    })
}

/// Solve `A X = B` by [`factor_solve_in_place`] on copies of `A` and `B`.
/// Fails with [`LinalgError::DimensionMismatch`] when `A` is not square and
/// with [`LinalgError::Singular`] when a pivot column is exactly zero.
pub fn solve<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Result<Mat<T>, LinalgError> {
    let (n, m) = a.shape();
    if n != m {
        return Err(LinalgError::DimensionMismatch {
            expected: "square".into(),
            got: format!("{n}x{m}"),
        });
    }
    assert_eq!(b.rows(), n, "right-hand side rows");
    let (mut lu, mut x) = (a.clone(), b.clone());
    factor_solve_in_place(n, lu.as_mut_slice(), x.as_mut_slice())?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use num_complex::Complex64;

    #[test]
    fn solves_known_real_system() {
        let a = Mat::from_col_major(2, 2, vec![2.0, 1.0, 1.0, 3.0]); // [[2,1],[1,3]]
        let b = Mat::col_vector(vec![5.0, 10.0]);
        let x = solve(&a, &b).unwrap();
        // 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3
        assert!((x[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn complex_symmetric_solve_roundtrip() {
        // A = S + i*w*I with S symmetric: the COCG Gram matrix shape
        let n = 6;
        let s = Mat::from_fn(n, n, |i, j| ((i * j + i + j) % 7) as f64 * 0.3);
        let sym = Mat::from_fn(n, n, |i, j| {
            Complex64::new(s[(i, j)] + s[(j, i)] + if i == j { 4.0 } else { 0.0 }, 0.0)
        });
        let a = Mat::from_fn(n, n, |i, j| {
            sym[(i, j)]
                + if i == j {
                    Complex64::new(0.0, 0.9)
                } else {
                    Complex64::new(0.0, 0.0)
                }
        });
        let b = Mat::from_fn(n, 3, |i, j| {
            Complex64::new(i as f64 - j as f64, 0.5 * j as f64)
        });
        let x = solve(&a, &b).unwrap();
        let r = {
            let mut ax = matmul(&a, &x);
            ax.axpy(-Complex64::new(1.0, 0.0), &b);
            ax
        };
        assert!(r.max_abs() < 1e-12, "residual {}", r.max_abs());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_col_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]); // antidiagonal
        let b = Mat::col_vector(vec![2.0, 3.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Mat::from_col_major(2, 2, vec![1.0, 2.0, 2.0, 4.0]); // rank 1
        match Lu::factor(&a) {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn inverse_of_identity_like() {
        let a = Mat::from_col_major(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
        let inv = solve(&a, &Mat::identity(2)).unwrap();
        assert!((inv[(0, 0)] - 0.5).abs() < 1e-14);
        assert!((inv[(1, 1)] - 0.25).abs() < 1e-14);
    }

    #[test]
    fn fused_factor_solve_keeps_the_bits_of_factor_and_solve() {
        // seeded complex matrices of every order up to 9 with 2s right-hand
        // sides: dense ones (pivoting), ones with exact zeros below the
        // diagonal (the skipped updates) and singular ones (a zero column)
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for s in 1..=9 {
            for kind in 0..3 {
                let a = Mat::from_fn(s, s, |i, j| match kind {
                    1 if i > j && (i + j) % 2 == 0 => Complex64::new(0.0, 0.0),
                    2 if j == s / 2 => Complex64::new(0.0, 0.0),
                    _ => Complex64::new(next(), next()),
                });
                let x = Mat::from_fn(s, 2 * s, |_, _| Complex64::new(next(), next()));
                let (mut lu, mut piv, mut want) = (a.clone(), Vec::new(), x.clone());
                let ratio = Lu::factor_in_place(&mut lu, &mut piv);
                let (mut got_lu, mut got) = (a.clone(), x.clone());
                let got_ratio = factor_solve_in_place(s, got_lu.as_mut_slice(), got.as_mut_slice());
                let what = format!("order {s}, kind {kind}");
                match (ratio, got_ratio) {
                    (Ok(r), Ok(g)) => assert_eq!(r.to_bits(), g.to_bits(), "{what}"),
                    (Err(_), Err(_)) => continue,
                    (r, g) => panic!("{what}: {r:?} against {g:?}"),
                }
                for j in 0..2 * s {
                    Lu::solve_in_place(&lu, &piv, want.col_mut(j));
                }
                let bits = |m: &Mat<Complex64>| {
                    let parts = m.as_slice().iter().flat_map(|z| [z.re, z.im]);
                    parts.map(f64::to_bits).collect::<Vec<_>>()
                };
                assert_eq!(bits(&got_lu), bits(&lu), "{what}: LU");
                assert_eq!(bits(&got), bits(&want), "{what}: solutions");
            }
        }
    }

    #[test]
    fn rcond_estimate_reflects_scaling() {
        let a = Mat::from_col_major(2, 2, vec![1.0, 0.0, 0.0, 1e-8]);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.rcond_estimate() < 1e-7);
        let i = Mat::<f64>::identity(4);
        assert!((Lu::factor(&i).unwrap().rcond_estimate() - 1.0).abs() < 1e-14);
    }
}
