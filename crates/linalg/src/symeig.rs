//! Real symmetric (and generalized symmetric-definite) eigensolvers.
//!
//! This is the Rayleigh–Ritz engine of the subspace iteration (Algorithm 5
//! of the paper solves `H_s Q = M_s Q D` at every iteration) and the dense
//! reference path used to manufacture the occupied Kohn–Sham orbitals and
//! the direct Adler–Wiser baseline. The implementation is the classical
//! two-stage dense algorithm: Householder reduction to tridiagonal form with
//! accumulation of the orthogonal transformation, followed by the implicit
//! QL iteration with Wilkinson-style shifts.

use crate::chol::Cholesky;
use crate::dense::Mat;
use crate::error::LinalgError;
use crate::fcmp::exactly_zero;

/// Maximum QL sweeps per eigenvalue before declaring non-convergence.
const MAX_QL_SWEEPS: usize = 60;

/// Eigen-decomposition `A = Q D Qᵀ` of a real symmetric matrix, eigenvalues
/// ascending.
#[derive(Clone, Debug)]
pub struct SymEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns, ordered to match `values`.
    pub vectors: Mat<f64>,
}

/// `sqrt(a² + b²)` without destructive underflow or overflow.
#[inline]
fn pythag(a: f64, b: f64) -> f64 {
    let (absa, absb) = (a.abs(), b.abs());
    if absa > absb {
        absa * (1.0 + (absb / absa).powi(2)).sqrt()
    } else if exactly_zero(absb) {
        0.0
    } else {
        absb * (1.0 + (absa / absb).powi(2)).sqrt()
    }
}

/// Householder reduction of a symmetric matrix to tridiagonal form.
/// Returns `(z, d, e)` where `z` accumulates the orthogonal transform,
/// `d` is the diagonal and `e[1..]` the sub-diagonal.
fn tridiagonalize(a: &Mat<f64>) -> (Mat<f64>, Vec<f64>, Vec<f64>) {
    let n = a.rows();
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..i {
                scale += z[(i, k)].abs();
            }
            if exactly_zero(scale) {
                e[i] = z[(i, l)];
            } else {
                for k in 0..i {
                    let v = z[(i, k)] / scale;
                    z[(i, k)] = v;
                    h += v * v;
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut fsum = 0.0;
                for j in 0..i {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g2 = 0.0;
                    for k in 0..=j {
                        g2 += z[(j, k)] * z[(i, k)];
                    }
                    for k in j + 1..i {
                        g2 += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g2 / h;
                    fsum += e[j] * z[(i, j)];
                }
                let hh = fsum / (h + h);
                for j in 0..i {
                    let f2 = z[(i, j)];
                    let g2 = e[j] - hh * f2;
                    e[j] = g2;
                    for k in 0..=j {
                        let delta = f2 * e[k] + g2 * z[(i, k)];
                        z[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if !exactly_zero(d[i]) {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let delta = g * z[(k, i)];
                    z[(k, j)] -= delta;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
    (z, d, e)
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix, rotating
/// the accumulated eigenvector matrix `z` along.
fn tql_implicit(d: &mut [f64], e: &mut [f64], z: &mut Mat<f64>) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let eps = f64::EPSILON;

    for l in 0..n {
        let mut iter = 0;
        loop {
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_SWEEPS {
                return Err(LinalgError::NoConvergence {
                    what: "symmetric tridiagonal QL",
                    iters: MAX_QL_SWEEPS,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if exactly_zero(r) {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sort eigenpairs ascending by eigenvalue.
fn sort_eigenpairs(d: Vec<f64>, z: Mat<f64>) -> SymEig {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    // lint: allow(unwrap) — NaN here means the QL sweep diverged; panicking is the contract
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("NaN eigenvalue"));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Mat::zeros(n, n);
    for (newj, &oldj) in order.iter().enumerate() {
        vectors.col_mut(newj).copy_from_slice(z.col(oldj));
    }
    SymEig { values, vectors }
}

/// Full eigen-decomposition of a real symmetric matrix. Only the lower
/// triangle is required to be meaningful; the matrix is symmetrized first to
/// guard against roundoff asymmetry from upstream Gram products.
pub fn symmetric_eig(a: &Mat<f64>) -> Result<SymEig, LinalgError> {
    let n = a.rows();
    if n != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            expected: "square".into(),
            got: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    if n == 0 {
        return Ok(SymEig {
            values: vec![],
            vectors: Mat::zeros(0, 0),
        });
    }
    let sym = Mat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let (mut z, mut d, mut e) = tridiagonalize(&sym);
    tql_implicit(&mut d, &mut e, &mut z)?;
    Ok(sort_eigenpairs(d, z))
}

/// Generalized symmetric-definite eigenproblem `A Q = B Q D` with `B ≻ 0`,
/// solved by Cholesky reduction (`B = LLᵀ`, `C = L⁻¹ A L⁻ᵀ`, `Q = L⁻ᵀ Z`).
/// Eigenvectors are B-orthonormal: `Qᵀ B Q = I`.
pub fn generalized_sym_eig(a: &Mat<f64>, b: &Mat<f64>) -> Result<SymEig, LinalgError> {
    if a.shape() != b.shape() {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("{}x{}", a.rows(), a.cols()),
            got: format!("{}x{}", b.rows(), b.cols()),
        });
    }
    let ch = Cholesky::factor(b)?;
    // C = L⁻¹ A L⁻ᵀ
    let x = ch.solve_lower(a); // X = L⁻¹ A
    let c = ch.solve_lower(&x.transpose()); // (L⁻¹ Xᵀ) = L⁻¹ Aᵀ L⁻ᵀ = Cᵀ = C
    let eig = symmetric_eig(&c)?;
    let q = ch.solve_lower_t(&eig.vectors);
    Ok(SymEig {
        values: eig.values,
        vectors: q,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    /// Largest eigenpair residual `‖A q − λ q‖`.
    fn eig_residual(a: &Mat<f64>, eig: &SymEig) -> f64 {
        let av = matmul(a, &eig.vectors);
        let mut worst: f64 = 0.0;
        for (j, &lam) in eig.values.iter().enumerate() {
            let mut r = 0.0;
            for i in 0..a.rows() {
                let d = av[(i, j)] - lam * eig.vectors[(i, j)];
                r += d * d;
            }
            worst = worst.max(r.sqrt());
        }
        worst
    }

    fn random_symmetric(n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let g = Mat::from_fn(n, n, |_, _| next());
        Mat::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]))
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let mut a = Mat::<f64>::zeros(4, 4);
        for (i, v) in [3.0, -1.0, 2.0, 0.5].iter().enumerate() {
            a[(i, i)] = *v;
        }
        let eig = symmetric_eig(&a).unwrap();
        assert_eq!(eig.values.len(), 4);
        let expect = [-1.0, 0.5, 2.0, 3.0];
        for (v, e) in eig.values.iter().zip(expect.iter()) {
            assert!((v - e).abs() < 1e-13);
        }
    }

    #[test]
    fn two_by_two_known() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3
        let a = Mat::from_col_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = symmetric_eig(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-14);
        assert!((eig.values[1] - 3.0).abs() < 1e-14);
        // eigenvector of eigenvalue 1 is (1,-1)/sqrt(2) up to sign
        let v = eig.vectors.col(0);
        assert!((v[0] + v[1]).abs() < 1e-12);
    }

    #[test]
    fn random_matrix_reconstruction_and_orthogonality() {
        let n = 24;
        let a = random_symmetric(n, 99);
        let eig = symmetric_eig(&a).unwrap();
        // Qᵀ Q = I
        let qtq = matmul(&eig.vectors.transpose(), &eig.vectors);
        assert!(qtq.max_abs_diff(&Mat::identity(n)) < 1e-11);
        // A Q = Q D
        assert!(eig_residual(&a, &eig) < 1e-11);
        // ascending order
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
        // trace preserved
        let tr_a: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let tr_d: f64 = eig.values.iter().sum();
        assert!((tr_a - tr_d).abs() < 1e-10);
    }

    #[test]
    fn laplacian_1d_dirichlet_spectrum() {
        // Tridiagonal -1,2,-1 has eigenvalues 2-2cos(k*pi/(n+1))
        let n = 16;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let eig = symmetric_eig(&a).unwrap();
        for k in 0..n {
            let expect = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64).cos();
            assert!(
                (eig.values[k] - expect).abs() < 1e-12,
                "k={k}: {} vs {expect}",
                eig.values[k]
            );
        }
    }

    #[test]
    fn generalized_reduces_to_standard_for_identity_b() {
        let a = random_symmetric(10, 5);
        let b = Mat::<f64>::identity(10);
        let ge = generalized_sym_eig(&a, &b).unwrap();
        let se = symmetric_eig(&a).unwrap();
        for (x, y) in ge.values.iter().zip(se.values.iter()) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn generalized_b_orthonormality_and_residual() {
        let n = 12;
        let a = random_symmetric(n, 21);
        // SPD B
        let g = random_symmetric(n, 22);
        let mut b = matmul(&g.transpose(), &g);
        for i in 0..n {
            b[(i, i)] += n as f64;
        }
        let eig = generalized_sym_eig(&a, &b).unwrap();
        // Qᵀ B Q = I
        let qbq = matmul(&eig.vectors.transpose(), &matmul(&b, &eig.vectors));
        assert!(qbq.max_abs_diff(&Mat::identity(n)) < 1e-9);
        // A Q = B Q D
        let aq = matmul(&a, &eig.vectors);
        let bq = matmul(&b, &eig.vectors);
        for j in 0..n {
            for i in 0..n {
                let r = aq[(i, j)] - eig.values[j] * bq[(i, j)];
                assert!(r.abs() < 1e-9, "residual {r} at ({i},{j})");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let a = Mat::<f64>::zeros(0, 0);
        assert!(symmetric_eig(&a).unwrap().values.is_empty());
        let mut b = Mat::<f64>::zeros(1, 1);
        b[(0, 0)] = 7.0;
        let eig = symmetric_eig(&b).unwrap();
        assert_eq!(eig.values, vec![7.0]);
        assert!((eig.vectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn clustered_eigenvalues_converge() {
        // nearly-degenerate spectrum stresses the QL shift logic
        let n = 20;
        let mut a = random_symmetric(n, 77);
        a.scale_assign(1e-10);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let eig = symmetric_eig(&a).unwrap();
        for v in &eig.values {
            assert!((v - 1.0).abs() < 1e-8);
        }
        assert!(eig_residual(&a, &eig) < 1e-12);
    }
}
