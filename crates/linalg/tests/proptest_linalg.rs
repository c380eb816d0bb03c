//! Property-based tests for the dense linear algebra substrate.

use mbrpa_check::{assume, check, Rng, StdRng};
use mbrpa_linalg::{matmul, matmul_tn, solve, symmetric_eig, thin_qr, Cholesky, Mat, C64};

fn mat_strategy(rng: &mut StdRng, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| rng.random_range(-10.0..10.0))
}

fn cmat_strategy(rng: &mut StdRng, rows: usize, cols: usize) -> Mat<C64> {
    Mat::from_fn(rows, cols, |_, _| {
        C64::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0))
    })
}

/// (A·B)·C == A·(B·C) up to roundoff.
#[test]
fn gemm_associative() {
    check(64, |rng| {
        let a = mat_strategy(rng, 6, 5);
        let b = mat_strategy(rng, 5, 4);
        let c = mat_strategy(rng, 4, 3);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.max_abs_diff(&right) < 1e-9);
    });
}

/// A·(B+C) == A·B + A·C.
#[test]
fn gemm_distributive() {
    check(64, |rng| {
        let a = mat_strategy(rng, 5, 5);
        let b = mat_strategy(rng, 5, 4);
        let c = mat_strategy(rng, 5, 4);
        let mut bc = b.clone();
        bc.axpy(1.0, &c);
        let left = matmul(&a, &bc);
        let mut right = matmul(&a, &b);
        right.axpy(1.0, &matmul(&a, &c));
        assert!(left.max_abs_diff(&right) < 1e-10);
    });
}

/// The Gram kernel agrees with explicit transposition.
#[test]
fn gram_tn_consistent() {
    check(64, |rng| {
        let a = mat_strategy(rng, 30, 4);
        let b = mat_strategy(rng, 30, 3);
        let fast = matmul_tn(&a, &b);
        let slow = matmul(&a.transpose(), &b);
        assert!(fast.max_abs_diff(&slow) < 1e-10);
    });
}

/// (AᵀB)ᵀ == BᵀA for complex blocks (the bilinear form is symmetric).
#[test]
fn gram_tn_transpose_symmetry() {
    check(64, |rng| {
        let a = cmat_strategy(rng, 20, 3);
        let b = cmat_strategy(rng, 20, 4);
        let ab = matmul_tn(&a, &b);
        let ba = matmul_tn(&b, &a);
        assert!(ab.transpose().max_abs_diff(&ba) < 1e-10);
    });
}

/// LU solve returns a vector with small residual for well-conditioned A.
#[test]
fn lu_solve_residual() {
    check(64, |rng| {
        let seed = mat_strategy(rng, 6, 6);
        let b = mat_strategy(rng, 6, 2);
        // diagonally dominate to guarantee invertibility
        let n = 6;
        let mut a = seed;
        for i in 0..n {
            a[(i, i)] += 50.0;
        }
        let x = solve(&a, &b).unwrap();
        let mut r = matmul(&a, &x);
        r.axpy(-1.0, &b);
        assert!(r.max_abs() < 1e-9);
    });
}

/// Complex LU: P·A = L·U reconstruction via solve on identity.
#[test]
fn complex_lu_inverse() {
    check(64, |rng| {
        let seed = cmat_strategy(rng, 5, 5);
        let n = 5;
        let mut a = seed;
        for i in 0..n {
            a[(i, i)] += C64::new(30.0, 5.0);
        }
        let inv = mbrpa_linalg::solve(&a, &Mat::identity(n)).unwrap();
        let prod = matmul(&a, &inv);
        assert!(prod.max_abs_diff(&Mat::identity(n)) < 1e-9);
    });
}

/// Cholesky reconstructs GᵀG + cI.
#[test]
fn cholesky_reconstruction() {
    check(64, |rng| {
        let g = mat_strategy(rng, 7, 7);
        let mut a = matmul(&g.transpose(), &g);
        for i in 0..7 {
            a[(i, i)] += 7.0;
        }
        let ch = Cholesky::factor(&a).unwrap();
        let llt = matmul(ch.l(), &ch.l().transpose());
        assert!(llt.max_abs_diff(&a) < 1e-9);
    });
}

/// Symmetric eigensolver: orthogonality, ordering, reconstruction.
#[test]
fn symeig_invariants() {
    check(64, |rng| {
        let g = mat_strategy(rng, 10, 10);
        let a = Mat::from_fn(10, 10, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
        let eig = symmetric_eig(&a).unwrap();
        // ordering
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // orthogonality
        let qtq = matmul(&eig.vectors.transpose(), &eig.vectors);
        assert!(qtq.max_abs_diff(&Mat::identity(10)) < 1e-9);
        // reconstruction A = Q D Qᵀ
        let mut qd = eig.vectors.clone();
        for j in 0..10 {
            let lam = eig.values[j];
            for v in qd.col_mut(j) {
                *v *= lam;
            }
        }
        let back = matmul(&qd, &eig.vectors.transpose());
        assert!(back.max_abs_diff(&a) < 1e-8);
    });
}

/// Thin QR: QᴴQ = I and QR = A for full-rank random tall blocks.
#[test]
fn qr_invariants() {
    check(64, |rng| {
        let a = mat_strategy(rng, 25, 5);
        let qr = thin_qr(&a);
        assume(qr.deficient.is_empty());
        let qtq = matmul(&qr.q.conj_transpose(), &qr.q);
        assert!(qtq.max_abs_diff(&Mat::identity(5)) < 1e-10);
        let back = matmul(&qr.q, &qr.r);
        assert!(back.max_abs_diff(&a) < 1e-9);
    });
}

/// Frobenius norm is unitarily invariant under the QR orthogonal factor:
/// ‖QᵀA‖_F == ‖A‖_F when Q has full column span of A.
#[test]
fn fro_norm_unitary_invariance() {
    check(64, |rng| {
        let a = mat_strategy(rng, 20, 4);
        let qr = thin_qr(&a);
        assume(qr.deficient.is_empty());
        assert!((qr.r.fro_norm() - a.fro_norm()).abs() < 1e-9 * (1.0 + a.fro_norm()));
    });
}
