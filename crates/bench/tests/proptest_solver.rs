//! Property tests of the three comparison solvers that live beside their
//! bench callers (`gmres`, `qmr`, `seed`), on random well-conditioned
//! complex-symmetric systems of the Sternheimer shape.

use mbrpa_bench::gmres::{gmres, GmresOptions};
use mbrpa_bench::qmr::{qmr_sym, QmrOptions};
use mbrpa_bench::seed::seed_cocg;
use mbrpa_check::{assume, check, Rng, StdRng};
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{cocg, true_relative_residual, CocgOptions, DenseOperator};

/// Random complex-symmetric `A = S + (d + iω)I`, diagonally dominated so
/// every draw is solvable.
fn operator_strategy(rng: &mut StdRng, n: usize) -> DenseOperator<C64> {
    let g = Mat::from_fn(n, n, |_, _| rng.random_range(-0.5..0.5));
    let (diag, omega) = (rng.random_range(2.0..6.0), rng.random_range(0.1..1.0));
    let a = Mat::from_fn(n, n, |i, j| {
        let mut z = C64::new(0.5 * (g[(i, j)] + g[(j, i)]), 0.0);
        if i == j {
            z += C64::new(diag, omega);
        }
        z
    });
    DenseOperator::new(a)
}

fn rhs_strategy(rng: &mut StdRng, n: usize, s: usize) -> Mat<C64> {
    Mat::from_fn(n, s, |_, _| {
        C64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
    })
}

/// QMR agrees with COCG on complex-symmetric systems.
#[test]
fn qmr_cocg_agree() {
    check(24, |rng| {
        let op = operator_strategy(rng, 14);
        let b = rhs_strategy(rng, 14, 1);
        let (xc, rc) = cocg(&op, b.col(0), None, &CocgOptions::with_tol(1e-11));
        let (xq, rq) = qmr_sym(
            &op,
            b.col(0),
            None,
            &QmrOptions {
                tol: 1e-11,
                max_iters: 2000,
                ..QmrOptions::default()
            },
        );
        assume(rc.converged && rq.converged);
        for (a, c) in xq.iter().zip(xc.iter()) {
            assert!((*a - *c).norm() < 1e-7);
        }
    });
}

/// The seed method solves every column correctly.
#[test]
fn seed_method_is_correct() {
    check(24, |rng| {
        let op = operator_strategy(rng, 18);
        let b = rhs_strategy(rng, 18, 3);
        let opts = CocgOptions::with_tol(1e-9);
        let (x, rep) = seed_cocg(&op, &b, &opts);
        assume(rep.total.converged);
        assert!(true_relative_residual(&op, &b, &x) < 1e-6);
    });
}

/// GMRES and COCG agree on complex-symmetric systems.
#[test]
fn gmres_cocg_agree() {
    check(24, |rng| {
        let op = operator_strategy(rng, 15);
        let b = rhs_strategy(rng, 15, 1);
        let (xc, rc) = cocg(&op, b.col(0), None, &CocgOptions::with_tol(1e-11));
        let (xg, rg) = gmres(
            &op,
            b.col(0),
            None,
            &GmresOptions {
                tol: 1e-11,
                restart: 30,
                max_matvecs: 3000,
                track_residuals: false,
            },
        );
        assume(rc.converged && rg.converged);
        for (a, c) in xg.iter().zip(xc.iter()) {
            assert!((*a - *c).norm() < 1e-7);
        }
    });
}
