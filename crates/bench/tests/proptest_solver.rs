//! Property tests of the two comparison solvers that live beside their
//! bench callers (`qmr`, `seed`), on random well-conditioned
//! complex-symmetric systems of the Sternheimer shape.

use mbrpa_bench::qmr::{qmr_sym, QmrOptions};
use mbrpa_bench::seed::seed_cocg;
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{cocg, true_relative_residual, CocgOptions, DenseOperator};
use proptest::prelude::*;

/// Random complex-symmetric `A = S + (d + iω)I`, diagonally dominated so
/// every draw is solvable.
fn operator_strategy(n: usize) -> impl Strategy<Value = DenseOperator<C64>> {
    (
        proptest::collection::vec(-0.5f64..0.5, n * n),
        2.0f64..6.0,
        0.1f64..1.0,
    )
        .prop_map(move |(entries, diag, omega)| {
            let g = Mat::from_col_major(n, n, entries);
            let a = Mat::from_fn(n, n, |i, j| {
                let mut z = C64::new(0.5 * (g[(i, j)] + g[(j, i)]), 0.0);
                if i == j {
                    z += C64::new(diag, omega);
                }
                z
            });
            DenseOperator::new(a)
        })
}

fn rhs_strategy(n: usize, s: usize) -> impl Strategy<Value = Mat<C64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n * s).prop_map(move |v| {
        Mat::from_col_major(
            n,
            s,
            v.into_iter().map(|(re, im)| C64::new(re, im)).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// QMR agrees with COCG on complex-symmetric systems.
    #[test]
    fn qmr_cocg_agree(op in operator_strategy(14), b in rhs_strategy(14, 1)) {
        let (xc, rc) = cocg(&op, b.col(0), None, &CocgOptions::with_tol(1e-11));
        let (xq, rq) = qmr_sym(&op, b.col(0), None, &QmrOptions {
            tol: 1e-11,
            max_iters: 2000,
            ..QmrOptions::default()
        });
        prop_assume!(rc.converged && rq.converged);
        for (a, c) in xq.iter().zip(xc.iter()) {
            prop_assert!((a - c).norm() < 1e-7);
        }
    }

    /// The seed method solves every column correctly.
    #[test]
    fn seed_method_is_correct(op in operator_strategy(18), b in rhs_strategy(18, 3)) {
        let opts = CocgOptions::with_tol(1e-9);
        let (x, rep) = seed_cocg(&op, &b, &opts);
        prop_assume!(rep.total.converged);
        prop_assert!(true_relative_residual(&op, &b, &x) < 1e-6);
    }
}
