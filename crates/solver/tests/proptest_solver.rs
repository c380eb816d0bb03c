//! Property-based tests for the Krylov solvers on random well-conditioned
//! complex-symmetric systems of the Sternheimer shape.

use mbrpa_linalg::{matmul, Mat, C64};
use mbrpa_solver::{
    block_cocg, block_cocg_ws, cocg, gmres, true_relative_residual, CocgOptions, DenseOperator,
    GmresOptions, IdentityPreconditioner, LinearOperator, Preconditioner, Workspace,
    MAX_BREAKDOWNS,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A dense operator that goes bad: from its `from_call`-th block
/// application on, every entry of the result is `poison` — NaN or Inf (a
/// blown-up `U`), or zero (`μ = UᵀP = 0`, a breakdown no restart cures).
struct FaultyOperator {
    inner: DenseOperator<C64>,
    calls: AtomicUsize,
    from_call: usize,
    poison: C64,
}

impl LinearOperator<C64> for FaultyOperator {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.inner.apply(x, y);
    }
    fn apply_block(&self, x: &Mat<C64>, y: &mut Mat<C64>) {
        self.inner.apply_block(x, y);
        if self.calls.fetch_add(1, Ordering::SeqCst) >= self.from_call {
            y.fill(self.poison);
        }
    }
}

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

    /// Block COCG residuals actually meet the requested tolerance.
    #[test]
    fn block_cocg_meets_tolerance(op in operator_strategy(20), b in rhs_strategy(20, 3)) {
        let opts = CocgOptions::with_tol(1e-8);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        prop_assume!(rep.converged);
        prop_assert!(true_relative_residual(&op, &b, &x) < 1e-6);
    }

    /// The solution is actually A⁻¹B: verify against a direct dense solve.
    #[test]
    fn block_cocg_matches_direct_solve(op in operator_strategy(16), b in rhs_strategy(16, 2)) {
        let opts = CocgOptions::with_tol(1e-11);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        prop_assume!(rep.converged);
        let x_direct = mbrpa_linalg::solve(op.matrix(), &b).unwrap();
        prop_assert!(x.max_abs_diff(&x_direct) < 1e-7);
    }

    /// Linearity: solving for B1+B2 equals the sum of the solutions.
    #[test]
    fn solver_linearity(op in operator_strategy(14), b1 in rhs_strategy(14, 1), b2 in rhs_strategy(14, 1)) {
        let opts = CocgOptions::with_tol(1e-11);
        let (x1, r1) = cocg(&op, b1.col(0), None, &opts);
        let (x2, r2) = cocg(&op, b2.col(0), None, &opts);
        prop_assume!(r1.converged && r2.converged);
        let mut bsum = b1.clone();
        bsum.axpy(C64::new(1.0, 0.0), &b2);
        let (xs, rs) = cocg(&op, bsum.col(0), None, &opts);
        prop_assume!(rs.converged);
        for i in 0..14 {
            prop_assert!((xs[i] - (x1[i] + x2[i])).norm() < 1e-6);
        }
    }

    /// GMRES and COCG agree on complex-symmetric systems.
    #[test]
    fn gmres_cocg_agree(op in operator_strategy(15), b in rhs_strategy(15, 1)) {
        let (xc, rc) = cocg(&op, b.col(0), None, &CocgOptions::with_tol(1e-11));
        let (xg, rg) = gmres(&op, b.col(0), None, &GmresOptions {
            tol: 1e-11,
            restart: 30,
            max_matvecs: 3000,
            track_residuals: false,
        });
        prop_assume!(rc.converged && rg.converged);
        for (a, c) in xg.iter().zip(xc.iter()) {
            prop_assert!((a - c).norm() < 1e-7);
        }
    }

    /// Identity preconditioning changes nothing — not one bit, converged
    /// or not: `M = I` runs the same arithmetic in the same order.
    #[test]
    fn identity_precond_is_neutral(op in operator_strategy(12), b in rhs_strategy(12, 2)) {
        let opts = CocgOptions::with_tol(1e-10);
        let (x1, r1) = block_cocg(&op, &b, None, &opts);
        let identity = IdentityPreconditioner::new(12);
        let (x2, r2) =
            block_cocg_ws(&op, &b, None, &opts, Some(&identity), &mut Workspace::new());
        prop_assert_eq!(r1.iterations, r2.iterations);
        for (a, c) in x1.as_slice().iter().zip(x2.as_slice()) {
            prop_assert_eq!(a.re.to_bits(), c.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), c.im.to_bits());
        }
    }

    /// An operator that starts returning NaN, Inf or zeros mid-solve ends
    /// the solve flagged unconverged with a finite iterate — no panic (the
    /// debug assertions of a test build included), no NaN handed back —
    /// at every thin block width, with and without a preconditioner.
    #[test]
    fn operator_faults_end_unconverged_and_finite(
        op in operator_strategy(18),
        b in rhs_strategy(18, 4),
        from_call in 0usize..4,
        kind in 0usize..3,
        preconditioned in any::<bool>(),
    ) {
        let poison = [C64::new(f64::NAN, 0.0), C64::new(0.0, f64::INFINITY), C64::new(0.0, 0.0)][kind];
        let identity = IdentityPreconditioner::new(18);
        let precond = preconditioned.then_some(&identity as &dyn Preconditioner);
        for s in [1usize, 2, 4] {
            let faulty = FaultyOperator {
                inner: op.clone(),
                calls: AtomicUsize::new(0),
                from_call,
                poison,
            };
            let opts = CocgOptions { tol: 1e-12, max_iters: 60, ..CocgOptions::default() };
            let (x, rep) = block_cocg_ws(
                &faulty,
                &b.columns(0, s),
                None,
                &opts,
                precond,
                &mut Workspace::new(),
            );
            prop_assert!(!rep.converged, "s={s} kind={kind}: {rep:?}");
            prop_assert!(!x.has_bad_values(), "s={s} kind={kind}: non-finite iterate");
            prop_assert!(rep.iterations <= opts.max_iters + 1);
        }
    }

    /// Two identical right-hand sides make every Gram matrix singular: the
    /// block breaks down until the half-split recursion separates them,
    /// and the halves' solutions still solve the block.
    #[test]
    fn half_split_recovers_from_dependent_columns(op in operator_strategy(16), b in rhs_strategy(16, 2)) {
        let mut twins = Mat::zeros(16, 4);
        twins.set_columns(0, &b);
        twins.set_columns(2, &b);
        let opts = CocgOptions { tol: 1e-9, ..CocgOptions::default() };
        let (x, rep) = block_cocg(&op, &twins, None, &opts);
        prop_assert!(rep.breakdowns > MAX_BREAKDOWNS, "no breakdown: {rep:?}");
        prop_assume!(rep.converged);
        prop_assert!(true_relative_residual(&op, &twins, &x) < 1e-7);
    }

    /// Solving with the exact solution as guess converges immediately.
    #[test]
    fn exact_guess_converges_at_once(op in operator_strategy(12), b in rhs_strategy(12, 2)) {
        let opts = CocgOptions::with_tol(1e-10);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        prop_assume!(rep.converged);
        let (_, rep2) = block_cocg(&op, &b, Some(&x), &CocgOptions::with_tol(1e-7));
        prop_assert!(rep2.converged);
        prop_assert_eq!(rep2.iterations, 0);
    }

    /// Solution of A(x) scaled: A(αB) has solution αX.
    #[test]
    fn scaling_equivariance(op in operator_strategy(12), b in rhs_strategy(12, 1), scale in 0.5f64..3.0) {
        let opts = CocgOptions::with_tol(1e-11);
        let (x, r) = cocg(&op, b.col(0), None, &opts);
        prop_assume!(r.converged);
        let bs: Vec<C64> = b.col(0).iter().map(|z| z.scale(scale)).collect();
        let (xs, rs) = cocg(&op, &bs, None, &opts);
        prop_assume!(rs.converged);
        for i in 0..12 {
            prop_assert!((xs[i] - x[i].scale(scale)).norm() < 1e-6 * (1.0 + x[i].norm()));
        }
    }

    /// Residual reported by the recurrence is close to the true residual.
    #[test]
    fn reported_residual_is_honest(op in operator_strategy(16), b in rhs_strategy(16, 2)) {
        let opts = CocgOptions::with_tol(1e-7);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        prop_assume!(rep.converged);
        let true_res = true_relative_residual(&op, &b, &x);
        prop_assert!((true_res - rep.relative_residual).abs() < 1e-4);
    }
}

/// matmul sanity used by the strategies (kept here to exercise the public
/// API from an integration-test context).
#[test]
fn dense_operator_is_its_matrix() {
    let a = Mat::from_fn(5, 5, |i, j| C64::new((i + 2 * j) as f64, (j as f64) - 1.0));
    let op = DenseOperator::new(a.clone());
    let b = Mat::from_fn(5, 2, |i, j| C64::new(i as f64, j as f64));
    let mut out = Mat::zeros(5, 2);
    use mbrpa_solver::LinearOperator;
    op.apply_block(&b, &mut out);
    let expect = matmul(&a, &b);
    assert!(out.max_abs_diff(&expect) < 1e-12);
}
