//! Preconditioners for block COCG — the third future-work item of the
//! paper's §V: "we can leverage fast Poisson solves to use the *inverse*
//! Laplacian as a preconditioner … dynamically applied only in those
//! cases" (the difficult Sternheimer systems).
//!
//! The iteration itself is [`crate::block_cocg_ws`], which takes an
//! optional [`Preconditioner`]; this module holds only the trait and the
//! identity used as a consistency oracle.

use mbrpa_linalg::{Mat, C64};

/// A (complex-symmetric) preconditioner `M ≈ A⁻¹` applied blockwise.
pub trait Preconditioner: Sync {
    /// Vector length.
    fn dim(&self) -> usize;
    /// `Z = M·W`, overwriting every entry of `z` (same shape as `w`). The
    /// solver hands in a pooled buffer, so an implementation that does
    /// not allocate keeps the solve allocation-free in steady state.
    fn apply_block_into(&self, w: &Mat<C64>, z: &mut Mat<C64>);
}

/// The trivial preconditioner `M = I`: block COCG preconditioned with it
/// reproduces the unpreconditioned iterates bit for bit (tests use it as
/// a consistency oracle).
pub struct IdentityPreconditioner {
    n: usize,
}

impl IdentityPreconditioner {
    /// Identity on vectors of length `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl Preconditioner for IdentityPreconditioner {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply_block_into(&self, w: &Mat<C64>, z: &mut Mat<C64>) {
        z.as_mut_slice().copy_from_slice(w.as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_cocg::{block_cocg, block_cocg_ws, true_relative_residual, CocgOptions};
    use crate::operator::DenseOperator;
    use crate::stats::SolveReport;
    use crate::test_util::{rand_rhs, test_operator};
    use crate::workspace::Workspace;
    use mbrpa_linalg::matmul_into;

    fn block_pcocg(
        op: &DenseOperator<C64>,
        precond: &dyn Preconditioner,
        b: &Mat<C64>,
        opts: &CocgOptions,
    ) -> (Mat<C64>, SolveReport) {
        block_cocg_ws(op, b, None, opts, Some(precond), &mut Workspace::new())
    }

    /// Exact-inverse preconditioner built from a dense matrix.
    struct InversePreconditioner {
        inv: Mat<C64>,
    }
    impl Preconditioner for InversePreconditioner {
        fn dim(&self) -> usize {
            self.inv.rows()
        }
        fn apply_block_into(&self, w: &Mat<C64>, z: &mut Mat<C64>) {
            let (one, zero) = (C64::new(1.0, 0.0), C64::new(0.0, 0.0));
            matmul_into(one, &self.inv, w, zero, z);
        }
    }

    #[test]
    fn identity_precond_matches_plain_cocg() {
        let op = test_operator(35, 4.0, 0.6, 1);
        let b = rand_rhs(35, 3, 2);
        let opts = CocgOptions::with_tol(1e-9);
        let (x_plain, r_plain) = block_cocg(&op, &b, None, &opts);
        let (x_pre, r_pre) = block_pcocg(&op, &IdentityPreconditioner::new(35), &b, &opts);
        assert!(r_plain.converged && r_pre.converged);
        assert_eq!(
            x_plain, x_pre,
            "identity preconditioning must not change a single bit"
        );
        assert_eq!(r_plain.iterations, r_pre.iterations);
    }

    #[test]
    fn exact_inverse_converges_in_one_iteration() {
        let op = test_operator(20, 5.0, 0.8, 3);
        let inv = mbrpa_linalg::inverse(op.matrix()).unwrap();
        let pre = InversePreconditioner { inv };
        let b = rand_rhs(20, 2, 4);
        let opts = CocgOptions::with_tol(1e-10);
        let (x, rep) = block_pcocg(&op, &pre, &b, &opts);
        assert!(rep.converged);
        assert!(
            rep.iterations <= 2,
            "exact inverse should converge immediately, took {}",
            rep.iterations
        );
        assert!(true_relative_residual(&op, &b, &x) < 1e-8);
    }

    #[test]
    fn good_preconditioner_cuts_iterations() {
        // A = D + small symmetric perturbation; M = D⁻¹ captures most of A
        let n = 60;
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let g = Mat::from_fn(n, n, |_, _| next() * 0.2);
        let diag: Vec<f64> = (0..n).map(|i| 1.0 + 10.0 * i as f64 / n as f64).collect();
        let a = Mat::from_fn(n, n, |i, j| {
            let mut z = C64::new(0.5 * (g[(i, j)] + g[(j, i)]), 0.0);
            if i == j {
                z += C64::new(diag[i], 0.3);
            }
            z
        });
        let inv = Mat::from_fn(n, n, |i, j| {
            if i == j {
                C64::new(1.0, 0.0) / C64::new(diag[i], 0.3)
            } else {
                C64::new(0.0, 0.0)
            }
        });
        let op = DenseOperator::new(a);
        let pre = InversePreconditioner { inv };
        let b = rand_rhs(n, 2, 8);
        let opts = CocgOptions::with_tol(1e-9);
        let (_, r_plain) = block_cocg(&op, &b, None, &opts);
        let (x, r_pre) = block_pcocg(&op, &pre, &b, &opts);
        assert!(r_plain.converged && r_pre.converged);
        assert!(
            r_pre.iterations < r_plain.iterations,
            "preconditioned {} vs plain {}",
            r_pre.iterations,
            r_plain.iterations
        );
        assert!(true_relative_residual(&op, &b, &x) < 1e-7);
    }

    #[test]
    fn zero_rhs_and_dimension_checks() {
        let op = test_operator(10, 2.0, 0.2, 9);
        let b = Mat::zeros(10, 2);
        let (x, rep) = block_pcocg(
            &op,
            &IdentityPreconditioner::new(10),
            &b,
            &CocgOptions::default(),
        );
        assert!(rep.converged);
        assert_eq!(x.fro_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "preconditioner dimension")]
    fn rejects_mismatched_preconditioner() {
        let op = test_operator(10, 2.0, 0.2, 9);
        let b = rand_rhs(10, 1, 1);
        let _ = block_pcocg(
            &op,
            &IdentityPreconditioner::new(11),
            &b,
            &CocgOptions::default(),
        );
    }
}
