//! Seed-projection method for multiple right-hand sides — the §II
//! alternative to block methods that the paper considers and rejects:
//! "reusing the seed Krylov subspace to project the remaining linear
//! systems may result in slow convergence … if the right-hand side
//! vectors are unrelated. We expect the right-hand side vectors to be
//! effectively random in the Sternheimer equations, so seed methods are
//! not considered."
//!
//! Implemented here as the comparison baseline that substantiates that
//! design decision: the seed system is solved with single-vector COCG
//! while its A-conjugate search directions are recorded; each remaining
//! right-hand side is Galerkin-projected onto the recorded subspace
//! (`x₀ = Σ_i p_i (p_iᵀ b)/(p_iᵀ A p_i)`, diagonal thanks to conjugacy in
//! the bilinear form) and then refined with COCG.

use mbrpa_linalg::{exactly_zero, vecops, Mat, C64};
use mbrpa_solver::{block_cocg, CocgOptions, LinearOperator, SolveReport};

/// Outcome of a seed-projection solve.
#[derive(Clone, Debug)]
pub struct SeedReport {
    /// Iterations spent on the seed system.
    pub seed_iterations: usize,
    /// Relative residual of each projected initial guess *before*
    /// refinement (1.0 means the seed subspace contributed nothing).
    pub projected_residuals: Vec<f64>,
    /// Aggregate over seed + all refinements.
    pub total: SolveReport,
}

/// Single-vector COCG that records its search directions `p_i` and the
/// conjugacy scalars `μ_i = p_iᵀ A p_i`.
fn cocg_capture(
    op: &dyn LinearOperator<C64>,
    b: &[C64],
    opts: &CocgOptions,
    directions: &mut Vec<(Vec<C64>, C64)>,
) -> (Vec<C64>, SolveReport) {
    let n = op.dim();
    let mut report = SolveReport::new();
    let b_norm = vecops::norm2(b);
    let mut x = vec![C64::new(0.0, 0.0); n];
    if exactly_zero(b_norm) {
        report.converged = true;
        report.relative_residual = 0.0;
        return (x, report);
    }
    let mut w = b.to_vec();
    let mut rho = vecops::dot_t(&w, &w);
    let mut p: Vec<C64> = Vec::new();
    let mut u = vec![C64::new(0.0, 0.0); n];
    let mut restart = true;

    loop {
        let res = vecops::norm2(&w) / b_norm;
        report.relative_residual = res;
        if res <= opts.tol {
            report.converged = true;
            break;
        }
        if report.iterations >= opts.max_iters {
            break;
        }
        if restart {
            p = w.clone();
            restart = false;
        }
        op.apply(&p, &mut u);
        report.matvecs += 1;
        let mu = vecops::dot_t(&p, &u);
        if mu.norm() < 1e-300 {
            report.breakdowns += 1;
            break;
        }
        let alpha = rho / mu;
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(-alpha, &u, &mut w);
        directions.push((p.clone(), mu));
        let rho_next = vecops::dot_t(&w, &w);
        if rho.norm() < 1e-300 {
            report.breakdowns += 1;
            restart = true;
        } else {
            let beta = rho_next / rho;
            // p ← w + β p
            for (pi, &wi) in p.iter_mut().zip(w.iter()) {
                *pi = wi + beta * *pi;
            }
        }
        rho = rho_next;
        report.iterations += 1;
    }
    (x, report)
}

/// Solve `A X = B` by the seed-projection method: column 0 is the seed.
pub fn seed_cocg(
    op: &dyn LinearOperator<C64>,
    b: &Mat<C64>,
    opts: &CocgOptions,
) -> (Mat<C64>, SeedReport) {
    let n = op.dim();
    let s = b.cols();
    assert!(s >= 1, "need at least one right-hand side");
    assert_eq!(b.rows(), n);
    let mut x = Mat::zeros(n, s);
    let mut directions: Vec<(Vec<C64>, C64)> = Vec::new();

    // seed solve with direction capture
    let (x0, seed_rep) = cocg_capture(op, b.col(0), opts, &mut directions);
    x.col_mut(0).copy_from_slice(&x0);
    let mut total = seed_rep.clone();
    let seed_iterations = seed_rep.iterations;
    let mut projected_residuals = Vec::with_capacity(s.saturating_sub(1));

    // project + refine the remaining systems
    let mut guess = Mat::zeros(n, 1);
    let mut au = vec![C64::new(0.0, 0.0); n];
    for j in 1..s {
        let bj = b.col(j);
        let g = guess.col_mut(0);
        g.iter_mut().for_each(|z| *z = C64::new(0.0, 0.0));
        for (p, mu) in &directions {
            let coeff = vecops::dot_t(p, bj) / *mu;
            vecops::axpy(coeff, p, g);
        }
        // measure what the projection bought us
        op.apply(guess.col(0), &mut au);
        total.matvecs += 1;
        let mut r = bj.to_vec();
        vecops::axpy(-C64::new(1.0, 0.0), &au, &mut r);
        let b_norm = vecops::norm2(bj).max(f64::MIN_POSITIVE);
        projected_residuals.push(vecops::norm2(&r) / b_norm);

        // refine with plain COCG from the projected guess
        let (xj, rep) = block_cocg(op, &b.columns(j, 1), Some(&guess), opts);
        x.set_columns(j, &xj);
        total.iterations += rep.iterations;
        total.matvecs += rep.matvecs;
        total.breakdowns += rep.breakdowns;
        total.converged &= rep.converged;
        total.relative_residual = total.relative_residual.max(rep.relative_residual);
    }

    (
        x,
        SeedReport {
            seed_iterations,
            projected_residuals,
            total,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{rand_rhs, test_operator};
    use mbrpa_solver::true_relative_residual;

    #[test]
    fn solves_all_right_hand_sides() {
        let op = test_operator(40, 4.0, 0.5, 1);
        let b = rand_rhs(40, 4, 2);
        let opts = CocgOptions::with_tol(1e-9);
        let (x, report) = seed_cocg(&op, &b, &opts);
        assert!(report.total.converged, "{report:?}");
        assert!(true_relative_residual(&op, &b, &x) < 1e-7);
        assert_eq!(report.projected_residuals.len(), 3);
    }

    #[test]
    fn related_rhs_benefit_from_projection() {
        // RHS = seed + tiny perturbation: projection should nearly solve it
        let op = test_operator(50, 5.0, 0.7, 3);
        let seed_col = rand_rhs(50, 1, 4);
        let mut b = Mat::zeros(50, 2);
        b.set_columns(0, &seed_col);
        let mut second = seed_col.clone();
        second.scale_assign(C64::new(1.001, 0.0));
        b.set_columns(1, &second);
        let opts = CocgOptions::with_tol(1e-10);
        let (_, report) = seed_cocg(&op, &b, &opts);
        assert!(
            report.projected_residuals[0] < 1e-6,
            "projection should nearly solve a parallel RHS: {}",
            report.projected_residuals[0]
        );
    }

    #[test]
    fn random_rhs_projection_is_weak_motivating_block_methods() {
        // the paper's argument: for unrelated RHS, the seed subspace helps
        // little, so block methods win
        let op = test_operator(60, 1.0, 0.3, 5);
        let b = rand_rhs(60, 4, 6);
        let opts = CocgOptions::with_tol(1e-8);
        let (_, seed_rep) = seed_cocg(&op, &b, &opts);
        // projected guesses leave most of the residual behind…
        for r in &seed_rep.projected_residuals {
            assert!(*r > 0.3, "random RHS should not project well, got {r}");
        }
        // …and block COCG needs fewer total iterations than seed+refines
        let (_, block_rep) = block_cocg(&op, &b, None, &opts);
        assert!(block_rep.converged && seed_rep.total.converged);
        assert!(
            block_rep.iterations <= seed_rep.total.iterations,
            "block {} vs seed {}",
            block_rep.iterations,
            seed_rep.total.iterations
        );
    }

    #[test]
    fn single_rhs_degenerates_to_cocg() {
        let op = test_operator(30, 3.0, 0.4, 7);
        let b = rand_rhs(30, 1, 8);
        let opts = CocgOptions::with_tol(1e-9);
        let (x, report) = seed_cocg(&op, &b, &opts);
        assert!(report.total.converged);
        assert!(report.projected_residuals.is_empty());
        let (x_ref, _) = block_cocg(&op, &b, None, &opts);
        for (a, c) in x.col(0).iter().zip(x_ref.col(0)) {
            assert!((*a - *c).norm() < 1e-9);
        }
    }
}
