//! QMR for complex symmetric systems — Freund's method (the paper's
//! reference [39]: *"Conjugate Gradient-Type Methods for Linear Systems
//! with Complex Symmetric Coefficient Matrices"*, SISC 1992).
//!
//! Like COCG it exploits `A = Aᵀ` through the unconjugated bilinear form,
//! running a three-term complex-symmetric Lanczos recurrence; unlike COCG
//! it quasi-minimizes the residual over the Krylov subspace via Givens
//! rotations on the tridiagonal, trading one extra vector of storage for a
//! much smoother residual history (COCG "does not satisfy an optimality
//! result in the residual or error norms", §III-B). Included as the
//! literature's middle ground between COCG and full GMRES.

use mbrpa_linalg::{exactly_zero, vecops, C64};
use mbrpa_solver::{LinearOperator, SolveReport};

/// Options for [`qmr_sym`].
#[derive(Clone, Copy, Debug)]
pub struct QmrOptions {
    /// Relative residual tolerance (checked on the true residual).
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// How often (in iterations) the true residual is evaluated; the
    /// quasi-residual bound triggers the check early.
    pub check_every: usize,
    /// Record the quasi-residual estimate per iteration.
    pub track_residuals: bool,
}

impl Default for QmrOptions {
    fn default() -> Self {
        Self {
            tol: 1e-2,
            max_iters: 2000,
            check_every: 10,
            track_residuals: false,
        }
    }
}

/// Complex square root on the principal branch.
fn csqrt(z: C64) -> C64 {
    z.sqrt()
}

/// Solve `A x = b` for complex symmetric `A` with Freund-style QMR.
pub fn qmr_sym(
    op: &dyn LinearOperator<C64>,
    b: &[C64],
    x0: Option<&[C64]>,
    opts: &QmrOptions,
) -> (Vec<C64>, SolveReport) {
    let n = op.dim();
    assert_eq!(b.len(), n);
    let zero = C64::new(0.0, 0.0);
    let one = C64::new(1.0, 0.0);
    let mut report = SolveReport::new();
    let b_norm = vecops::norm2(b);
    let mut x: Vec<C64> = match x0 {
        Some(g) => g.to_vec(),
        None => vec![zero; n],
    };
    if exactly_zero(b_norm) {
        report.converged = true;
        report.relative_residual = 0.0;
        return (vec![zero; n], report);
    }

    // r0 = b − A x0
    let mut r = vec![zero; n];
    op.apply(&x, &mut r);
    report.matvecs += 1;
    for (ri, &bi) in r.iter_mut().zip(b.iter()) {
        *ri = bi - *ri;
    }
    let r0_norm = vecops::norm2(&r);
    report.relative_residual = r0_norm / b_norm;
    if report.relative_residual <= opts.tol {
        report.converged = true;
        return (x, report);
    }

    // complex-symmetric Lanczos state: v₁ = r₀ / δ with δ = √(r₀ᵀr₀), the
    // bilinear normalization the three-term recurrence requires
    // (v_jᵀ v_j = 1; a quasi-breakdown δ ≈ 0 with r₀ ≠ 0 is surfaced as a
    // breakdown)
    let delta = csqrt(vecops::dot_t(&r, &r));
    if delta.norm() < 1e-150 * r0_norm.max(1.0) {
        report.breakdowns += 1;
        return (x, report);
    }
    let mut v = r.clone();
    let inv = one / delta;
    vecops::scal(inv, &mut v);
    let mut v_prev = vec![zero; n];
    let mut beta_prev = zero;

    // QMR rotation state
    let (mut c_1, mut c_2) = (one, one); // previous two Givens cosines
    let (mut s_1, mut s_2) = (zero, zero); // previous two sines
    let mut tau = delta; // running rhs of the LS problem
    let mut d_prev = vec![zero; n];
    let mut d_prev2 = vec![zero; n];
    let mut quasi = r0_norm;

    let mut w = vec![zero; n];
    for iter in 1..=opts.max_iters {
        // Lanczos step: w = A v − α v − β_prev v_prev
        op.apply(&v, &mut w);
        report.matvecs += 1;
        let alpha = vecops::dot_t(&v, &w);
        vecops::axpy(-alpha, &v, &mut w);
        if iter > 1 {
            vecops::axpy(-beta_prev, &v_prev, &mut w);
        }
        // β = √(wᵀw): the complex-symmetric Lanczos coefficient
        let wtw = vecops::dot_t(&w, &w);
        let beta = csqrt(wtw);

        // apply the two previous rotations to the new tridiagonal column
        // [β_prev; α; β]
        let t1 = s_2 * beta_prev; // row j−2
        let pre = c_2 * beta_prev; // row j−1 (before rotation j−1)
        let t2 = c_1 * pre + s_1 * alpha; // row j−1 (final)
        let t4 = -s_1.conj() * pre + c_1.conj() * alpha; // row j (pre new rotation)
                                                         // new rotation annihilating β under t4
        let denom = (t4.norm_sqr() + beta.norm_sqr()).sqrt();
        let (c_new, s_new) = if denom > 0.0 {
            if t4.norm() > 0.0 {
                let c = C64::new(t4.norm() / denom, 0.0);
                let s = (t4 / C64::new(t4.norm(), 0.0)) * beta.conj() / C64::new(denom, 0.0);
                (c, s)
            } else {
                (zero, one)
            }
        } else {
            (one, zero)
        };
        let diag = c_new * t4 + s_new * beta;

        // direction update: d = (v − t2·d_prev − t1·d_prev2) / diag
        if diag.norm() < 1e-300 {
            report.breakdowns += 1;
            break;
        }
        let mut d = v.clone();
        vecops::axpy(-t2, &d_prev, &mut d);
        vecops::axpy(-t1, &d_prev2, &mut d);
        let inv_diag = one / diag;
        vecops::scal(inv_diag, &mut d);

        // solution update with the rotated rhs
        let tau_this = c_new * tau;
        let tau_next = -s_new.conj() * tau;
        vecops::axpy(tau_this, &d, &mut x);

        // quasi-residual bound: ‖r_j‖ ≤ √(j+1)·|τ_{j+1}| (the √ factor is
        // kept for the convergence trigger; the recorded history is the
        // monotone |τ| itself)
        quasi = tau_next.norm() * ((iter + 1) as f64).sqrt();
        report.iterations = iter;
        if opts.track_residuals {
            report.residual_history.push(tau_next.norm() / b_norm);
        }

        // true-residual convergence check when the bound crosses the
        // tolerance or on the cadence
        if quasi / b_norm <= opts.tol || iter.is_multiple_of(opts.check_every.max(1)) {
            op.apply(&x, &mut r);
            report.matvecs += 1;
            for (ri, &bi) in r.iter_mut().zip(b.iter()) {
                *ri = bi - *ri;
            }
            report.relative_residual = vecops::norm2(&r) / b_norm;
            if report.relative_residual <= opts.tol {
                report.converged = true;
                return (x, report);
            }
        }

        if beta.norm() < 1e-300 {
            // invariant subspace reached: the true residual check above is
            // authoritative; if it did not pass we cannot proceed
            report.breakdowns += 1;
            break;
        }

        // advance Lanczos and rotation state
        let inv_beta = one / beta;
        v_prev.copy_from_slice(&v);
        v.copy_from_slice(&w);
        vecops::scal(inv_beta, &mut v);
        beta_prev = beta;
        s_2 = s_1;
        c_2 = c_1;
        s_1 = s_new;
        c_1 = c_new;
        tau = tau_next;
        d_prev2 = std::mem::replace(&mut d_prev, d);
    }

    // final true residual
    op.apply(&x, &mut r);
    report.matvecs += 1;
    for (ri, &bi) in r.iter_mut().zip(b.iter()) {
        *ri = bi - *ri;
    }
    report.relative_residual = vecops::norm2(&r) / b_norm;
    report.converged = report.relative_residual <= opts.tol;
    let _ = quasi; // the bound's last value is superseded by the true residual
    (x, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{rand_c, test_operator};
    use mbrpa_linalg::Mat;
    use mbrpa_solver::{block_cocg, CocgOptions};

    #[test]
    fn solves_well_conditioned_system() {
        let op = test_operator(40, 4.0, 0.8, 1);
        let b = rand_c(40, 2);
        let opts = QmrOptions {
            tol: 1e-10,
            ..QmrOptions::default()
        };
        let (x, rep) = qmr_sym(&op, &b, None, &opts);
        assert!(rep.converged, "{rep:?}");
        let bm = Mat::col_vector(b);
        let xm = Mat::col_vector(x);
        assert!(mbrpa_solver::true_relative_residual(&op, &bm, &xm) < 1e-9);
    }

    #[test]
    fn agrees_with_cocg() {
        let op = test_operator(30, 3.0, 0.5, 3);
        let b = rand_c(30, 4);
        let (xq, rq) = qmr_sym(
            &op,
            &b,
            None,
            &QmrOptions {
                tol: 1e-11,
                ..QmrOptions::default()
            },
        );
        let bm = Mat::col_vector(b);
        let (xc, rc) = block_cocg(&op, &bm, None, &CocgOptions::with_tol(1e-11));
        assert!(rq.converged && rc.converged);
        for (a, c) in xq.iter().zip(xc.col(0)) {
            assert!((*a - *c).norm() < 1e-8, "{a} vs {c}");
        }
    }

    #[test]
    fn handles_indefinite_system() {
        // the hard Sternheimer regime: indefinite with a small iω shift
        let op = test_operator(60, 0.0, 0.05, 5);
        let b = rand_c(60, 6);
        let opts = QmrOptions {
            tol: 1e-8,
            max_iters: 5000,
            ..QmrOptions::default()
        };
        let (x, rep) = qmr_sym(&op, &b, None, &opts);
        assert!(rep.converged, "{rep:?}");
        let bm = Mat::col_vector(b);
        let xm = Mat::col_vector(x);
        assert!(mbrpa_solver::true_relative_residual(&op, &bm, &xm) < 1e-6);
    }

    #[test]
    fn quasi_residual_history_is_smoother_than_cocg() {
        // QMR's defining property vs COCG: a (quasi-)monotone residual
        let op = test_operator(50, 0.5, 0.1, 7);
        let b = rand_c(50, 8);
        let (_, rq) = qmr_sym(
            &op,
            &b,
            None,
            &QmrOptions {
                tol: 1e-9,
                max_iters: 3000,
                track_residuals: true,
                ..QmrOptions::default()
            },
        );
        assert!(rq.converged);
        // |τ| is monotone non-increasing by construction (|s| ≤ 1)
        for w in rq.residual_history.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-12),
                "quasi-residual must not increase: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn exact_guess_converges_immediately() {
        let op = test_operator(20, 5.0, 0.9, 9);
        let b = rand_c(20, 10);
        let (x, r1) = qmr_sym(
            &op,
            &b,
            None,
            &QmrOptions {
                tol: 1e-10,
                ..QmrOptions::default()
            },
        );
        assert!(r1.converged);
        let (_, r2) = qmr_sym(
            &op,
            &b,
            Some(&x),
            &QmrOptions {
                tol: 1e-8,
                ..QmrOptions::default()
            },
        );
        assert!(r2.converged);
        assert_eq!(r2.iterations, 0);
    }

    #[test]
    fn zero_rhs() {
        let op = test_operator(10, 2.0, 0.3, 11);
        let b = vec![C64::new(0.0, 0.0); 10];
        let (x, rep) = qmr_sym(&op, &b, None, &QmrOptions::default());
        assert!(rep.converged);
        assert!(x.iter().all(|z| z.norm() == 0.0));
    }
}
