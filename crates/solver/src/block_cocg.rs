//! Block conjugate orthogonal conjugate gradient (block COCG) —
//! Algorithm 3 of the paper.
//!
//! COCG exploits complex symmetry `A = Aᵀ` to run a three-term recurrence
//! using the *unconjugated* bilinear form `⟨x, y⟩ = xᵀy`, giving a
//! short-term-recurrence Krylov method for the Sternheimer matrices
//! `H − λI + iωI` where GMRES would grow its basis without bound. This
//! block extension treats `s` right-hand sides simultaneously: per
//! iteration it costs one block operator application (line 6), five
//! `O(n·s²)` matrix-matrix products (lines 5, 7, 9, 10, 11), and two
//! `O(s³)` solves (lines 8, 12), exactly the cost model of §III-B.
//!
//! The χ⁰ Sternheimer chunks run in real arithmetic
//! ([`crate::shifted_block_lanczos`]), so block COCG runs where right-hand
//! sides are complex ([`crate::solve_multi_rhs`]), as the real block
//! solve's breakdown hand-off, and as the tests' reference for both real
//! solves. It has one body at every width: the products are the packed
//! GEMM and Gram drivers of `mbrpa-linalg`.
//!
//! COCG has no optimality property in residual or error norms (§III-B), so
//! the Gram matrices `μ = PᵀAP` and `ρ = WᵀW` can become numerically
//! singular ("breakdown"). We detect this through the LU pivot-ratio
//! estimate and restart from the current iterate; a block that keeps
//! breaking down is split in half and each half finished on its own.
//!
//! The iteration loop is allocation-free in steady state: every
//! per-iteration temporary (`U = A·P`, the Gram matrices, the `s × s`
//! equilibrated solves, the direction update) draws from a [`Workspace`]
//! buffer pool, so repeated per-frequency solves touch the allocator only
//! while warming the pool. [`block_cocg`] uses the calling thread's
//! persistent pool; [`block_cocg_ws`] accepts an explicit one.

use crate::operator::LinearOperator;
use crate::stats::SolveReport;
use crate::workspace::{with_thread_workspace, Workspace};
use mbrpa_linalg::{
    exactly_zero, factor_solve_in_place, matmul_into, matmul_tn_into, Mat, Scalar, C64,
};

/// Options for [`block_cocg`].
#[derive(Clone, Copy, Debug)]
pub struct CocgOptions {
    /// Relative Frobenius tolerance `τ_Sternheimer` (Eq. 10).
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Record the relative residual after every iteration into
    /// [`SolveReport::residual_history`] (convergence studies only).
    pub track_residuals: bool,
}

impl Default for CocgOptions {
    fn default() -> Self {
        Self {
            tol: 1e-2, // the paper's production Sternheimer tolerance
            max_iters: 500,
            track_residuals: false,
        }
    }
}

impl CocgOptions {
    /// Same options with a different tolerance.
    pub fn with_tol(tol: f64) -> Self {
        Self {
            tol,
            ..Self::default()
        }
    }
}

/// Pivot-ratio threshold at or under which an equilibrated Gram matrix is
/// declared broken.
pub(crate) const BREAKDOWN_RCOND: f64 = 1e-13;

/// Breakdown restarts one solve allows before it gives up on the block
/// (and, for `s > 1`, splits it in half).
pub const MAX_BREAKDOWNS: usize = 4;

/// Solve the `s×s` system `G X = R` after symmetric diagonal equilibration
/// `G̃ = S G S` with `S = diag(1/√|g_jj|)`: block residual columns converge
/// at different rates, so raw Gram matrices are badly scaled long before
/// they are genuinely rank-deficient. Returns `false` on a true breakdown
/// (exactly-zero pivot or pivot ratio at/below `rcond_floor`), leaving
/// `out` unspecified.
///
/// `G̃` and the scaled right-hand sides are solved in place by
/// [`factor_solve_in_place`] in a pooled buffer and in `out`; `scale` is
/// the caller's, reused every iteration.
fn equilibrated_solve_into(
    g: &Mat<C64>,
    r: &Mat<C64>,
    rcond_floor: f64,
    ws: &mut Workspace<C64>,
    scale: &mut Vec<f64>,
    out: &mut Mat<C64>,
) -> bool {
    let s = g.rows();
    debug_assert_eq!(g.cols(), s);
    debug_assert_eq!(r.rows(), s);
    debug_assert_eq!(out.shape(), (s, r.cols()));

    scale.clear();
    scale.resize(s, 1.0);
    for (j, sc) in scale.iter_mut().enumerate() {
        let d = g[(j, j)].norm();
        if d > 0.0 {
            *sc = 1.0 / d.sqrt();
        }
    }
    let mut lu = ws.take_scratch(s, s);
    for j in 0..s {
        for i in 0..s {
            lu[(i, j)] = g[(i, j)].scale(scale[i] * scale[j]);
        }
    }
    // X = S · G̃⁻¹ · (S R), solved in place in `out`. A NaN ratio is no
    // breakdown: the values behind it end the solve as a blow-up instead.
    for j in 0..r.cols() {
        for (i, v) in out.col_mut(j).iter_mut().enumerate() {
            *v = r[(i, j)].scale(scale[i]);
        }
    }
    let ok = factor_solve_in_place(s, lu.as_mut_slice(), out.as_mut_slice())
        .is_ok_and(|ratio| ratio > rcond_floor || ratio.is_nan());
    if ok {
        for col in out.as_mut_slice().chunks_exact_mut(s) {
            for (i, v) in col.iter_mut().enumerate() {
                *v = v.scale(scale[i]);
            }
        }
    }
    ws.give(lu);
    ok
}

/// Solve `A Y = B` for a block of right-hand sides with block COCG.
/// Returns the iterate and a [`SolveReport`]. A `None` initial guess means
/// `Y₀ = 0`.
///
/// Uses the calling thread's persistent [`Workspace`] pool, so repeated
/// solves (one per frequency point) run allocation-free after the first;
/// see [`block_cocg_ws`] to manage the pool explicitly.
///
/// ```
/// use mbrpa_linalg::{Mat, C64};
/// use mbrpa_solver::{block_cocg, CocgOptions, DenseOperator};
/// // a small complex-symmetric system A = diag(2+i, 3+i)
/// let a = Mat::from_fn(2, 2, |i, j| if i == j {
///     C64::new(2.0 + i as f64, 1.0)
/// } else {
///     C64::new(0.0, 0.0)
/// });
/// let op = DenseOperator::new(a);
/// let b = Mat::from_fn(2, 1, |_, _| C64::new(1.0, 0.0));
/// let (y, report) = block_cocg(&op, &b, None, &CocgOptions::with_tol(1e-12));
/// assert!(report.converged);
/// assert!((y[(0, 0)] - C64::new(1.0, 0.0) / C64::new(2.0, 1.0)).norm() < 1e-10);
/// ```
pub fn block_cocg(
    op: &dyn LinearOperator<C64>,
    b: &Mat<C64>,
    x0: Option<&Mat<C64>>,
    opts: &CocgOptions,
) -> (Mat<C64>, SolveReport) {
    with_thread_workspace(|ws| block_cocg_ws(op, b, x0, opts, ws))
}

/// `out[j] = ‖w_j‖²` (the dispatched lane-split reduction per column).
fn col_norms_sq(w: &Mat<C64>, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        w.col_iter()
            .map(|c| mbrpa_simd::nrm2_sq(C64::as_components(c))),
    );
}

/// [`block_cocg`] with an explicit [`Workspace`] buffer pool.
///
/// All per-iteration temporaries are taken from (and returned to) `ws`;
/// the pool is left balanced on exit, holding every buffer the solve
/// warmed up, so back-to-back calls at the same problem shape perform no
/// steady-state heap allocation. Per solve, the iterate is the one matrix
/// allocated — updated in place and returned — and `W` is the only copy
/// made of `B`, whatever the block width.
///
/// An iteration is `U = A·P`, the Gram product `μ = UᵀP`, the packed
/// GEMMs `X += P·α` and `W −= U·α`, the column norms `‖w_j‖²` and the
/// Gram product `ρ₊ = WᵀW`, then `P ← W + P·β`, at every width.
/// The residual norm and the blow-up guard both read
/// the `‖w_j‖²` and Gram entries those products yield: a non-finite value
/// there ends the solve with `converged = false`, and the iterate is
/// scanned once at exit so a non-finite `X` is never reported converged.
///
/// With [`CocgOptions::track_residuals`] the history holds one entry per
/// iteration and the start's, whatever ends the solve.
pub fn block_cocg_ws(
    op: &dyn LinearOperator<C64>,
    b: &Mat<C64>,
    x0: Option<&Mat<C64>>,
    opts: &CocgOptions,
    ws: &mut Workspace<C64>,
) -> (Mat<C64>, SolveReport) {
    let n = op.dim();
    let s = b.cols();
    assert_eq!(b.rows(), n, "rhs dimension mismatch");
    let mut report = SolveReport::new();

    let b_fro = b.fro_norm();
    if exactly_zero(b_fro) || s == 0 {
        report.solved_by_guess(opts);
        return (x0.cloned().unwrap_or_else(|| Mat::zeros(n, s)), report);
    }
    // The iterate, updated in place and returned.
    let mut x = match x0 {
        Some(g) => {
            assert_eq!(g.shape(), (n, s), "initial guess shape mismatch");
            g.clone()
        }
        None => Mat::zeros(n, s),
    };
    // ‖w_j‖² of every column, refreshed by each residual update.
    let mut w_sq: Vec<f64> = Vec::with_capacity(s);
    // Equilibration factors of the `s × s` solves.
    let mut scale: Vec<f64> = Vec::with_capacity(s);

    let one = C64::new(1.0, 0.0);
    let zero = C64::new(0.0, 0.0);

    // W = B − A·X (skip the operator application for a zero guess); `B`
    // itself is only read again by a breakdown restart.
    let mut w = ws.take_copy(b);
    if x0.is_some() {
        let mut ax = ws.take_scratch(n, s);
        op.apply_block(&x, &mut ax);
        report.matvecs += s;
        w.axpy(-one, &ax);
        ws.give(ax);
    }
    col_norms_sq(&w, &mut w_sq);

    let mut rho = ws.take_scratch(s, s);
    matmul_tn_into(&w, &w, &mut rho);
    let mut p: Mat<C64> = Mat::zeros(n, 0);
    let mut restart = true; // first iteration: P = W
    let mut blown_up = false;

    loop {
        // Global convergence check (Eq. 10 over the full block).
        let res = w_sq.iter().sum::<f64>().sqrt() / b_fro;
        debug_assert!(
            res.is_finite(),
            "non-finite block residual norm {res} at iteration {} — NaN \
             contamination must fail here, not as a wrong correlation energy",
            report.iterations
        );
        if report.test_iteration(res, opts) {
            break;
        }

        // Line 5 after a restart: P = W (otherwise `p` already holds
        // `W + P·β` from the end of the previous iteration).
        if restart {
            let p_new = ws.take_copy(&w);
            ws.give(std::mem::replace(&mut p, p_new));
            restart = false;
        }
        // Lines 6–7: U = A·P, then μ = UᵀP (= PᵀAP, complex symmetric)
        // while U is still in cache.
        let mut u = ws.take_scratch(n, s);
        op.apply_block(&p, &mut u);
        report.matvecs += s;
        let mut mu = ws.take_scratch(s, s);
        matmul_tn_into(&u, &p, &mut mu);
        if mu.has_bad_values() {
            // the operator returned NaN/Inf: stop before it reaches X
            ws.give(mu);
            ws.give(u);
            blown_up = true;
            report.iterations += 1;
            break;
        }

        // Line 8: α = μ⁻¹ρ, guarded against breakdown.
        let mut alpha = ws.take_scratch(s, s);
        let alpha_ok =
            equilibrated_solve_into(&mu, &rho, BREAKDOWN_RCOND, ws, &mut scale, &mut alpha);
        ws.give(mu);
        if !alpha_ok {
            ws.give(alpha);
            ws.give(u);
            report.breakdowns += 1;
            report.iterations += 1;
            if report.breakdowns > MAX_BREAKDOWNS {
                break;
            }
            // restart: fresh residual from the current iterate
            let mut ax = ws.take_scratch(n, s);
            op.apply_block(&x, &mut ax);
            report.matvecs += s;
            w.as_mut_slice().copy_from_slice(b.as_slice());
            w.axpy(-one, &ax);
            ws.give(ax);
            col_norms_sq(&w, &mut w_sq);
            matmul_tn_into(&w, &w, &mut rho);
            restart = true;
            continue;
        }

        // Lines 9–11: X += P·α, W −= U·α, ρ₊ = WᵀW and the column norms
        // of the new residual.
        let mut rho_next = ws.take_scratch(s, s);
        matmul_into(one, &p, &alpha, one, &mut x);
        matmul_into(-one, &u, &alpha, one, &mut w);
        col_norms_sq(&w, &mut w_sq);
        matmul_tn_into(&w, &w, &mut rho_next);
        ws.give(alpha);
        ws.give(u);
        if !w_sq.iter().all(|v| v.is_finite()) || rho_next.has_bad_values() {
            // numerical blow-up: surface as non-convergence
            ws.give(rho_next);
            blown_up = true;
            report.iterations += 1;
            break;
        }

        // Line 12: β = ρ⁻¹ρ₊, then line 5 for the next round.
        let mut beta = ws.take_scratch(s, s);
        let beta_ok =
            equilibrated_solve_into(&rho, &rho_next, BREAKDOWN_RCOND, ws, &mut scale, &mut beta);
        if beta_ok {
            // P ← W + P·β
            let mut p_next = ws.take_scratch(n, s);
            matmul_into(one, &p, &beta, zero, &mut p_next);
            p_next.axpy(one, &w);
            ws.give(std::mem::replace(&mut p, p_next));
            ws.give(beta);
        } else {
            ws.give(beta);
            report.breakdowns += 1;
            if report.breakdowns > MAX_BREAKDOWNS {
                report.iterations += 1;
                ws.give(rho_next);
                break;
            }
            restart = true;
        }
        ws.give(std::mem::replace(&mut rho, rho_next));
        report.iterations += 1;
    }

    // An iteration that broke off records the residual it left, so the
    // history keeps one entry per iteration and the start's.
    if opts.track_residuals && report.residual_history.len() == report.iterations {
        report.log_residual(w_sq.iter().sum::<f64>().sqrt() / b_fro, true);
    }

    // The one scan of the iterate: X can overflow while W stays finite,
    // and must not pass for a solution when it did.
    blown_up |= x.has_bad_values();
    if blown_up {
        report.converged = false;
    }

    ws.give(w);
    ws.give(p);
    ws.give(rho);

    // Persistent breakdowns with s > 1 mean the block residuals became
    // linearly dependent faster than the recurrence could use them: split
    // the block in half and finish each part from the current iterate
    // (width-1 COCG cannot block-break down). A blown-up iterate is no
    // starting point for anything.
    if !report.converged && !blown_up && report.breakdowns > MAX_BREAKDOWNS && s > 1 {
        let remaining = opts.max_iters.saturating_sub(report.iterations);
        if remaining > 0 {
            let half = s / 2;
            let sub_opts = CocgOptions {
                max_iters: remaining,
                ..*opts
            };
            let [(norm1, rep1), (norm2, rep2)] =
                [(0, half), (half, s - half)].map(|(start, count)| {
                    let b_sub = b.columns(start, count);
                    let g_sub = x.columns(start, count);
                    let (x_sub, rep) = block_cocg_ws(op, &b_sub, Some(&g_sub), &sub_opts, ws);
                    x.set_columns(start, &x_sub);
                    (b_sub.fro_norm(), rep)
                });
            for rep in [&rep1, &rep2] {
                report.iterations += rep.iterations;
                report.matvecs += rep.matvecs;
                report.breakdowns += rep.breakdowns;
            }
            report.converged = rep1.converged && rep2.converged;
            // The block's ‖W‖_F/‖B‖_F from the halves' absolute residuals.
            // They run one after the other, so while one iterates the
            // other's residual is its start (first half) or its end.
            let whole = |r1: f64, r2: f64| (r1 * norm1).hypot(r2 * norm2) / b_fro;
            report.relative_residual = whole(rep1.relative_residual, rep2.relative_residual);
            if opts.track_residuals {
                let (h1, h2) = (&rep1.residual_history, &rep2.residual_history);
                let (end1, start2) = (h1[h1.len() - 1], h2[0]);
                report.restart_history(
                    h1.iter()
                        .map(|&r1| whole(r1, start2))
                        .chain(h2[1..].iter().map(|&r2| whole(end1, r2))),
                );
            }
        }
    }
    (x, report)
}

/// Single right-hand-side COCG (the `s = 1` reduction of Algorithm 3).
pub fn cocg(
    op: &dyn LinearOperator<C64>,
    b: &[C64],
    x0: Option<&[C64]>,
    opts: &CocgOptions,
) -> (Vec<C64>, SolveReport) {
    let bm = Mat::col_vector(b.to_vec());
    let x0m = x0.map(|g| Mat::col_vector(g.to_vec()));
    let (x, report) = block_cocg(op, &bm, x0m.as_ref(), opts);
    (x.into_vec(), report)
}

/// True relative residual `‖B − AX‖_F / ‖B‖_F` (verification helper; one
/// extra block application).
pub fn true_relative_residual(op: &dyn LinearOperator<C64>, b: &Mat<C64>, x: &Mat<C64>) -> f64 {
    let mut ax = Mat::zeros(b.rows(), b.cols());
    op.apply_block(x, &mut ax);
    ax.axpy(-C64::new(1.0, 0.0), b);
    let b_fro = b.fro_norm();
    if exactly_zero(b_fro) {
        0.0
    } else {
        ax.fro_norm() / b_fro
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{rand_rhs, test_operator};

    #[test]
    fn solves_well_conditioned_block() {
        let op = test_operator(40, 5.0, 1.0, 1);
        let b = rand_rhs(40, 4, 2);
        let opts = CocgOptions::with_tol(1e-10);
        let (x, report) = block_cocg(&op, &b, None, &opts);
        assert!(report.converged, "report: {report:?}");
        let res = true_relative_residual(&op, &b, &x);
        assert!(res < 1e-8, "true residual {res}");
    }

    #[test]
    fn single_rhs_cocg_matches_block_width_one() {
        let op = test_operator(30, 4.0, 0.5, 3);
        let b = rand_rhs(30, 1, 4);
        let opts = CocgOptions::with_tol(1e-10);
        let (xb, _) = block_cocg(&op, &b, None, &opts);
        let (xv, report) = cocg(&op, b.col(0), None, &opts);
        assert!(report.converged);
        for (a, c) in xb.col(0).iter().zip(xv.iter()) {
            assert!((*a - *c).norm() < 1e-8);
        }
    }

    #[test]
    fn initial_guess_accelerates() {
        let op = test_operator(50, 3.0, 0.8, 5);
        let b = rand_rhs(50, 2, 6);
        let opts = CocgOptions::with_tol(1e-8);
        let (x, r1) = block_cocg(&op, &b, None, &opts);
        // restarting from the solution converges immediately (looser
        // tolerance guards against recurrence-vs-true residual drift)
        let (_, r2) = block_cocg(&op, &b, Some(&x), &CocgOptions::with_tol(1e-6));
        assert!(r2.converged);
        assert_eq!(r2.iterations, 0, "exact guess should converge at once");
        assert!(r1.iterations > 0);
    }

    #[test]
    fn indefinite_system_still_converges() {
        // shift the spectrum to straddle zero (hard (j,k) pair regime) —
        // only the imaginary shift keeps it nonsingular
        let op = test_operator(60, 0.0, 0.05, 7);
        let b = rand_rhs(60, 3, 8);
        let opts = CocgOptions {
            tol: 1e-8,
            max_iters: 2000,
            ..CocgOptions::default()
        };
        let (x, report) = block_cocg(&op, &b, None, &opts);
        assert!(report.converged, "report: {report:?}");
        assert!(true_relative_residual(&op, &b, &x) < 1e-6);
    }

    #[test]
    fn larger_block_does_not_need_more_iterations() {
        // O'Leary-style behaviour: block size grows → iteration count
        // (weakly) shrinks for a fixed matrix
        let op = test_operator(80, 0.2, 0.1, 9);
        let opts = CocgOptions {
            tol: 1e-6,
            max_iters: 4000,
            ..CocgOptions::default()
        };
        let b4 = rand_rhs(80, 4, 10);
        let (_, r4) = block_cocg(&op, &b4, None, &opts);
        let b1 = b4.columns(0, 1);
        let (_, r1) = block_cocg(&op, &b1, None, &opts);
        assert!(r4.converged && r1.converged);
        assert!(
            r4.iterations <= r1.iterations + 2,
            "block {} vs single {}",
            r4.iterations,
            r1.iterations
        );
    }

    #[test]
    fn zero_rhs_trivially_converged() {
        let op = test_operator(10, 2.0, 0.3, 11);
        let b = Mat::zeros(10, 2);
        let (x, report) = block_cocg(&op, &b, None, &CocgOptions::default());
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
        assert_eq!(x.fro_norm(), 0.0);
    }

    #[test]
    fn iteration_cap_reports_nonconvergence() {
        let op = test_operator(50, 0.0, 0.01, 13);
        let b = rand_rhs(50, 2, 14);
        let opts = CocgOptions {
            tol: 1e-14,
            max_iters: 2,
            ..CocgOptions::default()
        };
        let (_, report) = block_cocg(&op, &b, None, &opts);
        assert!(!report.converged);
        assert!(report.iterations <= 3);
        assert!(report.relative_residual > 1e-14);
    }

    #[test]
    fn residual_history_records_the_descent() {
        let op = test_operator(30, 4.0, 0.6, 21);
        let b = rand_rhs(30, 2, 22);
        let opts = CocgOptions {
            tol: 1e-9,
            track_residuals: true,
            ..CocgOptions::default()
        };
        let (_, rep) = block_cocg(&op, &b, None, &opts);
        assert!(rep.converged);
        // one entry per convergence check (iterations + final check)
        assert_eq!(rep.residual_history.len(), rep.iterations + 1);
        assert!(rep.residual_history[0] > rep.residual_history[rep.iterations]);
        assert!(*rep.residual_history.last().unwrap() <= opts.tol);
        // off by default
        let (_, rep2) = block_cocg(&op, &b, None, &CocgOptions::with_tol(1e-9));
        assert!(rep2.residual_history.is_empty());
    }

    #[test]
    fn recurrence_residual_tracks_true_residual() {
        let op = test_operator(35, 2.0, 0.4, 17);
        let b = rand_rhs(35, 3, 18);
        let opts = CocgOptions::with_tol(1e-9);
        let (x, report) = block_cocg(&op, &b, None, &opts);
        let true_res = true_relative_residual(&op, &b, &x);
        assert!(
            (true_res - report.relative_residual).abs() < 1e-6,
            "recurrence {} vs true {}",
            report.relative_residual,
            true_res
        );
    }

    /// Singular and near-singular Gram matrices must be rejected: zero
    /// pivot or tiny pivot ratio.
    #[test]
    fn inplace_gauss_flags_breakdown() {
        let mut ws = Workspace::new();
        let mut scale = Vec::new();
        let mut out = ws.take_zeroed(3, 1);
        // rank-1: exactly singular
        let g = Mat::from_fn(3, 3, |i, j| C64::new(((i + 1) * (j + 1)) as f64, 0.0));
        let r = Mat::from_fn(3, 1, |i, _| C64::new(i as f64, 0.0));
        assert!(!equilibrated_solve_into(
            &g, &r, 1e-13, &mut ws, &mut scale, &mut out
        ));
        // well-conditioned but rejected by an aggressive rcond floor
        let id = Mat::from_fn(3, 3, |i, j| {
            if i == j {
                C64::new(1.0, 0.0)
            } else {
                C64::new(0.0, 0.0)
            }
        });
        assert!(!equilibrated_solve_into(
            &id, &r, 1.0, &mut ws, &mut scale, &mut out
        ));
        assert!(equilibrated_solve_into(
            &id, &r, 1e-13, &mut ws, &mut scale, &mut out
        ));
        assert_eq!(out, r);
        ws.give(out);
    }

    /// A second solve at the same shape must be served entirely from the
    /// pool: the workspace's fresh-allocation count stays flat.
    #[test]
    fn repeat_solves_reuse_the_workspace_pool() {
        let op = test_operator(40, 5.0, 1.0, 31);
        let b = rand_rhs(40, 4, 32);
        let opts = CocgOptions::with_tol(1e-10);
        let mut ws = Workspace::new();
        let (_, r1) = block_cocg_ws(&op, &b, None, &opts, &mut ws);
        assert!(r1.converged);
        let warm = ws.fresh_allocs();
        assert!(warm > 0);
        let (x, r2) = block_cocg_ws(&op, &b, None, &opts, &mut ws);
        assert!(r2.converged);
        assert_eq!(
            ws.fresh_allocs(),
            warm,
            "warm solve must not take fresh buffers"
        );
        assert!(true_relative_residual(&op, &b, &x) < 1e-8);
    }
}
