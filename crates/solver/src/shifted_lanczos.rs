//! Sternheimer solves in real arithmetic.
//!
//! For `A = R + iω` with `R` real symmetric and a real right-hand side,
//! every COCG residual is a complex scalar times a real Lanczos vector of
//! `R`: `K_m(R + iω, b) = K_m(R, b)`. The solve here runs the real
//! three-term Lanczos recurrence on `R`, carries the `LU` factors of the
//! complex tridiagonal `T_k + iω` as scalars (pivots `δ_k`, forward
//! substitution `ζ_k`) and accumulates only `Re x` along the complex
//! directions `d_k = (q_k − β_k d_{k−1})/δ_k`. Its iterates are COCG's:
//! the residual norm is `β_{k+1}|ζ_k/δ_k|`, tested against the same
//! `tol·‖b‖` at the same step, so iteration counts agree with
//! [`block_cocg_ws`](crate::block_cocg_ws) at `s = 1`
//! (`tests/proptest_solver.rs`). `Im δ_k ≥ ω > 0`, so no pivot vanishes
//! and there is no breakdown to guard.
//!
//! Two right-hand sides share every vector — one in the `re`, one in the
//! `im` slot of a `C64` — so one complex apply of `R` serves both and a
//! step is the apply plus the two `mbrpa-simd` passes.

use crate::block_cocg::CocgOptions;
use crate::operator::LinearOperator;
use crate::stats::SolveReport;
use crate::workspace::Workspace;
use mbrpa_linalg::{exactly_zero, Mat, Scalar, C64};
use mbrpa_simd::PairStep;

/// A complex-symmetric operator that is `R + iω·I` with `R` real
/// symmetric: what the real-arithmetic solve can take in place of
/// [`LinearOperator::apply`].
pub trait RealShifted: LinearOperator<C64> {
    /// The imaginary shift `ω > 0`.
    fn omega(&self) -> f64;

    /// `y = R x` for two real vectors at once, one in the `re` slots of
    /// `x` and one in the `im` slots; the two must not mix. Every entry
    /// of `y` is overwritten and none is read.
    fn apply_real_pair(&self, x: &[C64], y: &mut [C64]);
}

/// Where a solve leaves `Re x`: called once per solved column with the
/// column's index in `b`, a vector, and the slot (`0` = `re`, `1` = `im`)
/// of that vector holding the column's values.
pub type ReSink<'a> = dyn FnMut(usize, &[C64], usize) + 'a;

/// Scalar state of one slot.
struct Lane {
    active: bool,
    b_norm: f64,
    /// `β_k = ‖v_k‖` and `β_{k−1}`.
    beta: f64,
    beta_prev: f64,
    /// Last pivot `δ_{k−1}` and forward-substituted entry `ζ_{k−1}`.
    delta: C64,
    zeta: C64,
    /// Residual norm `‖b − A x_k‖`.
    res: f64,
    report: SolveReport,
}

impl Lane {
    fn new(b_norm: f64, r_norm: f64) -> Self {
        let mut report = SolveReport::new();
        // a zero right-hand side is solved by its guess, as in Alg. 3
        let solved = exactly_zero(b_norm);
        if solved {
            report.converged = true;
            report.relative_residual = 0.0;
        }
        Self {
            active: !solved,
            b_norm,
            beta: r_norm,
            beta_prev: 0.0,
            delta: C64::new(0.0, 0.0),
            zeta: C64::new(0.0, 0.0),
            res: r_norm,
            report,
        }
    }

    /// Eq. 10 for this slot, at the point of the loop Alg. 3 tests it.
    fn check(&mut self, opts: &CocgOptions) {
        let rel = self.res / self.b_norm;
        self.report.relative_residual = rel;
        if opts.track_residuals {
            self.report.residual_history.push(rel);
        }
        if rel <= opts.tol {
            self.report.converged = true;
            self.active = false;
        } else if self.report.iterations >= opts.max_iters {
            self.active = false;
        }
    }

    /// Step `k` of the `LU` of `T_k + iω` given `α_k`: the new pivot and
    /// `ζ_k`, and this slot's coefficients of the second pass.
    fn advance(&mut self, alpha: f64, omega: f64, l: usize, k: &mut PairStep) {
        let first = self.report.iterations == 0;
        if first {
            self.delta = C64::new(alpha, omega);
            self.zeta = C64::new(self.beta, 0.0);
        } else {
            let ell = C64::new(self.beta, 0.0) / self.delta;
            self.delta = C64::new(alpha, omega) - ell.scale(self.beta);
            self.zeta = -(ell * self.zeta);
        }
        let eta = C64::new(1.0, 0.0) / self.delta;
        let t = eta.unscale(self.beta);
        let g = if first {
            C64::new(0.0, 0.0)
        } else {
            eta.scale(self.beta)
        };
        k.a[l] = alpha / self.beta;
        (k.t_re[l], k.t_im[l]) = (t.re, t.im);
        (k.g_re[l], k.g_im[l]) = (g.re, g.im);
        (k.z_re[l], k.z_im[l]) = (self.zeta.re, self.zeta.im);
    }

    /// Close step `k` with `β²_{k+1}`.
    fn close(&mut self, beta_sq: f64) {
        self.beta_prev = self.beta;
        self.beta = beta_sq.sqrt();
        self.res = self.beta * (self.zeta / self.delta).norm();
        self.report.iterations += 1;
    }
}

fn comps(m: &Mat<C64>) -> &[f64] {
    C64::as_components(m.as_slice())
}

fn comps_mut(m: &mut Mat<C64>) -> &mut [f64] {
    C64::as_components_mut(m.as_mut_slice())
}

/// Solve `(R + iω) x = b_c` for the columns `c` of the real block `b`
/// named in `cols` (one or two, any two, slot `l` taking `cols[l]`) and
/// hand `Re x` of each to `sink`.
///
/// The slots never mix: a column's `Re x`, iterations and matvecs are
/// the same lone, beside its neighbour or beside any other column
/// (`tests/proptest_solver.rs`), as long as both stay finite — a
/// non-finite value in either stops both. `guess`, when given, is
/// `[Re X₀ | Im X₀]` (`n × 2·b.cols()`); the solve starts from the real
/// part of its residual, `b − R·Re X₀ + ω·Im X₀`, and drops the imaginary
/// part `−(R·Im X₀ + ω·Re X₀)` — zero for the Galerkin guess of Eq. 13 up
/// to the Kohn–Sham eigen-residual. The six work vectors come from `ws`
/// and go back to it. Reports count as Alg. 3's do: one matvec per slot
/// for the residual of a guess and one per iteration a slot was still
/// iterating; a slot that converged rides along idle. The caller folds
/// them into its `WorkerStats` as it uses them.
pub fn shifted_lanczos_pair(
    op: &dyn RealShifted,
    b: &Mat<f64>,
    guess: Option<&Mat<f64>>,
    cols: &[usize],
    opts: &CocgOptions,
    ws: &mut Workspace<C64>,
    sink: &mut ReSink<'_>,
) -> [SolveReport; 2] {
    let n = op.dim();
    let w = b.cols();
    assert_eq!(b.rows(), n, "rhs dimension mismatch");
    assert!(
        (1..=2).contains(&cols.len()) && cols.iter().all(|&c| c < w),
        "no such columns"
    );
    if let Some(g) = guess {
        assert_eq!(g.shape(), (n, 2 * w), "guess is not [Re | Im]");
    }
    let omega = op.omega();

    let mut x = ws.take_zeroed(n, 1);
    let mut y = ws.take_scratch(n, 1);
    let mut v = ws.take_zeroed(n, 1);
    let mut v_prev = ws.take_zeroed(n, 1);
    let mut d_re = ws.take_zeroed(n, 1);
    let mut d_im = ws.take_zeroed(n, 1);

    // v = b − R·Re X₀ + ω·Im X₀ and x = Re X₀, slot by slot
    if let Some(g) = guess {
        let xs = comps_mut(&mut x);
        for (l, &c) in cols.iter().enumerate() {
            for (xi, &gi) in xs[l..].iter_mut().step_by(2).zip(g.col(c)) {
                *xi = gi;
            }
        }
        op.apply_real_pair(x.col(0), y.col_mut(0));
    }
    let mut b_sq = [0.0; 2];
    {
        let (vs, ys) = (comps_mut(&mut v), comps(&y));
        for (l, &c) in cols.iter().enumerate() {
            let bc = b.col(c);
            b_sq[l] = mbrpa_simd::nrm2_sq(bc);
            let im = guess.map(|g| g.col(w + c));
            for (i, (vi, &bi)) in vs[l..].iter_mut().step_by(2).zip(bc).enumerate() {
                *vi = im.map_or(bi, |im| (bi - ys[2 * i + l]) + omega * im[i]);
            }
        }
    }
    // ‖v‖² per slot: the first pass at unit scale on a copy of `v` sums v·v
    y.as_mut_slice().copy_from_slice(v.as_slice());
    let r_sq = mbrpa_simd::lanczos_pair_project(
        [1.0; 2],
        [0.0; 2],
        comps(&v_prev),
        comps(&v),
        comps_mut(&mut y),
    );
    let mut lane = [0, 1].map(|l| Lane::new(b_sq[l].sqrt(), r_sq[l].sqrt()));
    if guess.is_some() {
        for st in lane.iter_mut().filter(|st| st.active) {
            st.report.matvecs += 1;
        }
    }

    loop {
        for st in lane.iter_mut().filter(|st| st.active) {
            st.check(opts);
        }
        if !lane.iter().any(|st| st.active) {
            break;
        }
        op.apply_real_pair(v.col(0), y.col_mut(0));

        // u = R q_k − β_k q_{k−1} and β_k α_k; an idle slot decays to zero
        let (mut s, mut c) = ([0.0; 2], [0.0; 2]);
        for (l, st) in lane.iter_mut().enumerate().filter(|(_, st)| st.active) {
            st.report.matvecs += 1;
            s[l] = 1.0 / st.beta;
            if st.report.iterations > 0 {
                c[l] = st.beta / st.beta_prev;
            }
        }
        let dots =
            mbrpa_simd::lanczos_pair_project(s, c, comps(&v_prev), comps(&v), comps_mut(&mut y));
        let mut step = PairStep::default();
        for (l, st) in lane.iter_mut().enumerate().filter(|(_, st)| st.active) {
            st.advance(dots[l] / st.beta, omega, l, &mut step);
        }
        // v_{k+1}, β²_{k+1}, d_k and Re x in one sweep
        let beta_sq = if dots.iter().all(|d| d.is_finite()) {
            mbrpa_simd::lanczos_pair_advance(
                &step,
                comps(&v),
                comps_mut(&mut y),
                comps_mut(&mut d_re),
                comps_mut(&mut d_im),
                comps_mut(&mut x),
            )
        } else {
            [f64::NAN; 2]
        };
        let mut finite = true;
        for (l, st) in lane.iter_mut().enumerate().filter(|(_, st)| st.active) {
            st.close(beta_sq[l]);
            finite &= st.res.is_finite();
        }
        if !finite {
            // the operator or the recurrence left the reals: no slot still
            // iterating can be trusted, and none may reach the operator again
            for st in lane.iter_mut().filter(|st| st.active) {
                st.report.relative_residual = st.res / st.b_norm;
                st.active = false;
            }
            break;
        }
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut v, &mut y);
    }

    for (l, &c) in cols.iter().enumerate() {
        sink(c, x.col(0), l);
    }
    for m in [x, y, v, v_prev, d_re, d_im] {
        ws.give(m);
    }
    lane.map(|st| st.report)
}
