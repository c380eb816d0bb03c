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
//!
//! A chunk of `s ≥ 2` columns runs the block analogue,
//! [`shifted_block_lanczos`]: real block Lanczos on `R` with the block
//! `LU` of `T_k + iω` in `s × s` matrices, block COCG's iterates, the
//! columns packed two to a `C64` vector the same way.

use crate::block_cocg::{block_cocg_ws, CocgOptions, BREAKDOWN_RCOND};
use crate::operator::LinearOperator;
use crate::stats::SolveReport;
use crate::workspace::Workspace;
use mbrpa_linalg::{exactly_zero, factor_solve_in_place, Mat, Scalar, C64};
use mbrpa_simd::{BlockStep, PairStep};
use std::ops::Range;

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
    fn new(b_norm: f64, r_norm: f64, opts: &CocgOptions) -> Self {
        let mut report = SolveReport::new();
        let solved = exactly_zero(b_norm);
        if solved {
            report.solved_by_guess(opts);
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
        if self.report.test_iteration(self.res / self.b_norm, opts) {
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

/// Column `c` of a pair-packed block of `n`-long vectors: slot `c % 2` of
/// vector `c / 2`.
fn slot(block: &mut [f64], n: usize, c: usize) -> impl Iterator<Item = &mut f64> {
    let q = 2 * n * (c / 2);
    block[q + c % 2..q + 2 * n].iter_mut().step_by(2)
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
    let mut lane = [0, 1].map(|l| Lane::new(b_sq[l].sqrt(), r_sq[l].sqrt(), opts));
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

/// `out = a·b`, or `a·bᵀ` where `tb` says so, `s × s` and column-major.
/// Each entry sums over `l` in order from its first product: `Iterator::sum`
/// seeds an `f64` sum with `−0.0`, and `−0.0 + p = p`, so these are the
/// bits such a sum gives.
fn mul_nx(s: usize, a: &[f64], b: &[f64], tb: bool, out: &mut [f64]) {
    for (j, oj) in out.chunks_exact_mut(s).enumerate() {
        for (l, al) in a.chunks_exact(s).enumerate() {
            let blj = if tb { b[j + s * l] } else { b[l + s * j] };
            for (o, &x) in oj.iter_mut().zip(al) {
                *o = if l == 0 { x * blj } else { *o + x * blj };
            }
        }
    }
}

/// `out = aᵀ·b`, summed as [`mul_nx`] sums.
fn mul_tn(s: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    for (bj, oj) in b.chunks_exact(s).zip(out.chunks_exact_mut(s)) {
        for (ai, o) in a.chunks_exact(s).zip(oj.iter_mut()) {
            let terms = ai.iter().zip(bj).skip(1);
            *o = terms.fold(ai[0] * bj[0], |acc, (x, y)| acc + x * y);
        }
    }
}

/// Cholesky QR of `U` from its Gram matrix `g = UᵀU`: `beta` upper
/// triangular with `βᵀβ = g` and `b_inv = β⁻¹`, each `√g_jj` computed once
/// into `d`. `false` when `U` is rank-deficient — a zero column, or a
/// pivot ratio of the equilibrated `g` at or below [`BREAKDOWN_RCOND`], the
/// test block COCG puts to its own Gram matrices — leaving the outputs
/// unspecified.
fn cholesky_qr(s: usize, g: &[f64], d: &mut [f64], beta: &mut [f64], b_inv: &mut [f64]) -> bool {
    // `g = D g̃ D` with `D = diag(d)`; `g̃ = R̃ᵀR̃` in `beta` first
    d.iter_mut()
        .zip(g.iter().step_by(s + 1))
        .for_each(|(dj, gjj)| *dj = gjj.sqrt());
    if !d.iter().all(|&dj| dj > 0.0) {
        return false;
    }
    beta.fill(0.0);
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for j in 0..s {
        for i in 0..=j {
            let mut acc = g[i + s * j] / (d[i] * d[j]);
            for l in 0..i {
                acc -= beta[l + s * i] * beta[l + s * j];
            }
            if i == j {
                // a NaN pivot is no pivot either
                if acc.is_nan() || acc <= 0.0 {
                    return false;
                }
                (lo, hi) = (lo.min(acc), hi.max(acc));
                beta[j + s * j] = acc.sqrt();
            } else {
                beta[i + s * j] = acc / beta[i + s * i];
            }
        }
    }
    if lo / hi <= BREAKDOWN_RCOND {
        return false;
    }
    // R̃⁻¹ by back substitution, then β⁻¹ = D⁻¹R̃⁻¹ and β = R̃D
    b_inv.fill(0.0);
    for j in 0..s {
        b_inv[j + s * j] = 1.0 / beta[j + s * j];
        for i in (0..j).rev() {
            let terms = (i + 2..=j).map(|l| beta[i + s * l] * b_inv[l + s * j]);
            let acc = terms.fold(beta[i + s * (i + 1)] * b_inv[i + 1 + s * j], |a, p| a + p);
            b_inv[i + s * j] = -acc / beta[i + s * i];
        }
    }
    for j in 0..s {
        for i in 0..=j {
            b_inv[i + s * j] /= d[i];
            beta[i + s * j] *= d[j];
        }
    }
    true
}

/// Where a block Lanczos solve stops for block COCG, and so which
/// residual the recurrence holds for its `X`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Breakdown {
    /// `W₀` has no QR: no step taken, `X = X₀`.
    Start,
    /// `U` has no QR: `X_k`, with `W_k = −U·Δ_k⁻¹Z_k`.
    Qr,
    /// `Δ_k` has no LU: `X_{k−1}` stands, with `W_{k−1} = V_k Z_k`.
    Delta,
}

/// Solve `(R + iω) X = B` for the columns `cols` of the real block `b` —
/// two or more; one column is [`shifted_lanczos_pair`]'s — and hand `Re x`
/// of each to `sink`: block COCG's iterates in real arithmetic.
///
/// A real start block `W₀` keeps every block COCG residual in the real
/// block Krylov space of `R`: `W_k = V_{k+1}Γ_k` with `V` the orthonormal
/// block Lanczos basis of `R` started from `W₀` and `Γ_k` a complex
/// `s × s` matrix. The solve runs that recurrence —
/// `U = R V_k − V_{k−1}β_kᵀ`, `α_k = V_kᵀU`, `U −= V_kα_k`,
/// `U = V_{k+1}β_{k+1}` by Cholesky QR — carries the block `LU` of
/// `T_k + iω` (`Δ_k = α_k + iω − β_kΔ_{k−1}⁻¹β_kᵀ`, `Z_{k+1} =
/// −β_{k+1}Δ_k⁻¹Z_k`, `Z₁ = β₁`) in `s × s` matrices, and accumulates
/// `Re X` along the complex directions `D_k = (V_k − D_{k−1}β_kᵀ)Δ_k⁻¹`.
/// Its residual is `‖Z_{k+1}‖_F`, tested against `tol·‖B‖_F` at the step
/// Alg. 3 tests `‖W_k‖_F`, so iterations and matvecs are block COCG's
/// (`tests/proptest_solver.rs`). A block is `⌈s/2⌉` vectors with two
/// columns in the `re`/`im` slots of each, so a step applies `R` through
/// [`RealShifted::apply_real_pair`] `⌈s/2⌉` times and makes three
/// `mbrpa-simd` sweeps.
///
/// `guess` is `[Re X₀ | Im X₀]` as for [`shifted_lanczos_pair`], and the
/// start drops the same imaginary part of the residual. Where a QR is
/// rank-deficient or a `Δ_k` pivot ratio is at or below the breakdown
/// floor, the solve counts one breakdown and hands the block to
/// [`block_cocg_ws`] from the current complex `X` with the iterations left,
/// as Alg. 3 restarts from its own breakdowns. `Im X` is not carried: the
/// hand-off rebuilds it from the real part of the residual `W` the
/// recurrence holds for `X`, `Re W = B − R·Re X + ω·Im X`, with one apply
/// of `R`. On a block whose Krylov space runs out that takes block COCG's
/// iterations, plus two block applies (the rebuild and the fresh
/// residual; none before a first step without a guess, where the solve is
/// block COCG's). The residual history is kept as block COCG keeps its
/// own, one entry per iteration and the start's: block COCG's first entry,
/// the fresh residual, replaces the one of the iterate it restarts from.
/// All work vectors come from `ws` and go back to it.
pub fn shifted_block_lanczos(
    op: &dyn RealShifted,
    b: &Mat<f64>,
    guess: Option<&Mat<f64>>,
    cols: Range<usize>,
    opts: &CocgOptions,
    ws: &mut Workspace<C64>,
    sink: &mut ReSink<'_>,
) -> SolveReport {
    let n = op.dim();
    let w = b.cols();
    let s = cols.len();
    assert_eq!(b.rows(), n, "rhs dimension mismatch");
    assert!(s >= 1 && cols.end <= w, "no such columns");
    if let Some(g) = guess {
        assert_eq!(g.shape(), (n, 2 * w), "guess is not [Re | Im]");
    }
    let (m, ss) = (s.div_ceil(2), s * s);
    let omega = op.omega();
    let obs_on = mbrpa_obs::enabled();
    let mut report = SolveReport::new();

    let mut x = ws.take_zeroed(n, m);
    let mut y = ws.take_scratch(n, m);
    let mut v_prev = ws.take_zeroed(n, m);
    let mut v = ws.take_zeroed(n, m);
    let mut d_re = ws.take_zeroed(n, m);
    let mut d_im = ws.take_zeroed(n, m);
    let mut dn_re = ws.take_scratch(n, m);
    let mut dn_im = ws.take_scratch(n, m);
    let mut small = ws.take_scratch(ss, 12);
    let (delta, rest) = small.as_mut_slice().split_at_mut(ss);
    let (em, rest) = rest.split_at_mut(2 * ss);
    let mut flat = C64::as_components_mut(rest).chunks_exact_mut(ss);
    // lint: allow(unwrap) — 12s² C64, once per chunk: Δ_k, [E_k | M_k] and 18 real s × s pieces
    let mut piece = || flat.next().expect("the scratch holds 18 real matrices");
    let (mut beta, mut beta_next, beta_t, b_inv) = (piece(), piece(), piece(), piece());
    let (alpha, gram, zero, t, g_re, g_im) = (piece(), piece(), piece(), piece(), piece(), piece());
    let (z_re, z_im, m_re, m_im) = (piece(), piece(), piece(), piece());
    let (mut e_re, mut e_im, mut ep_re, mut ep_im) = (piece(), piece(), piece(), piece());
    zero.fill(0.0);

    // x = Re X₀ and y = W₀ = b − R·Re X₀ + ω·Im X₀, column by column
    let (mut b_sq, mut w_sq) = (0.0, 0.0);
    if let Some(g) = guess {
        for c in 0..s {
            let xc = slot(comps_mut(&mut x), n, c);
            xc.zip(g.col(cols.start + c)).for_each(|(xi, &gi)| *xi = gi);
        }
    }
    for c in cols.clone() {
        b_sq += mbrpa_simd::nrm2_sq(b.col(c));
    }
    let b_norm = b_sq.sqrt();
    let mut blown_up = false;
    let mut handoff = None;
    if exactly_zero(b_norm) {
        report.solved_by_guess(opts);
    } else {
        if guess.is_some() {
            for q in 0..m {
                op.apply_real_pair(x.col(q), y.col_mut(q));
            }
            report.matvecs += s;
        }
        for c in 0..2 * m {
            let yc = slot(comps_mut(&mut y), n, c);
            match (c < s).then(|| b.col(cols.start + c)) {
                None => yc.for_each(|yi| *yi = 0.0),
                Some(bc) => match guess.map(|g| g.col(w + cols.start + c)) {
                    None => yc.zip(bc).for_each(|(yi, &bi)| *yi = bi),
                    Some(im) => {
                        for ((yi, &bi), &gi) in yc.zip(bc).zip(im) {
                            *yi = (bi - *yi) + omega * gi;
                        }
                    }
                },
            }
        }
        // G₀ = W₀ᵀW₀ (orthogonalised against the empty block), W₀ = V₁β₁,
        // and step 0 of the recurrence: V₁ with D₀ = 0 and no step taken
        mbrpa_simd::block_lanczos_orthogonalize(n, s, zero, comps(&v), comps_mut(&mut y), gram);
        w_sq = (0..s).map(|j| gram[j + s * j]).sum::<f64>();
        if !cholesky_qr(s, gram, &mut t[..s], beta, b_inv) {
            handoff = Some(Breakdown::Start);
        } else {
            let step = BlockStep {
                b_inv,
                e_re: zero,
                e_im: zero,
                g_re: zero,
                g_im: zero,
                z_re: zero,
                z_im: zero,
            };
            mbrpa_simd::block_lanczos_advance(
                n,
                s,
                &step,
                comps(&y),
                comps(&v),
                comps(&d_re),
                comps(&d_im),
                comps_mut(&mut v_prev),
                comps_mut(&mut dn_re),
                comps_mut(&mut dn_im),
                comps_mut(&mut x),
            );
            std::mem::swap(&mut v_prev, &mut v);
            std::mem::swap(&mut d_re, &mut dn_re);
            std::mem::swap(&mut d_im, &mut dn_im);
            z_re.copy_from_slice(beta);
            z_im.fill(0.0);
        }
    }

    let mut res = w_sq.sqrt();
    // a non-finite start (the guess or the operator) is no start at all
    blown_up |= !res.is_finite();
    while !report.converged && !blown_up {
        // Eq. 10, where Alg. 3 tests it; a breakdown stops after the test
        let rel = res / b_norm;
        if report.test_iteration(rel, opts) || handoff.is_some() {
            break;
        }
        for q in 0..m {
            op.apply_real_pair(v.col(q), y.col_mut(q));
        }
        report.matvecs += s;
        report.iterations += 1;

        // U = R V_k − V_{k−1}β_kᵀ, α_k = V_kᵀU (symmetrised), U −= V_kα_k
        // and its Gram matrix
        for j in 0..s {
            for i in 0..s {
                beta_t[i + s * j] = beta[j + s * i];
            }
        }
        mbrpa_simd::block_lanczos_project(
            n,
            s,
            beta_t,
            comps(&v_prev),
            comps(&v),
            comps_mut(&mut y),
            alpha,
        );
        for j in 0..s {
            for i in 0..j {
                let a = 0.5 * (alpha[i + s * j] + alpha[j + s * i]);
                (alpha[i + s * j], alpha[j + s * i]) = (a, a);
            }
        }
        mbrpa_simd::block_lanczos_orthogonalize(n, s, alpha, comps(&v), comps_mut(&mut y), gram);
        if !alpha.iter().chain(gram.iter()).all(|a| a.is_finite()) {
            // the operator returned NaN/Inf: stop before it reaches X
            blown_up = true;
            break;
        }

        // Δ_k = α_k + iω − β_k E_{k−1} β_kᵀ (past the first step), then
        // [E_k | M_k] = Δ_k⁻¹[I | Z_k], and β_kᵀE_k
        if report.iterations > 1 {
            mul_nx(s, beta, ep_re, false, t);
            mul_nx(s, t, beta, true, g_re);
            mul_nx(s, beta, ep_im, false, t);
            mul_nx(s, t, beta, true, g_im);
        } else {
            g_re.fill(0.0);
            g_im.fill(0.0);
        }
        for j in 0..s {
            for i in 0..s {
                let (k, diag) = (i + s * j, i == j);
                let shift = if diag { omega } else { 0.0 };
                delta[k] = C64::new(alpha[k] - g_re[k], shift - g_im[k]);
                em[k] = C64::new(if diag { 1.0 } else { 0.0 }, 0.0);
                em[ss + k] = C64::new(z_re[k], z_im[k]);
            }
        }
        // a NaN ratio is no breakdown: the values behind it end the solve
        // as a blow-up instead
        let ratio = factor_solve_in_place(s, delta, em);
        if !ratio.is_ok_and(|r| r > BREAKDOWN_RCOND || r.is_nan()) {
            // the step ends where it started: X and its residual stand
            report.log_residual(rel, opts.track_residuals);
            handoff = Some(Breakdown::Delta);
            break;
        }
        for (k, (e, m)) in em[..ss].iter().zip(&em[ss..]).enumerate() {
            (e_re[k], e_im[k]) = (e.re, e.im);
            (m_re[k], m_im[k]) = (m.re, m.im);
        }
        mul_tn(s, beta, e_re, g_re);
        mul_tn(s, beta, e_im, g_im);

        // U = V_{k+1}β_{k+1}; a rank-deficient U still takes this step
        let deficient = !cholesky_qr(s, gram, &mut t[..s], beta_next, b_inv);
        if deficient {
            b_inv.fill(0.0);
        }
        let step = BlockStep {
            b_inv,
            e_re,
            e_im,
            g_re,
            g_im,
            z_re,
            z_im,
        };
        mbrpa_simd::block_lanczos_advance(
            n,
            s,
            &step,
            comps(&y),
            comps(&v),
            comps(&d_re),
            comps(&d_im),
            comps_mut(&mut v_prev),
            comps_mut(&mut dn_re),
            comps_mut(&mut dn_im),
            comps_mut(&mut x),
        );
        if obs_on {
            // the eleven block updates of the sweeps and their two Gram
            // products, real flops
            mbrpa_obs::add("linalg.gemm_flops", (22 * n * ss) as u64);
            mbrpa_obs::add("solver.reduce.gram_flops", (4 * n * ss) as u64);
        }
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut d_re, &mut dn_re);
        std::mem::swap(&mut d_im, &mut dn_im);
        std::mem::swap(&mut ep_re, &mut e_re);
        std::mem::swap(&mut ep_im, &mut e_im);

        // ‖W_k‖_F = ‖U M_k‖_F: ‖Z_{k+1}‖_F with Z_{k+1} = −β_{k+1}M_k, or
        // from the Gram matrix itself when U has no QR
        let res_sq = if deficient {
            handoff = Some(Breakdown::Qr);
            (0..s)
                .map(|c| {
                    let quad = |mm: &[f64]| {
                        let col = &mm[s * c..s * (c + 1)];
                        (0..s)
                            .map(|j| col[j] * (0..s).map(|i| gram[j + s * i] * col[i]).sum::<f64>())
                            .sum::<f64>()
                    };
                    quad(m_re) + quad(m_im)
                })
                .sum::<f64>()
                .max(0.0)
        } else {
            mul_nx(s, beta_next, m_re, false, z_re);
            mul_nx(s, beta_next, m_im, false, z_im);
            for z in z_re.iter_mut().chain(z_im.iter_mut()) {
                *z = -*z;
            }
            std::mem::swap(&mut beta, &mut beta_next);
            z_re.iter().chain(z_im.iter()).map(|z| z * z).sum::<f64>()
        };
        res = res_sq.sqrt();
        if !res.is_finite() {
            blown_up = true;
            break;
        }
    }

    let broke_down = handoff.filter(|_| !report.converged && !blown_up);
    report.breakdowns += usize::from(broke_down.is_some());
    if let Some(stop) = broke_down.filter(|_| report.iterations < opts.max_iters) {
        // Im X, which the sweeps do not carry: X₀'s before a step, else
        // from the real part of the residual the recurrence holds for X,
        // Re W = b − R·Re X + ω·Im X, after one apply of R
        let at_start = stop == Breakdown::Start || exactly_zero(omega);
        let at = |c: usize, i: usize| 2 * ((c / 2) * n + i) + c % 2;
        if !at_start {
            let (basis, coef, sign) = match stop {
                Breakdown::Qr => (&y, &*m_re, -1.0),
                _ => (&v, &*z_re, 1.0),
            };
            let (us, re_w) = (comps(basis), comps_mut(&mut dn_re));
            for c in 0..s {
                for i in 0..n {
                    re_w[at(c, i)] =
                        sign * (0..s).map(|l| us[at(l, i)] * coef[l + s * c]).sum::<f64>();
                }
            }
            for q in 0..m {
                op.apply_real_pair(x.col(q), dn_im.col_mut(q));
            }
            report.matvecs += s;
        }
        // block COCG from the current X, on the iterations left, as Alg. 3
        // restarts after its own breakdowns: from a fresh residual, whose
        // norm replaces the last one the history holds
        let sub_opts = CocgOptions {
            max_iters: opts.max_iters - report.iterations,
            ..*opts
        };
        let mut cb = ws.take_scratch(n, s);
        let mut cg = ws.take_scratch(n, s);
        let (xs, re_w, r_x) = (comps(&x), comps(&dn_re), comps(&dn_im));
        for c in 0..s {
            let im0 = guess.map(|g| g.col(w + cols.start + c));
            for (i, (zb, zg)) in cb.col_mut(c).iter_mut().zip(cg.col_mut(c)).enumerate() {
                let (k, bi) = (at(c, i), b[(i, cols.start + c)]);
                let im = if at_start {
                    im0.map_or(0.0, |g| g[i])
                } else {
                    (r_x[k] - bi + re_w[k]) / omega
                };
                *zb = C64::new(bi, 0.0);
                *zg = C64::new(xs[k], im);
            }
        }
        // no step and no guess leave X = 0, block COCG's own start
        let x0 = (stop != Breakdown::Start || guess.is_some()).then_some(&cg);
        let (xc, sub) = block_cocg_ws(op, &cb, x0, &sub_opts, ws);
        report.iterations += sub.iterations;
        report.matvecs += sub.matvecs;
        report.breakdowns += sub.breakdowns;
        report.converged = sub.converged;
        report.relative_residual = sub.relative_residual;
        if opts.track_residuals {
            report.restart_history(sub.residual_history.iter().copied());
        }
        for c in 0..s {
            sink(cols.start + c, xc.col(c), 0);
        }
        ws.give(cb);
        ws.give(cg);
    } else {
        // the one scan of the iterate: a non-finite X is no solution
        if blown_up || !comps(&x).iter().all(|v| v.is_finite()) {
            report.converged = false;
        }
        for c in 0..s {
            sink(cols.start + c, x.col(c / 2), c % 2);
        }
    }
    for mat in [x, y, v_prev, v, d_re, d_im, dn_re, dn_im, small] {
        ws.give(mat);
    }
    report
}
