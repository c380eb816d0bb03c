//! Chebyshev-filtered subspace iteration: the scaled filter, the
//! Rayleigh–Ritz round and the random start block.
//!
//! The Kohn–Sham occupied-orbital solver (CheFSI, ref [34] of the paper)
//! and the RPA dielectric eigensolver (Algorithm 5, §III-A) are one
//! method over two operators. Both start from [`random_orthonormal_block`],
//! accelerate subspace iteration by applying a polynomial `p(A)` that
//! damps an unwanted spectral interval `[a, b]` while amplifying
//! everything below `a` ([`chebyshev_filter`]; the three-term recurrence
//! with the standard stability scaling keeps intermediate blocks
//! well-conditioned at high degree), and project with [`rayleigh_ritz`].
//! Each reduces the round's per-column residuals to its own stop test.

use crate::operator::LinearOperator;
use crate::workspace::{with_thread_workspace, Workspace};
use mbrpa_linalg::{
    generalized_sym_eig, matmul, matmul_tn, orthonormalize_columns, LinalgError, Mat, Scalar,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Apply the degree-`m` scaled Chebyshev filter to a block:
/// returns `p(A)·X` where `p` damps `[a, b]` and amplifies the spectrum
/// below `a`; `a0` is a lower-bound estimate of the wanted end of the
/// spectrum (used only for scaling stability).
///
/// Degree 0 returns `X` unchanged; degree 1 applies the shifted-scaled
/// operator once.
///
/// The recurrence temporaries (`X_prev` and the update scratch) are taken
/// from and returned to the calling thread's persistent [`Workspace`]
/// pool, so repeated filter sweeps (one per subspace-iteration step)
/// allocate only the returned block. Because the three-term swap rotates
/// buffers, the pooled backing stores are interchangeable — the pool stays
/// balanced even though a different physical buffer may come back than
/// went out.
pub fn chebyshev_filter<T: Scalar>(
    op: &dyn LinearOperator<T>,
    x: &Mat<T>,
    degree: usize,
    a: f64,
    b: f64,
    a0: f64,
) -> Mat<T> {
    with_thread_workspace(|ws: &mut Workspace<T>| {
        assert!(b > a, "filter interval must satisfy a < b (got [{a}, {b}])");
        // The interval ends and the lower-bound estimate come from Ritz values
        // of the caller's subspace iteration; a NaN here silently poisons every
        // filtered vector, so fail at first occurrence in debug builds.
        debug_assert!(
            a.is_finite() && b.is_finite() && a0.is_finite(),
            "non-finite Ritz-derived filter bounds: [{a}, {b}], a0 = {a0}"
        );
        let n = op.dim();
        assert_eq!(x.rows(), n);
        if degree == 0 {
            return x.clone();
        }
        mbrpa_obs::add("solver.chebyshev.filters", 1);
        mbrpa_obs::record("solver.chebyshev.degree", degree as f64);

        let e = (b - a) / 2.0;
        let c = (b + a) / 2.0;
        // guard: if a0 collapses onto the interval center the scaling blows up
        let denom = if (a0 - c).abs() < 1e-300 { -e } else { a0 - c };
        let mut sigma = e / denom;
        let sigma1 = sigma;

        // Y = (A·X − c·X)·(σ₁/e)
        let mut y = Mat::zeros(n, x.cols());
        {
            let _apply = mbrpa_obs::span("apply");
            op.apply_block(x, &mut y);
        }
        mbrpa_obs::add("solver.chebyshev.applies", x.cols() as u64);
        let s1e = sigma1 / e;
        // Fused runtime-dispatched recurrence step on the flat component view
        // (the shift `c` and scale are real, so complex blocks reduce to the
        // same componentwise kernel): Y = σ₁/e · (Y − c·X).
        let d = mbrpa_simd::active();
        // 3 real flops per component (c·x, subtract, scale) — charged to the
        // reduce/update family so GEMM and stencil rates stay uninflated.
        mbrpa_obs::add(
            "solver.reduce.vec_flops",
            3 * y.as_slice().len() as u64 * T::COMPONENTS as u64,
        );
        mbrpa_simd::shift_scale_on(
            d,
            s1e,
            c,
            T::as_components(x.as_slice()),
            T::as_components_mut(y.as_mut_slice()),
        );
        if degree == 1 {
            return y;
        }

        let mut x_prev = ws.take_copy(x);
        let mut work = ws.take_zeroed(n, x.cols());
        for _ in 2..=degree {
            let sigma2 = 1.0 / (2.0 / sigma1 - sigma);
            // Y_new = 2(σ₂/e)(A·Y − c·Y) − (σ·σ₂)·X_prev
            {
                let _apply = mbrpa_obs::span("apply");
                op.apply_block(&y, &mut work);
            }
            mbrpa_obs::add("solver.chebyshev.applies", y.cols() as u64);
            let s2e = 2.0 * sigma2 / e;
            let ss2 = sigma * sigma2;
            // W = 2σ₂/e · (W − c·Y) − σσ₂·X_prev, one fused dispatched pass
            // (5 real flops per component).
            mbrpa_obs::add(
                "solver.reduce.vec_flops",
                5 * work.as_slice().len() as u64 * T::COMPONENTS as u64,
            );
            mbrpa_simd::shift_scale_sub_on(
                d,
                s2e,
                c,
                ss2,
                T::as_components(y.as_slice()),
                T::as_components(x_prev.as_slice()),
                T::as_components_mut(work.as_mut_slice()),
            );
            std::mem::swap(&mut x_prev, &mut y); // x_prev ← old y
            std::mem::swap(&mut y, &mut work); // y ← new iterate
            sigma = sigma2;
        }
        ws.give(x_prev);
        ws.give(work);
        y
    })
}

/// Seeded random block with orthonormalized columns: the start of both
/// subspace iterations (Algorithm 6 line 4, and CheFSI's first subspace).
pub fn random_orthonormal_block(n: usize, m: usize, seed: u64) -> Mat<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = Mat::from_fn(n, m, |_, _| rng.random_range(-1.0..1.0));
    orthonormalize_columns(&mut v);
    v
}

/// Wall time of the paper's Figure 5 kernels within one subspace solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubspaceTimings {
    /// Operator applications (filtering + projection).
    pub apply: Duration,
    /// Dense matrix-matrix products (`VᵀW`, `VᵀV`, `V·Q`, `W·Q`).
    pub matmult: Duration,
    /// The generalized symmetric eigensolve.
    pub eigensolve: Duration,
    /// Residual evaluation.
    pub eval_error: Duration,
}

impl SubspaceTimings {
    /// Merge another timing record.
    pub fn merge(&mut self, other: &SubspaceTimings) {
        self.apply += other.apply;
        self.matmult += other.matmult;
        self.eigensolve += other.eigensolve;
        self.eval_error += other.eval_error;
    }
}

/// What a Rayleigh–Ritz round returns beside the rotated blocks.
#[derive(Clone, Debug)]
pub struct RitzRound {
    /// Ritz values `μ_j`, ascending.
    pub values: Vec<f64>,
    /// Each rotated column's `Σ_i (w_ij − μ_j v_ij)²`, the squared norm of
    /// its eigen-residual `A v_j − μ_j v_j`.
    pub residual_sq: Vec<f64>,
}

/// One Rayleigh–Ritz round on `V` and `W = A·V`, which the caller applied:
/// the projections `H_s = VᵀW` and `M_s = VᵀV`, the generalized symmetric
/// eigensolve `H_s Q = M_s Q D`, and the rotations `V ← V·Q`, then
/// `W ← W·Q`, so `W` is still `A·V` and the residuals need no apply. Each
/// kernel is timed into `timings` (`matmult`, `eigensolve`, `eval_error`)
/// under an obs span of the same name; the caller times its apply.
pub fn rayleigh_ritz(
    v: &mut Mat<f64>,
    w: &mut Mat<f64>,
    timings: &mut SubspaceTimings,
) -> Result<RitzRound, LinalgError> {
    let t = Instant::now();
    let (h_s, m_s) = {
        let _s = mbrpa_obs::span("matmult");
        (matmul_tn(v, w), matmul_tn(v, v))
    };
    timings.matmult += t.elapsed();

    let t = Instant::now();
    let eig = {
        let _s = mbrpa_obs::span("eigensolve");
        generalized_sym_eig(&h_s, &m_s)?
    };
    timings.eigensolve += t.elapsed();

    let t = Instant::now();
    {
        let _s = mbrpa_obs::span("matmult");
        *v = matmul(v, &eig.vectors);
        *w = matmul(w, &eig.vectors);
    }
    timings.matmult += t.elapsed();

    let t = Instant::now();
    let residual_sq = {
        let _s = mbrpa_obs::span("eval_error");
        (0..v.cols())
            .map(|j| {
                let lam = eig.values[j];
                let (vj, wj) = (v.col(j), w.col(j));
                let mut r = 0.0;
                for i in 0..v.rows() {
                    let d = wj[i] - lam * vj[i];
                    r += d * d;
                }
                r
            })
            .collect()
    };
    timings.eval_error += t.elapsed();

    Ok(RitzRound {
        values: eig.values,
        residual_sq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::DenseOperator;
    use mbrpa_linalg::Mat;

    /// Diagonal operator with a prescribed spectrum.
    fn diag_op(spectrum: &[f64]) -> DenseOperator<f64> {
        let n = spectrum.len();
        let mut a = Mat::zeros(n, n);
        for (i, &s) in spectrum.iter().enumerate() {
            a[(i, i)] = s;
        }
        DenseOperator::new(a)
    }

    #[test]
    fn degree_zero_is_identity() {
        let op = diag_op(&[1.0, 2.0, 3.0]);
        let x = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        let y = chebyshev_filter(&op, &x, 0, 2.0, 3.0, 1.0);
        assert_eq!(y, x);
    }

    #[test]
    fn filter_amplifies_wanted_damps_unwanted() {
        // spectrum: wanted {-3, -2}, unwanted {0.1 .. 1}
        let spectrum = [-3.0, -2.0, 0.1, 0.4, 0.7, 1.0];
        let op = diag_op(&spectrum);
        let n = spectrum.len();
        // start from all-ones: each coordinate tracks p(λ_i)
        let x = Mat::from_fn(n, 1, |_, _| 1.0);
        let (a, b, a0) = (0.0, 1.05, -3.2);
        let y = chebyshev_filter(&op, &x, 8, a, b, a0);
        // coordinates on the wanted end must dominate the unwanted ones
        let wanted = y[(0, 0)].abs().min(y[(1, 0)].abs());
        let unwanted = (2..n).map(|i| y[(i, 0)].abs()).fold(0.0, f64::max);
        assert!(
            wanted > 50.0 * unwanted,
            "wanted {wanted} vs unwanted {unwanted}"
        );
    }

    #[test]
    fn higher_degree_sharpens_separation() {
        let spectrum = [-2.0, -0.5, 0.2, 0.8];
        let op = diag_op(&spectrum);
        let x = Mat::from_fn(4, 1, |_, _| 1.0);
        let ratio = |deg: usize| -> f64 {
            let y = chebyshev_filter(&op, &x, deg, 0.0, 1.0, -2.2);
            y[(0, 0)].abs() / y[(3, 0)].abs().max(1e-300)
        };
        let r2 = ratio(2);
        let r6 = ratio(6);
        assert!(r6 > r2, "degree 6 ratio {r6} <= degree 2 ratio {r2}");
    }

    #[test]
    fn degree_one_matches_shifted_scaled_operator() {
        let spectrum = [1.0, 2.0, 5.0];
        let op = diag_op(&spectrum);
        let x = Mat::from_fn(3, 1, |i, _| (i + 1) as f64);
        let (a, b, a0) = (3.0, 5.5, 0.5);
        let y = chebyshev_filter(&op, &x, 1, a, b, a0);
        let e = (b - a) / 2.0;
        let c = (b + a) / 2.0;
        let s1e = (e / (a0 - c)) / e;
        for i in 0..3 {
            let expect = (spectrum[i] - c) * x[(i, 0)] * s1e;
            assert!((y[(i, 0)] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn filter_is_linear_in_input() {
        let spectrum = [-1.0, 0.3, 0.9];
        let op = diag_op(&spectrum);
        let x1 = Mat::from_fn(3, 1, |i, _| i as f64 + 1.0);
        let x2 = Mat::from_fn(3, 1, |i, _| (3 - i) as f64);
        let mut xsum = x1.clone();
        xsum.axpy(1.0, &x2);
        let f = |x: &Mat<f64>| chebyshev_filter(&op, x, 5, 0.0, 1.0, -1.1);
        let mut lhs = f(&x1);
        lhs.axpy(1.0, &f(&x2));
        let rhs = f(&xsum);
        assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "filter interval")]
    fn rejects_inverted_interval() {
        let op = diag_op(&[1.0]);
        let x = Mat::from_fn(1, 1, |_, _| 1.0);
        let _ = chebyshev_filter(&op, &x, 2, 1.0, 0.5, 0.0);
    }

    #[test]
    fn start_block_is_seeded_and_orthonormal() {
        let v = random_orthonormal_block(40, 6, 9);
        assert_eq!(v, random_orthonormal_block(40, 6, 9));
        assert_ne!(v, random_orthonormal_block(40, 6, 10));
        assert!(matmul_tn(&v, &v).max_abs_diff(&Mat::identity(6)) < 1e-12);
    }

    #[test]
    fn rayleigh_ritz_rotates_both_blocks_and_measures_each_residual() {
        let spectrum = [-3.0, -1.0, 0.5, 2.0, 4.0, 7.0];
        let op = diag_op(&spectrum);
        let apply = |v: &Mat<f64>| {
            let mut w = Mat::zeros(v.rows(), v.cols());
            op.apply_block(v, &mut w);
            w
        };
        let mut timings = SubspaceTimings::default();

        // the whole space: the round is exact
        let mut v = random_orthonormal_block(6, 6, 1);
        let mut w = apply(&v);
        let round = rayleigh_ritz(&mut v, &mut w, &mut timings).unwrap();
        for (mu, exact) in round.values.iter().zip(spectrum) {
            assert!((mu - exact).abs() < 1e-12, "{mu} vs {exact}");
        }
        assert!(round.residual_sq.iter().all(|&r| r < 1e-24));

        // a subspace: W is still A·V after the rotation, and each residual
        // is the rotated column's ‖A v_j − μ_j v_j‖²
        let mut v = random_orthonormal_block(6, 3, 2);
        let mut w = apply(&v);
        let round = rayleigh_ritz(&mut v, &mut w, &mut timings).unwrap();
        assert!(w.max_abs_diff(&apply(&v)) < 1e-12);
        assert!(round.values.windows(2).all(|p| p[0] <= p[1]));
        for j in 0..3 {
            let r: f64 = (0..6)
                .map(|i| (w[(i, j)] - round.values[j] * v[(i, j)]).powi(2))
                .sum();
            assert_eq!(round.residual_sq[j], r);
            assert!(r > 1e-6, "a 3-dimensional random subspace is no eigenspace");
        }
    }
}
