//! Stochastic and Lanczos-quadrature trace estimators — the alternative
//! integrand approximations the paper discusses in §II and proposes as
//! future work in §V (replacing the poorly-scaling dense eigensolve).
//!
//! For a symmetric operator `A` and analytic `f`, the Hutchinson estimator
//! averages `zᵀf(A)z` over random probes; each quadratic form is evaluated
//! by `m` steps of Lanczos, whose tridiagonal matrix `T_m` yields the
//! Gauss-quadrature approximation `‖z‖²·e₁ᵀf(T_m)e₁`. Unlike the subspace
//! path, this needs no Rayleigh–Ritz eigensolve and is embarrassingly
//! parallel over probes (§V).

use mbrpa_linalg::{symmetric_eig, vecops, LinalgError, Mat};
use mbrpa_solver::LinearOperator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Options for [`lanczos_trace`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEstimatorOptions {
    /// Number of Hutchinson probe vectors.
    pub n_probes: usize,
    /// Lanczos steps per probe (quadrature order).
    pub lanczos_steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceEstimatorOptions {
    fn default() -> Self {
        Self {
            n_probes: 24,
            lanczos_steps: 30,
            seed: 99,
        }
    }
}

/// `m` steps of Lanczos on `A` from start vector `q0` (unit norm assumed):
/// returns the tridiagonal coefficients `(alpha, beta)` with
/// `beta[i] = T[i+1, i]`. Full reorthogonalization keeps the Ritz
/// quadrature stable for the modest step counts used here.
fn lanczos_tridiag(op: &dyn LinearOperator<f64>, q0: &[f64], m: usize) -> (Vec<f64>, Vec<f64>) {
    let n = op.dim();
    let mut alphas = Vec::with_capacity(m);
    let mut betas = Vec::with_capacity(m.saturating_sub(1));
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    basis.push(q0.to_vec());
    let mut w = vec![0.0; n];

    for j in 0..m {
        op.apply(&basis[j], &mut w);
        let alpha = vecops::dot_t(&basis[j], &w);
        alphas.push(alpha);
        // w ← w − α q_j − β q_{j−1}
        vecops::axpy(-alpha, &basis[j], &mut w);
        if j > 0 {
            let beta_prev: f64 = betas[j - 1];
            vecops::axpy(-beta_prev, &basis[j - 1], &mut w);
        }
        // full reorthogonalization
        for q in &basis {
            let c = vecops::dot_t(q, &w);
            vecops::axpy(-c, q, &mut w);
        }
        if j + 1 == m {
            break;
        }
        let beta = vecops::norm2(&w);
        if beta < 1e-300 {
            break; // invariant subspace found
        }
        betas.push(beta);
        let mut q_next = w.clone();
        q_next.iter_mut().for_each(|x| *x /= beta);
        basis.push(q_next);
    }
    (alphas, betas)
}

/// Gauss-quadrature evaluation `e₁ᵀ f(T) e₁` via the tridiagonal
/// eigendecomposition.
fn quadrature_from_tridiag(
    alphas: &[f64],
    betas: &[f64],
    f: &dyn Fn(f64) -> f64,
) -> Result<f64, LinalgError> {
    let m = alphas.len();
    let mut t = Mat::zeros(m, m);
    for i in 0..m {
        t[(i, i)] = alphas[i];
        if i + 1 < m && i < betas.len() {
            t[(i, i + 1)] = betas[i];
            t[(i + 1, i)] = betas[i];
        }
    }
    let eig = symmetric_eig(&t)?;
    let mut acc = 0.0;
    for (j, &theta) in eig.values.iter().enumerate() {
        let tau = eig.vectors[(0, j)];
        acc += tau * tau * f(theta);
    }
    Ok(acc)
}

/// Result of a stochastic trace estimation.
#[derive(Clone, Debug)]
pub struct TraceEstimate {
    /// Estimated `Tr[f(A)]`.
    pub trace: f64,
    /// Sample standard error of the probe mean.
    pub std_error: f64,
    /// Probes actually used.
    pub n_probes: usize,
}

/// Hutchinson × Lanczos-quadrature estimate of `Tr[f(A)]` for symmetric
/// `A`. Probes are Rademacher (±1) vectors.
pub fn lanczos_trace(
    op: &dyn LinearOperator<f64>,
    f: &(dyn Fn(f64) -> f64 + Sync),
    opts: &TraceEstimatorOptions,
) -> Result<TraceEstimate, LinalgError> {
    let n = op.dim();
    assert!(opts.n_probes >= 1);
    assert!(opts.lanczos_steps >= 1);
    // probes are independent (the §V "embarrassingly parallel" layout):
    // each draws from its own deterministic stream and runs on its own
    // rayon task
    let samples: Vec<f64> = (0..opts.n_probes)
        .into_par_iter()
        .map(|probe| -> Result<f64, LinalgError> {
            let mut rng = StdRng::seed_from_u64(opts.seed ^ ((probe as u64) << 20));
            let z: Vec<f64> = (0..n)
                .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
                .collect();
            // unit-normalize; the quadratic form scales by ‖z‖² = n
            let scale = n as f64;
            let q0: Vec<f64> = z.iter().map(|x| x / scale.sqrt()).collect();
            let (alphas, betas) = lanczos_tridiag(op, &q0, opts.lanczos_steps.min(n));
            let quad = quadrature_from_tridiag(&alphas, &betas, f)?;
            Ok(scale * quad)
        })
        .collect::<Result<Vec<f64>, LinalgError>>()?;
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
    } else {
        0.0
    };
    Ok(TraceEstimate {
        trace: mean,
        std_error: (var / samples.len() as f64).sqrt(),
        n_probes: samples.len(),
    })
}

/// Options for [`block_lanczos_trace`].
#[derive(Clone, Copy, Debug)]
pub struct BlockTraceOptions {
    /// Number of probe blocks.
    pub n_blocks: usize,
    /// Probe vectors per block (the Lanczos block size; the paper's §V
    /// suggests "Lanczos quadrature can additionally take advantage of a
    /// block-type algorithm, in a similar fashion to block COCG").
    pub block_size: usize,
    /// Block Lanczos steps (the band matrix has `steps·block_size` rows).
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BlockTraceOptions {
    fn default() -> Self {
        Self {
            n_blocks: 6,
            block_size: 4,
            steps: 12,
            seed: 99,
        }
    }
}

/// `m` steps of block Lanczos from the orthonormal start block `q0`
/// (`n × b`): returns the block-tridiagonal band matrix `T` with
/// symmetric diagonal blocks `A_j` and upper-triangular couplings `B_j`.
/// Full reorthogonalization keeps the quadrature stable.
fn block_lanczos_band(
    op: &dyn LinearOperator<f64>,
    q0: &Mat<f64>,
    m: usize,
) -> Result<Mat<f64>, LinalgError> {
    use mbrpa_linalg::{matmul_into, matmul_tn, thin_qr};
    let n = op.dim();
    let b = q0.cols();
    let mut basis: Vec<Mat<f64>> = vec![q0.clone()];
    let mut diag_blocks: Vec<Mat<f64>> = Vec::with_capacity(m);
    let mut off_blocks: Vec<Mat<f64>> = Vec::with_capacity(m.saturating_sub(1));

    let mut w = Mat::zeros(n, b);
    for j in 0..m {
        op.apply_block(&basis[j], &mut w);
        // W <- W - Q_{j-1} B_{j-1}^T
        if j > 0 {
            let bt = off_blocks[j - 1].transpose();
            matmul_into(-1.0, &basis[j - 1], &bt, 1.0, &mut w);
        }
        let a_raw = matmul_tn(&basis[j], &w);
        let a_j = Mat::from_fn(b, b, |r, c| 0.5 * (a_raw[(r, c)] + a_raw[(c, r)]));
        matmul_into(-1.0, &basis[j], &a_j, 1.0, &mut w);
        diag_blocks.push(a_j);
        // full reorthogonalization against the whole basis
        for q in &basis {
            let coeff = matmul_tn(q, &w);
            matmul_into(-1.0, q, &coeff, 1.0, &mut w);
        }
        if j + 1 == m {
            break;
        }
        let qr = thin_qr(&w);
        if !qr.deficient.is_empty() || qr.r.fro_norm() < 1e-250 {
            break; // invariant subspace: the band matrix ends early
        }
        off_blocks.push(qr.r);
        basis.push(qr.q);
        w = Mat::zeros(n, b);
    }

    let steps = diag_blocks.len();
    let dim = steps * b;
    let mut t = Mat::zeros(dim, dim);
    for (jj, blk) in diag_blocks.iter().enumerate() {
        for c in 0..b {
            for r in 0..b {
                t[(jj * b + r, jj * b + c)] = blk[(r, c)];
            }
        }
    }
    for (jj, blk) in off_blocks.iter().enumerate() {
        for c in 0..b {
            for r in 0..b {
                t[((jj + 1) * b + r, jj * b + c)] = blk[(r, c)];
                t[(jj * b + c, (jj + 1) * b + r)] = blk[(r, c)];
            }
        }
    }
    Ok(t)
}

/// Block-Lanczos Hutchinson trace estimate of `Tr[f(A)]`: each probe block
/// of `b` Rademacher columns yields `b` quadratic-form samples from one
/// block Lanczos run, via `z_i^T f(A) z_i ~ (R0 e_i)^T [f(T)]_00 (R0 e_i)`
/// with `Z = Q0 R0`.
pub fn block_lanczos_trace(
    op: &dyn LinearOperator<f64>,
    f: &(dyn Fn(f64) -> f64 + Sync),
    opts: &BlockTraceOptions,
) -> Result<TraceEstimate, LinalgError> {
    use mbrpa_linalg::thin_qr;
    let n = op.dim();
    assert!(opts.n_blocks >= 1 && opts.block_size >= 1 && opts.steps >= 1);
    let b = opts.block_size.min(n);

    let samples: Vec<Vec<f64>> = (0..opts.n_blocks)
        .into_par_iter()
        .map(|blk| -> Result<Vec<f64>, LinalgError> {
            let mut rng = StdRng::seed_from_u64(opts.seed ^ ((blk as u64) << 24));
            let z = Mat::from_fn(n, b, |_, _| if rng.random::<bool>() { 1.0 } else { -1.0 });
            let qr = thin_qr(&z);
            let steps = opts.steps.min((n / b.max(1)).max(1));
            let t = block_lanczos_band(op, &qr.q, steps)?;
            let eig = symmetric_eig(&t)?;
            // [f(T)]_00 restricted to the first b rows/cols
            let mut f00 = Mat::<f64>::zeros(b, b);
            for (k, &theta) in eig.values.iter().enumerate() {
                let fk = f(theta);
                for c in 0..b {
                    for r in 0..b {
                        f00[(r, c)] += fk * eig.vectors[(r, k)] * eig.vectors[(c, k)];
                    }
                }
            }
            let mut out = Vec::with_capacity(b);
            for i in 0..b {
                let mut acc = 0.0;
                for c in 0..b {
                    for r in 0..b {
                        acc += qr.r[(r, i)] * f00[(r, c)] * qr.r[(c, i)];
                    }
                }
                out.push(acc);
            }
            Ok(out)
        })
        .collect::<Result<Vec<_>, LinalgError>>()?;

    let flat: Vec<f64> = samples.into_iter().flatten().collect();
    let mean = flat.iter().sum::<f64>() / flat.len() as f64;
    let var = if flat.len() > 1 {
        flat.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (flat.len() - 1) as f64
    } else {
        0.0
    };
    Ok(TraceEstimate {
        trace: mean,
        std_error: (var / flat.len() as f64).sqrt(),
        n_probes: flat.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_solver::DenseOperator;

    fn spd_like(n: usize, seed: u64) -> (DenseOperator<f64>, Mat<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let g = Mat::from_fn(n, n, |_, _| next());
        let a = Mat::from_fn(n, n, |i, j| {
            0.5 * (g[(i, j)] + g[(j, i)]) - if i == j { 1.5 } else { 0.0 }
        });
        (DenseOperator::new(a.clone()), a)
    }

    #[test]
    fn exact_for_linear_f_and_full_steps() {
        // f(x) = x: Tr f(A) = Tr A exactly in expectation; with full
        // Lanczos each probe gives zᵀAz whose Hutchinson mean ≈ trace
        let (op, a) = spd_like(20, 5);
        let exact: f64 = (0..20).map(|i| a[(i, i)]).sum();
        let est = lanczos_trace(
            &op,
            &|x| x,
            &TraceEstimatorOptions {
                n_probes: 400,
                lanczos_steps: 20,
                seed: 1,
            },
        )
        .unwrap();
        assert!(
            (est.trace - exact).abs() < 4.0 * est.std_error.max(0.3),
            "estimate {} vs exact {exact} (stderr {})",
            est.trace,
            est.std_error
        );
    }

    #[test]
    fn matches_dense_trace_of_rpa_integrand() {
        // f(μ) = ln(1−μ)+μ on a negative-definite matrix (the RPA shape)
        let (op, a) = spd_like(16, 9);
        let eig = symmetric_eig(&a).unwrap();
        let exact: f64 = eig.values.iter().map(|&m| (1.0 - m).ln() + m).sum();
        let est = lanczos_trace(
            &op,
            &|x| (1.0 - x).ln() + x,
            &TraceEstimatorOptions {
                n_probes: 600,
                lanczos_steps: 16,
                seed: 2,
            },
        )
        .unwrap();
        let err = (est.trace - exact).abs();
        assert!(
            err < 5.0 * est.std_error.max(0.05),
            "estimate {} vs exact {exact}, err {err}, stderr {}",
            est.trace,
            est.std_error
        );
    }

    #[test]
    fn lanczos_ritz_values_bound_spectrum() {
        let (op, a) = spd_like(24, 13);
        let eig = symmetric_eig(&a).unwrap();
        let q0: Vec<f64> = {
            let n = 24;
            let v: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let norm = vecops::norm2(&v);
            v.iter().map(|x| x / norm).collect()
        };
        let (alphas, betas) = lanczos_tridiag(&op, &q0, 10);
        let mut t = Mat::zeros(alphas.len(), alphas.len());
        for i in 0..alphas.len() {
            t[(i, i)] = alphas[i];
            if i < betas.len() {
                t[(i, i + 1)] = betas[i];
                t[(i + 1, i)] = betas[i];
            }
        }
        let ritz = symmetric_eig(&t).unwrap().values;
        let (lo, hi) = (eig.values[0], *eig.values.last().unwrap());
        for r in &ritz {
            assert!(
                *r >= lo - 1e-8 && *r <= hi + 1e-8,
                "Ritz {r} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn block_lanczos_matches_scalar_lanczos() {
        let (op, a) = spd_like(18, 41);
        let eig = symmetric_eig(&a).unwrap();
        let exact: f64 = eig.values.iter().map(|&m| (1.0 - m).ln() + m).sum();
        let est = block_lanczos_trace(
            &op,
            &|x| (1.0 - x).ln() + x,
            &BlockTraceOptions {
                n_blocks: 80,
                block_size: 3,
                steps: 6, // 18 band rows = full space
                seed: 3,
            },
        )
        .unwrap();
        assert_eq!(est.n_probes, 240);
        let err = (est.trace - exact).abs();
        assert!(
            err < 5.0 * est.std_error.max(0.05),
            "block estimate {} vs exact {exact} (stderr {})",
            est.trace,
            est.std_error
        );
    }

    #[test]
    fn block_size_one_agrees_with_scalar_path() {
        // b = 1 block Lanczos is mathematically the scalar algorithm; the
        // estimates must agree statistically on the same operator
        let (op, a) = spd_like(14, 51);
        let eig = symmetric_eig(&a).unwrap();
        let exact: f64 = eig.values.iter().map(|&m| m * m).sum();
        let est = block_lanczos_trace(
            &op,
            &|x| x * x,
            &BlockTraceOptions {
                n_blocks: 200,
                block_size: 1,
                steps: 14,
                seed: 7,
            },
        )
        .unwrap();
        let err = (est.trace - exact).abs();
        assert!(
            err < 5.0 * est.std_error.max(0.1),
            "b=1 block estimate {} vs exact {exact}",
            est.trace
        );
    }

    #[test]
    fn block_band_matrix_spectrum_within_operator_bounds() {
        let (op, a) = spd_like(20, 61);
        let eig_a = symmetric_eig(&a).unwrap();
        let q0 = {
            let z = Mat::from_fn(20, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
            mbrpa_linalg::thin_qr(&z).q
        };
        let t = block_lanczos_band(&op, &q0, 4).unwrap();
        assert!(
            t.max_abs_diff(&t.transpose()) < 1e-12,
            "band must be symmetric"
        );
        let ritz = symmetric_eig(&t).unwrap().values;
        let (lo, hi) = (eig_a.values[0], *eig_a.values.last().unwrap());
        for r in &ritz {
            assert!(
                *r >= lo - 1e-8 && *r <= hi + 1e-8,
                "Ritz {r} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn std_error_shrinks_with_probes() {
        let (op, _) = spd_like(18, 21);
        let few = lanczos_trace(
            &op,
            &|x| x * x,
            &TraceEstimatorOptions {
                n_probes: 20,
                lanczos_steps: 18,
                seed: 3,
            },
        )
        .unwrap();
        let many = lanczos_trace(
            &op,
            &|x| x * x,
            &TraceEstimatorOptions {
                n_probes: 320,
                lanczos_steps: 18,
                seed: 3,
            },
        )
        .unwrap();
        assert!(many.std_error < few.std_error);
    }

    #[test]
    fn single_step_reduces_to_rayleigh_quotient() {
        let (op, a) = spd_like(12, 31);
        let est = lanczos_trace(
            &op,
            &|x| x,
            &TraceEstimatorOptions {
                n_probes: 1,
                lanczos_steps: 1,
                seed: 7,
            },
        )
        .unwrap();
        // one probe, one step: estimate = zᵀAz for the Rademacher z drawn
        // with seed 7; recompute it directly
        let mut rng = StdRng::seed_from_u64(7);
        let z: Vec<f64> = (0..12)
            .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let az: Vec<f64> = (0..12)
            .map(|i| (0..12).map(|l| a[(i, l)] * z[l]).sum())
            .collect();
        let expect = vecops::dot_t(&z, &az);
        assert!((est.trace - expect).abs() < 1e-10);
    }
}
