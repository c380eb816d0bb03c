//! Subspace iteration with polynomial filtering over the dielectric
//! operator — Algorithm 5 of the paper.
//!
//! Each iteration applies the degree-`m` Chebyshev filter to the current
//! block `V`, projects (Rayleigh–Ritz: `H_s = Vᵀ(AV)`, `M_s = VᵀV`,
//! generalized symmetric eigensolve), rotates, and checks the residual
//! criterion of Eq. 7. The expensive kernel is the operator application
//! inside filtering and projection; the dense algebra mirrors the paper's
//! ScaLAPACK section and is timed separately (Figure 5 kernels).
//!
//! A Rayleigh–Ritz check runs **before** any filtering (lines 2–5 of
//! Algorithm 5), so a warm-started `V₀` from the previous quadrature point
//! can converge with zero filter applications — the "skip polynomial
//! filtering" behaviour of §III-F falls out naturally.

use crate::chi0::DielectricOperator;
use mbrpa_linalg::{generalized_sym_eig, matmul, matmul_tn, LinalgError, Mat};
use mbrpa_solver::chebyshev_filter;
use std::time::{Duration, Instant};

/// Wall time of the paper's Figure 5 kernels within one subspace solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubspaceTimings {
    /// `ν½χ⁰ν½` applications (filtering + projection).
    pub apply: Duration,
    /// Dense matrix-matrix products (`VᵀW`, `VᵀV`, `V·Q`, `W·Q`).
    pub matmult: Duration,
    /// The generalized symmetric eigensolve.
    pub eigensolve: Duration,
    /// Residual evaluation of Eq. 7.
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

    /// Total across kernels.
    pub fn total(&self) -> Duration {
        self.apply + self.matmult + self.eigensolve + self.eval_error
    }
}

/// One row of the per-iteration history (the paper's `ncheb | ErpaTerm |
/// eigs | eig Error | Timing` output lines).
#[derive(Clone, Debug)]
pub struct SubspaceIterRecord {
    /// Filter applications so far (`ncheb`; 0 = warm-start check).
    pub ncheb: usize,
    /// Trace term `Σ ln(1−μ)+μ` from the current Ritz values.
    pub energy_term: f64,
    /// Eq. 7 residual.
    pub error: f64,
    /// First two and last two Ritz values (paper's output columns).
    pub edge_eigs: [f64; 4],
    /// Wall time of this iteration.
    pub elapsed: Duration,
}

/// Result of one quadrature point's eigensolve.
#[derive(Clone, Debug)]
pub struct SubspaceOutcome {
    /// Ritz values, ascending (most negative first).
    pub eigenvalues: Vec<f64>,
    /// Converged eigenvector block (`n_d × n_eig`, orthonormal).
    pub vectors: Mat<f64>,
    /// Filter applications performed.
    pub filter_rounds: usize,
    /// Final Eq. 7 residual.
    pub error: f64,
    /// Whether the tolerance was reached within the round cap.
    pub converged: bool,
    /// The iteration stopped because the operator's cancel token was set. The
    /// eigenpairs are whatever the last completed projection produced
    /// (possibly none) and **must be discarded** by resumable drivers.
    pub cancelled: bool,
    /// Kernel timing breakdown.
    pub timings: SubspaceTimings,
    /// Per-iteration history.
    pub history: Vec<SubspaceIterRecord>,
}

/// The RPA trace approximation over the computed Ritz values:
/// `Σ_j ln(1 − μ_j) + μ_j` (§III-A). `νχ⁰` is negative semidefinite, so
/// every `μ > 0` is clamped to 0: noise of the inexact applies, or — above
/// the floor of [`positive_ritz`] — a filter the inexact applies led
/// astray, which the report names.
pub fn trace_term(eigenvalues: &[f64]) -> f64 {
    eigenvalues
        .iter()
        .map(|&mu| {
            let mu = mu.min(0.0);
            (1.0 - mu).ln() + mu
        })
        .sum()
}

/// Noise floor of a positive Ritz value, relative to `|μ_min|`: the end of
/// the filter's damped interval (`b_up` in [`subspace_iteration`]). A
/// positive `μ` below it is what a solve at `TOL_STERN_RES` leaves behind;
/// one above it was amplified by the filter like a wanted one.
pub const POSITIVE_RITZ_FLOOR: f64 = 1e-3;

/// The Ritz values [`trace_term`] clamps although they stand above
/// `POSITIVE_RITZ_FLOOR·|μ_min|`: their count and the largest, or `None`.
pub fn positive_ritz(eigenvalues: &[f64]) -> Option<(usize, f64)> {
    let mu_min = eigenvalues.iter().fold(0.0f64, |m, &mu| m.min(mu));
    let floor = POSITIVE_RITZ_FLOOR * mu_min.abs();
    let above = eigenvalues.iter().filter(|&&mu| mu > floor);
    let count = above.clone().count();
    (count > 0).then(|| (count, above.fold(f64::NEG_INFINITY, |m, &mu| m.max(mu))))
}

struct RitzStep {
    eigenvalues: Vec<f64>,
    error: f64,
}

/// Rayleigh–Ritz projection + rotation + Eq. 7 residual, updating `v` in
/// place and timing each kernel. `w` receives `A·v` rotated along, so the
/// residual needs no extra operator application.
fn rayleigh_ritz(
    op: &DielectricOperator<'_>,
    v: &mut Mat<f64>,
    timings: &mut SubspaceTimings,
) -> Result<RitzStep, LinalgError> {
    let _rr = mbrpa_obs::span("rayleigh_ritz");

    // operator application
    let t = Instant::now();
    let w = {
        let _s = mbrpa_obs::span("apply");
        op.apply_dielectric_block(v)
    };
    timings.apply += t.elapsed();

    // projections
    let t = Instant::now();
    let (h_s, m_s) = {
        let _s = mbrpa_obs::span("matmult");
        (matmul_tn(v, &w), matmul_tn(v, v))
    };
    timings.matmult += t.elapsed();

    // small generalized eigensolve
    let t = Instant::now();
    let eig = {
        let _s = mbrpa_obs::span("eigensolve");
        generalized_sym_eig(&h_s, &m_s)?
    };
    timings.eigensolve += t.elapsed();

    // rotations
    let t = Instant::now();
    let w_rot = {
        let _s = mbrpa_obs::span("matmult");
        *v = matmul(v, &eig.vectors);
        matmul(&w, &eig.vectors)
    };
    timings.matmult += t.elapsed();

    // Eq. 7: Σ_j ‖A v_j − D_jj v_j‖₂ / (n_eig √(Σ D²))
    let t = Instant::now();
    let _ee = mbrpa_obs::span("eval_error");
    let n_eig = v.cols();
    let mut res_sum = 0.0;
    for j in 0..n_eig {
        let lam = eig.values[j];
        let mut r = 0.0;
        let (vj, wj) = (v.col(j), w_rot.col(j));
        for i in 0..v.rows() {
            let d = wj[i] - lam * vj[i];
            r += d * d;
        }
        res_sum += r.sqrt();
    }
    let scale: f64 = eig.values.iter().map(|d| d * d).sum::<f64>().sqrt();
    let error = res_sum / (n_eig as f64 * scale.max(1e-300));
    timings.eval_error += t.elapsed();

    Ok(RitzStep {
        eigenvalues: eig.values,
        error,
    })
}

/// Run Algorithm 5 from the initial block `v0` at the operator's frequency.
///
/// The operator's cancel token (if it holds one) is checked before each
/// Rayleigh–Ritz projection and each Chebyshev filter round. A cancelled
/// outcome carries `cancelled = true` and whatever state the last
/// completed kernel produced; callers must discard it (the RPA driver
/// recomputes the frequency from its last checkpoint on resume).
pub fn subspace_iteration(
    op: &DielectricOperator<'_>,
    v0: Mat<f64>,
    tol: f64,
    max_rounds: usize,
    cheb_degree: usize,
) -> Result<SubspaceOutcome, LinalgError> {
    let mut v = v0;
    let mut timings = SubspaceTimings::default();
    let mut history = Vec::new();

    let cancelled_outcome = |v: Mat<f64>,
                             timings: SubspaceTimings,
                             history: Vec<SubspaceIterRecord>,
                             rounds: usize,
                             eigenvalues: Vec<f64>,
                             error: f64| SubspaceOutcome {
        converged: false,
        cancelled: true,
        error,
        filter_rounds: rounds,
        eigenvalues,
        vectors: v,
        timings,
        history,
    };

    if op.cancel_requested() {
        return Ok(cancelled_outcome(
            v,
            timings,
            history,
            0,
            Vec::new(),
            f64::INFINITY,
        ));
    }

    // Lines 2–5: project and check before any filtering.
    let t_iter = Instant::now();
    let mut step = rayleigh_ritz(op, &mut v, &mut timings)?;
    history.push(record(0, &step, t_iter.elapsed()));

    let mut rounds = 0;
    while step.error > tol && rounds < max_rounds {
        if op.cancel_requested() {
            let (eigs, err) = (step.eigenvalues, step.error);
            return Ok(cancelled_outcome(v, timings, history, rounds, eigs, err));
        }
        rounds += 1;
        let t_iter = Instant::now();

        // Filter bounds from the running Ritz values (§III-A): damp the
        // unwanted interval between the least-negative kept Ritz value and
        // the (≈ 0) top of the spectrum.
        let mu_min = step.eigenvalues[0];
        // lint: allow(unwrap) — subspace dimension is validated ≥ 1 before iteration
        let mu_edge = *step.eigenvalues.last().expect("non-empty spectrum");
        let b_up = 1e-3 * mu_min.abs().max(1e-12);
        let a = if mu_edge < b_up { mu_edge } else { 0.5 * b_up };

        let t = Instant::now();
        {
            let _cheb = mbrpa_obs::span("chebyshev");
            v = chebyshev_filter(op, &v, cheb_degree, a, b_up, mu_min);
        }
        timings.apply += t.elapsed();

        // A cancellation observed mid-filter produced a truncated operator
        // application (see `chi0`); the block is garbage and must not be
        // projected or recorded — bail before the Rayleigh–Ritz step.
        if op.cancel_requested() {
            let (eigs, err) = (step.eigenvalues, step.error);
            return Ok(cancelled_outcome(v, timings, history, rounds, eigs, err));
        }

        step = rayleigh_ritz(op, &mut v, &mut timings)?;
        history.push(record(rounds, &step, t_iter.elapsed()));
    }

    Ok(SubspaceOutcome {
        converged: step.error <= tol,
        cancelled: false,
        error: step.error,
        filter_rounds: rounds,
        eigenvalues: step.eigenvalues,
        vectors: v,
        timings,
        history,
    })
}

fn record(ncheb: usize, step: &RitzStep, elapsed: Duration) -> SubspaceIterRecord {
    let n = step.eigenvalues.len();
    let edge = [
        step.eigenvalues[0],
        step.eigenvalues[1.min(n - 1)],
        step.eigenvalues[n.saturating_sub(2)],
        step.eigenvalues[n - 1],
    ];
    SubspaceIterRecord {
        ncheb,
        energy_term: trace_term(&step.eigenvalues),
        error: step.error,
        edge_eigs: edge,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::chi0::SternheimerSettings;
    use crate::direct;
    use mbrpa_dft::{solve_occupied_dense, Hamiltonian, PotentialParams, SiliconSpec};
    use mbrpa_grid::{CoulombOperator, SpectralLaplacian};
    use mbrpa_linalg::orthonormalize_columns;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Fixture {
        ham: Hamiltonian,
        psi: Mat<f64>,
        energies: Vec<f64>,
        coulomb: CoulombOperator,
        h_dense: Mat<f64>,
    }

    fn fixture() -> Fixture {
        let crystal = SiliconSpec {
            points_per_cell: 5,
            perturbation: 0.03,
            seed: 11,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let ks = solve_occupied_dense(&ham, 6, 0).unwrap();
        let spec = SpectralLaplacian::new(crystal.grid, 2).unwrap();
        Fixture {
            h_dense: ham.to_dense(),
            psi: ks.occupied_orbitals(),
            energies: ks.occupied_energies().to_vec(),
            ham,
            coulomb: CoulombOperator::new(spec),
        }
    }

    fn random_block(n: usize, m: usize, seed: u64) -> Mat<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = Mat::from_fn(n, m, |_, _| rng.random_range(-1.0..1.0));
        orthonormalize_columns(&mut v);
        v
    }

    #[test]
    fn converges_to_exact_lowest_eigenvalues() {
        let f = fixture();
        let omega = 1.0;
        let op = DielectricOperator::new(
            &f.ham,
            &f.psi,
            &f.energies,
            &f.coulomb,
            omega,
            SternheimerSettings {
                tol: 1e-9,
                ..SternheimerSettings::default()
            },
            1,
        );
        let n_eig = 10;
        let v0 = random_block(f.ham.dim(), n_eig, 3);
        // the Eq. 7 residual floors near the inexact-operator level; the
        // paper runs at τ_SI = 5e-4, we ask for a tighter 1e-4
        let out = subspace_iteration(&op, v0, 1e-4, 40, 4).unwrap();
        assert!(out.converged, "error {}", out.error);

        let eig_h = direct::full_spectrum(&f.h_dense).unwrap();
        let exact = direct::dielectric_spectrum(&eig_h, 6, omega, &f.coulomb).unwrap();
        for j in 0..n_eig.min(4) {
            let d = (out.eigenvalues[j] - exact[j]).abs();
            assert!(
                d < 1e-3 * exact[j].abs().max(1e-6),
                "eig {j}: {} vs exact {}",
                out.eigenvalues[j],
                exact[j]
            );
        }
    }

    #[test]
    fn warm_start_converges_without_filtering() {
        let f = fixture();
        let settings = SternheimerSettings {
            tol: 1e-9,
            ..SternheimerSettings::default()
        };
        let op1 =
            DielectricOperator::new(&f.ham, &f.psi, &f.energies, &f.coulomb, 0.50, settings, 1);
        let v0 = random_block(f.ham.dim(), 8, 5);
        let first = subspace_iteration(&op1, v0, 5e-4, 40, 4).unwrap();
        assert!(first.converged);
        // nearby frequency, warm start: expect 0 or very few filter rounds
        let op2 =
            DielectricOperator::new(&f.ham, &f.psi, &f.energies, &f.coulomb, 0.48, settings, 1);
        let second = subspace_iteration(&op2, first.vectors, 2e-3, 40, 4).unwrap();
        assert!(second.converged);
        assert!(
            second.filter_rounds <= 1,
            "warm start needed {} filter rounds",
            second.filter_rounds
        );
        assert!(second.filter_rounds < first.filter_rounds);
    }

    #[test]
    fn trace_term_matches_manual_sum() {
        let mus = [-2.0, -0.5, -0.01];
        let expect: f64 = mus.iter().map(|&m: &f64| (1.0 - m).ln() + m).sum();
        assert!((trace_term(&mus) - expect).abs() < 1e-14);
        // positive noise clamps to zero contribution
        assert_eq!(trace_term(&[1e-15]), 0.0);
    }

    #[test]
    fn pre_cancelled_token_short_circuits_before_any_work() {
        let f = fixture();
        let cancel = CancelToken::new();
        cancel.cancel();
        let op = DielectricOperator::new(
            &f.ham,
            &f.psi,
            &f.energies,
            &f.coulomb,
            0.9,
            SternheimerSettings::default(),
            1,
        )
        .with_cancel(cancel);
        let v0 = random_block(f.ham.dim(), 6, 7);
        let out = subspace_iteration(&op, v0, 1e-5, 15, 3).unwrap();
        assert!(out.cancelled);
        assert!(!out.converged);
        assert!(out.history.is_empty(), "no projection should have run");
        assert_eq!(
            op.applications(),
            0,
            "no operator application should have run"
        );
    }

    #[test]
    fn uncancelled_token_matches_plain_iteration() {
        let f = fixture();
        let settings = SternheimerSettings::default();
        let op = DielectricOperator::new(&f.ham, &f.psi, &f.energies, &f.coulomb, 0.9, settings, 1);
        let v0 = random_block(f.ham.dim(), 6, 7);
        let plain = subspace_iteration(&op, v0.clone(), 1e-5, 15, 3).unwrap();
        let op2 =
            DielectricOperator::new(&f.ham, &f.psi, &f.energies, &f.coulomb, 0.9, settings, 1)
                .with_cancel(CancelToken::new());
        let live = subspace_iteration(&op2, v0, 1e-5, 15, 3).unwrap();
        assert!(!live.cancelled);
        assert_eq!(live.filter_rounds, plain.filter_rounds);
        assert_eq!(live.eigenvalues, plain.eigenvalues);
    }

    #[test]
    fn history_records_progression() {
        let f = fixture();
        let op = DielectricOperator::new(
            &f.ham,
            &f.psi,
            &f.energies,
            &f.coulomb,
            0.9,
            SternheimerSettings::default(),
            1,
        );
        let v0 = random_block(f.ham.dim(), 6, 7);
        let out = subspace_iteration(&op, v0, 1e-5, 15, 3).unwrap();
        assert_eq!(out.history.len(), out.filter_rounds + 1);
        assert_eq!(out.history[0].ncheb, 0);
        // error decreases overall from start to finish
        let first_err = out.history[0].error;
        assert!(out.error < first_err);
        // timing kernels all saw work
        assert!(out.timings.apply > Duration::ZERO);
        assert!(out.timings.total() > Duration::ZERO);
    }
}
