//! Subspace iteration with polynomial filtering over the dielectric
//! operator — Algorithm 5 of the paper.
//!
//! Each iteration applies the degree-`m` Chebyshev filter to the current
//! block `V`, projects and rotates with the Rayleigh–Ritz round CheFSI
//! runs too ([`mbrpa_solver::rayleigh_ritz`]: `H_s = Vᵀ(AV)`, `M_s = VᵀV`,
//! generalized symmetric eigensolve), and reduces its per-column residuals
//! to the criterion of Eq. 7. The expensive kernel is the operator application
//! inside filtering and projection; the dense algebra mirrors the paper's
//! ScaLAPACK section and is timed separately (Figure 5 kernels).
//!
//! A Rayleigh–Ritz check runs **before** any filtering (lines 2–5 of
//! Algorithm 5), so a warm-started `V₀` from the previous quadrature point
//! can converge with zero filter applications — the "skip polynomial
//! filtering" behaviour of §III-F falls out naturally.

use crate::chi0::DielectricOperator;
use mbrpa_linalg::{LinalgError, Mat};
pub use mbrpa_solver::SubspaceTimings;
use mbrpa_solver::{chebyshev_filter, rayleigh_ritz};
use std::time::{Duration, Instant};

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

/// Apply the operator and run the shared Rayleigh–Ritz round on `v`: its
/// Ritz values and their Eq. 7 residual,
/// `Σ_j ‖A v_j − D_jj v_j‖₂ / (n_eig √(Σ D²))`.
fn project(
    op: &DielectricOperator<'_>,
    v: &mut Mat<f64>,
    timings: &mut SubspaceTimings,
) -> Result<(Vec<f64>, f64), LinalgError> {
    let _rr = mbrpa_obs::span("rayleigh_ritz");

    let t = Instant::now();
    let mut w = {
        let _s = mbrpa_obs::span("apply");
        op.apply_dielectric_block(v)
    };
    timings.apply += t.elapsed();

    let round = rayleigh_ritz(v, &mut w, timings)?;
    let mut res_sum = 0.0;
    for r in &round.residual_sq {
        res_sum += r.sqrt();
    }
    let scale: f64 = round.values.iter().map(|d| d * d).sum::<f64>().sqrt();
    let error = res_sum / (v.cols() as f64 * scale.max(1e-300));
    Ok((round.values, error))
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
    let (mut eigenvalues, mut error) = (Vec::new(), f64::INFINITY);
    let mut rounds = 0;
    let mut cancelled = op.cancel_requested();

    if !cancelled {
        // Lines 2–5: project and check before any filtering.
        let t_iter = Instant::now();
        (eigenvalues, error) = project(op, &mut v, &mut timings)?;
        history.push(record(0, &eigenvalues, error, t_iter.elapsed()));
    }
    while !cancelled && error > tol && rounds < max_rounds {
        if op.cancel_requested() {
            cancelled = true;
            break;
        }
        rounds += 1;
        let t_iter = Instant::now();

        // Filter bounds from the running Ritz values (§III-A): damp the
        // unwanted interval between the least-negative kept Ritz value and
        // the (≈ 0) top of the spectrum.
        let mu_min = eigenvalues[0];
        // lint: allow(unwrap) — subspace dimension is validated ≥ 1 before iteration
        let mu_edge = *eigenvalues.last().expect("non-empty spectrum");
        let b_up = POSITIVE_RITZ_FLOOR * mu_min.abs().max(1e-12);
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
            cancelled = true;
            break;
        }

        (eigenvalues, error) = project(op, &mut v, &mut timings)?;
        history.push(record(rounds, &eigenvalues, error, t_iter.elapsed()));
    }

    Ok(SubspaceOutcome {
        converged: !cancelled && error <= tol,
        cancelled,
        error,
        filter_rounds: rounds,
        eigenvalues,
        vectors: v,
        timings,
        history,
    })
}

fn record(ncheb: usize, eigenvalues: &[f64], error: f64, elapsed: Duration) -> SubspaceIterRecord {
    let n = eigenvalues.len();
    let edge = [
        eigenvalues[0],
        eigenvalues[1.min(n - 1)],
        eigenvalues[n.saturating_sub(2)],
        eigenvalues[n - 1],
    ];
    SubspaceIterRecord {
        ncheb,
        energy_term: trace_term(eigenvalues),
        error,
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
    use mbrpa_solver::random_orthonormal_block;

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
        let v0 = random_orthonormal_block(f.ham.dim(), n_eig, 3);
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
        let v0 = random_orthonormal_block(f.ham.dim(), 8, 5);
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
        let v0 = random_orthonormal_block(f.ham.dim(), 6, 7);
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
        let v0 = random_orthonormal_block(f.ham.dim(), 6, 7);
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
        let v0 = random_orthonormal_block(f.ham.dim(), 6, 7);
        let out = subspace_iteration(&op, v0, 1e-5, 15, 3).unwrap();
        assert_eq!(out.history.len(), out.filter_rounds + 1);
        assert_eq!(out.history[0].ncheb, 0);
        // error decreases overall from start to finish
        let first_err = out.history[0].error;
        assert!(out.error < first_err);
        // timing kernels all saw work
        assert!(out.timings.apply > Duration::ZERO);
        assert!(out.timings.apply > Duration::ZERO);
    }
}
