//! Lanczos-quadrature RPA driver — the first future-work item of the
//! paper's §V: replace the poorly-scaling generalized eigensolve of
//! subspace iteration with stochastic Lanczos quadrature, which "can be
//! done in an embarrassingly parallel way utilizing the full processor
//! count" because probes never need a shared Rayleigh–Ritz step.
//!
//! For each quadrature frequency, `Tr[ln(I − νχ⁰) + νχ⁰]` is estimated by
//! Hutchinson probes with Gauss–Lanczos quadrature of
//! `f(μ) = ln(1 − μ) + μ` over the dielectric operator. Accuracy is
//! governed by the probe count (statistical) and Lanczos steps
//! (quadrature), not by an `n_eig` truncation — the estimator sees the
//! whole spectrum, so it needs no eigenvalue-count parameter at all.
//!
//! The `future_work` harness runs it beside the subspace-iteration driver
//! of `mbrpa-core`. The estimator is [`crate::trace_est`]'s block Lanczos
//! quadrature; `block_size = 1` is the scalar method.

use crate::trace_est::{block_lanczos_trace, BlockTraceOptions};
use mbrpa_core::{frequency_quadrature, DielectricOperator, RpaConfig, SternheimerSettings};
use mbrpa_dft::{Crystal, Hamiltonian, KsSolution};
use mbrpa_grid::CoulombOperator;
use mbrpa_linalg::LinalgError;
use std::time::{Duration, Instant};

/// Per-frequency record of the Lanczos-quadrature path.
#[derive(Clone, Debug)]
pub struct LanczosOmegaReport {
    /// Frequency `ω_k`.
    pub omega: f64,
    /// Quadrature weight.
    pub weight: f64,
    /// Estimated trace term `E_k`.
    pub energy_term: f64,
    /// Standard error of the estimate.
    pub std_error: f64,
    /// `w_k E_k / 2π`.
    pub contribution: f64,
}

/// Result of the Lanczos-quadrature RPA calculation.
#[derive(Clone, Debug)]
pub struct LanczosRpaResult {
    /// `E_RPA` in Hartree.
    pub total_energy: f64,
    /// Per atom.
    pub energy_per_atom: f64,
    /// 1-σ error propagated from the per-frequency standard errors.
    pub total_std_error: f64,
    /// Per-frequency reports.
    pub per_omega: Vec<LanczosOmegaReport>,
    /// End-to-end wall time.
    pub wall_time: Duration,
}

/// Compute `E_RPA` via stochastic Lanczos quadrature of the integrand
/// trace (no subspace iteration, no `n_eig` truncation).
pub fn compute_rpa_energy_lanczos(
    crystal: &Crystal,
    ham: &Hamiltonian,
    ks: &KsSolution,
    coulomb: &CoulombOperator,
    config: &RpaConfig,
    estimator: &BlockTraceOptions,
) -> Result<LanczosRpaResult, LinalgError> {
    let t_start = Instant::now();
    let quad = frequency_quadrature(config.n_omega);
    let psi = ks.occupied_orbitals();
    let energies = ks.occupied_energies().to_vec();
    let settings = SternheimerSettings {
        tol: config.tol_sternheimer,
        max_iters: config.cocg_max_iters,
        policy: config.block_policy,
        use_galerkin_guess: config.use_galerkin_guess,
        precondition: config.precondition,
        distribution: config.distribution,
    };

    let f = |mu: f64| {
        let mu = mu.min(0.0); // clamp spectral-noise positives
        (1.0 - mu).ln() + mu
    };

    let mut total = 0.0;
    let mut var = 0.0;
    let mut per_omega = Vec::with_capacity(quad.len());
    for (k, pt) in quad.iter().enumerate() {
        let op = DielectricOperator::new(
            ham,
            &psi,
            &energies,
            coulomb,
            pt.omega,
            settings,
            config.n_workers,
        );
        let opts = BlockTraceOptions {
            seed: estimator.seed ^ ((k as u64) << 32),
            ..*estimator
        };
        let est = block_lanczos_trace(&op, &f, &opts)?;
        let scale = pt.weight / (2.0 * std::f64::consts::PI);
        total += scale * est.trace;
        var += (scale * est.std_error).powi(2);
        per_omega.push(LanczosOmegaReport {
            omega: pt.omega,
            weight: pt.weight,
            energy_term: est.trace,
            std_error: est.std_error,
            contribution: scale * est.trace,
        });
    }

    Ok(LanczosRpaResult {
        total_energy: total,
        energy_per_atom: total / crystal.atoms.len() as f64,
        total_std_error: var.sqrt(),
        per_omega,
        wall_time: t_start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_core::{direct_rpa_energy, KsSolver, RpaSetup};
    use mbrpa_dft::{PotentialParams, SiliconSpec};

    fn tiny_setup() -> RpaSetup {
        let crystal = SiliconSpec {
            points_per_cell: 5,
            perturbation: 0.03,
            seed: 11,
            ..SiliconSpec::default()
        }
        .build();
        RpaSetup::prepare(
            crystal,
            &PotentialParams::default(),
            2,
            KsSolver::Dense { extra: 2 },
        )
        .unwrap()
    }

    #[test]
    fn lanczos_path_matches_direct_oracle() {
        let setup = tiny_setup();
        let config = RpaConfig {
            n_eig: 16, // unused by the estimator, kept for settings reuse
            n_omega: 4,
            tol_sternheimer: 1e-6,
            n_workers: 1,
            ..RpaConfig::default()
        };
        let estimator = BlockTraceOptions {
            n_blocks: 12,
            block_size: 1,
            steps: 30,
            seed: 5,
        };
        let result = compute_rpa_energy_lanczos(
            &setup.crystal,
            &setup.ham,
            &setup.ks,
            &setup.coulomb,
            &config,
            &estimator,
        )
        .unwrap();
        assert!(result.total_energy < 0.0);
        assert_eq!(result.per_omega.len(), 4);

        let quad = frequency_quadrature(config.n_omega);
        let direct = direct_rpa_energy(
            &setup.ham.to_dense(),
            setup.ks.n_occupied,
            &setup.coulomb,
            &quad,
        )
        .unwrap();
        // the estimator sees the WHOLE spectrum: unlike the subspace path,
        // it should match the full direct trace within its error bars
        let err = (result.total_energy - direct.total).abs();
        assert!(
            err < 5.0 * result.total_std_error.max(0.02 * direct.total.abs()),
            "lanczos {} vs direct {} (σ = {})",
            result.total_energy,
            direct.total,
            result.total_std_error
        );
    }

    #[test]
    fn more_probes_tighten_the_error_bar() {
        let setup = tiny_setup();
        let config = RpaConfig {
            n_eig: 16,
            n_omega: 2,
            tol_sternheimer: 1e-5,
            n_workers: 1,
            ..RpaConfig::default()
        };
        let run = |probes: usize| {
            compute_rpa_energy_lanczos(
                &setup.crystal,
                &setup.ham,
                &setup.ks,
                &setup.coulomb,
                &config,
                &BlockTraceOptions {
                    n_blocks: probes,
                    block_size: 1,
                    steps: 20,
                    seed: 9,
                },
            )
            .unwrap()
        };
        let few = run(4);
        let many = run(16);
        assert!(many.total_std_error < few.total_std_error);
    }
}
