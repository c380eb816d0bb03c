//! RPA run configuration, mirroring the paper's input file and Table I.

use crate::chi0::{PrecondPolicy, WorkDistribution};
use mbrpa_solver::BlockPolicy;

/// Parameters of an RPA correlation-energy calculation.
///
/// Field names follow the paper's artifact input file (`Si8.rpa`):
/// `N_NUCHI_EIGS`, `N_OMEGA`, `TOL_EIG`, `TOL_STERN_RES`,
/// `MAXIT_FILTERING`, `CHEB_DEGREE_RPA`, `FLAG_COCGINITIAL`.
#[derive(Clone, Debug)]
pub struct RpaConfig {
    /// `N_NUCHI_EIGS`: eigenvalues of `νχ⁰` computed per quadrature point
    /// (the paper uses 96 per atom).
    pub n_eig: usize,
    /// `N_OMEGA`: quadrature points `ℓ` (Table I: 8).
    pub n_omega: usize,
    /// `TOL_EIG`: subspace iteration tolerance `τ_SI` per quadrature point;
    /// shorter lists repeat their last entry (Table I: 4e-3, 2e-3, then
    /// 5e-4).
    pub tol_eig: Vec<f64>,
    /// `TOL_STERN_RES`: linear solver tolerance `τ_Sternheimer` (Eq. 10;
    /// §IV-B settles on 1e-2).
    pub tol_sternheimer: f64,
    /// `MAXIT_FILTERING`: subspace-iteration cap per quadrature point
    /// (Table I context: 10).
    pub max_filter_iters: usize,
    /// `CHEB_DEGREE_RPA`: filter polynomial degree (Table I: 2).
    pub cheb_degree: usize,
    /// `FLAG_COCGINITIAL`: use the Galerkin initial guess of Eq. 13.
    pub use_galerkin_guess: bool,
    /// Warm-start subspace iteration from the previous quadrature point's
    /// eigenvectors (§III-F). Disable only for the ablation bench.
    pub warm_start: bool,
    /// COCG block-size policy (Algorithm 4 by default).
    pub block_policy: BlockPolicy,
    /// Worker count `p ≤ n_eig` partitioning the `n_eig` columns (§III-D).
    pub n_workers: usize,
    /// Iteration cap of each COCG solve.
    pub cocg_max_iters: usize,
    /// Selects nothing; see [`PrecondPolicy`].
    pub precondition: PrecondPolicy,
    /// Selects nothing; see [`WorkDistribution`].
    pub distribution: WorkDistribution,
    /// RNG seed for the initial random subspace.
    pub seed: u64,
}

impl Default for RpaConfig {
    fn default() -> Self {
        Self {
            n_eig: 96,
            n_omega: 8,
            tol_eig: vec![4e-3, 2e-3, 5e-4],
            tol_sternheimer: 1e-2,
            max_filter_iters: 10,
            cheb_degree: 2,
            use_galerkin_guess: true,
            warm_start: true,
            block_policy: BlockPolicy::DynamicCostModel,
            n_workers: 1,
            cocg_max_iters: 600,
            precondition: PrecondPolicy::Never,
            distribution: WorkDistribution::StaticColumns,
            seed: 2024,
        }
    }
}

impl RpaConfig {
    /// Table I defaults with `n_eig = eig_per_atom · atoms` (the paper uses
    /// 96/atom; scaled runs typically use 24/atom).
    // lint: allow(unreached_pub) — builds the configs of failure_modes and paper_scale_smoke
    pub fn for_system(atoms: usize, eig_per_atom: usize) -> Self {
        Self {
            n_eig: atoms * eig_per_atom,
            ..Self::default()
        }
    }

    /// `τ_SI` for quadrature index `k` (0-based), repeating the last entry.
    pub fn tol_eig_at(&self, k: usize) -> f64 {
        *self
            .tol_eig
            .get(k.min(self.tol_eig.len().saturating_sub(1)))
            // lint: allow(unwrap) — index is clamped to len-1 and config
            // validation rejects an empty tol_eig list
            .expect("tol_eig must be non-empty")
    }

    /// Can these settings run on a grid of `n_d` points? The message names
    /// the `.rpa` key at fault.
    pub fn check(&self, n_d: usize) -> Result<(), String> {
        if self.n_eig < 1 {
            return Err("N_NUCHI_EIGS must be at least 1".to_string());
        }
        if self.n_eig > n_d {
            return Err(format!(
                "N_NUCHI_EIGS: n_eig = {} exceeds grid dimension n_d = {n_d}",
                self.n_eig
            ));
        }
        if self.n_omega < 1 {
            return Err("N_OMEGA must be at least 1".to_string());
        }
        // a NaN or infinite tolerance stops before the first filter round,
        // zero or a negative one is never met
        if self.tol_eig.is_empty() || !self.tol_eig.iter().all(|t| t.is_finite() && *t > 0.0) {
            return Err("TOL_EIG must be a non-empty list of finite positive numbers".to_string());
        }
        if self.max_filter_iters < 1 {
            return Err("MAXIT_FILTERING must be at least 1".to_string());
        }
        if self.cheb_degree < 1 {
            return Err("CHEB_DEGREE_RPA must be at least 1".to_string());
        }
        if !(self.tol_sternheimer.is_finite() && self.tol_sternheimer > 0.0) {
            return Err("TOL_STERN_RES must be positive".to_string());
        }
        if self.n_workers < 1 {
            return Err("NP (NP_NUCHI_EIGS_PARAL_RPA): need at least one worker".to_string());
        }
        // p > n_eig is allowed: `run_with` runs min(p, n_eig) workers, the
        // partition p would get anyway (§III-D's p <= n_eig is a
        // load-balance guideline, not a hard precondition)
        Ok(())
    }

    /// [`check`](Self::check) for library callers, to whom unsatisfiable
    /// settings are a programming error: panics with its message.
    pub fn validate(&self, n_d: usize) {
        if let Err(e) = self.check(n_d) {
            panic!("unsatisfiable RpaConfig: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_i() {
        let c = RpaConfig::default();
        assert_eq!(c.n_omega, 8);
        assert_eq!(c.cheb_degree, 2);
        assert_eq!(c.max_filter_iters, 10);
        assert_eq!(c.tol_sternheimer, 1e-2);
        assert_eq!(c.tol_eig, vec![4e-3, 2e-3, 5e-4]);
        assert!(c.use_galerkin_guess);
        assert!(c.warm_start);
    }

    #[test]
    fn tol_eig_repeats_last() {
        let c = RpaConfig::default();
        assert_eq!(c.tol_eig_at(0), 4e-3);
        assert_eq!(c.tol_eig_at(1), 2e-3);
        assert_eq!(c.tol_eig_at(2), 5e-4);
        assert_eq!(c.tol_eig_at(7), 5e-4);
    }

    #[test]
    fn for_system_scales_eigs() {
        let c = RpaConfig::for_system(8, 96);
        assert_eq!(c.n_eig, 768); // the paper's Si8 row of Table III
    }

    #[test]
    fn validate_accepts_sane_config() {
        let mut c = RpaConfig::for_system(2, 8);
        c.n_workers = 4;
        c.validate(1000);
    }

    #[test]
    #[should_panic(expected = "exceeds grid dimension")]
    fn validate_rejects_oversized_n_eig() {
        RpaConfig::for_system(8, 96).validate(100);
    }

    #[test]
    fn validate_tolerates_oversubscribed_workers() {
        // more workers than eigenvectors is wasteful but valid: the
        // column partition clamps and the surplus workers idle
        let mut c = RpaConfig::for_system(1, 4);
        c.n_workers = 8;
        c.validate(1000);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn validate_rejects_zero_workers() {
        let mut c = RpaConfig::for_system(1, 4);
        c.n_workers = 0;
        c.validate(1000);
    }
}
