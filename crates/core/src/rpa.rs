//! The RPA correlation-energy driver — Algorithm 6 of the paper.
//!
//! Steps through the quadrature frequencies **largest first**, runs the
//! filtered subspace iteration at each, warm-starts every solve from the
//! previous frequency's eigenvectors (§III-F), and accumulates
//! `E_RPA = Σ_k w_k E_k / 2π` with `E_k = Σ_a ln(1 − D_aa) + D_aa`.

use crate::cancel::CancelToken;
use crate::checkpoint::{
    config_fingerprint, persist, restore, setup_key, ResumableOutcome, ResumePolicy, RpaRunError,
};
use crate::chi0::{DielectricOperator, Ledger, SternheimerSettings};
use crate::config::RpaConfig;
use crate::io::RpaInput;
use crate::quadrature::{frequency_quadrature, FrequencyPoint};
use crate::subspace::{
    positive_ritz, subspace_iteration, trace_term, SubspaceIterRecord, SubspaceTimings,
};
use mbrpa_ckpt::CheckpointStore;
use mbrpa_dft::{
    solve_occupied_chefsi, solve_occupied_dense, ChefsiOptions, Crystal, Hamiltonian, KsSolution,
    PotentialParams,
};
use mbrpa_grid::{CoulombOperator, SpectralLaplacian};
use mbrpa_linalg::{LinalgError, Mat};
use mbrpa_solver::{random_orthonormal_block, WorkerStats};
use std::time::{Duration, Instant};

/// Per-quadrature-point record of the iterative calculation.
#[derive(Clone, Debug)]
pub struct OmegaReport {
    /// Frequency `ω_k`.
    pub omega: f64,
    /// Quadrature weight `w_k`.
    pub weight: f64,
    /// Gauss–Legendre node on (0,1) (the paper's "0~1 value").
    pub unit_node: f64,
    /// `E_k = Σ ln(1 − μ) + μ` over the computed eigenvalues.
    pub energy_term: f64,
    /// `w_k E_k / 2π`.
    pub contribution: f64,
    /// Chebyshev filter applications used (`ncheb`).
    pub filter_rounds: usize,
    /// Final Eq. 7 error.
    pub error: f64,
    /// Whether τ_SI was met.
    pub converged: bool,
    /// Computed eigenvalues (ascending).
    pub eigenvalues: Vec<f64>,
    /// Kernel timings at this frequency.
    pub timings: SubspaceTimings,
    /// Per-iteration history (the paper's output rows).
    pub history: Vec<SubspaceIterRecord>,
}

/// Result of a full RPA correlation-energy calculation.
#[derive(Clone, Debug)]
pub struct RpaResult {
    /// `E_RPA` in Hartree.
    pub total_energy: f64,
    /// `E_RPA` per atom.
    pub energy_per_atom: f64,
    /// Per-frequency reports, in solve order (ω descending).
    pub per_omega: Vec<OmegaReport>,
    /// Aggregated kernel timings (Figure 5 breakdown).
    pub timings: SubspaceTimings,
    /// Merged Sternheimer solver statistics (Table IV data).
    pub solver_stats: WorkerStats,
    /// Cumulative Sternheimer solve time per logical worker, summed across
    /// quadrature points (the §III-D load-imbalance profile: the static
    /// partition's wall time is governed by the slowest worker).
    pub worker_load: Vec<Duration>,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Problem dimensions, for reporting.
    pub n_d: usize,
    /// Number of occupied orbitals.
    pub n_s: usize,
    /// Eigenvalues computed per frequency.
    pub n_eig: usize,
    /// Atom count.
    pub n_atoms: usize,
    /// The form and fill of the non-local projectors
    /// ([`crate::report::projector_note`]), for the report's system line.
    pub projectors: String,
    /// Frequencies restored from a checkpoint rather than computed in
    /// this process (0 for a fresh, uninterrupted run).
    pub n_restored: usize,
}

/// The frequency loop's state at a frequency boundary. One struct serves
/// every consumer: a checkpoint persists it, a resume seeds the loop from
/// it, and a cancelled run hands it back. Everything here reflects
/// *completed* frequencies only — the frequency in flight when a
/// cancellation lands is discarded wholesale.
#[derive(Clone, Debug)]
pub struct PartialRun {
    /// Frequencies completed so far (restored + computed).
    pub completed: usize,
    /// Total quadrature frequencies of the run.
    pub n_omega: usize,
    /// Eigenvector block after frequency `completed - 1` (the random
    /// starting block while `completed == 0`), bit-exact.
    pub warm_start: Mat<f64>,
    /// Running `Σ w_k E_k / 2π` over the completed frequencies, bit-exact.
    pub accumulated_energy: f64,
    /// Reports of the completed frequencies, in solve order.
    pub per_omega: Vec<OmegaReport>,
}

/// What [`RpaSetup::run_with`] does besides stepping the frequencies.
/// The default attaches nothing: a plain run to completion.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Journal per-frequency state into the store, and seed the loop from
    /// it, as the policy says.
    pub checkpoint: Option<(&'a mut CheckpointStore, &'a ResumePolicy)>,
    /// Stop cooperatively at the next safe boundary once this is set.
    pub cancel: Option<&'a CancelToken>,
    /// Called as `(completed, n_omega)` after each frequency computed in
    /// this call, once that boundary's snapshot (when the policy takes
    /// one there) is durable.
    pub on_frequency: Option<&'a mut dyn FnMut(usize, usize)>,
}

/// Snapshot the completed prefix of a cancelled run — even where a sparse
/// `every` would have skipped that boundary — and hand it back.
fn cancelled_exit(
    state: PartialRun,
    checkpoint: Option<(&mut CheckpointStore, &ResumePolicy)>,
    fingerprint: u64,
) -> Result<ResumableOutcome, RpaRunError> {
    if let Some((store, _)) = checkpoint.filter(|_| state.completed > 0) {
        persist(store, fingerprint, &state)?;
    }
    Ok(ResumableOutcome::Cancelled(state))
}

/// How to obtain the occupied orbitals of the prior KS calculation.
#[derive(Clone, Copy, Debug)]
pub enum KsSolver {
    /// Exact dense diagonalization with `extra` buffer states.
    Dense {
        /// Buffer eigenpairs beyond `n_s` (gap reporting).
        extra: usize,
    },
    /// Chebyshev-filtered subspace iteration.
    Chefsi(ChefsiOptions),
}

/// Everything the RPA stage needs, prepared from a crystal in one call.
pub struct RpaSetup {
    /// The chemical system.
    pub crystal: Crystal,
    /// The Kohn–Sham Hamiltonian.
    pub ham: Hamiltonian,
    /// Occupied orbitals and energies.
    pub ks: KsSolution,
    /// The Coulomb operator (ν, ν½).
    pub coulomb: CoulombOperator,
    /// `setup_key` of what this setup was prepared from; it joins the
    /// config in the checkpoint fingerprint.
    setup_key: u64,
}

impl RpaSetup {
    /// Build the Hamiltonian, solve for the occupied orbitals, and set up
    /// the Coulomb machinery.
    pub fn prepare(
        crystal: Crystal,
        potential: &PotentialParams,
        stencil_radius: usize,
        ks_solver: KsSolver,
    ) -> Result<Self, LinalgError> {
        let setup_key = setup_key(&crystal, potential, stencil_radius, &ks_solver);
        let ham = Hamiltonian::new(&crystal, stencil_radius, potential);
        let n_s = crystal.n_occupied();
        let ks = match ks_solver {
            KsSolver::Dense { extra } => solve_occupied_dense(&ham, n_s, extra)?,
            KsSolver::Chefsi(opts) => solve_occupied_chefsi(&ham, n_s, &opts)?,
        };
        let spectral = SpectralLaplacian::new(crystal.grid, stencil_radius)?;
        Ok(Self {
            crystal,
            ham,
            ks,
            coulomb: CoulombOperator::new(spectral),
            setup_key,
        })
    }

    /// The setup every front end runs a parsed `.rpa` input on: the
    /// input's crystal (vacancy included), the default potential, stencil
    /// radius 2, and the dense KS solver up to 1000 grid points, CheFSI
    /// beyond. That `rpacalc` and the daemon both come through here is
    /// what makes a served energy bit-identical to a command-line one.
    pub fn from_input(input: &RpaInput) -> Result<Self, LinalgError> {
        let crystal = match input.vacancy {
            Some(site) => input.system.build_with_vacancy(site),
            None => input.system.build(),
        };
        let ks_solver = if crystal.n_grid() <= 1000 {
            KsSolver::Dense { extra: 4 }
        } else {
            KsSolver::Chefsi(ChefsiOptions::default())
        };
        Self::prepare(crystal, &PotentialParams::default(), 2, ks_solver)
    }

    /// Run the RPA calculation on this setup.
    pub fn run(&self, config: &RpaConfig) -> Result<RpaResult, LinalgError> {
        match self.run_with(config, RunOptions::default()) {
            Ok(ResumableOutcome::Complete(result)) => Ok(*result),
            Err(RpaRunError::Linalg(e)) => Err(e),
            _ => unreachable!("no checkpoint store or cancel token was attached"),
        }
    }

    /// Run with crash-safe per-frequency checkpoints in `store`, resuming
    /// any compatible prior state per `policy`.
    pub fn run_resumable(
        &self,
        config: &RpaConfig,
        store: &mut CheckpointStore,
        policy: &ResumePolicy,
    ) -> Result<ResumableOutcome, RpaRunError> {
        self.run_with(
            config,
            RunOptions {
                checkpoint: Some((store, policy)),
                ..RunOptions::default()
            },
        )
    }

    /// The frequency loop — Algorithm 6, and the only way into it.
    ///
    /// Steps the quadrature frequencies from the restored prefix (none on
    /// a fresh run) to the end, or to `stop_after` newly computed ones.
    /// The energy accumulates left to right in solve order, so seeding
    /// from a snapshot's `accumulated_energy` and warm-start block
    /// reproduces the uninterrupted run bit for bit;
    /// [`RpaResult::n_restored`] says how many frequencies came from the
    /// store.
    ///
    /// The cancel token is observed before each frequency and, through
    /// the [`DielectricOperator`] that holds it, at every boundary inside
    /// one. A cancelled frequency is discarded wholesale, so the state
    /// stays exactly what an uninterrupted run had after the previous
    /// frequency; that prefix is snapshotted (even where `every` would
    /// have skipped the boundary) and returned as
    /// [`ResumableOutcome::Cancelled`].
    pub fn run_with(
        &self,
        config: &RpaConfig,
        options: RunOptions<'_>,
    ) -> Result<ResumableOutcome, RpaRunError> {
        let RunOptions {
            mut checkpoint,
            cancel,
            mut on_frequency,
        } = options;
        let n_d = self.ham.dim();
        config.validate(n_d);
        let fingerprint = config_fingerprint(config, self.setup_key);
        let restored = match &checkpoint {
            Some((store, policy)) if policy.resume => restore(store, fingerprint, config, n_d)?,
            _ => None,
        };

        let t_start = Instant::now();
        let quad = frequency_quadrature(config.n_omega);
        let psi = self.ks.occupied_orbitals();
        let energies = self.ks.occupied_energies().to_vec();
        let settings = SternheimerSettings {
            tol: config.tol_sternheimer,
            max_iters: config.cocg_max_iters,
            policy: config.block_policy,
            use_galerkin_guess: config.use_galerkin_guess,
            precondition: config.precondition,
            distribution: config.distribution,
        };

        let mut state = restored.unwrap_or_else(|| PartialRun {
            completed: 0,
            n_omega: quad.len(),
            warm_start: random_orthonormal_block(n_d, config.n_eig, config.seed),
            accumulated_energy: 0.0,
            per_omega: Vec::with_capacity(quad.len()),
        });
        let n_restored = state.completed;
        let (every, stop_after) = match &checkpoint {
            Some((_, policy)) => (policy.every.max(1), policy.stop_after),
            None => (1, None),
        };
        let end_k = quad
            .len()
            .min(n_restored.saturating_add(stop_after.unwrap_or(usize::MAX)));

        let mut timings = SubspaceTimings::default();
        for rep in &state.per_omega {
            timings.merge(&rep.timings);
        }
        let mut solver_stats = WorkerStats::new();
        // `partition_columns` never hands a column to a worker past the
        // n_eig-th, so neither the operators nor the ledger hold one: the
        // same partition, and no allocation that grows with `NP`
        let n_workers = config.n_workers.min(config.n_eig);
        let mut worker_load = vec![Duration::ZERO; n_workers];

        for (k, pt) in quad.iter().enumerate().take(end_k).skip(n_restored) {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return cancelled_exit(state, checkpoint, fingerprint);
            }
            let _omega_span = mbrpa_obs::span(&format!("omega[{k}]"));
            let mut op = DielectricOperator::new(
                &self.ham,
                &psi,
                &energies,
                &self.coulomb,
                pt.omega,
                settings,
                n_workers,
            );
            if let Some(token) = cancel {
                op = op.with_cancel(token.clone());
            }
            // the warm-start block is cloned into the iteration, so a
            // cancellation mid-frequency leaves `state` exactly as it was
            // after the previous frequency; one n_d × n_eig copy per
            // frequency is noise next to the solves
            let v0 = if config.warm_start || k == 0 {
                state.warm_start.clone()
            } else {
                random_orthonormal_block(n_d, config.n_eig, config.seed ^ (k as u64))
            };
            let out = subspace_iteration(
                &op,
                v0,
                config.tol_eig_at(k),
                config.max_filter_iters,
                config.cheb_degree,
            )?;
            if out.cancelled {
                // the in-flight frequency is discarded wholesale: none of its
                // stats, timings, or (possibly truncated) eigenpairs may leak
                // into the accumulated state
                return cancelled_exit(state, checkpoint, fingerprint);
            }
            let ledger = op.ledger();
            let stats = ledger.stats();
            if mbrpa_obs::enabled() {
                let label = format!("omega[{k}]");
                let errors: Vec<f64> = out.history.iter().map(|h| h.error).collect();
                mbrpa_obs::record_trace("subspace.si_error", &label, &errors);
                publish_work(&label, &ledger, &stats);
                mbrpa_obs::record("subspace.filter_rounds", out.filter_rounds as f64);
                // Ritz values `trace_term` clamps from above the noise floor
                let clamped = positive_ritz(&out.eigenvalues).map_or(0, |(count, _)| count);
                mbrpa_obs::add("core.positive_ritz", clamped as u64);
            }
            let e_k = trace_term(&out.eigenvalues);
            let contribution = pt.weight * e_k / (2.0 * std::f64::consts::PI);
            state.accumulated_energy += contribution;
            timings.merge(&out.timings);
            solver_stats.merge(&stats);
            for (acc, w) in worker_load.iter_mut().zip(&ledger.workers) {
                *acc += w.solve_time;
            }
            state.per_omega.push(OmegaReport {
                omega: pt.omega,
                weight: pt.weight,
                unit_node: pt.unit_node,
                energy_term: e_k,
                contribution,
                filter_rounds: out.filter_rounds,
                error: out.error,
                converged: out.converged,
                eigenvalues: out.eigenvalues,
                timings: out.timings,
                history: out.history,
            });
            state.warm_start = out.vectors;
            state.completed = k + 1;
            if let Some((store, _)) = checkpoint.as_mut() {
                // the last frequency of a call always snapshots, or the
                // tail since the previous multiple of `every` is lost
                if k + 1 == end_k || (k + 1).is_multiple_of(every) {
                    persist(store, fingerprint, &state)?;
                }
            }
            if let Some(observe) = on_frequency.as_mut() {
                observe(k + 1, quad.len());
            }
        }

        if end_k < quad.len() {
            return Ok(ResumableOutcome::Checkpointed {
                completed: end_k,
                n_omega: quad.len(),
            });
        }
        let n_atoms = self.crystal.atoms.len();
        Ok(ResumableOutcome::Complete(Box::new(RpaResult {
            total_energy: state.accumulated_energy,
            energy_per_atom: state.accumulated_energy / n_atoms as f64,
            per_omega: state.per_omega,
            timings,
            solver_stats,
            worker_load,
            wall_time: t_start.elapsed(),
            n_d,
            n_s: self.ks.n_occupied,
            n_eig: config.n_eig,
            n_atoms,
            projectors: crate::report::projector_note(&self.ham),
            n_restored,
        })))
    }
}

/// One computed frequency's Sternheimer work into the telemetry: its share
/// of the run totals, and the `label/` per-frequency counters and
/// per-orbital series. The solvers write no solve counter of their own;
/// this is the one place their work reaches the profile.
fn publish_work(label: &str, ledger: &Ledger, stats: &WorkerStats) {
    use mbrpa_obs::{add, record};
    let chunks: usize = stats.block_sizes.iter().map(|(s, count)| count / s).sum();
    add("solver.cocg.solves", chunks as u64);
    add("solver.cocg.iterations", stats.iterations as u64);
    add("solver.cocg.matvecs", stats.matvecs as u64);
    add("solver.cocg.breakdowns", stats.breakdowns as u64);
    let slots = &stats.lanczos;
    add("solver.lanczos.lone_solves", slots.lone_solves as u64);
    add("solver.lanczos.carried", slots.carried as u64);
    // what each block width cost: the Table IV count, its Krylov steps
    // and its busy time (the per-width times add up to `solve_time`)
    for (s, load) in stats.block_sizes.loads() {
        add(&format!("solver.width.s{s}.columns"), load.columns as u64);
        add(&format!("solver.width.s{s}.steps"), load.steps as u64);
        add(
            &format!("solver.width.s{s}.busy_us"),
            load.busy.as_micros() as u64,
        );
    }
    add("chi0.applications", ledger.applications as u64);
    add(
        &format!("{label}/sternheimer.iterations"),
        stats.iterations as u64,
    );
    add(
        &format!("{label}/sternheimer.matvecs"),
        stats.matvecs as u64,
    );
    add(
        &format!("{label}/chi0.applications"),
        ledger.applications as u64,
    );
    let series = format!("{label}/sternheimer.orbital_iterations");
    for &it in &ledger.orbital_iterations {
        record(&series, it as f64);
    }
}

/// Convenience quadrature accessor re-exported for harnesses.
pub fn quadrature_of(config: &RpaConfig) -> Vec<FrequencyPoint> {
    frequency_quadrature(config.n_omega)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_rpa_energy;
    use mbrpa_dft::SiliconSpec;

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

    fn tiny_config(setup: &RpaSetup) -> RpaConfig {
        RpaConfig {
            n_eig: 24,
            n_omega: 6,
            tol_eig: vec![4e-3, 2e-3, 5e-4],
            tol_sternheimer: 1e-4,
            max_filter_iters: 25,
            cheb_degree: 2,
            n_workers: 1,
            seed: 3,
            ..RpaConfig::default()
        }
        .tap_validate(setup.ham.dim())
    }

    trait Tap {
        fn tap_validate(self, n_d: usize) -> Self;
    }
    impl Tap for RpaConfig {
        fn tap_validate(self, n_d: usize) -> Self {
            self.validate(n_d);
            self
        }
    }

    #[test]
    fn iterative_energy_matches_direct_oracle() {
        let setup = tiny_setup();
        let config = tiny_config(&setup);
        let result = setup.run(&config).unwrap();
        assert!(result.total_energy < 0.0);

        let quad = frequency_quadrature(config.n_omega);
        let direct = direct_rpa_energy(
            &setup.ham.to_dense(),
            setup.ks.n_occupied,
            &setup.coulomb,
            &quad,
        )
        .unwrap();
        // per frequency, the iterative trace over n_eig eigenvalues must
        // match the exact trace truncated to the same n_eig eigenvalues
        // (the honest correctness check for the subspace machinery)
        for (it, ex) in result.per_omega.iter().zip(direct.per_omega.iter()) {
            let truncated: f64 = ex.spectrum[..config.n_eig]
                .iter()
                .map(|&mu| (1.0 - mu).ln() + mu)
                .sum();
            let d = (it.energy_term - truncated).abs();
            assert!(
                d < 0.05 * truncated.abs().max(1e-6),
                "ω = {}: iterative {} vs truncated-direct {truncated}",
                it.omega,
                it.energy_term
            );
        }
        // truncation only discards negative contributions, so the
        // iterative magnitude is bounded by (and a large fraction of) the
        // exact quartic-scaling answer
        assert!(result.total_energy.abs() <= direct.total.abs() * 1.02);
        assert!(
            result.total_energy.abs() >= 0.5 * direct.total.abs(),
            "truncated trace lost too much: {} vs {}",
            result.total_energy,
            direct.total
        );
    }

    #[test]
    fn warm_start_skips_filtering_at_late_frequencies() {
        let setup = tiny_setup();
        let config = tiny_config(&setup);
        let result = setup.run(&config).unwrap();
        // the first frequency must filter (random start)…
        assert!(result.per_omega[0].filter_rounds > 0);
        // …while warm-started later frequencies do far less work
        let late: usize = result.per_omega[3..].iter().map(|r| r.filter_rounds).sum();
        let first = result.per_omega[0].filter_rounds;
        assert!(
            late <= first * 3,
            "warm start ineffective: first {first}, late total {late}"
        );
        // all converged
        for r in &result.per_omega {
            assert!(r.converged, "ω = {} did not converge", r.omega);
        }
    }

    #[test]
    fn energy_invariant_under_worker_count() {
        let setup = tiny_setup();
        let mut config = tiny_config(&setup);
        let e1 = setup.run(&config).unwrap().total_energy;
        config.n_workers = 4;
        let e4 = setup.run(&config).unwrap().total_energy;
        let rel = ((e1 - e4) / e1).abs();
        assert!(rel < 1e-6, "worker count changed the energy: {e1} vs {e4}");
    }

    #[test]
    fn result_bookkeeping() {
        let setup = tiny_setup();
        let config = tiny_config(&setup);
        let result = setup.run(&config).unwrap();
        assert_eq!(result.per_omega.len(), config.n_omega);
        assert_eq!(result.n_atoms, 8);
        assert_eq!(result.n_s, 16);
        assert_eq!(result.n_eig, 24);
        assert_eq!(result.n_d, 125);
        assert!(result.wall_time > Duration::ZERO);
        assert!(result.solver_stats.block_sizes.total() > 0);
        assert!((result.energy_per_atom * 8.0 - result.total_energy).abs() < 1e-12);
        // contributions sum to the total
        let sum: f64 = result.per_omega.iter().map(|r| r.contribution).sum();
        assert!((sum - result.total_energy).abs() < 1e-12);
        // frequencies descend
        for pair in result.per_omega.windows(2) {
            assert!(pair[0].omega > pair[1].omega);
        }
    }
}
