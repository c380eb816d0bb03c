//! Crash-safe checkpoint/restart for the RPA frequency loop.
//!
//! The frequency loop dominates walltime (thousands of CPU-seconds per
//! quadrature point at production scale) while the state needed to resume
//! is compact: the warm-start eigenvector block, the accumulated energy,
//! and the per-frequency summaries. Given a store,
//! [`RpaSetup::run_with`](crate::rpa::RpaSetup::run_with) journals a
//! snapshot (via [`mbrpa_ckpt`]) after each quadrature frequency, and on
//! startup resumes from the last completed frequency — reproducing the
//! uninterrupted run's total energy **bit for bit**, because the snapshot
//! stores every `f64` as raw IEEE-754 bits and the loop is deterministic
//! for a fixed configuration. This module is the two ends of that
//! journal ([`persist`], [`restore`]), the run-compatibility fingerprint
//! that guards it, and the policy/outcome/error types of a run.
//!
//! A [run fingerprint](config_fingerprint) guards the resume: the setup
//! key (grid, atoms, potential, stencil, KS solver), eigencount,
//! quadrature order, tolerances, seed, worker count, and every solver
//! policy are hashed into the snapshot, and a mismatch aborts rather than
//! silently mixing incompatible state.
//! (`n_workers` is included deliberately: the dynamic block-size policy
//! partitions work per worker, so a different worker count can change the
//! floating-point summation order and break bit-reproducibility.)

use crate::config::RpaConfig;
use crate::rpa::{KsSolver, OmegaReport, PartialRun, RpaResult};
use crate::subspace::{SubspaceIterRecord, SubspaceTimings};
use mbrpa_ckpt::{CheckpointStore, CkptError, IterRow, OmegaSummary, Snapshot};
use mbrpa_dft::{Atom, ChefsiOptions, Crystal, PotentialParams};
use mbrpa_grid::{Boundary, Grid3};
use mbrpa_linalg::LinalgError;
use std::fmt;
use std::time::Duration;

/// Errors of a resumable RPA run: numerical failures, checkpoint I/O, or
/// an attempt to resume state written under a different configuration.
#[derive(Debug)]
pub enum RpaRunError {
    /// The numerical pipeline failed.
    Linalg(LinalgError),
    /// Reading or writing the checkpoint store failed.
    Checkpoint(CkptError),
    /// The snapshot was written by a run with a different configuration
    /// or system; resuming it would not be bit-for-bit reproducible.
    ConfigMismatch {
        /// Fingerprint stored in the snapshot.
        saved: u64,
        /// Fingerprint of the current configuration.
        current: u64,
    },
    /// The snapshot is internally valid but cannot seed this run (wrong
    /// dimensions or frequency count).
    IncompatibleSnapshot {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for RpaRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpaRunError::Linalg(e) => write!(f, "{e}"),
            RpaRunError::Checkpoint(e) => write!(f, "{e}"),
            RpaRunError::ConfigMismatch { saved, current } => write!(
                f,
                "checkpoint belongs to a different run: its configuration or system \
                 differs (saved fingerprint {saved:#018x}, current {current:#018x}); \
                 start a fresh checkpoint directory or restore the original settings"
            ),
            RpaRunError::IncompatibleSnapshot { reason } => {
                write!(f, "checkpoint cannot seed this run: {reason}")
            }
        }
    }
}

impl std::error::Error for RpaRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpaRunError::Linalg(e) => Some(e),
            RpaRunError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for RpaRunError {
    fn from(e: LinalgError) -> Self {
        RpaRunError::Linalg(e)
    }
}

impl From<CkptError> for RpaRunError {
    fn from(e: CkptError) -> Self {
        RpaRunError::Checkpoint(e)
    }
}

/// How a resumable run uses its checkpoint store.
#[derive(Clone, Copy, Debug)]
pub struct ResumePolicy {
    /// Snapshot after every `every`-th completed frequency (the final
    /// frequency of a call always snapshots). `1` journals every boundary.
    pub every: usize,
    /// Load existing state from the store before computing. With `false`
    /// the run starts from scratch (existing slots are overwritten as the
    /// new run progresses).
    pub resume: bool,
    /// Compute at most this many *new* frequencies, then checkpoint and
    /// return [`ResumableOutcome::Checkpointed`]. Time-slices a long run
    /// across job allocations; `None` runs to completion.
    pub stop_after: Option<usize>,
}

impl Default for ResumePolicy {
    fn default() -> Self {
        Self {
            every: 1,
            resume: true,
            stop_after: None,
        }
    }
}

/// Result of [`RpaSetup::run_with`](crate::rpa::RpaSetup::run_with).
#[derive(Debug)]
pub enum ResumableOutcome {
    /// All frequencies done; the energy is bit-for-bit that of an
    /// uninterrupted run, however many restarts it took to get here.
    Complete(Box<RpaResult>),
    /// The run stopped at a frequency boundary per
    /// [`ResumePolicy::stop_after`]; state is journaled in the store.
    Checkpointed {
        /// Frequencies completed so far (across all runs).
        completed: usize,
        /// Total frequencies of the full calculation.
        n_omega: usize,
    },
    /// The run observed its [`CancelToken`](crate::CancelToken) at a
    /// frequency boundary. With a store attached the completed prefix was
    /// checkpointed (even when [`ResumePolicy::every`] would have skipped
    /// that boundary), so a later resume completes the run bit-for-bit.
    Cancelled(PartialRun),
}

/// FNV-1a hash of the schema number, the setup's key (`setup_key`) and
/// every configuration field that affects the numerical trajectory of the run
/// (the config half of the canonical encoding, so the two fingerprints
/// cannot disagree about which fields exist). Two runs with equal
/// fingerprints walk identical floating-point paths frequency by
/// frequency, which is what makes a resumed run bit-for-bit identical to
/// an uninterrupted one.
///
/// This is the *run-compatibility* fingerprint stored in snapshots (64
/// bits, schema `FINGERPRINT_SCHEMA`). Its input-level v2 extension —
/// 128 bits over the full canonical encoding of a parsed `.rpa` input,
/// system definition included — lives in [`crate::canonical`] and keys
/// the exact-result cache of `mbrpa-serve`.
pub fn config_fingerprint(config: &RpaConfig, setup_key: u64) -> u64 {
    let mut bytes = Vec::with_capacity(208);
    bytes.extend_from_slice(&FINGERPRINT_SCHEMA.to_le_bytes());
    bytes.extend_from_slice(&setup_key.to_le_bytes());
    bytes.extend_from_slice(&crate::canonical::config_bytes(config));
    crate::fnv1a64(&bytes)
}

/// Bump when the fingerprint's field set or encoding changes, so stale
/// snapshots from older builds are rejected instead of misread. 2: the
/// fields are the config half of [`crate::canonical::canonical_bytes`].
/// 3: the grid dimension became the whole setup key (`setup_key`).
const FINGERPRINT_SCHEMA: u64 = 3;

/// FNV-1a key of everything [`RpaSetup::prepare`](crate::rpa::RpaSetup::prepare)
/// builds a setup from: the grid's shape, spacing and boundary, every
/// atom's position and valence, the potential, the stencil radius and the
/// KS solver. Equal keys mean the same Hamiltonian and orbitals, bit for
/// bit. The structs are destructured whole, so a field added to any of
/// them does not compile until it is keyed here.
pub(crate) fn setup_key(
    crystal: &Crystal,
    potential: &PotentialParams,
    stencil_radius: usize,
    ks_solver: &KsSolver,
) -> u64 {
    let Grid3 {
        nx,
        ny,
        nz,
        hx,
        hy,
        hz,
        bc,
    } = crystal.grid;
    let boundary = match bc {
        Boundary::Periodic => 1,
        Boundary::Dirichlet => 2,
    };
    let mut words = vec![nx as u64, ny as u64, nz as u64];
    words.extend([hx, hy, hz].map(f64::to_bits));
    words.extend([boundary, crystal.atoms.len() as u64]);
    for &Atom { position, valence } in &crystal.atoms {
        words.extend([position.0, position.1, position.2].map(f64::to_bits));
        words.push(valence as u64);
    }
    let PotentialParams {
        depth,
        sigma,
        nonlocal_strength,
        nonlocal_sigma,
        nonlocal_cutoff,
    } = *potential;
    let wells = [
        depth,
        sigma,
        nonlocal_strength,
        nonlocal_sigma,
        nonlocal_cutoff,
    ];
    words.extend(wells.map(f64::to_bits));
    words.push(stencil_radius as u64);
    match *ks_solver {
        KsSolver::Dense { extra } => words.extend([1, extra as u64]),
        KsSolver::Chefsi(ChefsiOptions {
            degree,
            tol,
            max_iters,
            extra,
            seed,
        }) => words.extend([
            2,
            degree as u64,
            tol.to_bits(),
            max_iters as u64,
            extra as u64,
            seed,
        ]),
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    crate::fnv1a64(&bytes)
}

/// Serialize one frequency's report into its snapshot form. Timings are
/// stored as seconds; everything numerical keeps exact bits.
pub fn summary_of(rep: &OmegaReport) -> OmegaSummary {
    OmegaSummary {
        omega: rep.omega,
        weight: rep.weight,
        unit_node: rep.unit_node,
        energy_term: rep.energy_term,
        contribution: rep.contribution,
        filter_rounds: rep.filter_rounds as u64,
        error: rep.error,
        converged: rep.converged,
        eigenvalues: rep.eigenvalues.clone(),
        timings_s: [
            rep.timings.apply.as_secs_f64(),
            rep.timings.matmult.as_secs_f64(),
            rep.timings.eigensolve.as_secs_f64(),
            rep.timings.eval_error.as_secs_f64(),
        ],
        history: rep
            .history
            .iter()
            .map(|row| IterRow {
                ncheb: row.ncheb as u64,
                energy_term: row.energy_term,
                error: row.error,
                edge_eigs: row.edge_eigs,
                elapsed_s: row.elapsed.as_secs_f64(),
            })
            .collect(),
    }
}

/// Rebuild a report from its snapshot form.
pub fn report_of(s: &OmegaSummary) -> OmegaReport {
    OmegaReport {
        omega: s.omega,
        weight: s.weight,
        unit_node: s.unit_node,
        energy_term: s.energy_term,
        contribution: s.contribution,
        filter_rounds: s.filter_rounds as usize,
        error: s.error,
        converged: s.converged,
        eigenvalues: s.eigenvalues.clone(),
        timings: SubspaceTimings {
            apply: duration_s(s.timings_s[0]),
            matmult: duration_s(s.timings_s[1]),
            eigensolve: duration_s(s.timings_s[2]),
            eval_error: duration_s(s.timings_s[3]),
        },
        history: s
            .history
            .iter()
            .map(|row| SubspaceIterRecord {
                ncheb: row.ncheb as usize,
                energy_term: row.energy_term,
                error: row.error,
                edge_eigs: row.edge_eigs,
                elapsed: duration_s(row.elapsed_s),
            })
            .collect(),
    }
}

/// Seconds → `Duration`, tolerating garbage (negative/NaN) as zero rather
/// than panicking on a hand-edited snapshot.
fn duration_s(s: f64) -> Duration {
    Duration::try_from_secs_f64(s).unwrap_or(Duration::ZERO)
}

/// Journal the loop state into `store` as one snapshot.
pub(crate) fn persist(
    store: &mut CheckpointStore,
    fingerprint: u64,
    state: &PartialRun,
) -> Result<(), CkptError> {
    let mut snap = Snapshot {
        fingerprint,
        sequence: 0, // stamped by the store
        completed: state.completed as u64,
        n_omega_total: state.n_omega as u64,
        accumulated_energy: state.accumulated_energy,
        warm_start: state.warm_start.clone(),
        omega: state.per_omega.iter().map(summary_of).collect(),
    };
    store.save(&mut snap)
}

/// Load the newest valid snapshot and check that it can seed this run.
/// `None` when there is nothing to resume from (an empty store, or a
/// snapshot taken before the first frequency finished).
pub(crate) fn restore(
    store: &CheckpointStore,
    fingerprint: u64,
    config: &RpaConfig,
    n_d: usize,
) -> Result<Option<PartialRun>, RpaRunError> {
    let Some(loaded) = store.load_latest()? else {
        return Ok(None);
    };
    let snap = loaded.snapshot;
    if snap.fingerprint != fingerprint {
        return Err(RpaRunError::ConfigMismatch {
            saved: snap.fingerprint,
            current: fingerprint,
        });
    }
    if snap.n_omega_total as usize != config.n_omega {
        return Err(RpaRunError::IncompatibleSnapshot {
            reason: format!(
                "snapshot covers {} quadrature frequencies, run wants {}",
                snap.n_omega_total, config.n_omega
            ),
        });
    }
    if snap.completed > snap.n_omega_total {
        return Err(RpaRunError::IncompatibleSnapshot {
            reason: format!(
                "snapshot claims {} of {} frequencies completed",
                snap.completed, snap.n_omega_total
            ),
        });
    }
    if snap.completed == 0 {
        return Ok(None);
    }
    if snap.warm_start.rows() != n_d || snap.warm_start.cols() != config.n_eig {
        return Err(RpaRunError::IncompatibleSnapshot {
            reason: format!(
                "warm-start block is {}×{}, run wants {n_d}×{}",
                snap.warm_start.rows(),
                snap.warm_start.cols(),
                config.n_eig
            ),
        });
    }
    Ok(Some(PartialRun {
        completed: snap.completed as usize,
        n_omega: config.n_omega,
        warm_start: snap.warm_start,
        accumulated_energy: snap.accumulated_energy,
        per_omega: snap.omega.iter().map(report_of).collect(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subspace::SubspaceTimings;

    fn base_config() -> RpaConfig {
        RpaConfig {
            n_eig: 8,
            n_omega: 4,
            ..RpaConfig::default()
        }
    }

    #[test]
    fn fingerprint_is_stable_for_equal_configs() {
        let a = config_fingerprint(&base_config(), 125);
        let b = config_fingerprint(&base_config(), 125);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_tracks_the_grid_dimension() {
        // the grid is part of the setup key (a setup that differs in
        // seed or mesh alone is refused in tests/checkpoint_restart.rs);
        // the config fields are covered, for both fingerprints, by
        // `canonical::tests::every_config_field_moves_both_fingerprints`
        let reference = config_fingerprint(&base_config(), 125);
        assert_ne!(config_fingerprint(&base_config(), 126), reference);
    }

    #[test]
    fn snapshot_stamped_by_schema_1_is_refused() {
        // what a build before the shared field list hashed this very
        // config and grid to; the same run today must not resume from it
        const SCHEMA_1: u64 = 0x9346_19ad_ad48_379f;
        let config = base_config();
        let current = config_fingerprint(&config, 125);
        assert_ne!(current, SCHEMA_1);
        let dir = std::env::temp_dir().join(format!("mbrpa-schema1-{}", std::process::id()));
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut snap = Snapshot {
            fingerprint: SCHEMA_1,
            sequence: 0,
            completed: 0,
            n_omega_total: config.n_omega as u64,
            accumulated_energy: 0.0,
            warm_start: mbrpa_linalg::Mat::zeros(125, config.n_eig),
            omega: Vec::new(),
        };
        store.save(&mut snap).unwrap();
        match restore(&store, current, &config, 125) {
            Err(RpaRunError::ConfigMismatch { saved, .. }) => assert_eq!(saved, SCHEMA_1),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tol_list_boundary_shifts_are_distinct() {
        // [a, b] vs [a] then b elsewhere must not collide: the length is
        // hashed before the entries
        let a = RpaConfig {
            tol_eig: vec![1e-3, 2e-3],
            ..base_config()
        };
        let b = RpaConfig {
            tol_eig: vec![1e-3],
            ..base_config()
        };
        assert_ne!(config_fingerprint(&a, 125), config_fingerprint(&b, 125));
    }

    #[test]
    fn summary_round_trip_preserves_report() {
        let rep = OmegaReport {
            omega: 49.365,
            weight: 128.4,
            unit_node: 0.02,
            energy_term: -0.003_730_000_000_000_1,
            contribution: -5.937e-4,
            filter_rounds: 3,
            error: 3.7e-4,
            converged: true,
            eigenvalues: vec![-0.0119, -0.0112, -0.003],
            timings: SubspaceTimings {
                apply: Duration::from_millis(1500),
                matmult: Duration::from_millis(250),
                eigensolve: Duration::from_micros(125),
                eval_error: Duration::ZERO,
            },
            history: vec![SubspaceIterRecord {
                ncheb: 2,
                energy_term: -0.0037,
                error: 3.7e-4,
                edge_eigs: [-0.0119, -0.0112, -0.003, -0.0025],
                elapsed: Duration::from_millis(5140),
            }],
        };
        let back = report_of(&summary_of(&rep));
        assert_eq!(back.omega.to_bits(), rep.omega.to_bits());
        assert_eq!(back.energy_term.to_bits(), rep.energy_term.to_bits());
        assert_eq!(back.contribution.to_bits(), rep.contribution.to_bits());
        assert_eq!(back.filter_rounds, rep.filter_rounds);
        assert_eq!(back.converged, rep.converged);
        assert_eq!(back.eigenvalues, rep.eigenvalues);
        assert_eq!(back.timings.apply, rep.timings.apply);
        assert_eq!(back.history.len(), 1);
        assert_eq!(back.history[0].ncheb, 2);
        assert_eq!(back.history[0].elapsed, rep.history[0].elapsed);
    }

    #[test]
    fn garbage_durations_clamp_to_zero() {
        assert_eq!(duration_s(-1.0), Duration::ZERO);
        assert_eq!(duration_s(f64::NAN), Duration::ZERO);
        assert_eq!(duration_s(2.5), Duration::from_secs_f64(2.5));
    }
}
