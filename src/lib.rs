//! # mbrpa — Many-Body RPA correlation energy via Krylov subspace solvers
//!
//! A from-scratch Rust reproduction of the SC'24 paper *"Many-Body
//! Electronic Correlation Energy using Krylov Subspace Linear Solvers"*:
//! a real-space, cubic-scaling computation of the RPA correlation energy
//! within density functional theory, built on a short-term-recurrence
//! block Krylov solver (block COCG) with dynamic block-size selection.
//!
//! ## Quickstart
//!
//! ```
//! use mbrpa::prelude::*;
//!
//! // an 8-atom perturbed silicon-like crystal on a 5³ grid (tiny demo)
//! let crystal = SiliconSpec { points_per_cell: 5, ..SiliconSpec::default() }.build();
//! let setup = RpaSetup::prepare(
//!     crystal,
//!     &PotentialParams::default(),
//!     2,                          // finite-difference stencil radius
//!     KsSolver::Dense { extra: 2 },
//! ).unwrap();
//!
//! let config = RpaConfig {
//!     n_eig: 16,
//!     n_omega: 4,
//!     tol_sternheimer: 1e-3,
//!     max_filter_iters: 20,
//!     ..RpaConfig::default()
//! };
//! let result = setup.run(&config).unwrap();
//! assert!(result.total_energy < 0.0); // correlation energy is negative
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`linalg`] | dense real/complex kernels (GEMM, LU, Cholesky, QR, symmetric eigensolvers) |
//! | [`grid`] | finite-difference stencils, Kronecker spectral Laplacian, Coulomb operator `ν`, `ν½` |
//! | [`dft`] | model Kohn–Sham substrate (crystals, pseudopotential, Hamiltonian, CheFSI) |
//! | [`solver`] | block COCG, real shifted Lanczos, Chebyshev filters, dynamic block sizing |
//! | [`ckpt`] | crash-safe checkpoint codec and two-slot journaled store |
//! | [`obs`] | zero-dependency telemetry: spans, counters, residual traces, JSON reports |
//! | [`core`] | quadrature, Sternheimer χ⁰ apply, subspace iteration, RPA driver, direct oracle |
//! | [`serve`] | batch job daemon: HTTP API, priority queue, cancellable resumable executors |

#![warn(missing_docs)]

pub use mbrpa_ckpt as ckpt;
pub use mbrpa_core as core;
pub use mbrpa_dft as dft;
pub use mbrpa_grid as grid;
pub use mbrpa_linalg as linalg;
pub use mbrpa_obs as obs;
pub use mbrpa_serve as serve;
pub use mbrpa_solver as solver;

pub mod cli;

/// Process start-up shared by the binaries: lock the SIMD dispatch path
/// in from the `MBRPA_SIMD` environment variable before any kernel can
/// resolve it lazily, record it for the telemetry and health documents,
/// and size the global rayon pool when `threads` is given. An `Err` is the
/// message to print before exiting with failure; a pool that cannot be
/// sized is only a warning.
pub fn init_runtime(threads: Option<usize>) -> Result<mbrpa_simd::Dispatch, String> {
    let dispatch = mbrpa_simd::init_from_env()?;
    mbrpa_obs::set_dispatch(dispatch.name());
    if let Some(t) = threads {
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
        {
            // lint: allow(print) — the binaries' own start-up: this is their stderr warning
            eprintln!("warning: could not size the thread pool: {e}");
        }
    }
    Ok(dispatch)
}

/// One-stop imports for applications.
pub mod prelude {
    pub use mbrpa_ckpt::CheckpointStore;
    pub use mbrpa_core::{
        dielectric_spectrum, direct_rpa_energy, frequency_quadrature, full_spectrum, lanczos_trace,
        subspace_iteration, CancelToken, DielectricOperator, KsSolver, PartialRun,
        ResumableOutcome, ResumePolicy, RpaConfig, RpaResult, RpaRunError, RpaSetup, RunOptions,
        SternheimerSettings, TraceEstimatorOptions,
    };
    pub use mbrpa_dft::{
        silicon_ladder, solve_occupied_chefsi, solve_occupied_dense, ChefsiOptions, Crystal,
        Hamiltonian, KsSolution, PotentialParams, SiliconSpec, SternheimerOperator,
    };
    pub use mbrpa_grid::{Boundary, CoulombOperator, Grid3, Laplacian, SpectralLaplacian};
    pub use mbrpa_linalg::{Mat, C64};
    pub use mbrpa_serve::{Daemon, DaemonConfig};
    pub use mbrpa_solver::{
        block_cocg, cocg, solve_multi_rhs, BlockPolicy, CocgOptions, LinearOperator, WorkerStats,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let spec = SiliconSpec::default();
        assert_eq!(spec.points_per_cell, 9);
        let config = RpaConfig::default();
        assert_eq!(config.n_omega, 8);
    }
}
