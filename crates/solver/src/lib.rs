//! # mbrpa-solver
//!
//! Krylov subspace solvers for the complex-symmetric Sternheimer systems:
//!
//! * **Block COCG** ([`block_cocg`]) — the paper's short-term-recurrence
//!   block solver (Algorithm 3),
//! * **Dynamic block size selection** ([`dynamic_block`]) — Algorithm 4,
//! * **Real-arithmetic shifted solves** ([`shifted_lanczos`]) — the
//!   Sternheimer systems as real (block) Lanczos on `H − λ_j`, two
//!   columns per apply,
//! * **Chebyshev-filtered subspace iteration** ([`chebyshev`]) — the
//!   filter, Rayleigh–Ritz round and start block shared by CheFSI and the
//!   RPA dielectric eigensolver,
//! * **Galerkin initial guesses** ([`initial_guess`]) — Eq. 13,
//!
//! all behind the matrix-free [`LinearOperator`] trait.

// Index-heavy numerical kernels read better with explicit loop indices and
// the domain-meaningful `2r + 1` stencil-count forms.
#![allow(clippy::needless_range_loop, clippy::int_plus_one)]
// In-crate test modules assert *exact* float results on purpose — the
// workspace pins accumulation order for bitwise reproducibility — so
// `clippy::float_cmp` is relaxed for test builds only; non-test code is
// still checked by the plain lib target (see DESIGN.md §9).
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod block_cocg;
pub mod chebyshev;
pub mod dynamic_block;
pub mod initial_guess;
pub mod operator;
pub mod shifted_lanczos;
pub mod stats;
#[cfg(test)]
mod test_util;
pub mod workspace;

pub use block_cocg::{
    block_cocg, block_cocg_ws, cocg, true_relative_residual, CocgOptions, MAX_BREAKDOWNS,
};
pub use chebyshev::{
    chebyshev_filter, random_orthonormal_block, rayleigh_ritz, RitzRound, SubspaceTimings,
};
pub use dynamic_block::{solve_multi_rhs, solve_shifted_real_rhs, BlockPolicy, MultiRhsOutcome};
pub use initial_guess::{galerkin_guess, galerkin_guess_real};
pub use operator::{DenseOperator, LinearOperator};
pub use shifted_lanczos::{shifted_block_lanczos, shifted_lanczos_pair, ReSink, RealShifted};
pub use stats::{BlockSizeHistogram, LanczosSlots, SolveReport, WidthLoad, WorkerStats};
pub use workspace::{with_thread_workspace, Workspace};
