//! # mbrpa-dft
//!
//! Model Kohn–Sham DFT substrate: the "prior KS-DFT calculation" whose
//! occupied orbitals, orbital energies, and Hamiltonian the RPA stage
//! consumes. Provides silicon-like crystal builders (Table III systems),
//! a model pseudopotential (local Gaussian wells + Kleinman–Bylander-style
//! sparse projectors), the matrix-free Hamiltonian, the complex-symmetric
//! Sternheimer operator, and dense/CheFSI occupied-orbital eigensolvers.
//!
//! See DESIGN.md for the substitution argument: the paper used SPARC with
//! real silicon pseudopotentials; the RPA algorithms only require the
//! structure reproduced here.

// Index-heavy numerical kernels read better with explicit loop indices and
// the domain-meaningful `2r + 1` stencil-count forms.
#![allow(clippy::needless_range_loop, clippy::int_plus_one)]
// In-crate test modules assert *exact* float results on purpose — the
// workspace pins accumulation order for bitwise reproducibility — so
// `clippy::float_cmp` is relaxed for test builds only; non-test code is
// still checked by the plain lib target (see DESIGN.md §9).
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod eigensolve;
pub mod hamiltonian;
pub mod potential;
pub mod system;

pub use eigensolve::{
    solve_occupied_chefsi, solve_occupied_dense, ChefsiOptions, HamiltonianOperator, KsSolution,
    SternheimerLinOp,
};
pub use hamiltonian::{Hamiltonian, SternheimerOperator};
pub use potential::{
    local_potential, NonlocalProjectors, PotentialParams, Projector, ProjectorForm,
};
pub use system::{silicon_ladder, Atom, Crystal, SiliconSpec, DIAMOND_CUBIC_FRACTIONS};
