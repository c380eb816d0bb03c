//! # mbrpa-grid
//!
//! Real-space discretization substrate: 3-D grids, high-order
//! finite-difference Laplacian stencils (applied one vector at a time per
//! the paper's §III-C arithmetic-intensity analysis), and the Kronecker
//! spectral machinery behind the Coulomb operator `ν = −4π(∇²)⁻¹` and its
//! square root `ν½`.

// Index-heavy numerical kernels read better with explicit loop indices and
// the domain-meaningful `2r + 1` stencil-count forms.
#![allow(clippy::needless_range_loop, clippy::int_plus_one)]
// In-crate test modules assert *exact* float results on purpose — the
// workspace pins accumulation order for bitwise reproducibility — so
// `clippy::float_cmp` is relaxed for test builds only; non-test code is
// still checked by the plain lib target (see DESIGN.md §9).
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod coulomb;
pub mod grid;
pub mod kron;
pub mod par;
pub mod stencil;

pub use coulomb::CoulombOperator;
pub use grid::{Boundary, Grid3};
pub use kron::SpectralLaplacian;
pub use stencil::{dense_laplacian_1d, second_derivative_weights, Laplacian};
