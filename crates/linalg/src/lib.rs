//! # mbrpa-linalg
//!
//! Pure-Rust dense linear algebra substrate for the `mbrpa` workspace: the
//! RPA pipeline of the paper needs a handful of dense kernels that MKL and
//! ScaLAPACK provided in the original code —
//!
//! * tall-and-skinny GEMM (`V·Q`, Gram products `VᵀW`) — [`gemm`],
//! * small complex LU solves for block COCG's `s×s` systems — [`lu`],
//! * Cholesky + symmetric/generalized-symmetric eigensolvers for
//!   Rayleigh–Ritz — [`chol`], [`symeig`],
//! * thin QR for basis orthonormalization — [`qr`],
//!
//! all generic over real/complex scalars through [`scalar::Scalar`].

// Index-heavy numerical kernels read better with explicit loop indices and
// the domain-meaningful `2r + 1` stencil-count forms.
#![allow(clippy::needless_range_loop, clippy::int_plus_one)]
// In-crate test modules assert *exact* float results on purpose — the
// workspace pins accumulation order for bitwise reproducibility — so
// `clippy::float_cmp` is relaxed for test builds only; non-test code is
// still checked by the plain lib target (see DESIGN.md §9).
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod chol;
pub mod dense;
pub mod error;
pub mod fcmp;
pub mod gemm;
pub mod lu;
pub mod par;
pub mod qr;
pub mod scalar;
pub mod symeig;
pub mod vecops;

pub use chol::Cholesky;
pub use dense::Mat;
pub use error::LinalgError;
pub use fcmp::{approx_eq, exactly_zero};
pub use gemm::{matmul, matmul_into, matmul_nt, matmul_tn, matmul_tn_into, matmul_tn_rowsum_into};
pub use lu::{factor_solve_in_place, solve};
pub use qr::{orthonormalize_columns, thin_qr, ThinQr};
pub use scalar::Scalar;
pub use symeig::{generalized_sym_eig, symmetric_eig, SymEig};

/// Complex double-precision scalar used across the workspace.
pub type C64 = num_complex::Complex64;
