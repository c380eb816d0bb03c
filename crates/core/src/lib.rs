//! # mbrpa-core
//!
//! Real-space computation of the many-body RPA electronic correlation
//! energy via Krylov subspace linear solvers — the primary contribution of
//! the reproduced SC'24 paper.
//!
//! The pipeline (Algorithm 6 of the paper):
//!
//! 1. [`quadrature`]: Gauss–Legendre frequencies on `(0, ∞)` (Table II),
//!    stepped largest-to-smallest,
//! 2. [`chi0`]: the matrix-free dielectric operator `ν½χ⁰(iω)ν½`, applied
//!    through Sternheimer solves with block COCG + dynamic block sizing
//!    over a worker partition of the eigenvector columns,
//! 3. [`subspace`]: Chebyshev-filtered subspace iteration with
//!    warm-started eigenvectors across frequencies,
//! 4. [`rpa`]: the driver accumulating `E_RPA = Σ w_k E_k / 2π`.
//!
//! [`direct`] provides the quartic-scaling explicit Adler–Wiser baseline
//! (correctness oracle and the §IV-C comparator). The Lanczos-quadrature
//! trace estimator that §V proposes as future work lives in `mbrpa-bench`
//! (`trace_est`), beside `rpa_lanczos`, its one caller.

// Index-heavy numerical kernels read better with explicit loop indices and
// the domain-meaningful `2r + 1` stencil-count forms.
#![allow(clippy::needless_range_loop, clippy::int_plus_one)]
// In-crate test modules assert *exact* float results on purpose — the
// workspace pins accumulation order for bitwise reproducibility — so
// `clippy::float_cmp` is relaxed for test builds only; non-test code is
// still checked by the plain lib target (see DESIGN.md §9).
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod cancel;
pub mod canonical;
pub mod checkpoint;
pub mod chi0;
pub mod config;
pub mod direct;
pub mod io;
pub mod quadrature;
pub mod report;
pub mod rpa;
pub mod subspace;
pub mod workers;

pub use cancel::CancelToken;
pub use canonical::{
    canonical_bytes, fingerprint_hex, fnv1a64, input_fingerprint, is_fingerprint_hex,
    CANONICAL_VERSION,
};
pub use checkpoint::{config_fingerprint, ResumableOutcome, ResumePolicy, RpaRunError};
pub use chi0::{DielectricOperator, PrecondPolicy, SternheimerSettings, WorkDistribution};
pub use config::RpaConfig;
pub use direct::{
    dense_chi0, dense_dielectric, dielectric_eigenpairs, dielectric_spectrum, direct_rpa_energy,
    exact_trace_term, full_spectrum, DirectRpaResult,
};
pub use io::{parse_rpa_input, ParseError, RpaInput};
pub use mbrpa_solver::{random_orthonormal_block, BlockPolicy};
pub use quadrature::{frequency_quadrature, gauss_legendre, FrequencyPoint};
pub use rpa::{quadrature_of, KsSolver, OmegaReport, PartialRun, RpaResult, RpaSetup, RunOptions};
pub use subspace::{
    positive_ritz, subspace_iteration, trace_term, SubspaceIterRecord, SubspaceOutcome,
    SubspaceTimings,
};
pub use workers::{partition_columns, ColumnRange};
