//! Fixtures shared by this crate's unit-test modules.

use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::DenseOperator;

/// Random complex-symmetric, diagonally shifted test matrix
/// `A = S + (d + iω)I` mimicking the Sternheimer structure.
pub(crate) fn test_operator(n: usize, diag: f64, omega: f64, seed: u64) -> DenseOperator<C64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    let g = Mat::from_fn(n, n, |_, _| next());
    let a = Mat::from_fn(n, n, |i, j| {
        let mut z = C64::new(0.5 * (g[(i, j)] + g[(j, i)]), 0.0);
        if i == j {
            z += C64::new(diag, omega);
        }
        z
    });
    DenseOperator::new(a)
}

/// Random `n × s` complex block with entries in `[−½, ½)²`.
pub(crate) fn rand_rhs(n: usize, s: usize, seed: u64) -> Mat<C64> {
    let mut state = seed | 1;
    Mat::from_fn(n, s, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let re = (state as f64 / u64::MAX as f64) - 0.5;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        C64::new(re, (state as f64 / u64::MAX as f64) - 0.5)
    })
}

/// Random complex vector of length `n`: [`rand_rhs`]'s single column.
pub(crate) fn rand_c(n: usize, seed: u64) -> Vec<C64> {
    rand_rhs(n, 1, seed).into_vec()
}
