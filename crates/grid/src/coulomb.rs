//! The Coulomb operator `ν = −4π(∇²)⁻¹` and its matrix square root `ν½`.
//!
//! The paper never builds `ν` explicitly: every application is a Poisson
//! solve, and `ν½` is applied through the Kronecker eigenbasis of the
//! discrete Laplacian (§III-A). `ν` is symmetric positive definite on the
//! complement of the periodic zero mode, which is projected out (the
//! standard Γ-point `G = 0` convention), so `ν½` is well-posed.

use crate::kron::SpectralLaplacian;
use mbrpa_linalg::exactly_zero;
use mbrpa_linalg::Mat;

const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

/// Applies `ν`, `ν½`, and `ν⁻½` through Poisson-type spectral solves.
#[derive(Clone, Debug)]
pub struct CoulombOperator {
    spectral: SpectralLaplacian,
}

impl CoulombOperator {
    /// Wrap a spectral Laplacian.
    pub fn new(spectral: SpectralLaplacian) -> Self {
        Self { spectral }
    }

    /// `out = ν v = 4π(−∇²)⁻¹ v` (zero mode → 0).
    #[cfg(test)]
    fn apply_nu(&self, v: &[f64], out: &mut [f64]) {
        self.spectral.apply_function(&nu_of, v, out);
    }

    /// `out = ν½ v = √(4π)·(−∇²)⁻½ v` (zero mode → 0).
    #[cfg(test)]
    fn apply_nu_sqrt(&self, v: &[f64], out: &mut [f64]) {
        self.spectral
            .apply_function(&|lam| nu_of(lam).sqrt(), v, out);
    }

    /// `ν½` applied to every column of a block, in place: lines 2 and 7 of
    /// the paper's Algorithm 7. Each column is transformed on its own, so
    /// every `χ⁰` task applies it to its own column range, before and after
    /// its orbitals, with no inter-worker communication. Counts the columns
    /// in `grid.nu_sqrt.columns`.
    pub fn apply_nu_sqrt_block(&self, v: &mut Mat<f64>) {
        mbrpa_obs::add("grid.nu_sqrt.columns", v.cols() as u64);
        self.spectral
            .apply_function_block(&|lam| nu_of(lam).sqrt(), v);
    }
}

/// `ν` at a Laplacian eigenvalue `λ`: `4π/(−λ)`, and `0` at the zero mode.
fn nu_of(lam: f64) -> f64 {
    if exactly_zero(lam) {
        0.0
    } else {
        FOUR_PI / (-lam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Boundary, Grid3};

    fn setup(bc: Boundary) -> (Grid3, CoulombOperator) {
        let g = Grid3::cubic(7, 0.69, bc);
        let spec = SpectralLaplacian::new(g, 2).unwrap();
        (g, CoulombOperator::new(spec))
    }

    fn test_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn nu_sqrt_squares_to_nu() {
        let (g, nu) = setup(Boundary::Periodic);
        let v = test_vec(g.len(), 3);
        let mut half = vec![0.0; g.len()];
        nu.apply_nu_sqrt(&v, &mut half);
        let mut full = vec![0.0; g.len()];
        nu.apply_nu_sqrt(&half.clone(), &mut full);
        let mut direct = vec![0.0; g.len()];
        nu.apply_nu(&v, &mut direct);
        for (a, b) in full.iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn nu_is_positive_semidefinite() {
        let (g, nu) = setup(Boundary::Periodic);
        for seed in 1..6 {
            let v = test_vec(g.len(), seed);
            let mut nv = vec![0.0; g.len()];
            nu.apply_nu(&v, &mut nv);
            let quad: f64 = v.iter().zip(nv.iter()).map(|(a, b)| a * b).sum();
            assert!(quad >= -1e-12, "vᵀνv = {quad} < 0");
        }
    }

    #[test]
    fn nu_kills_constants_periodic() {
        let (g, nu) = setup(Boundary::Periodic);
        let v = vec![2.5; g.len()];
        let mut out = vec![0.0; g.len()];
        nu.apply_nu(&v, &mut out);
        assert!(out.iter().all(|x| x.abs() < 1e-10));
    }

    #[test]
    fn nu_strictly_positive_dirichlet() {
        let (g, nu) = setup(Boundary::Dirichlet);
        let v = vec![1.0; g.len()];
        let mut out = vec![0.0; g.len()];
        nu.apply_nu(&v, &mut out);
        let quad: f64 = v.iter().zip(out.iter()).map(|(a, b)| a * b).sum();
        assert!(quad > 1.0, "Dirichlet ν should be strictly PD, got {quad}");
    }

    #[test]
    fn block_apply_matches_vector_apply() {
        let (g, nu) = setup(Boundary::Periodic);
        let mut block = Mat::from_fn(g.len(), 2, |i, j| (i as f64 * 0.01) + j as f64);
        let orig = block.clone();
        nu.apply_nu_sqrt_block(&mut block);
        for j in 0..2 {
            let mut expect = vec![0.0; g.len()];
            nu.apply_nu_sqrt(orig.col(j), &mut expect);
            for (a, b) in block.col(j).iter().zip(expect.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
