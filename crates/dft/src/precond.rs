//! Inverse shifted-Laplacian preconditioner for the Sternheimer systems —
//! the paper's §V: "since a key term in the Hamiltonian is the discrete
//! Laplacian matrix, we can leverage fast Poisson solves to use the
//! *inverse* Laplacian as a preconditioner … dynamically applied only in
//! those cases" (the difficult systems).
//!
//! For `A = H − λ I + iω I` with `H = −½∇² + V`, the preconditioner is
//! `M = (−½∇² + v̄ − λ + iω)⁻¹` with `v̄` the mean local potential: the
//! kinetic term dominates at short wavelengths, so `M` equilibrates the
//! high end of the spectrum while the Kronecker eigenbasis makes each
//! application `O(n_d(nx+ny+nz))` — the "fast Poisson solve" of the paper.

use crate::hamiltonian::Hamiltonian;
use mbrpa_grid::SpectralLaplacian;
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{with_thread_workspace, Preconditioner, Workspace};

/// `(−½∇² + σ)⁻¹` with complex shift `σ = v̄ − λ + iω`.
pub struct ShiftedLaplacianPreconditioner {
    spectral: SpectralLaplacian,
    sigma: C64,
}

impl ShiftedLaplacianPreconditioner {
    /// Build for the Sternheimer pair `(λ, ω)` of a Hamiltonian, using the
    /// mean local potential as the diagonal surrogate.
    pub fn for_sternheimer(
        ham: &Hamiltonian,
        spectral: SpectralLaplacian,
        lambda: f64,
        omega: f64,
    ) -> Self {
        assert_eq!(spectral.grid().len(), ham.dim(), "grid mismatch");
        let v_mean = ham.vloc().iter().sum::<f64>() / ham.dim() as f64;
        Self {
            spectral,
            sigma: C64::new(v_mean - lambda, omega),
        }
    }

    /// Build with an explicit complex shift.
    pub fn with_shift(spectral: SpectralLaplacian, sigma: C64) -> Self {
        assert!(
            sigma.norm() > 0.0,
            "zero shift makes the periodic preconditioner singular"
        );
        Self { spectral, sigma }
    }

    /// The complex shift σ in use.
    pub fn sigma(&self) -> C64 {
        self.sigma
    }
}

impl Preconditioner for ShiftedLaplacianPreconditioner {
    fn dim(&self) -> usize {
        self.spectral.grid().len()
    }

    fn apply_block_into(&self, w: &Mat<C64>, z: &mut Mat<C64>) {
        let n = self.dim();
        assert_eq!(w.rows(), n);
        assert_eq!(z.shape(), w.shape());
        let sigma = self.sigma;
        let f = move |lam: f64| C64::new(1.0, 0.0) / (C64::new(-0.5 * lam, 0.0) + sigma);
        // transform scratch from this thread's f64 pool: the solver loop
        // calls this every iteration and must stay off the allocator
        with_thread_workspace(|ws: &mut Workspace<f64>| {
            let mut scratch = ws.take_zeroed(n, SpectralLaplacian::COMPLEX_SCRATCH_PER_POINT);
            for j in 0..w.cols() {
                self.spectral.apply_function_complex(
                    &f,
                    w.col(j),
                    z.col_mut(j),
                    scratch.as_mut_slice(),
                );
            }
            ws.give(scratch);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigensolve::SternheimerLinOp;
    use crate::hamiltonian::SternheimerOperator;
    use crate::potential::PotentialParams;
    use crate::system::SiliconSpec;
    use mbrpa_solver::{block_cocg, block_cocg_ws, true_relative_residual, CocgOptions};

    fn fixture() -> (Hamiltonian, SpectralLaplacian, Vec<f64>) {
        let crystal = SiliconSpec {
            points_per_cell: 7,
            perturbation: 0.02,
            seed: 3,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let spec = SpectralLaplacian::new(crystal.grid, 2).unwrap();
        let ks = crate::eigensolve::solve_occupied_dense(&ham, crystal.n_occupied(), 0).unwrap();
        (ham, spec, ks.energies)
    }

    fn rand_rhs(n: usize, s: usize, seed: u64) -> Mat<C64> {
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

    #[test]
    fn preconditioned_solution_is_correct() {
        let (ham, spec, energies) = fixture();
        let lambda = energies[energies.len() - 1];
        let omega = 0.1;
        let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
        let pre = ShiftedLaplacianPreconditioner::for_sternheimer(&ham, spec, lambda, omega);
        let b = rand_rhs(ham.dim(), 2, 5);
        let opts = CocgOptions {
            tol: 1e-8,
            max_iters: 3000,
            ..CocgOptions::default()
        };
        let (x, rep) = block_cocg_ws(&op, &b, None, &opts, Some(&pre), &mut Workspace::new());
        assert!(rep.converged, "{rep:?}");
        assert!(true_relative_residual(&op, &b, &x) < 1e-6);
    }

    #[test]
    fn preconditioner_reduces_iterations_on_hard_system() {
        // the hard (j = n_s, small ω) regime the paper targets
        let (ham, spec, energies) = fixture();
        let lambda = energies[energies.len() - 1];
        let omega = 0.02;
        let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
        let pre = ShiftedLaplacianPreconditioner::for_sternheimer(&ham, spec, lambda, omega);
        let b = rand_rhs(ham.dim(), 2, 9);
        let opts = CocgOptions {
            tol: 1e-6,
            max_iters: 6000,
            ..CocgOptions::default()
        };
        let (_, plain) = block_cocg(&op, &b, None, &opts);
        let (_, pcg) = block_cocg_ws(&op, &b, None, &opts, Some(&pre), &mut Workspace::new());
        assert!(plain.converged && pcg.converged, "{plain:?} vs {pcg:?}");
        assert!(
            pcg.iterations < plain.iterations,
            "preconditioned {} vs plain {} iterations",
            pcg.iterations,
            plain.iterations
        );
    }

    #[test]
    fn sigma_is_set_from_shift_pair() {
        let (ham, spec, _) = fixture();
        let pre = ShiftedLaplacianPreconditioner::for_sternheimer(&ham, spec, 1.5, 0.25);
        let v_mean = ham.vloc().iter().sum::<f64>() / ham.dim() as f64;
        assert!((pre.sigma().re - (v_mean - 1.5)).abs() < 1e-12);
        assert!((pre.sigma().im - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero shift")]
    fn rejects_zero_shift() {
        let (_, spec, _) = fixture();
        let _ = ShiftedLaplacianPreconditioner::with_shift(spec, C64::new(0.0, 0.0));
    }
}
