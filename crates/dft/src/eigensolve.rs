//! Occupied-orbital eigensolvers: the "prior KS-DFT calculation" the paper
//! assumes.
//!
//! The RPA stage consumes the lowest `n_s` eigenpairs `(λ_j, Ψ_j)` of the
//! Kohn–Sham Hamiltonian. Two paths are provided: a dense reference solver
//! (exact, `O(n_d³)`, small grids / oracle duty) and Chebyshev-filtered
//! subspace iteration (CheFSI, ref [34] of the paper) which only applies
//! `H` matrix-free — the same algorithmic pattern the paper reuses for the
//! dielectric eigenproblem.

use crate::hamiltonian::{Hamiltonian, SternheimerOperator};
use mbrpa_linalg::{orthonormalize_columns, symmetric_eig, LinalgError, Mat, C64};
use mbrpa_solver::{
    chebyshev_filter, random_orthonormal_block, rayleigh_ritz, LinearOperator, RealShifted,
    SubspaceTimings,
};

/// [`Hamiltonian`] as a real matrix-free operator.
pub struct HamiltonianOperator<'a> {
    ham: &'a Hamiltonian,
}

impl<'a> HamiltonianOperator<'a> {
    /// Wrap a Hamiltonian.
    pub fn new(ham: &'a Hamiltonian) -> Self {
        Self { ham }
    }
}

impl LinearOperator<f64> for HamiltonianOperator<'_> {
    fn dim(&self) -> usize {
        self.ham.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.ham.apply(x, y);
    }
    fn apply_block(&self, x: &Mat<f64>, y: &mut Mat<f64>) {
        self.ham.apply_block(x, y);
    }
    fn apply_flops(&self) -> usize {
        self.ham.apply_flops()
    }
}

/// [`SternheimerOperator`] as a complex matrix-free operator (consumed by
/// block COCG).
pub struct SternheimerLinOp<'a> {
    op: SternheimerOperator<'a>,
}

impl<'a> SternheimerLinOp<'a> {
    /// Wrap a shifted Hamiltonian.
    pub fn new(op: SternheimerOperator<'a>) -> Self {
        Self { op }
    }
}

impl LinearOperator<C64> for SternheimerLinOp<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.op.apply(x, y);
    }
    fn apply_block(&self, x: &Mat<C64>, y: &mut Mat<C64>) {
        self.op.apply_block(x, y);
    }
    fn apply_flops(&self) -> usize {
        self.op.apply_flops()
    }
}

impl RealShifted for SternheimerLinOp<'_> {
    fn omega(&self) -> f64 {
        self.op.omega
    }
    /// `H − λ_j` on the `re` and `im` slots at once: every coefficient of
    /// `H` is real, so the complex apply with a zero imaginary shift never
    /// mixes the two. Counts one complex stencil apply per call.
    fn apply_real_pair(&self, x: &[C64], y: &mut [C64]) {
        let ham = self.op.hamiltonian();
        mbrpa_obs::add("grid.stencil_applies", 1);
        mbrpa_obs::add(
            "grid.stencil_flops",
            ham.laplacian().apply_flops_per_vector() * 2,
        );
        SternheimerOperator::new(ham, self.op.lambda, 0.0).apply(x, y);
    }
}

/// The outcome of the prior Kohn–Sham calculation: the lowest
/// `n_occupied (+ extra)` eigenpairs of `H`.
#[derive(Clone, Debug)]
pub struct KsSolution {
    /// Eigenvalues, ascending; `energies.len() >= n_occupied`.
    pub energies: Vec<f64>,
    /// Orthonormal eigenvectors as columns, matching `energies`.
    pub orbitals: Mat<f64>,
    /// How many of the leading orbitals are (doubly) occupied.
    pub n_occupied: usize,
}

impl KsSolution {
    /// Energies of the occupied orbitals only.
    pub fn occupied_energies(&self) -> &[f64] {
        &self.energies[..self.n_occupied]
    }

    /// Copy of the occupied orbital block `Ψ ∈ ℝ^{n_d × n_s}`.
    pub fn occupied_orbitals(&self) -> Mat<f64> {
        self.orbitals.columns(0, self.n_occupied)
    }

    /// HOMO–LUMO gap `λ_{n_s+1} − λ_{n_s}` when an extra eigenpair was
    /// computed.
    pub fn gap(&self) -> Option<f64> {
        if self.energies.len() > self.n_occupied {
            Some(self.energies[self.n_occupied] - self.energies[self.n_occupied - 1])
        } else {
            None
        }
    }
}

/// Exact dense diagonalization: assembles `H` and keeps the lowest
/// `n_occupied + extra` eigenpairs. Two `n_d × n_d` matrices are alive at
/// the peak: `H` and the working matrix that becomes the eigenvectors
/// ([`symmetric_eig`]); this stage sets the resident-set peak of a small
/// Dirichlet run.
pub fn solve_occupied_dense(
    ham: &Hamiltonian,
    n_occupied: usize,
    extra: usize,
) -> Result<KsSolution, LinalgError> {
    let n = ham.dim();
    assert!(
        n_occupied + extra <= n,
        "requesting more eigenpairs than n_d"
    );
    let eig = symmetric_eig(&ham.to_dense())?;
    let keep = n_occupied + extra;
    Ok(KsSolution {
        energies: eig.values[..keep].to_vec(),
        orbitals: eig.vectors.columns(0, keep),
        n_occupied,
    })
}

/// Options for [`solve_occupied_chefsi`].
#[derive(Clone, Copy, Debug)]
pub struct ChefsiOptions {
    /// Chebyshev filter degree per subspace iteration.
    pub degree: usize,
    /// Relative residual tolerance on the occupied block.
    pub tol: f64,
    /// Subspace iteration cap.
    pub max_iters: usize,
    /// Buffer eigenpairs carried beyond `n_occupied` (guards convergence of
    /// the occupied edge and provides the gap estimate).
    pub extra: usize,
    /// RNG seed for the initial subspace.
    pub seed: u64,
}

impl Default for ChefsiOptions {
    fn default() -> Self {
        Self {
            degree: 10,
            tol: 1e-8,
            max_iters: 120,
            extra: 6,
            seed: 1234,
        }
    }
}

/// Safe Chebyshev filter endpoint: the Hamiltonian's deterministic
/// spectral upper bound plus a small margin. A power-iteration estimate is
/// NOT safe here: when `|λ_min| ≈ λ_max` the Rayleigh quotient can land
/// anywhere between the extremes, and a clipped filter endpoint makes
/// Chebyshev amplify the top of the spectrum instead of the wanted bottom.
fn filter_upper_bound(ham: &Hamiltonian) -> f64 {
    let b = ham.spectral_upper_bound();
    b + 0.01 * b.abs() + 0.1
}

/// Chebyshev-filtered subspace iteration for the lowest
/// `n_occupied + extra` eigenpairs of `H`.
pub fn solve_occupied_chefsi(
    ham: &Hamiltonian,
    n_occupied: usize,
    opts: &ChefsiOptions,
) -> Result<KsSolution, LinalgError> {
    let op = HamiltonianOperator::new(ham);
    let n = op.dim();
    let m = (n_occupied + opts.extra).min(n);
    assert!(m >= n_occupied, "subspace smaller than occupied count");

    let b_up = filter_upper_bound(ham);

    let mut v = random_orthonormal_block(n, m, opts.seed);
    let mut energies = Vec::new();
    let mut last_residual = f64::INFINITY;
    let mut timings = SubspaceTimings::default();
    let mut done = false;

    for _iter in 0..opts.max_iters {
        // Rayleigh–Ritz on the current subspace, the round Algorithm 5 runs.
        let mut w = Mat::zeros(n, m);
        op.apply_block(&v, &mut w);
        let round = rayleigh_ritz(&mut v, &mut w, &mut timings)?;
        energies = round.values;

        // Residual of the occupied block: ‖H v_j − λ_j v_j‖ relative to the
        // eigenvalue scale (analogous to the paper's Eq. 7).
        let mut res_sq = 0.0;
        let mut scale_sq = 0.0;
        for (&lam, &r) in energies[..n_occupied].iter().zip(&round.residual_sq) {
            res_sq += r;
            scale_sq += lam * lam;
        }
        last_residual = (res_sq / scale_sq.max(1e-300)).sqrt() / n_occupied as f64;

        // Filter: damp [a, b_up] where a sits just above the kept subspace;
        // a subspace that reaches the top of the spectrum leaves no room.
        let a = energies[m - 1] + 1e-8 + 1e-8 * energies[m - 1].abs();
        if last_residual <= opts.tol || a >= b_up {
            done = true;
            break;
        }
        v = chebyshev_filter(&op, &v, opts.degree, a, b_up, energies[0]);
        orthonormalize_columns(&mut v);
    }

    // cap hit: report non-convergence only if the residual is meaningless
    if done || (last_residual.is_finite() && last_residual <= opts.tol * 1e3) {
        Ok(KsSolution {
            energies,
            orbitals: v,
            n_occupied,
        })
    } else {
        Err(LinalgError::NoConvergence {
            what: "CheFSI subspace iteration",
            iters: opts.max_iters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::PotentialParams;
    use crate::system::SiliconSpec;
    use mbrpa_linalg::matmul_tn;

    fn small_ham() -> (usize, Hamiltonian) {
        let c = SiliconSpec {
            points_per_cell: 7,
            ..SiliconSpec::default()
        }
        .build();
        let n_s = c.n_occupied();
        (n_s, Hamiltonian::new(&c, 2, &PotentialParams::default()))
    }

    #[test]
    fn dense_solution_satisfies_eigen_equation() {
        let (n_s, ham) = small_ham();
        let sol = solve_occupied_dense(&ham, n_s, 4).unwrap();
        assert_eq!(sol.energies.len(), n_s + 4);
        assert_eq!(sol.orbitals.cols(), n_s + 4);
        let n = ham.dim();
        let mut hv = vec![0.0; n];
        for j in 0..n_s {
            ham.apply(sol.orbitals.col(j), &mut hv);
            let lam = sol.energies[j];
            for (a, b) in hv.iter().zip(sol.orbitals.col(j).iter()) {
                assert!((a - lam * b).abs() < 1e-8, "residual at orbital {j}");
            }
        }
        // ascending
        for w in sol.energies.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn chefsi_matches_dense_energies() {
        let (n_s, ham) = small_ham();
        let dense = solve_occupied_dense(&ham, n_s, 2).unwrap();
        let chefsi = solve_occupied_chefsi(
            &ham,
            n_s,
            &ChefsiOptions {
                tol: 1e-9,
                ..ChefsiOptions::default()
            },
        )
        .unwrap();
        for j in 0..n_s {
            let d = (dense.energies[j] - chefsi.energies[j]).abs();
            assert!(
                d < 1e-6,
                "orbital {j}: dense {} vs chefsi {}",
                dense.energies[j],
                chefsi.energies[j]
            );
        }
    }

    #[test]
    fn chefsi_orbitals_are_orthonormal_eigenvectors() {
        let (n_s, ham) = small_ham();
        let sol = solve_occupied_chefsi(&ham, n_s, &ChefsiOptions::default()).unwrap();
        let g = matmul_tn(&sol.orbitals, &sol.orbitals);
        assert!(g.max_abs_diff(&Mat::identity(sol.orbitals.cols())) < 1e-7);
        let n = ham.dim();
        let mut hv = vec![0.0; n];
        for j in 0..n_s {
            ham.apply(sol.orbitals.col(j), &mut hv);
            let lam = sol.energies[j];
            let mut r = 0.0;
            for (a, b) in hv.iter().zip(sol.orbitals.col(j).iter()) {
                r += (a - lam * b).powi(2);
            }
            assert!(r.sqrt() < 1e-5, "orbital {j} residual {}", r.sqrt());
        }
    }

    #[test]
    fn occupied_accessors() {
        let (n_s, ham) = small_ham();
        let sol = solve_occupied_dense(&ham, n_s, 3).unwrap();
        assert_eq!(sol.occupied_energies().len(), n_s);
        assert_eq!(sol.occupied_orbitals().cols(), n_s);
        let gap = sol.gap().unwrap();
        assert!(gap.is_finite());
        assert!(gap >= -1e-10, "levels must be ordered, gap = {gap}");
    }

    #[test]
    fn upper_bound_dominates_spectrum() {
        let (_, ham) = small_ham();
        let bound = filter_upper_bound(&ham);
        let eig = symmetric_eig(&ham.to_dense()).unwrap();
        assert!(
            bound >= *eig.values.last().unwrap(),
            "bound {bound} vs λmax {}",
            eig.values.last().unwrap()
        );
        // and the lower bound really is a lower bound
        assert!(ham.spectral_lower_bound() <= eig.values[0]);
    }

    #[test]
    fn sternheimer_linop_wraps_apply() {
        let (_, ham) = small_ham();
        let stern = SternheimerOperator::new(&ham, 0.3, 0.2);
        let lin = SternheimerLinOp::new(stern);
        let n = lin.dim();
        let x: Vec<C64> = (0..n)
            .map(|i| C64::new((i % 5) as f64, -((i % 3) as f64)))
            .collect();
        let mut y1 = vec![C64::new(0.0, 0.0); n];
        lin.apply(&x, &mut y1);
        let stern2 = SternheimerOperator::new(&ham, 0.3, 0.2);
        let mut y2 = vec![C64::new(0.0, 0.0); n];
        stern2.apply(&x, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert_eq!(a, b);
        }
        assert!(lin.apply_flops() > 0);
    }
}
