//! Spectral application of functions of the discrete Laplacian via its
//! Kronecker-product structure.
//!
//! The 3-D stencil Laplacian is exactly the Kronecker sum
//! `L = Lx⊗I⊗I + I⊗Ly⊗I + I⊗I⊗Lz` of the 1-D stencil matrices, so with
//! `L_d = Q_d Λ_d Q_dᵀ` any spectral function `f(L)` is applied by three
//! small tensor contractions, a diagonal scaling, and three back
//! contractions — `O(n_d(nx+ny+nz))` work instead of `O(n_d²)`. This is the
//! mechanism the paper cites (refs [35], [36]) for the Poisson solves in
//! `ν = −4π(∇²)⁻¹` and for the matrix square root `ν½`.

use crate::grid::{Boundary, Grid3};
use crate::stencil::dense_laplacian_1d;
use mbrpa_linalg::exactly_zero;
use mbrpa_linalg::gemm::{gemm_nn_slices, gemm_tn_slices};
use mbrpa_linalg::{symmetric_eig, LinalgError, Mat};

/// Relative threshold under which a Laplacian eigenvalue is treated as the
/// periodic zero mode (the Γ-point `G = 0` component).
const ZERO_MODE_RTOL: f64 = 1e-10;

/// Eigendecomposition of the three 1-D stencil Laplacians, enabling
/// `f(∇²)` application in `O(n_d(nx+ny+nz))`.
#[derive(Clone, Debug)]
pub struct SpectralLaplacian {
    grid: Grid3,
    qx: Mat<f64>,
    qy: Mat<f64>,
    qz: Mat<f64>,
    qx_t: Mat<f64>,
    qy_t: Mat<f64>,
    qz_t: Mat<f64>,
    lx: Vec<f64>,
    ly: Vec<f64>,
    lz: Vec<f64>,
    /// Modulus of the most negative eigenvalue of `∇²` (spectral radius).
    lambda_max_abs: f64,
}

impl SpectralLaplacian {
    /// Diagonalize the 1-D Laplacians of a radius-`r` stencil on `grid`.
    pub fn new(grid: Grid3, radius: usize) -> Result<Self, LinalgError> {
        let ex = symmetric_eig(&dense_laplacian_1d(grid.nx, grid.hx, radius, grid.bc))?;
        let ey = symmetric_eig(&dense_laplacian_1d(grid.ny, grid.hy, radius, grid.bc))?;
        let ez = symmetric_eig(&dense_laplacian_1d(grid.nz, grid.hz, radius, grid.bc))?;
        let lambda_max_abs = ex.values[0].abs() + ey.values[0].abs() + ez.values[0].abs();
        Ok(Self {
            grid,
            qx_t: ex.vectors.transpose(),
            qy_t: ey.vectors.transpose(),
            qz_t: ez.vectors.transpose(),
            qx: ex.vectors,
            qy: ey.vectors,
            qz: ez.vectors,
            lx: ex.values,
            ly: ey.values,
            lz: ez.values,
            lambda_max_abs,
        })
    }

    /// The grid this operator lives on.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// Largest `|λ|` over the spectrum of `∇²`.
    pub fn spectral_radius(&self) -> f64 {
        self.lambda_max_abs
    }

    /// Threshold separating the periodic zero mode from real eigenvalues.
    fn zero_tol(&self) -> f64 {
        ZERO_MODE_RTOL * self.lambda_max_abs.max(1.0)
    }

    /// Every Kronecker-sum eigenvalue `λ = λx + λy + λz` in coefficient
    /// order, the periodic `λ ≈ 0` constant mode as exactly `0.0`.
    fn eigenvalues(&self) -> impl Iterator<Item = f64> + '_ {
        let tol = self.zero_tol();
        let yz = self
            .lz
            .iter()
            .flat_map(move |lz| self.ly.iter().map(move |ly| ly + lz));
        yz.flat_map(move |lyz| {
            self.lx.iter().map(move |lx| {
                let lam = lx + lyz;
                if lam.abs() <= tol {
                    0.0
                } else {
                    lam
                }
            })
        })
    }

    /// `out = Q·diag(table)·Qᵀ v`: forward transform, one multiply per
    /// coefficient, back transform. `buf` is working memory of `v`'s
    /// length (contents ignored).
    fn apply_table(&self, table: &[f64], v: &[f64], out: &mut [f64], buf: &mut [f64]) {
        let n = self.grid.len();
        assert_eq!(v.len(), n);
        assert_eq!(out.len(), n);
        self.forward(v, out, buf);
        for (o, t) in out.iter_mut().zip(table) {
            *o *= t;
        }
        self.backward(out, buf);
    }

    /// Apply `f(∇²)` to a single vector, writing into `out`.
    ///
    /// `f` receives each Kronecker-sum eigenvalue `λ = λx + λy + λz`; for
    /// periodic grids the single `λ ≈ 0` constant mode is passed to `f`
    /// as exactly `0.0`, letting callers implement pseudo-inverses by
    /// returning `0.0` there.
    pub fn apply_function(&self, f: &dyn Fn(f64) -> f64, v: &[f64], out: &mut [f64]) {
        let table: Vec<f64> = self.eigenvalues().map(f).collect();
        self.apply_table(&table, v, out, &mut vec![0.0; self.grid.len()]);
    }

    /// Apply `f(∇²)` to every column of a block, in place: `f` is
    /// tabulated and the working memory allocated once for the block, not
    /// once per column.
    pub fn apply_function_block(&self, f: &dyn Fn(f64) -> f64, v: &mut Mat<f64>) {
        let n = self.grid.len();
        assert_eq!(v.rows(), n);
        let table: Vec<f64> = self.eigenvalues().map(f).collect();
        let (mut out, mut buf) = (vec![0.0; n], vec![0.0; n]);
        for j in 0..v.cols() {
            self.apply_table(&table, v.col(j), &mut out, &mut buf);
            v.col_mut(j).copy_from_slice(&out);
        }
    }

    /// Forward Kronecker transform: `out = (Qzᵀ⊗Qyᵀ⊗Qxᵀ) v`.
    fn forward(&self, v: &[f64], out: &mut [f64], buf: &mut [f64]) {
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.grid.nz);
        gemm_tn_slices(nx, nx, ny * nz, self.qx.as_slice(), v, out);
        for k in 0..nz {
            let o = &out[k * nx * ny..(k + 1) * nx * ny];
            let b = &mut buf[k * nx * ny..(k + 1) * nx * ny];
            gemm_nn_slices(nx, ny, ny, o, self.qy.as_slice(), b);
        }
        gemm_nn_slices(nx * ny, nz, nz, buf, self.qz.as_slice(), out);
    }

    /// Backward Kronecker transform in place: `c ← (Qz⊗Qy⊗Qx) c`.
    fn backward(&self, c: &mut [f64], buf: &mut [f64]) {
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.grid.nz);
        gemm_nn_slices(nx * ny, nz, nz, c, self.qz_t.as_slice(), buf);
        for k in 0..nz {
            let b = &buf[k * nx * ny..(k + 1) * nx * ny];
            let o = &mut c[k * nx * ny..(k + 1) * nx * ny];
            gemm_nn_slices(nx, ny, ny, b, self.qy_t.as_slice(), o);
        }
        buf.copy_from_slice(c);
        gemm_tn_slices(nx, nx, ny * nz, self.qx_t.as_slice(), buf, c);
    }

    /// Solve the Poisson problem `∇² u = rhs` (pseudo-inverse on the
    /// periodic zero mode: the mean of `u` is gauged to zero).
    pub fn solve_poisson(&self, rhs: &[f64], u: &mut [f64]) {
        self.apply_function(
            &|lam| if exactly_zero(lam) { 0.0 } else { 1.0 / lam },
            rhs,
            u,
        );
    }

    /// True if the grid is periodic (and therefore `∇²` has a zero mode).
    pub fn has_zero_mode(&self) -> bool {
        self.grid.bc == Boundary::Periodic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::Laplacian;

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
    fn identity_function_matches_stencil() {
        for bc in [Boundary::Periodic, Boundary::Dirichlet] {
            let g = Grid3::new((7, 6, 5), (0.5, 0.6, 0.7), bc);
            let spec = SpectralLaplacian::new(g, 2).unwrap();
            let lap = Laplacian::new(g, 2);
            let v = test_vec(g.len(), 5);
            let mut a = vec![0.0; g.len()];
            let mut b = vec![0.0; g.len()];
            spec.apply_function(&|lam| lam, &v, &mut a);
            lap.apply(&v, &mut b);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-10, "{bc:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn poisson_solve_roundtrip_periodic() {
        let g = Grid3::cubic(8, 0.69, Boundary::Periodic);
        let spec = SpectralLaplacian::new(g, 3).unwrap();
        let lap = Laplacian::new(g, 3);
        // zero-mean rhs is in the range of the periodic Laplacian
        let mut rhs = test_vec(g.len(), 11);
        let mean: f64 = rhs.iter().sum::<f64>() / g.len() as f64;
        rhs.iter_mut().for_each(|x| *x -= mean);
        let mut u = vec![0.0; g.len()];
        spec.solve_poisson(&rhs, &mut u);
        let mut back = vec![0.0; g.len()];
        lap.apply(&u, &mut back);
        for (x, y) in back.iter().zip(rhs.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        // gauge: solution has zero mean
        let umean: f64 = u.iter().sum::<f64>();
        assert!(umean.abs() < 1e-9);
    }

    #[test]
    fn poisson_solve_exact_dirichlet() {
        let g = Grid3::new((7, 8, 9), (0.5, 0.5, 0.5), Boundary::Dirichlet);
        let spec = SpectralLaplacian::new(g, 2).unwrap();
        let lap = Laplacian::new(g, 2);
        let rhs = test_vec(g.len(), 17);
        let mut u = vec![0.0; g.len()];
        spec.solve_poisson(&rhs, &mut u);
        let mut back = vec![0.0; g.len()];
        lap.apply(&u, &mut back);
        for (x, y) in back.iter().zip(rhs.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn inv_sqrt_composes_to_inverse() {
        let g = Grid3::cubic(6, 0.8, Boundary::Periodic);
        let spec = SpectralLaplacian::new(g, 2).unwrap();
        let v = test_vec(g.len(), 23);
        let inv_sqrt = |lam: f64| if lam == 0.0 { 0.0 } else { 1.0 / (-lam).sqrt() };
        let inv = |lam: f64| if lam == 0.0 { 0.0 } else { 1.0 / (-lam) };
        let mut once = vec![0.0; g.len()];
        spec.apply_function(&inv_sqrt, &v, &mut once);
        let mut twice = vec![0.0; g.len()];
        spec.apply_function(&inv_sqrt, &once, &mut twice);
        let mut direct = vec![0.0; g.len()];
        spec.apply_function(&inv, &v, &mut direct);
        for (a, b) in twice.iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_mode_annihilated_for_constants() {
        let g = Grid3::cubic(7, 0.6, Boundary::Periodic);
        let spec = SpectralLaplacian::new(g, 2).unwrap();
        let v = vec![1.0; g.len()];
        let mut out = vec![0.0; g.len()];
        // a pseudo-inverse style function kills the constant mode
        spec.apply_function(&|lam| if lam == 0.0 { 0.0 } else { 1.0 }, &v, &mut out);
        for o in &out {
            assert!(o.abs() < 1e-10);
        }
    }

    #[test]
    fn block_apply_matches_vector_apply() {
        let g = Grid3::new((6, 7, 5), (0.5, 0.5, 0.5), Boundary::Periodic);
        let spec = SpectralLaplacian::new(g, 2).unwrap();
        let f = |lam: f64| if lam == 0.0 { 0.0 } else { (-lam).recip() };
        let mut block = Mat::from_fn(g.len(), 3, |i, j| ((i + j * 37) % 53) as f64 * 0.1 - 1.0);
        let orig = block.clone();
        spec.apply_function_block(&f, &mut block);
        for j in 0..3 {
            let mut expect = vec![0.0; g.len()];
            spec.apply_function(&f, orig.col(j), &mut expect);
            for (a, b) in block.col(j).iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spectral_radius_is_positive_and_consistent() {
        let g = Grid3::cubic(8, 0.69, Boundary::Periodic);
        let spec = SpectralLaplacian::new(g, 3).unwrap();
        // Gershgorin bound per axis: |λ| <= (|c₀| + 2Σ|c_t|)/h², three axes
        let w = crate::stencil::second_derivative_weights(3);
        let per_axis =
            (w[0].abs() + 2.0 * w[1..].iter().map(|c| c.abs()).sum::<f64>()) / (0.69 * 0.69);
        assert!(spec.spectral_radius() > 0.0);
        assert!(spec.spectral_radius() <= 3.0 * per_axis + 1e-9);
    }
}
