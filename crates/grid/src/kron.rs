//! Spectral application of functions of the discrete Laplacian via its
//! Kronecker-product structure.
//!
//! The 3-D stencil Laplacian is exactly the Kronecker sum
//! `L = Lx⊗I⊗I + I⊗Ly⊗I + I⊗I⊗Lz` of the 1-D stencil matrices, so with
//! `L_d = Q_d Λ_d Q_dᵀ` any spectral function `f(L)` is applied by three
//! small tensor contractions, a diagonal scaling, and three back
//! contractions — `O(n_d(nx+ny+nz))` work instead of `O(n_d²)`. This is the
//! mechanism the paper cites (refs [35], [36]) for the Poisson solves in
//! `ν = −4π(∇²)⁻¹` and for the matrix square root `ν½`. The contractions
//! are this module's own loops; their per-element order contract is at
//! `SpectralLaplacian::apply_table`.

use crate::grid::Grid3;
use crate::stencil::dense_laplacian_1d;
use mbrpa_linalg::exactly_zero;
use mbrpa_linalg::{symmetric_eig, LinalgError, Mat};

/// Relative threshold under which a Laplacian eigenvalue is treated as the
/// periodic zero mode (the Γ-point `G = 0` component).
const ZERO_MODE_RTOL: f64 = 1e-10;

/// Width the contractions are blocked by. The working layout pads every
/// x-line to a multiple of it, so each contraction runs on whole blocks.
const W: usize = 8;

/// Lanes of the x-contraction's reduction (see [`contract_lines`]).
const LANES: usize = mbrpa_simd::F64_LANES;

/// Eigendecomposition of the three 1-D stencil Laplacians, enabling
/// `f(∇²)` application in `O(n_d(nx+ny+nz))`.
#[derive(Clone, Debug)]
pub struct SpectralLaplacian {
    grid: Grid3,
    /// Length of an x-line in the working layout: `nx` rounded up to `W`.
    nxp: usize,
    /// x-contraction coefficients, zero-padded to `nxp` rows: column `p`
    /// is row `p` of `Qx` (forward) or column `p` of `Qx` (backward).
    x_fwd: Mat<f64>,
    x_bwd: Mat<f64>,
    qy: Mat<f64>,
    qz: Mat<f64>,
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
        let nxp = grid.nx.div_ceil(W) * W;
        let pad =
            |q: &Mat<f64>| Mat::from_fn(nxp, grid.nx, |i, p| q.col(p).get(i).map_or(0.0, |x| *x));
        Ok(Self {
            grid,
            nxp,
            x_fwd: pad(&ex.vectors.transpose()),
            x_bwd: pad(&ex.vectors),
            qy_t: ey.vectors.transpose(),
            qz_t: ez.vectors.transpose(),
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

    /// `f` at every Kronecker-sum eigenvalue `λ = λx + λy + λz`, in the
    /// working layout (zero in the padding); the periodic `λ ≈ 0` constant
    /// mode is passed to `f` as exactly `0.0`.
    fn table(&self, f: &dyn Fn(f64) -> f64) -> Vec<f64> {
        let tol = ZERO_MODE_RTOL * self.lambda_max_abs.max(1.0);
        let mut table = Vec::with_capacity(self.work_len());
        for lz in &self.lz {
            for ly in &self.ly {
                let lyz = ly + lz;
                table.extend(self.lx.iter().map(|lx| {
                    let lam = lx + lyz;
                    f(if lam.abs() <= tol { 0.0 } else { lam })
                }));
                table.resize(table.len() + self.nxp - self.grid.nx, 0.0);
            }
        }
        table
    }

    /// Length of a vector in the working layout.
    fn work_len(&self) -> usize {
        self.nxp * self.grid.ny * self.grid.nz
    }

    /// `c ← Q·diag(table)·Qᵀ c`, the one transform body behind every
    /// `f(∇²)`: forward contractions along x, y, z, one multiply per
    /// coefficient, back contractions along z, y, x. `table` comes from
    /// [`Self::table`]; `a` and `b` are working memory of
    /// [`Self::work_len`] values (contents ignored).
    ///
    /// Order contract, per output element — the result bits depend on
    /// nothing else, so any loop order or vector width that keeps it gives
    /// the same answer:
    /// * x ([`contract_lines`]): element `p` of a grid line goes into lane
    ///   `p mod F64_LANES`, each lane is one FMA chain from `0.0`, and the
    ///   lanes are summed from `0.0` in lane order — `mbrpa_simd::dot`'s
    ///   reduction;
    /// * y and z ([`contract_axis`]): one FMA chain from `0.0` over the
    ///   contracted index ascending, an exactly-zero coefficient skipped —
    ///   a sequence of `mbrpa_simd::axpy` calls.
    fn apply_table(&self, table: &[f64], c: &mut [f64], a: &mut [f64], b: &mut [f64]) {
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.grid.nz);
        let work = self.work_len();
        assert_eq!(c.len(), self.grid.len());
        assert_eq!((table.len(), a.len(), b.len()), (work, work, work));
        let (line, slab) = (self.nxp, self.nxp * ny);
        contract_lines(&self.x_fwd, c, nx, a, line);
        contract_axis(line, ny, self.qy.as_slice(), a, b);
        contract_axis(slab, nz, self.qz.as_slice(), b, a);
        for (x, t) in a.iter_mut().zip(table) {
            *x *= t;
        }
        contract_axis(slab, nz, self.qz_t.as_slice(), a, b);
        contract_axis(line, ny, self.qy_t.as_slice(), b, a);
        contract_lines(&self.x_bwd, a, line, c, nx);
    }

    /// Apply `f(∇²)` to a single vector, writing into `out`.
    ///
    /// `f` receives each Kronecker-sum eigenvalue `λ = λx + λy + λz`; for
    /// periodic grids the single `λ ≈ 0` constant mode is passed to `f`
    /// as exactly `0.0`, letting callers implement pseudo-inverses by
    /// returning `0.0` there.
    pub fn apply_function(&self, f: &dyn Fn(f64) -> f64, v: &[f64], out: &mut [f64]) {
        let mut col = Mat::col_vector(v.to_vec());
        self.apply_function_block(f, &mut col);
        out.copy_from_slice(col.col(0));
    }

    /// Apply `f(∇²)` to every column of a block, in place: `f` is
    /// tabulated and the working memory allocated once for the block, not
    /// once per column.
    pub fn apply_function_block(&self, f: &dyn Fn(f64) -> f64, v: &mut Mat<f64>) {
        assert_eq!(v.rows(), self.grid.len());
        let table = self.table(f);
        let work = self.work_len();
        let (mut a, mut b) = (vec![0.0; work], vec![0.0; work]);
        for j in 0..v.cols() {
            self.apply_table(&table, v.col_mut(j), &mut a, &mut b);
        }
    }

    /// Solve the Poisson problem `∇² u = rhs` (pseudo-inverse on the
    /// periodic zero mode: the mean of `u` is gauged to zero).
    // lint: allow(unreached_pub) — referee of the spectral basis in proptest_grid
    pub fn solve_poisson(&self, rhs: &[f64], u: &mut [f64]) {
        self.apply_function(
            &|lam| if exactly_zero(lam) { 0.0 } else { 1.0 / lam },
            rhs,
            u,
        );
    }
}

/// `dst_j[i] = Σ_p coef[(i, p)] · src_j[p]` for every grid line `j`, the
/// lines `src_line` values apart in `src` and `dst_line` apart in `dst`
/// (one of the two is the padded working layout). `coef` has a padded row
/// per output: the padding lanes of a line compute zeros and are dropped
/// when `dst` is not padded. The sum over `p` is `mbrpa_simd::dot`'s: term
/// `p` goes into lane `p mod LANES`, each lane is one FMA chain from `0.0`,
/// the lanes are summed from `0.0` in lane order. Lanes no term reaches
/// stay `+0.0`, and adding `+0.0` to a sum that starts at `+0.0` changes no
/// bit, so they are left out.
fn contract_lines(coef: &Mat<f64>, src: &[f64], src_line: usize, dst: &mut [f64], dst_line: usize) {
    let (np, n) = coef.shape();
    let coef = coef.as_slice();
    for (s, d) in src
        .chunks_exact(src_line)
        .zip(dst.chunks_exact_mut(dst_line))
    {
        for (i0, out) in (0..np).step_by(W).zip(d.chunks_mut(W)) {
            let mut sum = [0.0; W];
            for l in 0..n.min(LANES) {
                let mut lane = [0.0; W];
                for p in (l..n).step_by(LANES) {
                    let q = &coef[p * np + i0..p * np + i0 + W];
                    for (acc, &q) in lane.iter_mut().zip(q) {
                        *acc = q.mul_add(s[p], *acc);
                    }
                }
                for (acc, x) in sum.iter_mut().zip(lane) {
                    *acc += x;
                }
            }
            out.copy_from_slice(&sum[..out.len()]);
        }
    }
}

/// Contract the axis of length `k` whose planes are `m` contiguous values
/// apart (`m` a multiple of `W`), for every run of `m·k` values:
/// `dst[j·m + i] = Σ_l q[j·k + l] · src[l·m + i]` per run, `q` the `k × k`
/// coefficient matrix column by column. Each output is one FMA chain from
/// `0.0` over `l` ascending, an exactly-zero coefficient skipped — the
/// arithmetic of `mbrpa_simd::axpy` accumulating the planes one by one.
fn contract_axis(m: usize, k: usize, q: &[f64], src: &[f64], dst: &mut [f64]) {
    debug_assert_eq!((q.len(), m % W), (k * k, 0));
    for (s, d) in src.chunks_exact(m * k).zip(dst.chunks_exact_mut(m * k)) {
        for (qj, dj) in q.chunks_exact(k).zip(d.chunks_exact_mut(m)) {
            for (i0, out) in (0..m).step_by(W).zip(dj.chunks_exact_mut(W)) {
                let mut acc = [0.0; W];
                for (l, &c) in qj.iter().enumerate() {
                    if exactly_zero(c) {
                        continue;
                    }
                    let x = &s[l * m + i0..l * m + i0 + W];
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a = c.mul_add(x, *a);
                    }
                }
                out.copy_from_slice(&acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Boundary;
    use crate::stencil::Laplacian;
    use mbrpa_simd::Dispatch;

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

    /// `f(∇²) v` through the slice GEMMs the transform used to call, as
    /// they did it: `C = AᵀB` one `dot` per entry, `C = A·B` one `axpy` per
    /// non-zero `B` entry, `l` ascending, into a zeroed column.
    fn apply_ref(spec: &SpectralLaplacian, d: Dispatch, table: &[f64], v: &[f64]) -> Vec<f64> {
        let gemm_tn = |m: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]| {
            for (j, cj) in c.chunks_exact_mut(m).take(n).enumerate() {
                for (i, c) in cj.iter_mut().enumerate() {
                    *c = mbrpa_simd::dot_on(d, &a[i * m..(i + 1) * m], &b[j * m..(j + 1) * m]);
                }
            }
        };
        let gemm_nn = |m: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]| {
            for (bj, cj) in b.chunks_exact(k).zip(c.chunks_exact_mut(m)) {
                cj.fill(0.0);
                for (l, &blj) in bj.iter().enumerate().filter(|(_, &b)| b != 0.0) {
                    mbrpa_simd::axpy_on(d, blj, &a[l * m..(l + 1) * m], cj);
                }
            }
        };
        let (nx, ny, nz) = (spec.grid.nx, spec.grid.ny, spec.grid.nz);
        let (slab, n) = (nx * ny, spec.grid.len());
        let qx = Mat::from_fn(nx, nx, |i, p| spec.x_bwd[(i, p)]);
        let (qx_t, mut out, mut buf) = (qx.transpose(), vec![0.0; n], vec![0.0; n]);
        gemm_tn(nx, ny * nz, qx.as_slice(), v, &mut out);
        for (o, b) in out.chunks_exact(slab).zip(buf.chunks_exact_mut(slab)) {
            gemm_nn(nx, ny, o, spec.qy.as_slice(), b);
        }
        gemm_nn(slab, nz, &buf, spec.qz.as_slice(), &mut out);
        out.iter_mut().zip(table).for_each(|(o, t)| *o *= t);
        gemm_nn(slab, nz, &out, spec.qz_t.as_slice(), &mut buf);
        for (b, o) in buf.chunks_exact(slab).zip(out.chunks_exact_mut(slab)) {
            gemm_nn(nx, ny, b, spec.qy_t.as_slice(), o);
        }
        buf.copy_from_slice(&out);
        gemm_tn(nx, ny * nz, qx_t.as_slice(), &buf, &mut out);
        out
    }

    #[test]
    fn transform_is_bitwise_the_gemm_sequence_on_every_dispatch_path() {
        // unequal axes, one and more terms per reduction lane (n > 8),
        // radius 1–4, exact (and negative) zeros in the input; 48 columns
        // on the first two shapes, 3 on the rest, 1 through `apply_function`
        let shapes = [
            ((5, 9, 7), 1),
            ((7, 5, 8), 2),
            ((8, 14, 9), 3),
            ((9, 17, 15), 4),
            ((14, 9, 17), 4),
            ((15, 8, 7), 3),
            ((17, 7, 14), 2),
        ];
        let f = |lam: f64| {
            if lam == 0.0 {
                0.0
            } else {
                (-12.5 / lam).sqrt()
            }
        };
        for (case, &(dims, radius)) in shapes.iter().enumerate() {
            for bc in [Boundary::Periodic, Boundary::Dirichlet] {
                let g = Grid3::new(dims, (0.5, 0.6, 0.7), bc);
                let spec = SpectralLaplacian::new(g, radius).unwrap();
                let lines = spec.table(&f);
                let table: Vec<f64> = lines
                    .chunks_exact(spec.nxp)
                    .flat_map(|l| &l[..g.nx])
                    .copied()
                    .collect();
                let width = if case < 2 { 48 } else { 3 };
                let mut block = Mat::from_fn(g.len(), width, |i, j| match (i + 5 * j) % 29 {
                    0 => 0.0,
                    1 => -0.0,
                    r => r as f64 * 0.07 - 1.0,
                });
                let orig = block.clone();
                spec.apply_function_block(&f, &mut block);
                let mut single = vec![0.0; g.len()];
                spec.apply_function(&f, orig.col(1), &mut single);
                assert!(bits_eq(&single, block.col(1)), "{dims:?}: a width-1 block");
                for &d in mbrpa_simd::available() {
                    for j in 0..width {
                        let want = apply_ref(&spec, d, &table, orig.col(j));
                        let what = format!("{dims:?} r={radius} {bc:?} {}: column {j}", d.name());
                        assert!(bits_eq(block.col(j), &want), "{what}");
                    }
                }
            }
        }
    }

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}
