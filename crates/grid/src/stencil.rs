//! High-order finite-difference Laplacian stencils.
//!
//! The Hamiltonian's kinetic term is a six-axis `(6r+1)`-point stencil of
//! radius `r` (§III-C of the paper). Application is **fully fused over a
//! halo'd copy of the volume**: the vector is copied once into a scratch
//! volume with `r` wrap-or-zero planes on every face, which turns all
//! `6r + 1` stencil terms into the same `(weight, signed offset)` pairs
//! at every grid point — no boundary branches — and the runtime-dispatched
//! [`mbrpa_simd::stencil_rows_on`] kernel then sweeps the whole volume in
//! one call, accumulating every term in SIMD registers and writing each
//! output element exactly once, instead of the classic multi-pass
//! structure that reads and rewrites the output once per distance per
//! axis. The kernel's scalar twin replicates the vector lanes' fused
//! multiply-adds exactly, so results are bitwise identical across AVX2
//! and scalar dispatch. Per the paper's arithmetic-intensity
//! analysis the kernel operates on **one vector at a time**; the block
//! driver parallelizes across columns
//! ([`crate::par::apply_columns`]), and a deliberately "simultaneous"
//! multi-vector variant is provided for the §III-C benchmark that
//! substantiates that choice.

use crate::grid::{Boundary, Grid3};
use mbrpa_linalg::{Mat, Scalar};

/// Largest supported stencil radius: beyond this the central-difference
/// weights underflow any f64 improvement and the halo cost only grows.
const MAX_RADIUS: usize = 10;

std::thread_local! {
    /// Per-thread halo'd-volume scratch for [`Laplacian::apply`] —
    /// per **thread** so rayon workers running parallel block applies
    /// never share it.
    static HALO_SCRATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Classical central-difference second-derivative weights of radius `r`
/// (order `2r`): returns `c[0..=r]` with
/// `f''(0) ≈ (c₀ f(0) + Σ_t c_t (f(t·h) + f(−t·h))) / h²`.
pub fn second_derivative_weights(r: usize) -> Vec<f64> {
    assert!(r >= 1, "stencil radius must be at least 1");
    assert!(
        r <= MAX_RADIUS,
        "stencil radius beyond {MAX_RADIUS} is numerically useless"
    );
    let fact = |n: usize| -> f64 { (1..=n).map(|x| x as f64).product::<f64>().max(1.0) };
    let mut c = vec![0.0; r + 1];
    c[0] = -2.0 * (1..=r).map(|k| 1.0 / (k * k) as f64).sum::<f64>();
    let rf = fact(r);
    for k in 1..=r {
        let sign = if k % 2 == 1 { 1.0 } else { -1.0 };
        c[k] = 2.0 * sign * rf * rf / ((k * k) as f64 * fact(r - k) * fact(r + k));
    }
    c
}

/// Dense 1-D Laplacian matrix for the given boundary condition; the 3-D
/// stencil operator is exactly the Kronecker sum of these (used by the
/// spectral Kronecker solver and as the test oracle).
pub fn dense_laplacian_1d(n: usize, h: f64, r: usize, bc: Boundary) -> Mat<f64> {
    assert!(n >= 2 * r + 1, "need n >= 2r+1 grid points (n={n}, r={r})");
    let w = second_derivative_weights(r);
    let inv_h2 = 1.0 / (h * h);
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        l[(i, i)] = w[0] * inv_h2;
        for t in 1..=r {
            let c = w[t] * inv_h2;
            match bc {
                Boundary::Periodic => {
                    l[(i, (i + t) % n)] += c;
                    l[(i, (i + n - t) % n)] += c;
                }
                Boundary::Dirichlet => {
                    if i + t < n {
                        l[(i, i + t)] += c;
                    }
                    if i >= t {
                        l[(i, i - t)] += c;
                    }
                }
            }
        }
    }
    l
}

/// Everything about one apply that does not depend on the vector, for one
/// component count per element: what to copy or zero in the halo'd scratch
/// volume and what the sweep then adds up. Positions and offsets count
/// components.
///
/// Only the faces of the halo are filled: an axis-aligned cross never reads
/// an edge or corner region (a point offset along two axes at once), so
/// z-halo slabs get their ny×nx core, y-halo rows their nx core, and x
/// halos matter on core rows alone.
#[derive(Clone, Debug)]
struct SweepPlan {
    /// Length of the halo'd volume, `(nx + 2r)·cs × (ny + 2r) × (nz + 2r)`.
    volume: usize,
    /// `(to, from)` of the `nx` core elements of every row with a source
    /// row in the vector (itself, or its periodic image), in volume order.
    rows: Vec<(usize, usize)>,
    /// Components of its own ends each of `rows` wraps into the x halo
    /// beside it: `r` elements on a periodic grid (on a face row nothing
    /// reads them), none on a Dirichlet one.
    wrap: usize,
    /// What a Dirichlet boundary keeps at zero, as `(to, 0)` copies out of
    /// [`Laplacian::zeros`]: the face rows, and the x halos of `r` elements
    /// on either side of the core rows.
    zero_rows: Vec<(usize, usize)>,
    zero_x_halos: Vec<(usize, usize)>,
    /// Uniform `(weight, signed offset)` terms: diag, then each axis by
    /// ascending distance with the +t neighbour before −t.
    terms: Vec<(f64, isize)>,
    /// First core element, row stride and slab stride of the volume.
    origin: usize,
    row_stride: usize,
    slab_stride: usize,
}

/// The 3-D finite-difference Laplacian operator `∇²` on a [`Grid3`].
#[derive(Clone, Debug)]
pub struct Laplacian {
    grid: Grid3,
    radius: usize,
    /// Off-diagonal weights divided by `h²`, per axis, index `1..=r`.
    cx: Vec<f64>,
    cy: Vec<f64>,
    cz: Vec<f64>,
    /// Sum of the three axis diagonal terms.
    diag: f64,
    /// The apply of a real (`[0]`) and of an interleaved complex (`[1]`)
    /// vector.
    plans: [SweepPlan; 2],
    /// One complex row of zeros, the source of a Dirichlet halo.
    zeros: Vec<f64>,
}

impl Laplacian {
    /// Build a radius-`r` stencil Laplacian on `grid`.
    pub fn new(grid: Grid3, radius: usize) -> Self {
        assert!(
            grid.nx >= 2 * radius + 1,
            "nx too small for radius {radius}"
        );
        assert!(
            grid.ny >= 2 * radius + 1,
            "ny too small for radius {radius}"
        );
        assert!(
            grid.nz >= 2 * radius + 1,
            "nz too small for radius {radius}"
        );
        let w = second_derivative_weights(radius);
        let scale = |h: f64| -> Vec<f64> { w.iter().map(|c| c / (h * h)).collect() };
        let cx = scale(grid.hx);
        let cy = scale(grid.hy);
        let cz = scale(grid.hz);
        let diag = cx[0] + cy[0] + cz[0];
        let r = radius;
        let periodic = grid.bc == Boundary::Periodic;
        // Source plane of halo'd plane `ih` along an axis of `m` points:
        // itself in the core, the wrapped one in a periodic halo, none in
        // a Dirichlet halo.
        let source =
            |ih: usize, m: usize| ((r..r + m).contains(&ih) || periodic).then(|| (ih + m - r) % m);
        let plans = [1, 2].map(|cs| {
            let (nxc, rc) = (grid.nx * cs, r * cs);
            let (hx, hy, hz) = (nxc + 2 * rc, grid.ny + 2 * r, grid.nz + 2 * r);
            let mut plan = SweepPlan {
                volume: hx * hy * hz,
                rows: Vec::new(),
                wrap: if periodic { rc } else { 0 },
                zero_rows: Vec::new(),
                zero_x_halos: Vec::new(),
                terms: vec![(diag, 0)],
                origin: (r * hy + r) * hx + rc,
                row_stride: hx,
                slab_stride: hy * hx,
            };
            for kh in 0..hz {
                let z_core = (r..r + grid.nz).contains(&kh);
                for jh in if z_core { 0..hy } else { r..r + grid.ny } {
                    let to = (kh * hy + jh) * hx + rc;
                    match source(kh, grid.nz).zip(source(jh, grid.ny)) {
                        Some((ks, js)) => plan.rows.push((to, (ks * grid.ny + js) * nxc)),
                        None => plan.zero_rows.push((to, 0)),
                    }
                    if !periodic && z_core && (r..r + grid.ny).contains(&jh) {
                        plan.zero_x_halos.extend([(to - rc, 0), (to + nxc, 0)]);
                    }
                }
            }
            for (cw, stride) in [(&cx, cs), (&cy, hx), (&cz, hy * hx)] {
                for t in 1..=r {
                    let off = (t * stride) as isize;
                    plan.terms.extend([(cw[t], off), (cw[t], -off)]);
                }
            }
            plan
        });
        Self {
            plans,
            zeros: vec![0.0; 2 * grid.nx],
            grid,
            radius,
            cx,
            cy,
            cz,
            diag,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// Stencil radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of stencil points, `6r + 1`.
    pub fn points(&self) -> usize {
        6 * self.radius + 1
    }

    /// Scalar flops one [`Laplacian::apply`] spends per *real* component of
    /// the vector: one multiply-add per stencil point per grid point.
    pub fn apply_flops_per_vector(&self) -> u64 {
        (2 * self.grid.len() * (6 * self.radius + 1)) as u64
    }

    /// `out = ∇² v` for a single vector (the paper's preferred mode) — the
    /// fused kernel itself. It records no telemetry: the block drivers
    /// (here and in the dft crate) count their columns once on the calling
    /// thread, so no count strands in an unflushed worker-thread buffer.
    ///
    /// Everything that does not depend on the vector — which row feeds
    /// which halo row, the sweep's `6r + 1` uniform terms — was built by
    /// [`Laplacian::new`]; what is left here is the two steps that touch
    /// data. The vector is copied row by row
    /// ([`mbrpa_simd::copy_rows_on`]) into the calling thread's halo'd
    /// scratch volume with `r` extra planes on every face (wrapped copies
    /// for periodic boundaries, zeros for Dirichlet — a `w·0` FMA
    /// contributes exactly nothing; only the face slabs the cross reads are
    /// filled, not the edge and corner regions). After that every output
    /// point applies the **same** `(weight, signed offset)` terms with no
    /// boundary branch anywhere: one [`mbrpa_simd::stencil_rows_on`] call
    /// sweeps the whole volume, accumulating all terms into each output
    /// element in registers and storing it **once**. Accumulation order is
    /// fixed (diag, then x, y, z by ascending `t` with `+t` before `−t`),
    /// one fused multiply-add per term on every dispatch path, so AVX2
    /// and scalar produce bitwise identical results.
    pub fn apply<T: Scalar>(&self, v: &[T], out: &mut [T]) {
        let n = self.grid.len();
        assert_eq!(v.len(), n);
        assert_eq!(out.len(), n);
        let cs = T::COMPONENTS;
        let plan = &self.plans[cs - 1];
        let (nxc, rc) = (self.grid.nx * cs, self.radius * cs);
        let d = mbrpa_simd::active();
        let vc = T::as_components(v);
        let oc = T::as_components_mut(out);

        // The halo'd scratch volume is reused across applies (a fresh
        // 100s-of-kB allocation per call would pay page faults for the
        // whole volume every time). Every element the sweep reads is
        // written on every call — rows with a source are copied, rows and
        // side halos without one (Dirichlet) are explicitly zeroed — so no
        // stale data is ever read; what the plan does not list keeps
        // stale — initialised, never read — values.
        HALO_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            if scratch.len() < plan.volume {
                scratch.resize(plan.volume, 0.0);
            }
            let halo = &mut scratch[..plan.volume];
            mbrpa_simd::copy_rows_on(d, nxc, plan.wrap, &plan.rows, vc, halo);
            mbrpa_simd::copy_rows_on(d, nxc, 0, &plan.zero_rows, &self.zeros, halo);
            mbrpa_simd::copy_rows_on(d, rc, 0, &plan.zero_x_halos, &self.zeros, halo);
            mbrpa_simd::stencil_rows_on(
                d,
                &plan.terms,
                halo,
                plan.origin,
                plan.row_stride,
                plan.slab_stride,
                self.grid.ny,
                nxc,
                oc,
            );
        });
    }

    /// Apply to every column of a block, one vector at a time (§III-C),
    /// through [`crate::par::apply_columns`].
    pub fn apply_block<T: Scalar>(&self, v: &Mat<T>, out: &mut Mat<T>) {
        assert_eq!(v.shape(), out.shape());
        assert_eq!(v.rows(), self.grid.len());
        let s = v.cols();
        mbrpa_obs::add("grid.stencil_applies", s as u64);
        mbrpa_obs::add(
            "grid.stencil_flops",
            self.apply_flops_per_vector() * (T::COMPONENTS * s) as u64,
        );
        let work_per_col = self.apply_flops_per_vector() as usize * T::COMPONENTS;
        crate::par::apply_columns(v, out, work_per_col, |x, y| self.apply(x, y));
    }

    /// Deliberately "simultaneous" multi-vector application: iterates grid
    /// points in the outer loops and touches all `s` columns at every point.
    /// This is the variant the paper's arithmetic-intensity analysis argues
    /// *against*; it exists to substantiate Figure/§III-C in a benchmark and
    /// as a correctness cross-check.
    // lint: allow(unreached_pub) — `kernels_bench` row and referee of proptest_stencil_block
    pub fn apply_block_simultaneous<T: Scalar>(&self, v: &Mat<T>, out: &mut Mat<T>) {
        assert_eq!(v.shape(), out.shape());
        let n = self.grid.len();
        assert_eq!(v.rows(), n);
        let s = v.cols();
        mbrpa_obs::add("grid.stencil_applies", s as u64);
        mbrpa_obs::add(
            "grid.stencil_flops",
            self.apply_flops_per_vector() * (T::COMPONENTS * s) as u64,
        );
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.grid.nz);
        let periodic = self.grid.bc == Boundary::Periodic;
        let r = self.radius;

        let vd = v.as_slice();
        let od = out.as_mut_slice();
        od.iter_mut()
            .zip(vd.iter())
            .for_each(|(o, &x)| *o = x.scale(self.diag));

        let neighbour = |idx: usize, nb: usize, c: f64, od: &mut [T]| {
            for col in 0..s {
                od[col * n + idx] += vd[col * n + nb].scale(c);
            }
        };

        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let idx = i + nx * (j + ny * k);
                    for t in 1..=r {
                        // x axis
                        if i + t < nx || periodic {
                            neighbour(idx, (i + t) % nx + nx * (j + ny * k), self.cx[t], od);
                        }
                        if i >= t || periodic {
                            neighbour(idx, (i + nx - t) % nx + nx * (j + ny * k), self.cx[t], od);
                        }
                        // y axis
                        if j + t < ny || periodic {
                            neighbour(idx, i + nx * ((j + t) % ny + ny * k), self.cy[t], od);
                        }
                        if j >= t || periodic {
                            neighbour(idx, i + nx * ((j + ny - t) % ny + ny * k), self.cy[t], od);
                        }
                        // z axis
                        if k + t < nz || periodic {
                            neighbour(idx, i + nx * (j + ny * ((k + t) % nz)), self.cz[t], od);
                        }
                        if k >= t || periodic {
                            neighbour(idx, i + nx * (j + ny * ((k + nz - t) % nz)), self.cz[t], od);
                        }
                    }
                }
            }
        }
    }

    /// Assemble the dense `n_d × n_d` operator (test oracle; small grids
    /// only).
    pub fn to_dense(&self) -> Mat<f64> {
        let n = self.grid.len();
        let mut m = Mat::zeros(n, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            self.apply(&e, &mut col);
            m.col_mut(j).copy_from_slice(&col);
            e[j] = 0.0;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_linalg::C64;
    use std::f64::consts::PI;

    #[test]
    fn weights_match_classical_values() {
        let w1 = second_derivative_weights(1);
        assert_eq!(w1, vec![-2.0, 1.0]);
        let w2 = second_derivative_weights(2);
        assert!((w2[0] + 5.0 / 2.0).abs() < 1e-15);
        assert!((w2[1] - 4.0 / 3.0).abs() < 1e-15);
        assert!((w2[2] + 1.0 / 12.0).abs() < 1e-15);
        let w3 = second_derivative_weights(3);
        assert!((w3[0] + 49.0 / 18.0).abs() < 1e-14);
        assert!((w3[1] - 3.0 / 2.0).abs() < 1e-14);
        assert!((w3[2] + 3.0 / 20.0).abs() < 1e-14);
        assert!((w3[3] - 1.0 / 90.0).abs() < 1e-14);
    }

    #[test]
    fn weights_sum_to_zero() {
        // consistency: Laplacian annihilates constants
        for r in 1..=8 {
            let w = second_derivative_weights(r);
            let s: f64 = w[0] + 2.0 * w[1..].iter().sum::<f64>();
            assert!(s.abs() < 1e-12, "r={r}: weight sum {s}");
        }
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

    fn kron_sum_oracle(g: &Grid3, r: usize, v: &[f64]) -> Vec<f64> {
        // apply Lx⊗I⊗I + I⊗Ly⊗I + I⊗I⊗Lz using the dense 1-D matrices
        let lx = dense_laplacian_1d(g.nx, g.hx, r, g.bc);
        let ly = dense_laplacian_1d(g.ny, g.hy, r, g.bc);
        let lz = dense_laplacian_1d(g.nz, g.hz, r, g.bc);
        let mut out = vec![0.0; g.len()];
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let mut acc = 0.0;
                    for p in 0..g.nx {
                        acc += lx[(i, p)] * v[g.index(p, j, k)];
                    }
                    for p in 0..g.ny {
                        acc += ly[(j, p)] * v[g.index(i, p, k)];
                    }
                    for p in 0..g.nz {
                        acc += lz[(k, p)] * v[g.index(i, j, p)];
                    }
                    out[g.index(i, j, k)] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn matches_kronecker_sum_periodic() {
        let g = Grid3::new((7, 6, 5), (0.5, 0.6, 0.7), Boundary::Periodic);
        let lap = Laplacian::new(g, 2);
        let v = test_vec(g.len(), 9);
        let mut out = vec![0.0; g.len()];
        lap.apply(&v, &mut out);
        let oracle = kron_sum_oracle(&g, 2, &v);
        for (a, b) in out.iter().zip(oracle.iter()) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_kronecker_sum_dirichlet() {
        let g = Grid3::new((9, 7, 8), (0.4, 0.5, 0.45), Boundary::Dirichlet);
        let lap = Laplacian::new(g, 3);
        let v = test_vec(g.len(), 13);
        let mut out = vec![0.0; g.len()];
        lap.apply(&v, &mut out);
        let oracle = kron_sum_oracle(&g, 3, &v);
        for (a, b) in out.iter().zip(oracle.iter()) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
    }

    /// Only the face slabs of the halo'd scratch are refilled per apply, so
    /// its edge and corner regions hold whatever an earlier apply on this
    /// thread left at those flat positions. Poison them through a larger
    /// grid first: if the sweep read a single one, the 1e200s would show.
    #[test]
    fn matches_kronecker_sum_for_every_radius_over_a_poisoned_scratch() {
        for bc in [Boundary::Periodic, Boundary::Dirichlet] {
            for r in 1..=4 {
                let big = Grid3::new((13, 12, 14), (0.5, 0.5, 0.5), Boundary::Periodic);
                let poison = vec![1e200; big.len()];
                let mut sink = vec![0.0; big.len()];
                Laplacian::new(big, r).apply(&poison, &mut sink);

                let g = Grid3::new((2 * r + 2, 2 * r + 4, 2 * r + 3), (0.5, 0.6, 0.7), bc);
                let lap = Laplacian::new(g, r);
                let v = test_vec(g.len(), 17 + r as u64);
                let mut out = vec![0.0; g.len()];
                lap.apply(&v, &mut out);
                let oracle = kron_sum_oracle(&g, r, &v);
                for (a, b) in out.iter().zip(oracle.iter()) {
                    assert!((a - b).abs() < 1e-10, "{bc:?} r={r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn annihilates_constants_periodic() {
        let g = Grid3::cubic(8, 0.69, Boundary::Periodic);
        let lap = Laplacian::new(g, 3);
        let v = vec![3.7; g.len()];
        let mut out = vec![0.0; g.len()];
        lap.apply(&v, &mut out);
        for o in &out {
            assert!(o.abs() < 1e-10);
        }
    }

    #[test]
    fn plane_wave_is_eigenvector() {
        // cos(2πx/L) is an eigenvector of the periodic stencil with
        // eigenvalue given by the stencil symbol.
        let n = 12;
        let h = 0.7;
        let r = 3;
        let g = Grid3::new((n, 7, 7), (h, h, h), Boundary::Periodic);
        let lap = Laplacian::new(g, r);
        let kx = 2.0 * PI / (n as f64 * h);
        let v: Vec<f64> = (0..g.len())
            .map(|idx| {
                let (i, _, _) = g.coords(idx);
                (kx * i as f64 * h).cos()
            })
            .collect();
        let w = second_derivative_weights(r);
        let symbol: f64 = (w[0]
            + 2.0
                * (1..=r)
                    .map(|t| w[t] * (kx * t as f64 * h).cos())
                    .sum::<f64>())
            / (h * h);
        let mut out = vec![0.0; g.len()];
        lap.apply(&v, &mut out);
        for (o, vi) in out.iter().zip(v.iter()) {
            assert!((o - symbol * vi).abs() < 1e-10, "{o} vs {}", symbol * vi);
        }
        // and the symbol approximates the continuum eigenvalue −kx²
        assert!((symbol + kx * kx).abs() < 1e-3 * kx * kx);
    }

    #[test]
    fn complex_apply_acts_componentwise() {
        let g = Grid3::cubic(6, 0.5, Boundary::Periodic);
        let lap = Laplacian::new(g, 2);
        let re = test_vec(g.len(), 3);
        let im = test_vec(g.len(), 4);
        let vc: Vec<C64> = re
            .iter()
            .zip(im.iter())
            .map(|(&a, &b)| C64::new(a, b))
            .collect();
        let mut oc = vec![C64::new(0.0, 0.0); g.len()];
        lap.apply(&vc, &mut oc);
        let mut or_ = vec![0.0; g.len()];
        let mut oi = vec![0.0; g.len()];
        lap.apply(&re, &mut or_);
        lap.apply(&im, &mut oi);
        for i in 0..g.len() {
            assert!((oc[i].re - or_[i]).abs() < 1e-12);
            assert!((oc[i].im - oi[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn block_and_simultaneous_agree() {
        let g = Grid3::new((7, 7, 9), (0.5, 0.5, 0.5), Boundary::Periodic);
        let lap = Laplacian::new(g, 2);
        let v = Mat::from_fn(g.len(), 3, |i, j| {
            ((i * 31 + j * 17) % 101) as f64 * 0.01 - 0.5
        });
        let mut a = Mat::zeros(g.len(), 3);
        let mut b = Mat::zeros(g.len(), 3);
        lap.apply_block(&v, &mut a);
        lap.apply_block_simultaneous(&v, &mut b);
        assert!(a.max_abs_diff(&b) < 1e-11);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_undersized_grid() {
        let g = Grid3::cubic(4, 0.5, Boundary::Periodic);
        let _ = Laplacian::new(g, 2);
    }
}
