//! The Kohn–Sham Hamiltonian `H = −½∇² + V_loc + 𝒳Γ𝒳ᵀ` and the shifted
//! complex-symmetric Sternheimer operator `A_{j,k} = H − λ_j I + iω_k I`.

use crate::potential::{local_potential, NonlocalProjectors, PotentialParams};
use crate::system::Crystal;
use mbrpa_grid::Laplacian;
use mbrpa_linalg::{exactly_zero, Mat, Scalar, C64};

/// Real symmetric grid Hamiltonian.
///
/// The operator is partially matrix-free: the kinetic term is the radius-`r`
/// stencil (never assembled), the local potential is a diagonal, and the
/// non-local term is the outer product the paper calls `𝒳𝒳ᴴ`, held
/// sparse or dense by its fill ([`NonlocalProjectors`]).
#[derive(Clone, Debug)]
pub struct Hamiltonian {
    lap: Laplacian,
    vloc: Vec<f64>,
    nonlocal: Option<NonlocalProjectors>,
}

impl Hamiltonian {
    /// Assemble the model Hamiltonian for a crystal.
    pub fn new(crystal: &Crystal, radius: usize, params: &PotentialParams) -> Self {
        let lap = Laplacian::new(crystal.grid, radius);
        let vloc = local_potential(crystal, params);
        let nonlocal = if !exactly_zero(params.nonlocal_strength) {
            Some(NonlocalProjectors::build(crystal, params))
        } else {
            None
        };
        Self {
            lap,
            vloc,
            nonlocal,
        }
    }

    /// Grid dimension `n_d`.
    pub fn dim(&self) -> usize {
        self.vloc.len()
    }

    /// The kinetic stencil.
    pub fn laplacian(&self) -> &Laplacian {
        &self.lap
    }

    /// The diagonal local potential.
    pub fn vloc(&self) -> &[f64] {
        &self.vloc
    }

    /// The non-local projector term, if present.
    pub fn nonlocal(&self) -> Option<&NonlocalProjectors> {
        self.nonlocal.as_ref()
    }

    /// `out = H v` for one vector (real or complex). Records no
    /// telemetry; [`Hamiltonian::apply_block`] counts its columns.
    pub fn apply<T: Scalar>(&self, v: &[T], out: &mut [T]) {
        self.lap.apply(v, out);
        self.apply_tail(v, out, |p, x| x.scale(p));
    }

    /// Finish `H v` given `out = ∇² v`: one pass over the grid scales by
    /// −½ while adding the diagonal term, then the non-local projector
    /// term follows. `diag(V_loc[i], v[i])` is the diagonal
    /// term: `V_loc ⊙ v` for `H` itself, and `((V_loc − λ) + iω) ⊙ v` for
    /// the Sternheimer operator, whose shift so costs no second pass.
    fn apply_tail<T: Scalar>(&self, v: &[T], out: &mut [T], diag: impl Fn(f64, T) -> T) {
        for ((o, &x), &p) in out.iter_mut().zip(v.iter()).zip(self.vloc.iter()) {
            *o = o.scale(-0.5) + diag(p, x);
        }
        if let Some(nl) = &self.nonlocal {
            nl.apply_add(v, out);
        }
    }

    /// `out = H V` column by column (stencil applied one vector at a time,
    /// per §III-C of the paper), through [`mbrpa_grid::par::apply_columns`].
    pub fn apply_block<T: Scalar>(&self, v: &Mat<T>, out: &mut Mat<T>) {
        assert_eq!(v.shape(), out.shape());
        assert_eq!(v.rows(), self.dim());
        let s = v.cols();
        mbrpa_obs::add("grid.stencil_applies", s as u64);
        mbrpa_obs::add(
            "grid.stencil_flops",
            self.lap.apply_flops_per_vector() * (T::COMPONENTS * s) as u64,
        );
        let work_per_col = self.apply_flops() * T::COMPONENTS;
        mbrpa_grid::par::apply_columns(v, out, work_per_col, |x, y| self.apply(x, y));
    }

    /// Assemble the dense matrix (test oracle / direct baseline; small
    /// grids only).
    pub fn to_dense(&self) -> Mat<f64> {
        let n = self.dim();
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

    /// Deterministic upper bound on `λ_max(H)` (Weyl + Gershgorin):
    /// `½·λ_max(−∇²) + max V_loc + Σγ_a`. Used as the safe Chebyshev
    /// filter endpoint — clipping the true spectrum would make the filter
    /// amplify the top states instead of the wanted bottom ones.
    pub fn spectral_upper_bound(&self) -> f64 {
        let r = self.lap.radius();
        let w = mbrpa_grid::second_derivative_weights(r);
        let per_axis = |h: f64| -> f64 {
            (w[0].abs() + 2.0 * w[1..].iter().map(|c| c.abs()).sum::<f64>()) / (h * h)
        };
        let g = self.lap.grid();
        let lap_max = per_axis(g.hx) + per_axis(g.hy) + per_axis(g.hz);
        let vmax = self.vloc.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let nl = self.nonlocal.as_ref().map_or(0.0, |n| n.strength_sum());
        0.5 * lap_max + vmax + nl
    }

    /// Deterministic lower bound on `λ_min(H)`: `min V_loc` (kinetic and
    /// the PSD non-local term only raise the spectrum).
    // lint: allow(unreached_pub) — bound checked by proptest_dft and eigensolve's tests
    pub fn spectral_lower_bound(&self) -> f64 {
        self.vloc.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// FLOP estimate of one `H·v` application (used by the deterministic
    /// block-size cost model).
    pub fn apply_flops(&self) -> usize {
        let stencil = self.dim() * (6 * self.lap.radius() + 1) * 2;
        let diag = self.dim() * 2;
        let nl = self.nonlocal.as_ref().map_or(0, |n| 4 * n.nnz());
        stencil + diag + nl
    }
}

/// The complex-symmetric Sternheimer coefficient matrix
/// `A = H − λ I + iω I` (Eq. 8 of the paper). Its spectrum is
/// `λ(H) − λ + iω` (Eq. 9): indefinite for high orbital index `λ = λ_j`,
/// and approaching singularity as `ω → 0`.
#[derive(Clone, Debug)]
pub struct SternheimerOperator<'a> {
    ham: &'a Hamiltonian,
    /// Real shift `−λ_j`.
    pub lambda: f64,
    /// Imaginary shift `ω_k > 0`.
    pub omega: f64,
}

impl<'a> SternheimerOperator<'a> {
    /// Wrap `H` with the `(j, k)` shift pair.
    pub fn new(ham: &'a Hamiltonian, lambda: f64, omega: f64) -> Self {
        Self { ham, lambda, omega }
    }

    /// Grid dimension.
    pub fn dim(&self) -> usize {
        self.ham.dim()
    }

    /// The underlying Hamiltonian.
    pub fn hamiltonian(&self) -> &Hamiltonian {
        self.ham
    }

    /// `out = (H − λ + iω) v`. Records no telemetry; the block apply and
    /// the real-pair apply of `SternheimerLinOp` count their vectors.
    pub fn apply(&self, v: &[C64], out: &mut [C64]) {
        self.ham.lap.apply(v, out);
        self.shifted_tail(v, out);
    }

    /// The tail of `H` with `(V_loc − λ) + iω` as its diagonal coefficient:
    /// `out` and `v` are each streamed once.
    fn shifted_tail(&self, v: &[C64], out: &mut [C64]) {
        let (lambda, omega) = (self.lambda, self.omega);
        self.ham
            .apply_tail(v, out, |p, x| C64::new(p - lambda, omega) * x);
    }

    /// Block application: the fused single-vector apply per column (the
    /// stencil works one vector at a time, §III-C), through
    /// [`mbrpa_grid::par::apply_columns`].
    pub fn apply_block(&self, v: &Mat<C64>, out: &mut Mat<C64>) {
        assert_eq!(v.shape(), out.shape());
        assert_eq!(v.rows(), self.dim());
        let s = v.cols();
        mbrpa_obs::add("grid.stencil_applies", s as u64);
        mbrpa_obs::add(
            "grid.stencil_flops",
            self.ham.laplacian().apply_flops_per_vector()
                * (<C64 as Scalar>::COMPONENTS * s) as u64,
        );
        mbrpa_grid::par::apply_columns(v, out, self.apply_flops(), |x, y| self.apply(x, y));
    }

    /// FLOPs of one application to one vector.
    pub fn apply_flops(&self) -> usize {
        // every coefficient of H is real, so complex data costs 2× the
        // real apply (re and im separately); the complex shift adds 8/point
        2 * self.ham.apply_flops() + 8 * self.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SiliconSpec;
    use mbrpa_linalg::symmetric_eig;

    fn small_ham() -> (Crystal, Hamiltonian) {
        let c = SiliconSpec {
            points_per_cell: 7,
            ..SiliconSpec::default()
        }
        .build();
        let h = Hamiltonian::new(&c, 2, &PotentialParams::default());
        (c, h)
    }

    #[test]
    fn hamiltonian_is_symmetric() {
        let (_, h) = small_ham();
        let dense = h.to_dense();
        let diff = dense.max_abs_diff(&dense.transpose());
        assert!(diff < 1e-10, "asymmetry {diff}");
    }

    #[test]
    fn spectrum_is_bounded_below_and_gapped() {
        let (c, h) = small_ham();
        let eig = symmetric_eig(&h.to_dense()).unwrap();
        let n_s = c.n_occupied();
        // bounded below by the potential depth bound
        assert!(eig.values[0] > -(c.atoms.len() as f64) * 10.0);
        // spectrum increases and the occupied block exists
        assert!(eig.values[n_s - 1] < eig.values[eig.values.len() - 1]);
        // kinetic term dominates at the top: top of spectrum positive
        assert!(*eig.values.last().unwrap() > 0.0);
    }

    #[test]
    fn sternheimer_shift_spectrum() {
        // Eq. 9: λ(A) = λ(H) − λ_j + iω
        let (_, h) = small_ham();
        let dense = h.to_dense();
        let eig = symmetric_eig(&dense).unwrap();
        let (lam, om) = (eig.values[3], 0.25);
        let op = SternheimerOperator::new(&h, lam, om);
        // apply A to the 4th eigenvector: result must be iω times it
        let n = h.dim();
        let v: Vec<C64> = eig
            .vectors
            .col(3)
            .iter()
            .map(|&x| C64::new(x, 0.0))
            .collect();
        let mut av = vec![C64::new(0.0, 0.0); n];
        op.apply(&v, &mut av);
        for (a, x) in av.iter().zip(v.iter()) {
            let expect = C64::new(0.0, om) * *x;
            assert!((*a - expect).norm() < 1e-9);
        }
    }

    #[test]
    fn sternheimer_is_complex_symmetric_not_hermitian() {
        let (_, h) = small_ham();
        let op = SternheimerOperator::new(&h, 0.5, 0.3);
        let n = h.dim();
        // A = Aᵀ: xᵀAy == yᵀAx for random complex x, y
        let mut state = 77u64;
        let mut rand_c = |n: usize| -> Vec<C64> {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let re = (state as f64 / u64::MAX as f64) - 0.5;
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let im = (state as f64 / u64::MAX as f64) - 0.5;
                    C64::new(re, im)
                })
                .collect()
        };
        let x = rand_c(n);
        let y = rand_c(n);
        let mut ax = vec![C64::new(0.0, 0.0); n];
        let mut ay = vec![C64::new(0.0, 0.0); n];
        op.apply(&x, &mut ax);
        op.apply(&y, &mut ay);
        let xt_ay: C64 = x.iter().zip(ay.iter()).map(|(a, b)| *a * *b).sum();
        let yt_ax: C64 = y.iter().zip(ax.iter()).map(|(a, b)| *a * *b).sum();
        assert!((xt_ay - yt_ax).norm() < 1e-9, "A must equal Aᵀ");
        // but xᴴAy != (yᴴAx)* in general would hold for Hermitian; verify
        // A is NOT Hermitian: xᴴAx has nonzero imaginary part (= ω‖x‖²)
        let xh_ax: C64 = x.iter().zip(ax.iter()).map(|(a, b)| a.conj() * *b).sum();
        assert!(xh_ax.im.abs() > 1e-6);
    }

    #[test]
    fn block_apply_matches_vector_apply() {
        let (_, h) = small_ham();
        let n = h.dim();
        let v = Mat::from_fn(n, 3, |i, j| ((i * 13 + j * 29) % 23) as f64 * 0.07 - 0.7);
        let mut out = Mat::zeros(n, 3);
        h.apply_block(&v, &mut out);
        for j in 0..3 {
            let mut expect = vec![0.0; n];
            h.apply(v.col(j), &mut expect);
            for (a, b) in out.col(j).iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn flops_estimates_positive() {
        let (_, h) = small_ham();
        assert!(h.apply_flops() > h.dim() * 10);
        let op = SternheimerOperator::new(&h, 0.0, 0.1);
        assert!(op.apply_flops() > h.apply_flops());
    }

    /// The form `𝒳` takes on every shape the repo runs, and the same work
    /// read by the cost model under either form: `nnz` and both
    /// `apply_flops` price Algorithm 4's chunks, so a form that moved them
    /// would move block sizes, and with them bits. (`inputs/` are read
    /// through the real parser in `mbrpa-core`'s `projector_form` test.)
    #[test]
    fn each_shape_takes_its_projector_form_at_the_same_cost() {
        use crate::potential::ProjectorForm::{Dense, Sparse};
        use mbrpa_grid::Boundary::{Dirichlet, Periodic};
        // (shape, points per cell, boundary, system seed, vacancy, form)
        let shapes = [
            ("Si8.rpa, si8_solve", 7, Periodic, 7, None, Dense),
            ("Si7_vacancy.rpa", 7, Periodic, 7, Some(4), Dense),
            ("cluster_smoke.rpa", 5, Dirichlet, 7, None, Dense),
            ("serve_mix, another geometry", 5, Dirichlet, 11, None, Dense),
            ("cluster_ckpt_solve", 8, Dirichlet, 7, None, Sparse),
            ("finegrid_solve", 14, Periodic, 7, None, Sparse),
            ("finegrid_solve --smoke", 11, Periodic, 7, None, Sparse),
            ("paper scale", 15, Periodic, 7, None, Sparse),
        ];
        for (what, ppc, boundary, seed, vacancy, form) in shapes {
            let spec = SiliconSpec {
                points_per_cell: ppc,
                boundary,
                seed,
                ..SiliconSpec::default()
            };
            let crystal = vacancy.map_or_else(|| spec.build(), |v| spec.build_with_vacancy(v));
            let h = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
            let nl = h.nonlocal().expect("the model has a projector term");
            let fill = nl.nnz() as f64 / (nl.len() * nl.dim()) as f64;
            assert_eq!(nl.form(), form, "{what}: fill {fill:.3}");
            let other = Hamiltonian {
                nonlocal: Some(nl.in_the_other_form()),
                ..h.clone()
            };
            let nl_other = other.nonlocal().expect("the same term");
            assert_ne!(nl_other.form(), form, "{what}");
            assert_eq!(nl_other.nnz(), nl.nnz(), "{what}: nnz");
            assert_eq!(other.apply_flops(), h.apply_flops(), "{what}: H flops");
            let (a, b) = (
                SternheimerOperator::new(&h, -0.2, 0.5),
                SternheimerOperator::new(&other, -0.2, 0.5),
            );
            assert_eq!(a.apply_flops(), b.apply_flops(), "{what}: A flops");
        }
    }

    #[test]
    fn no_nonlocal_when_strength_zero() {
        let c = SiliconSpec {
            points_per_cell: 7,
            ..SiliconSpec::default()
        }
        .build();
        let params = PotentialParams {
            nonlocal_strength: 0.0,
            ..PotentialParams::default()
        };
        let h = Hamiltonian::new(&c, 2, &params);
        assert!(h.nonlocal().is_none());
    }
}
