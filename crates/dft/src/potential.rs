//! Model pseudopotential: local Gaussian wells plus Kleinman–Bylander-style
//! non-local projectors.
//!
//! **Substitution note (see DESIGN.md):** the paper obtains its Hamiltonian
//! from a SPARC Kohn–Sham calculation with real silicon pseudopotentials.
//! The RPA stage only needs a real symmetric grid Hamiltonian of the form
//! `−½∇² + V_loc + 𝒳Γ𝒳ᵀ` with a gapped low spectrum, so we synthesize one:
//! a local potential of attractive Gaussians at the (perturbed) atom sites
//! and an optional low-rank non-local term built from localized projector
//! functions. Both pieces exercise exactly the kernels the paper analyzes
//! (stencil + diagonal + the outer product `𝒳𝒳ᴴ`, sparse or dense by fill).

use crate::system::Crystal;
use mbrpa_grid::Grid3;
use mbrpa_linalg::Scalar;
use mbrpa_simd::{DenseRows, SparseRows};

/// Shape parameters of the model pseudopotential.
#[derive(Clone, Copy, Debug)]
pub struct PotentialParams {
    /// Depth of each local Gaussian well (Hartree).
    pub depth: f64,
    /// Gaussian width σ of the local wells (Bohr).
    pub sigma: f64,
    /// Non-local projector strength γ (Hartree); 0 disables the term.
    pub nonlocal_strength: f64,
    /// Non-local projector Gaussian width (Bohr).
    pub nonlocal_sigma: f64,
    /// Support cutoff radius of each projector (Bohr); beyond it the
    /// projector is exactly zero, making `𝒳` sparse.
    pub nonlocal_cutoff: f64,
}

impl Default for PotentialParams {
    fn default() -> Self {
        Self {
            depth: 3.0,
            sigma: 1.1,
            nonlocal_strength: 0.8,
            nonlocal_sigma: 0.9,
            nonlocal_cutoff: 2.7,
        }
    }
}

/// Sum over periodic images within the minimum-image convention plus the
/// nearest shell, adequate for wells much narrower than the cell.
fn image_displacement(grid: &Grid3, d: (f64, f64, f64)) -> f64 {
    let (lx, ly, lz) = grid.lengths();
    let dx = grid.min_image(d.0, lx);
    let dy = grid.min_image(d.1, ly);
    let dz = grid.min_image(d.2, lz);
    (dx * dx + dy * dy + dz * dz).sqrt()
}

/// Evaluate the local potential on every grid point.
pub fn local_potential(crystal: &Crystal, params: &PotentialParams) -> Vec<f64> {
    let grid = &crystal.grid;
    let inv_two_sigma2 = 1.0 / (2.0 * params.sigma * params.sigma);
    let mut v = vec![0.0; grid.len()];
    for idx in 0..grid.len() {
        let (i, j, k) = grid.coords(idx);
        let p = grid.position(i, j, k);
        let mut acc = 0.0;
        for atom in &crystal.atoms {
            let r = image_displacement(
                grid,
                (
                    p.0 - atom.position.0,
                    p.1 - atom.position.1,
                    p.2 - atom.position.2,
                ),
            );
            acc -= params.depth * (-r * r * inv_two_sigma2).exp();
        }
        v[idx] = acc;
    }
    v
}

/// A sparse localized projector: the non-zero grid indices and values of
/// one Kleinman–Bylander-style channel.
#[derive(Clone, Debug)]
pub struct Projector {
    /// Grid indices inside the support ball, strictly ascending.
    pub indices: Vec<u32>,
    /// Projector values at those indices (unit l₂ norm).
    pub values: Vec<f64>,
    /// Channel strength γ.
    pub strength: f64,
}

/// How [`NonlocalProjectors`] holds `𝒳`: picked once from its fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProjectorForm {
    /// Each channel's support points and values
    /// ([`mbrpa_simd::sparse_projector_add_on`]).
    Sparse,
    /// Every channel over every grid point, zero off its support
    /// ([`mbrpa_simd::dense_projector_add_on`]).
    Dense,
}

impl ProjectorForm {
    /// Lowercase name, as the report's system line prints it.
    pub fn name(self) -> &'static str {
        match self {
            ProjectorForm::Sparse => "sparse",
            ProjectorForm::Dense => "dense",
        }
    }
}

/// `𝒳ᵀ` in the one form [`NonlocalProjectors`] picked for it.
#[derive(Clone, Debug)]
enum Rows {
    Sparse(SparseRows),
    Dense(DenseRows),
}

/// The non-local term `V_nl = Σ_a γ_a |p_a⟩⟨p_a| = 𝒳 Γ 𝒳ᵀ` with
/// atom-centered columns of `𝒳`, held projector-major: row `a` is `p_a`.
///
/// The rows are stored in one of two forms, picked when they are built
/// with no knob: sparse (the support points of each row) while the
/// supports cover less than half of `rows × n_d`, dense (every point, zero
/// off the support) from there on — where a dense pass over the grid costs
/// less than a gather and a scatter over most of it. Both kernels return
/// the same bits on every input, so the choice moves no result.
///
/// **Invariant the unchecked kernels rest on:** every stored grid index is
/// `< dim` and each projector's indices are strictly ascending.
/// [`from_projectors`](Self::from_projectors) is the only constructor and
/// asserts it in every build profile (through [`SparseRows::from_rows`]),
/// and [`apply_add`](Self::apply_add) refuses any vector not of length
/// `dim`.
#[derive(Clone, Debug)]
pub struct NonlocalProjectors {
    /// `𝒳ᵀ`, one row per channel.
    rows: Rows,
    /// Channel strengths `γ_a`.
    strengths: Vec<f64>,
}

/// One projector per atom of `crystal`: its grid points within the cutoff,
/// Gaussian values normalized to unit l₂ norm.
fn atom_channels(crystal: &Crystal, params: &PotentialParams) -> Vec<Projector> {
    let grid = &crystal.grid;
    let inv_two_sigma2 = 1.0 / (2.0 * params.nonlocal_sigma * params.nonlocal_sigma);
    let cutoff2 = params.nonlocal_cutoff * params.nonlocal_cutoff;
    let mut projectors = Vec::with_capacity(crystal.atoms.len());
    for atom in &crystal.atoms {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for idx in 0..grid.len() {
            let (i, j, k) = grid.coords(idx);
            let p = grid.position(i, j, k);
            let dx = grid.min_image(p.0 - atom.position.0, grid.lengths().0);
            let dy = grid.min_image(p.1 - atom.position.1, grid.lengths().1);
            let dz = grid.min_image(p.2 - atom.position.2, grid.lengths().2);
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 <= cutoff2 {
                indices.push(idx as u32);
                values.push((-r2 * inv_two_sigma2).exp());
            }
        }
        // normalize to unit l2 norm so γ directly sets the channel scale
        let norm: f64 = values.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            values.iter_mut().for_each(|x| *x /= norm);
        }
        projectors.push(Projector {
            indices,
            values,
            strength: params.nonlocal_strength,
        });
    }
    projectors
}

impl NonlocalProjectors {
    /// Build one projector per atom.
    pub fn build(crystal: &Crystal, params: &PotentialParams) -> Self {
        let built = Self::from_projectors(crystal.grid.len(), &atom_channels(crystal, params));
        // a profile shows which kernel the applies ran, and at what fill
        let form = match built.form() {
            ProjectorForm::Sparse => "dft.projector_form.sparse",
            ProjectorForm::Dense => "dft.projector_form.dense",
        };
        mbrpa_obs::add(form, 1);
        mbrpa_obs::record("dft.projector_nnz_per_point", built.nnz_per_point());
        built
    }

    /// Explicit channels on a grid of `dim` points, held dense when they
    /// store at least half of `channels × dim` entries (and no value `±0`,
    /// which the dense form could not tell from an absent entry), sparse
    /// otherwise.
    ///
    /// # Panics
    /// If a channel's index and value lists differ in length, its indices
    /// are not strictly ascending, or one is `≥ dim` (the type-level
    /// invariant).
    pub fn from_projectors(dim: usize, projectors: &[Projector]) -> Self {
        let sparse = SparseRows::from_rows(
            dim,
            projectors
                .iter()
                .map(|p| (p.indices.as_slice(), p.values.as_slice())),
        );
        let dense = if 2 * sparse.nnz() >= sparse.rows() * dim {
            DenseRows::from_sparse(&sparse)
        } else {
            None
        };
        Self {
            rows: dense.map_or(Rows::Sparse(sparse), Rows::Dense),
            strengths: projectors.iter().map(|p| p.strength).collect(),
        }
    }

    /// The form `𝒳` is held in.
    pub fn form(&self) -> ProjectorForm {
        match self.rows {
            Rows::Sparse(_) => ProjectorForm::Sparse,
            Rows::Dense(_) => ProjectorForm::Dense,
        }
    }

    /// The same channels in the form the rule did not pick, for tests that
    /// hold the two forms against each other.
    #[cfg(test)]
    pub(crate) fn in_the_other_form(&self) -> Self {
        let rows = match &self.rows {
            Rows::Sparse(m) => Rows::Dense(DenseRows::from_sparse(m).expect("no stored zero")),
            Rows::Dense(m) => {
                let lists: Vec<(Vec<u32>, Vec<f64>)> = (0..m.rows())
                    .map(|r| {
                        (0..m.cols())
                            .filter(|&j| m.get(r, j) != 0.0)
                            .map(|j| (j as u32, m.get(r, j)))
                            .unzip()
                    })
                    .collect();
                let lists = lists.iter().map(|(i, v)| (i.as_slice(), v.as_slice()));
                Rows::Sparse(SparseRows::from_rows(m.cols(), lists))
            }
        };
        Self {
            rows,
            strengths: self.strengths.clone(),
        }
    }

    /// Number of projector channels.
    pub fn len(&self) -> usize {
        self.strengths.len()
    }

    /// True when no channels exist.
    pub fn is_empty(&self) -> bool {
        self.strengths.is_empty()
    }

    /// Grid dimension the projectors act on.
    pub fn dim(&self) -> usize {
        match &self.rows {
            Rows::Sparse(m) => m.cols(),
            Rows::Dense(m) => m.cols(),
        }
    }

    /// Total support points across channels — the entries of the sparse
    /// form, whichever form holds them, so that the cost model reads the
    /// same work under both.
    pub fn nnz(&self) -> usize {
        match &self.rows {
            Rows::Sparse(m) => m.nnz(),
            Rows::Dense(m) => m.nnz(),
        }
    }

    /// `nnz / n_d`: the projector work per grid point of one apply.
    pub fn nnz_per_point(&self) -> f64 {
        self.nnz() as f64 / self.dim().max(1) as f64
    }

    /// Sum of channel strengths `Σ γ_a`: an upper bound on `λ_max(V_nl)`
    /// (each channel is a unit-norm rank-1 PSD term of norm `γ_a`).
    pub fn strength_sum(&self) -> f64 {
        self.strengths.iter().map(|g| g.max(0.0)).sum()
    }

    /// `y += Σ_a γ_a p_a (p_aᵀ x)` for one vector: per channel a dot over
    /// its support, then an update of `y` over the same points, through
    /// the kernel of the form `𝒳` is held in (the same bits either way).
    pub fn apply_add<T: Scalar>(&self, x: &[T], y: &mut [T]) {
        let (d, cs) = (mbrpa_simd::active(), T::COMPONENTS);
        let (x, y) = (T::as_components(x), T::as_components_mut(y));
        match &self.rows {
            Rows::Sparse(m) => mbrpa_simd::sparse_projector_add_on(d, cs, m, &self.strengths, x, y),
            Rows::Dense(m) => mbrpa_simd::dense_projector_add_on(d, cs, m, &self.strengths, x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SiliconSpec;
    use mbrpa_linalg::{Mat, C64};

    fn small_crystal() -> Crystal {
        SiliconSpec {
            points_per_cell: 7,
            perturbation: 0.0,
            ..SiliconSpec::default()
        }
        .build()
    }

    #[test]
    fn local_potential_is_negative_and_bounded() {
        let c = small_crystal();
        let v = local_potential(&c, &PotentialParams::default());
        assert_eq!(v.len(), c.n_grid());
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max <= 0.0, "attractive wells must be non-positive");
        // wells can overlap, but not beyond atoms × depth
        assert!(min >= -(c.atoms.len() as f64) * 3.0);
        assert!(
            min < -1.0,
            "potential should be meaningfully deep, got {min}"
        );
    }

    #[test]
    fn potential_deepest_near_atoms() {
        let c = small_crystal();
        let params = PotentialParams::default();
        let v = local_potential(&c, &params);
        // the grid point nearest to atom 0 must be deeper than the cell
        // center region far from all atoms
        let g = &c.grid;
        let (ax, ay, az) = c.atoms[0].position;
        let near = g.index(
            (ax / g.hx).round() as usize % g.nx,
            (ay / g.hy).round() as usize % g.ny,
            (az / g.hz).round() as usize % g.nz,
        );
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!(v[near] < mean);
    }

    #[test]
    fn projectors_are_sparse_and_normalized() {
        let c = small_crystal();
        let channels = atom_channels(&c, &PotentialParams::default());
        let nl = NonlocalProjectors::from_projectors(c.n_grid(), &channels);
        assert_eq!(nl.len(), 8);
        assert!(nl.nnz() > 0);
        assert!(nl.nnz() < 8 * c.n_grid(), "projectors must be localized");
        for p in &channels {
            let norm: f64 = p.values.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nonlocal_apply_is_symmetric_positive() {
        let c = small_crystal();
        let nl = NonlocalProjectors::build(&c, &PotentialParams::default());
        let n = c.n_grid();
        let mut state = 123u64;
        let mut rand_vec = || -> Vec<f64> {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state as f64 / u64::MAX as f64) - 0.5
                })
                .collect()
        };
        let x = rand_vec();
        let y = rand_vec();
        let mut vx = vec![0.0; n];
        let mut vy = vec![0.0; n];
        nl.apply_add(&x, &mut vx);
        nl.apply_add(&y, &mut vy);
        let xv_y: f64 = x.iter().zip(vy.iter()).map(|(a, b)| a * b).sum();
        let yv_x: f64 = y.iter().zip(vx.iter()).map(|(a, b)| a * b).sum();
        assert!((xv_y - yv_x).abs() < 1e-10, "V_nl must be symmetric");
        let quad: f64 = x.iter().zip(vx.iter()).map(|(a, b)| a * b).sum();
        assert!(quad >= -1e-12, "V_nl with γ>0 must be PSD");
    }

    #[test]
    fn nonlocal_rank_bounded_by_channels() {
        let c = small_crystal();
        let nl = NonlocalProjectors::build(&c, &PotentialParams::default());
        // applying to a vector orthogonal to all projectors gives zero
        let n = c.n_grid();
        // build a vector supported on a single point far from all supports —
        // if that point is inside some support, fall back to checking rank
        // via image dimension: the image of 9 random vectors must span ≤ 8.
        let mut images = Mat::zeros(n, 9);
        let mut state = 9u64;
        for j in 0..9 {
            let x: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state as f64 / u64::MAX as f64) - 0.5
                })
                .collect();
            let mut y = vec![0.0; n];
            nl.apply_add(&x, &mut y);
            images.col_mut(j).copy_from_slice(&y);
        }
        let qr = mbrpa_linalg::thin_qr(&images);
        assert!(
            !qr.deficient.is_empty(),
            "9 images of a rank-8 operator must be dependent"
        );
    }

    #[test]
    fn complex_apply_matches_componentwise() {
        let c = small_crystal();
        let nl = NonlocalProjectors::build(&c, &PotentialParams::default());
        let n = c.n_grid();
        let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let im: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let xc: Vec<C64> = re
            .iter()
            .zip(im.iter())
            .map(|(&a, &b)| C64::new(a, b))
            .collect();
        let mut yc = vec![C64::new(0.0, 0.0); n];
        nl.apply_add(&xc, &mut yc);
        let mut yr = vec![0.0; n];
        let mut yi = vec![0.0; n];
        nl.apply_add(&re, &mut yr);
        nl.apply_add(&im, &mut yi);
        for i in 0..n {
            assert!((yc[i].re - yr[i]).abs() < 1e-12);
            assert!((yc[i].im - yi[i]).abs() < 1e-12);
        }
    }

    /// The plain loops `apply_add` ran before the unchecked kernel took
    /// over: the oracle it has to match bit for bit.
    fn apply_add_plain<T: Scalar>(projectors: &[Projector], x: &[T], y: &mut [T]) {
        for proj in projectors {
            let mut dot = T::zero();
            for (&i, &v) in proj.indices.iter().zip(proj.values.iter()) {
                dot += x[i as usize].scale(v);
            }
            let coeff = dot.scale(proj.strength);
            for (&i, &v) in proj.indices.iter().zip(proj.values.iter()) {
                y[i as usize] += coeff.scale(v);
            }
        }
    }

    /// `apply_add`, and the sparse and the dense kernel on every dispatch
    /// path, against the plain loops from a non-zero `y`. Where the data
    /// hold NaN a NaN need only meet a NaN: Rust leaves the sign and payload
    /// of a NaN result unspecified.
    fn assert_matches_plain_loops<T: Scalar>(list: &[Projector], x: &[T], y0: &[T], what: &str) {
        let nl = NonlocalProjectors::from_projectors(x.len(), list);
        let mut want = y0.to_vec();
        apply_add_plain(list, x, &mut want);
        let same = |got: &[T], path: &str| {
            let (got, want) = (T::as_components(got), T::as_components(&want));
            let at = got
                .iter()
                .zip(want)
                .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()));
            assert_eq!(at, None, "{what}, {path}: first differing component");
        };
        let mut got = y0.to_vec();
        nl.apply_add(x, &mut got);
        same(&got, nl.form().name());
        let sparse = SparseRows::from_rows(
            x.len(),
            list.iter()
                .map(|p| (p.indices.as_slice(), p.values.as_slice())),
        );
        let dense = DenseRows::from_sparse(&sparse).expect("no stored zero");
        let gamma: Vec<f64> = list.iter().map(|p| p.strength).collect();
        let (cs, xs) = (T::COMPONENTS, T::as_components(x));
        for &d in mbrpa_simd::available() {
            let mut got = y0.to_vec();
            let ys = T::as_components_mut(&mut got);
            mbrpa_simd::sparse_projector_add_on(d, cs, &sparse, &gamma, xs, ys);
            same(&got, &format!("sparse {}", d.name()));
            let mut got = y0.to_vec();
            let ys = T::as_components_mut(&mut got);
            mbrpa_simd::dense_projector_add_on(d, cs, &dense, &gamma, xs, ys);
            same(&got, &format!("dense {}", d.name()));
        }
    }

    #[test]
    fn kernel_matches_the_plain_loops_bit_for_bit() {
        use mbrpa_grid::Boundary::{Dirichlet, Periodic};
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for (ppc, boundary) in [
            (7, Periodic),
            (14, Periodic),
            (8, Dirichlet),
            (5, Dirichlet),
        ] {
            let crystal = SiliconSpec {
                points_per_cell: ppc,
                boundary,
                ..SiliconSpec::default()
            }
            .build();
            let n = crystal.n_grid();
            let channels = atom_channels(&crystal, &PotentialParams::default());
            assert_eq!(channels.len(), 8);
            // around the sparse kernel's pairs and the dense kernel's groups
            // of eight; 7 is the vacancy, and from the ninth channel on the
            // list starts over
            for count in [0, 1, 3, 4, 5, 7, 8, 9, 16] {
                let mut list: Vec<Projector> =
                    channels.iter().cycle().take(count).cloned().collect();
                for (a, p) in list.iter_mut().enumerate() {
                    p.strength = 0.7 + 0.3 * a as f64;
                }
                if count >= 3 {
                    // one channel whose support holds no grid point
                    list[1].indices.clear();
                    list[1].values.clear();
                }
                // plain data; exact zeros in x and y with −0 in y (most of
                // it off every support on the Dirichlet grids); then ±∞ and
                // NaN in x as well; and (complex) an idle imaginary slot,
                // `+0` in x and `−0` in y, as a lone real Lanczos column
                for inputs in ["plain", "zeros", "non-finite", "idle"] {
                    let what = format!("{boundary:?} {ppc}³, {count} channels, {inputs}");
                    let special = |i: usize, v: f64, y: bool| match (inputs, i % 7) {
                        ("plain" | "idle", _) => v,
                        (_, 0) if y => -0.0,
                        (_, 3) => 0.0,
                        ("non-finite", 1) if !y => {
                            [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(i / 7) % 3]
                        }
                        _ => v,
                    };
                    let (x, y): (Vec<f64>, Vec<f64>) = (0..n)
                        .map(|i| (special(i, next(), false), special(i, next(), true)))
                        .unzip();
                    assert_matches_plain_loops(&list, &x, &y, &what);
                    let idle = inputs == "idle";
                    let (x, y): (Vec<C64>, Vec<C64>) = (0..n)
                        .map(|i| {
                            let x = C64::new(special(i, next(), false), next());
                            let y = C64::new(next(), special(i, next(), true));
                            if idle {
                                (C64::new(x.re, 0.0), C64::new(y.re, -0.0))
                            } else {
                                (x, y)
                            }
                        })
                        .unzip();
                    assert_matches_plain_loops(&list, &x, &y, &what);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 0..27")]
    fn a_projector_reaching_past_the_grid_is_refused() {
        let stray = Projector {
            indices: vec![3, 27],
            values: vec![0.6, 0.8],
            strength: 1.0,
        };
        let _ = NonlocalProjectors::from_projectors(27, &[stray]);
    }

    #[test]
    #[should_panic(expected = "x is not one element per column")]
    fn a_vector_of_another_length_is_refused() {
        let nl = NonlocalProjectors::build(&small_crystal(), &PotentialParams::default());
        let x = vec![0.0; nl.dim() - 1];
        let mut y = vec![0.0; nl.dim()];
        nl.apply_add(&x, &mut y);
    }
}
