//! Property-based tests for the DFT substrate: Hamiltonian symmetry,
//! spectral bounds, Sternheimer structure, and system building.

use mbrpa_dft::{Hamiltonian, PotentialParams, SiliconSpec, SternheimerOperator};
use mbrpa_linalg::{vecops, Mat, C64};
use proptest::prelude::*;

fn small_ham(seed: u64, perturbation: f64) -> Hamiltonian {
    let crystal = SiliconSpec {
        points_per_cell: 5,
        perturbation,
        seed,
        ..SiliconSpec::default()
    }
    .build();
    Hamiltonian::new(&crystal, 2, &PotentialParams::default())
}

fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// H is symmetric: uᵀHv == vᵀHu for random u, v and random geometry.
    #[test]
    fn hamiltonian_symmetry(
        seed in 0u64..1000,
        pert in 0.0f64..0.08,
        u in vec_strategy(125),
        v in vec_strategy(125),
    ) {
        let ham = small_ham(seed, pert);
        let mut hu = vec![0.0; 125];
        let mut hv = vec![0.0; 125];
        ham.apply(&u, &mut hu);
        ham.apply(&v, &mut hv);
        let uhv: f64 = u.iter().zip(hv.iter()).map(|(a, b)| a * b).sum();
        let vhu: f64 = v.iter().zip(hu.iter()).map(|(a, b)| a * b).sum();
        prop_assert!((uhv - vhu).abs() < 1e-9 * (1.0 + uhv.abs()));
    }

    /// Rayleigh quotients live inside the deterministic spectral bounds.
    #[test]
    fn rayleigh_quotient_within_bounds(seed in 0u64..1000, v in vec_strategy(125)) {
        let norm2: f64 = v.iter().map(|x| x * x).sum();
        prop_assume!(norm2 > 1e-6);
        let ham = small_ham(seed, 0.02);
        let mut hv = vec![0.0; 125];
        ham.apply(&v, &mut hv);
        let rq: f64 = v.iter().zip(hv.iter()).map(|(a, b)| a * b).sum::<f64>() / norm2;
        prop_assert!(rq <= ham.spectral_upper_bound() + 1e-9);
        prop_assert!(rq >= ham.spectral_lower_bound() - 1e-9);
    }

    /// Sternheimer operators satisfy A = Aᵀ (complex symmetry) and
    /// Im(xᴴAx) = ω‖x‖².
    #[test]
    fn sternheimer_complex_symmetry(
        seed in 0u64..1000,
        lambda in -6.0f64..0.0,
        omega in 0.01f64..10.0,
        re in vec_strategy(125),
        im in vec_strategy(125),
    ) {
        let ham = small_ham(seed, 0.02);
        let op = SternheimerOperator::new(&ham, lambda, omega);
        let x: Vec<C64> = re.iter().zip(im.iter()).map(|(&a, &b)| C64::new(a, b)).collect();
        let mut ax = vec![C64::new(0.0, 0.0); 125];
        op.apply(&x, &mut ax);
        // Im(xᴴAx) = ω‖x‖² because H − λI is real symmetric
        let xh_ax: C64 = x.iter().zip(ax.iter()).map(|(a, b)| a.conj() * b).sum();
        let norm2: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((xh_ax.im - omega * norm2).abs() < 1e-8 * (1.0 + norm2));
    }

    /// Sternheimer apply is H·x plus the diagonal shift.
    #[test]
    fn sternheimer_is_shifted_hamiltonian(
        seed in 0u64..100,
        lambda in -3.0f64..3.0,
        omega in 0.01f64..5.0,
        re in vec_strategy(125),
    ) {
        let ham = small_ham(seed, 0.02);
        let op = SternheimerOperator::new(&ham, lambda, omega);
        let x: Vec<C64> = re.iter().map(|&a| C64::new(a, 0.0)).collect();
        let mut ax = vec![C64::new(0.0, 0.0); 125];
        op.apply(&x, &mut ax);
        let mut hx = vec![0.0; 125];
        ham.apply(&re, &mut hx);
        for i in 0..125 {
            let expect = C64::new(hx[i] - lambda * re[i], omega * re[i]);
            prop_assert!((ax[i] - expect).norm() < 1e-10);
        }
    }

    /// The fused block apply equals the operator assembled column by
    /// column from the Hamiltonian's public pieces, `−½∇²x + V_loc·x +
    /// nonlocal + (−λ + iω)x` — the stencil itself is pinned against the
    /// Kronecker-sum oracle in `mbrpa-grid`.
    #[test]
    fn sternheimer_block_matches_public_pieces(
        seed in 0u64..100,
        lambda in -3.0f64..3.0,
        omega in 0.01f64..5.0,
        s in 1usize..6,
        re in vec_strategy(125 * 5),
        im in vec_strategy(125 * 5),
    ) {
        let ham = small_ham(seed, 0.02);
        let op = SternheimerOperator::new(&ham, lambda, omega);
        let x = Mat::from_fn(125, s, |i, j| C64::new(re[125 * j + i], im[125 * j + i]));
        let mut ax = Mat::zeros(125, s);
        op.apply_block(&x, &mut ax);
        let shift = C64::new(-lambda, omega);
        for j in 0..s {
            let xj = x.col(j);
            let mut expect = vec![C64::new(0.0, 0.0); 125];
            ham.laplacian().apply(xj, &mut expect);
            for ((e, &xv), &v) in expect.iter_mut().zip(xj).zip(ham.vloc()) {
                *e = e.scale(-0.5) + xv.scale(v);
            }
            if let Some(nl) = ham.nonlocal() {
                nl.apply_add(xj, &mut expect);
            }
            for ((e, &xv), a) in expect.iter_mut().zip(xj).zip(ax.col(j)) {
                *e += shift * xv;
                prop_assert!((*a - *e).norm() < 1e-10, "column {}: {} vs {}", j, a, e);
            }
        }
    }

    /// System builder: atom counts, electron counts, and grid sizes scale
    /// exactly with replication.
    #[test]
    fn ladder_scaling(cells in 1usize..6, ppc in 5usize..9) {
        let c = SiliconSpec {
            points_per_cell: ppc,
            cells_z: cells,
            ..SiliconSpec::default()
        }
        .build();
        prop_assert_eq!(c.atoms.len(), 8 * cells);
        prop_assert_eq!(c.n_occupied(), 16 * cells);
        prop_assert_eq!(c.n_grid(), ppc * ppc * ppc * cells);
    }

    /// Vacancy systems preserve the pristine geometry minus one site.
    #[test]
    fn vacancy_geometry(seed in 0u64..500, site in 0usize..8) {
        let spec = SiliconSpec {
            points_per_cell: 5,
            seed,
            ..SiliconSpec::default()
        };
        let full = spec.build();
        let vac = spec.build_with_vacancy(site);
        prop_assert_eq!(vac.atoms.len(), 7);
        for atom in &vac.atoms {
            prop_assert!(full.atoms.contains(atom));
        }
    }
}

/// Nonlocal projector apply agrees between real and complex vectors (an
/// integration-level check of the generic scalar path).
#[test]
fn projector_generic_consistency() {
    let crystal = SiliconSpec {
        points_per_cell: 5,
        ..SiliconSpec::default()
    }
    .build();
    let params = PotentialParams::default();
    let nl = mbrpa_dft::NonlocalProjectors::build(&crystal, &params);
    let n = crystal.n_grid();
    let x: Vec<f64> = (0..n).map(|i| ((i * 17) % 23) as f64 * 0.1 - 1.0).collect();
    let xc: Vec<C64> = x.iter().map(|&a| C64::new(a, -2.0 * a)).collect();
    let mut yr = vec![0.0; n];
    nl.apply_add(&x, &mut yr);
    let mut yc = vec![C64::new(0.0, 0.0); n];
    nl.apply_add(&xc, &mut yc);
    for i in 0..n {
        assert!((yc[i].re - yr[i]).abs() < 1e-12);
        assert!((yc[i].im + 2.0 * yr[i]).abs() < 1e-12);
    }
    assert!(vecops::norm2(&yr) > 0.0);
}
