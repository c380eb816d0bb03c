//! The subspace-iteration trace of the RPA integrand against the exact
//! dense trace on a small system. The §V Lanczos-quadrature estimator is
//! checked against the same trace in `crates/bench/tests/trace_estimators.rs`.

// Test code: panics are failures, and exact float comparisons assert
// bitwise-reproducible results (DESIGN.md §9).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use mbrpa::core::{
    dielectric_spectrum, full_spectrum, random_orthonormal_block, subspace_iteration, trace_term,
};
use mbrpa::prelude::*;

struct Fixture {
    ham: Hamiltonian,
    psi: Mat<f64>,
    energies: Vec<f64>,
    coulomb: CoulombOperator,
    h_dense: Mat<f64>,
    n_occ: usize,
}

fn fixture() -> Fixture {
    let crystal = SiliconSpec {
        points_per_cell: 5,
        perturbation: 0.03,
        seed: 41,
        ..SiliconSpec::default()
    }
    .build();
    let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
    let n_occ = 5;
    let ks = solve_occupied_dense(&ham, n_occ, 0).unwrap();
    let spectral = SpectralLaplacian::new(crystal.grid, 2).unwrap();
    Fixture {
        h_dense: ham.to_dense(),
        psi: ks.occupied_orbitals(),
        energies: ks.occupied_energies().to_vec(),
        ham,
        coulomb: CoulombOperator::new(spectral),
        n_occ,
    }
}

#[test]
fn subspace_trace_is_a_lower_magnitude_bound() {
    // the truncated subspace trace must capture most of, and never exceed,
    // the exact magnitude (all contributions are negative)
    let f = fixture();
    let omega = 0.6;
    let op = DielectricOperator::new(
        &f.ham,
        &f.psi,
        &f.energies,
        &f.coulomb,
        omega,
        SternheimerSettings {
            tol: 1e-8,
            ..SternheimerSettings::default()
        },
        1,
    );
    let n_eig = 20;
    let v0 = random_orthonormal_block(f.ham.dim(), n_eig, 8);
    let out = subspace_iteration(&op, v0, 1e-4, 30, 3).unwrap();
    let truncated = trace_term(&out.eigenvalues);

    let eig = full_spectrum(&f.h_dense).unwrap();
    let spectrum = dielectric_spectrum(&eig, f.n_occ, omega, &f.coulomb).unwrap();
    let exact: f64 = spectrum.iter().map(|&m| (1.0 - m).ln() + m).sum();

    assert!(truncated < 0.0 && exact < 0.0);
    assert!(
        truncated.abs() <= exact.abs() * (1.0 + 1e-6),
        "truncated {truncated} exceeds exact {exact}"
    );
    assert!(
        truncated.abs() > 0.6 * exact.abs(),
        "truncated trace too lossy: {truncated} vs {exact}"
    );
}
