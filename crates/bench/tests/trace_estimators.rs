//! The §V future-work path: Lanczos-quadrature trace estimation of the RPA
//! integrand (block Lanczos at `b = 1`) against the exact dense trace on
//! the small system of the root crate's `tests/trace_estimators.rs`.

use mbrpa::core::{dielectric_spectrum, full_spectrum};
use mbrpa::prelude::*;
use mbrpa_bench::trace_est::{block_lanczos_trace, BlockTraceOptions};

#[test]
fn lanczos_trace_agrees_with_exact_dense_trace() {
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
    let coulomb = CoulombOperator::new(SpectralLaplacian::new(crystal.grid, 2).unwrap());
    let (psi, energies) = (ks.occupied_orbitals(), ks.occupied_energies().to_vec());
    let omega = 0.6;
    let op = DielectricOperator::new(
        &ham,
        &psi,
        &energies,
        &coulomb,
        omega,
        SternheimerSettings {
            tol: 1e-9,
            ..SternheimerSettings::default()
        },
        1,
    );
    let eig = full_spectrum(&ham.to_dense()).unwrap();
    let exact_spectrum = dielectric_spectrum(&eig, n_occ, omega, &coulomb).unwrap();
    let exact: f64 = exact_spectrum.iter().map(|&m| (1.0 - m).ln() + m).sum();

    let est = block_lanczos_trace(
        &op,
        &|mu| (1.0 - mu.min(0.0)).ln() + mu.min(0.0),
        &BlockTraceOptions {
            n_blocks: 20,
            block_size: 1,
            steps: 25,
            seed: 4,
        },
    )
    .unwrap();
    let err = (est.trace - exact).abs();
    assert!(
        err < 6.0 * est.std_error.max(0.01 * exact.abs()),
        "Lanczos trace {} vs exact {exact} (stderr {})",
        est.trace,
        est.std_error
    );
}
