//! Golden-value regression test for the full iterative RPA pipeline.
//!
//! A small isolated cluster under Dirichlet boundary conditions is run
//! through the complete stack — KS stage, Sternheimer `χ⁰` applies,
//! Chebyshev-filtered subspace iteration, frequency quadrature — and the
//! resulting correlation energy is pinned two ways:
//!
//! 1. against the dense direct reference (`core::direct`), per frequency,
//!    with the exact spectrum truncated to the same `n_eig` eigenvalues
//!    (catches *physics* regressions relative to the quartic oracle), and
//! 2. against a committed golden constant (catches *any* numerical drift,
//!    including changes that move both pipelines together).
//!
//! The run is single-worker with the deterministic cost-model block
//! policy, so the energy is reproducible to near machine precision; the
//! committed tolerance only allows for libm / instruction-scheduling
//! differences across platforms. If an intentional algorithm change moves
//! the energy, re-derive the constant with
//! `cargo test --test golden_energy -- --nocapture` and update it in the
//! same commit with a note in the message.

// Test code: panics are failures, and exact float comparisons assert
// bitwise-reproducible results (DESIGN.md §9).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use mbrpa::dft::Atom;
use mbrpa::prelude::*;

/// Committed reference energy (Hartree) for the system below:
/// −2.782463226476760e-1, drawn with the workspace's seeded xoshiro `rand`
/// (re-pinned when the Sternheimer chunks wider than one column moved to
/// real block Lanczos: −2.782463226400042e-1 before, 2.8e-11 relative).
const GOLDEN_E_RPA: f64 = f64::from_bits(0xbfd1_cec9_aa00_4211);
/// Committed relative tolerance for the golden comparison.
const GOLDEN_RTOL: f64 = 1e-8;

fn golden_setup() -> RpaSetup {
    // A tetrahedral 4-atom cluster centred in a hard-wall box: the
    // smallest system that exercises Dirichlet stencils, the Dirichlet
    // Coulomb solve, and a multi-orbital Sternheimer partition.
    let n = 7;
    let h = 0.8;
    let grid = Grid3::cubic(n, h, Boundary::Dirichlet);
    let box_len = (n + 1) as f64 * h;
    let c = 0.5 * box_len;
    let d = 0.16 * box_len;
    let atoms = vec![
        Atom {
            position: (c + d, c + d, c + d),
            valence: 4,
        },
        Atom {
            position: (c - d, c - d, c + d),
            valence: 4,
        },
        Atom {
            position: (c - d, c + d, c - d),
            valence: 4,
        },
        Atom {
            position: (c + d, c - d, c - d),
            valence: 4,
        },
    ];
    let crystal = Crystal {
        grid,
        atoms,
        label: "Si4-golden".into(),
    };
    RpaSetup::prepare(
        crystal,
        &PotentialParams::default(),
        2,
        KsSolver::Dense { extra: 2 },
    )
    .unwrap()
}

fn golden_config() -> RpaConfig {
    RpaConfig {
        n_eig: 16,
        n_omega: 6,
        tol_sternheimer: 1e-6,
        max_filter_iters: 30,
        n_workers: 1,
        seed: 7,
        ..RpaConfig::default()
    }
}

#[test]
fn golden_energy_matches_committed_value_and_direct_reference() {
    let setup = golden_setup();
    let config = golden_config();
    let result = setup.run(&config).unwrap();
    println!(
        "computed E_RPA = {:.15e} Ha (bits {:016x})",
        result.total_energy,
        result.total_energy.to_bits()
    );
    assert!(result.total_energy < 0.0);
    for r in &result.per_omega {
        assert!(r.converged, "ω = {} did not converge", r.omega);
    }

    // (1) the quartic-scaling dense oracle, truncated to the same n_eig
    // dielectric eigenvalues per frequency
    let quad = frequency_quadrature(config.n_omega);
    let direct = direct_rpa_energy(
        &setup.ham.to_dense(),
        setup.ks.n_occupied,
        &setup.coulomb,
        &quad,
    )
    .unwrap();
    for (it, ex) in result.per_omega.iter().zip(direct.per_omega.iter()) {
        let truncated: f64 = ex.spectrum[..config.n_eig]
            .iter()
            .map(|&mu| (1.0 - mu).ln() + mu)
            .sum();
        let d = (it.energy_term - truncated).abs();
        assert!(
            d < 0.02 * truncated.abs().max(1e-6),
            "ω = {}: iterative {} vs truncated-direct {truncated}",
            it.omega,
            it.energy_term
        );
    }
    assert!(result.total_energy.abs() <= direct.total.abs() * 1.02);
    assert!(
        result.total_energy.abs() >= 0.5 * direct.total.abs(),
        "truncated trace lost too much: {} vs {}",
        result.total_energy,
        direct.total
    );

    // (2) the committed golden constant
    let rel = ((result.total_energy - GOLDEN_E_RPA) / GOLDEN_E_RPA).abs();
    assert!(
        rel <= GOLDEN_RTOL,
        "E_RPA drifted from the committed golden value: computed {:.15e}, \
         golden {GOLDEN_E_RPA:.15e}, relative error {rel:.3e} > {GOLDEN_RTOL:.0e}",
        result.total_energy
    );
}

#[test]
fn golden_run_is_reproducible() {
    // the premise of a tight golden tolerance: the single-worker
    // cost-model pipeline is bitwise deterministic
    let setup = golden_setup();
    let config = golden_config();
    let e1 = setup.run(&config).unwrap().total_energy;
    let e2 = setup.run(&config).unwrap().total_energy;
    assert_eq!(e1, e2, "golden system must be bitwise reproducible");
}
