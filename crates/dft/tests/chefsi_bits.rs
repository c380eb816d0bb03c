//! CheFSI's bits, pinned. The shipped inputs are small enough for the dense
//! Kohn–Sham solver, and the fine-grid energy check is relative, so nothing
//! else notices a rounding change in `solve_occupied_chefsi`: a reordered
//! sum in its Rayleigh–Ritz round, a changed start block or filter bound.
//! This hashes the `to_bits` of every energy and orbital entry it returns on
//! a small perturbed crystal; the value moves with any such change.

use mbrpa_check::fnv1a64;
use mbrpa_dft::{solve_occupied_chefsi, ChefsiOptions, Hamiltonian, PotentialParams, SiliconSpec};

#[test]
fn chefsi_energies_and_orbitals_keep_their_bits() {
    let crystal = SiliconSpec {
        points_per_cell: 7,
        perturbation: 0.03,
        seed: 11,
        ..SiliconSpec::default()
    }
    .build();
    let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
    let ks = solve_occupied_chefsi(&ham, crystal.n_occupied(), &ChefsiOptions::default())
        .expect("CheFSI converges on the pinned crystal");
    let energies = fnv1a64(ks.energies.iter().copied());
    let orbitals = fnv1a64(ks.orbitals.as_slice().iter().copied());
    assert_eq!(
        (energies, orbitals),
        (0x4b1d_b4a2_8f69_e195, 0x9abf_463f_ff9f_f62d),
        "CheFSI's energies {:?}",
        ks.energies
    );
}
