//! CheFSI's bits, pinned. The shipped inputs are small enough for the dense
//! Kohn–Sham solver, and the fine-grid energy check is relative, so nothing
//! else notices a rounding change in `solve_occupied_chefsi`: a reordered
//! sum in its Rayleigh–Ritz round, a changed start block or filter bound.
//! This hashes the `to_bits` of every energy and orbital entry it returns on
//! a small perturbed crystal; the value moves with any such change.

use mbrpa_dft::{solve_occupied_chefsi, ChefsiOptions, Hamiltonian, PotentialParams, SiliconSpec};

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
fn fnv1a64(values: impl Iterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

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
