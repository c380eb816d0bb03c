//! The dense eigensolvers' bits, pinned. `symmetric_eig` makes the occupied
//! Kohn–Sham orbitals of every shipped input, and `generalized_sym_eig` is
//! the Rayleigh–Ritz solve of Alg. 5, yet the energy checks downstream are
//! relative: a reordered dot in the Householder reduction, a QL rotation
//! applied in another order or a changed triangular solve would pass them.
//! This hashes the `to_bits` of every eigenvalue and eigenvector entry on
//! the Kohn–Sham matrices of the benchmark's three grid shapes and on two
//! seeded symmetric-definite pairs; the values move with any such change.

use mbrpa_check::fnv1a64;
use mbrpa_dft::{Hamiltonian, PotentialParams, SiliconSpec};
use mbrpa_grid::Boundary;
use mbrpa_linalg::{generalized_sym_eig, symmetric_eig, Mat, SymEig};

/// `(values, vectors)` hashes of one decomposition.
fn hashes(eig: &SymEig) -> (u64, u64) {
    (
        fnv1a64(eig.values.iter().copied()),
        fnv1a64(eig.vectors.as_slice().iter().copied()),
    )
}

/// The dense Kohn–Sham matrix the KS stage diagonalises for one shape.
fn ks_matrix(points_per_cell: usize, boundary: Boundary, seed: u64) -> Mat<f64> {
    let crystal = SiliconSpec {
        points_per_cell,
        boundary,
        seed,
        ..SiliconSpec::default()
    }
    .build();
    Hamiltonian::new(&crystal, 2, &PotentialParams::default()).to_dense()
}

/// A seeded pair `(A, B)`: `A` symmetric up to a relative 1e-14 skew (as a
/// Gram product `VᵀW` is), `B = GᵀG/n + I` symmetric positive definite.
/// Plain loops, so the pair does not depend on any kernel under test.
fn spd_pair(n: usize, seed: u64) -> (Mat<f64>, Mat<f64>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    let s = Mat::from_fn(n, n, |_, _| next());
    let skew = Mat::from_fn(n, n, |_, _| next());
    let a = Mat::from_fn(n, n, |i, j| s[(i, j)] + s[(j, i)] + 1e-14 * skew[(i, j)]);
    let g = Mat::from_fn(n, n, |_, _| next());
    let b = Mat::from_fn(n, n, |i, j| {
        let mut acc = if i == j { 1.0 } else { 0.0 };
        for k in 0..n {
            acc += g[(k, i)] * g[(k, j)] / n as f64;
        }
        acc
    });
    (a, b)
}

#[test]
fn symmetric_eig_keeps_its_bits_on_the_ks_matrices() {
    let cases = [
        ("serve_mix 5³ Dirichlet", 5, Boundary::Dirichlet, 11),
        ("si8 7³", 7, Boundary::Periodic, 7),
        ("cluster 8³ Dirichlet", 8, Boundary::Dirichlet, 7),
    ];
    let pinned = vec![
        (0xd657_3dda_82a7_eed6, 0xc68f_5f1b_776e_69e3),
        (0xe710_c3da_cabc_c3f6, 0x76ce_023c_f0ae_639d),
        (0x86d0_b17c_89f6_c550, 0xd0c5_e003_81db_78b9),
    ];
    let got: Vec<(u64, u64)> = cases
        .into_iter()
        .map(|(name, ppc, boundary, seed)| {
            let eig = symmetric_eig(&ks_matrix(ppc, boundary, seed)).expect("QL converges");
            let h = hashes(&eig);
            println!("{name}: ({:#018x}, {:#018x})", h.0, h.1);
            h
        })
        .collect();
    assert_eq!(got, pinned);
}

#[test]
fn generalized_sym_eig_keeps_its_bits() {
    // 150 is not a multiple of any interleave or panel width
    let pinned = [
        (96, (0x1d2e_58a3_a443_549e, 0xcb35_afec_4f7f_015c)),
        (150, (0xed47_206f_02e7_d0f7, 0xff6c_e7f2_27ad_9f8f)),
    ];
    let got: Vec<(usize, (u64, u64))> = pinned
        .iter()
        .map(|&(n, _)| {
            let (a, b) = spd_pair(n, 0x5eed_0000 + n as u64);
            let eig = generalized_sym_eig(&a, &b).expect("B is positive definite");
            let h = hashes(&eig);
            println!("n = {n}: ({:#018x}, {:#018x})", h.0, h.1);
            (n, h)
        })
        .collect();
    assert_eq!(got, pinned);
}
