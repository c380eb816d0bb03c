//! The real block Lanczos solve's bits, pinned. `shifted_block_lanczos`
//! runs every chunk of two or more columns of a `χ⁰` apply, and its
//! `s × s` recurrence (the LU of `Δ_k`, the products with `β_k`, the
//! Cholesky QR of the Gram matrix) is summed and rounded in one fixed
//! order. The energy checks downstream are relative, and
//! `proptest_solver.rs` compares against block COCG by tolerance: a
//! reordered sum there would pass both. This hashes the `to_bits` of every
//! column's `Re x` and of the residual history, and keeps the counts of
//! each report, on the Sternheimer operators of the benchmark's three grid
//! shapes, with and without the Galerkin guess, and on one block whose
//! Krylov space runs out and restarts its columns as Lanczos pairs. Block
//! COCG itself (Alg. 3: the solver of complex right-hand sides and the
//! tests' referee) is pinned the same way on complex blocks, and so is one
//! `solve_multi_rhs` call under Alg. 4's cost model.

use mbrpa_check::fnv1a64;
use mbrpa_dft::{
    solve_occupied_dense, Hamiltonian, KsSolution, PotentialParams, SiliconSpec, SternheimerLinOp,
    SternheimerOperator,
};
use mbrpa_grid::Boundary;
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{
    block_cocg_ws, galerkin_guess, galerkin_guess_real, shifted_block_lanczos, solve_multi_rhs,
    BlockPolicy, CocgOptions, LinearOperator, WorkerStats, Workspace,
};

/// What one solve is pinned by: the hash of `Re x` over the columns in
/// order, iterations, matvecs, breakdowns and the hash of the residual
/// history.
type Pin = (u64, usize, usize, usize, u64);

/// Seeded values in `[−0.5, 0.5)`, plain loops.
fn seeded(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
    let mut state = seed | 1;
    Mat::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    })
}

/// The Hamiltonian of one benchmark shape and its lowest `n_occupied + 8`
/// eigenpairs.
fn shape(points_per_cell: usize, boundary: Boundary, seed: u64) -> (Hamiltonian, KsSolution) {
    let crystal = SiliconSpec {
        points_per_cell,
        boundary,
        seed,
        ..SiliconSpec::default()
    }
    .build();
    let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
    let ks = solve_occupied_dense(&ham, crystal.n_occupied(), 8).expect("QL converges");
    (ham, ks)
}

/// `shifted_block_lanczos` on the columns `1..1 + s` of `b` (a chunk inside
/// a wider block, as Alg. 4's are) for the highest occupied orbital of
/// `ks`, from the Galerkin guess when `with_guess`.
fn pin(ham: &Hamiltonian, ks: &KsSolution, b: &Mat<f64>, s: usize, with_guess: bool) -> Pin {
    let (n, w) = b.shape();
    let j = ks.n_occupied - 1;
    let (lambda, omega) = (ks.energies[j], 0.3);
    let op = SternheimerLinOp::new(SternheimerOperator::new(ham, lambda, omega));
    let guess = with_guess.then(|| {
        let psi = ks.occupied_orbitals();
        let mut g = Mat::zeros(n, 2 * w);
        galerkin_guess_real(&psi, ks.occupied_energies(), lambda, omega, b, &mut g);
        g
    });
    let opts = CocgOptions {
        track_residuals: true,
        max_iters: 400,
        ..CocgOptions::with_tol(1e-7)
    };
    let mut x = vec![Vec::new(); s];
    let mut ws = Workspace::new();
    let rep = shifted_block_lanczos(
        &op,
        b,
        guess.as_ref(),
        1..1 + s,
        &opts,
        &mut ws,
        &mut |c, v, slot| {
            x[c - 1] = v
                .iter()
                .map(|z| if slot == 0 { z.re } else { z.im })
                .collect();
        },
    );
    assert!(rep.converged, "s = {s}, guess {with_guess}: {rep:?}");
    (
        fnv1a64(x.iter().flatten().copied()),
        rep.iterations,
        rep.matvecs,
        rep.breakdowns,
        fnv1a64(rep.residual_history.iter().copied()),
    )
}

/// A pin as it is written in this file.
fn show(p: &Pin) -> String {
    format!("({:#018x}, {}, {}, {}, {:#018x}),", p.0, p.1, p.2, p.3, p.4)
}

fn check(name: &str, ppc: usize, boundary: Boundary, seed: u64, pinned: &[Pin]) {
    let (ham, ks) = shape(ppc, boundary, seed);
    let b = seeded(ham.dim(), 18, 0xb10c + ppc as u64);
    let mut got = Vec::new();
    for s in [2, 3, 4, 5, 8, 16] {
        for with_guess in [false, true] {
            let p = pin(&ham, &ks, &b, s, with_guess);
            println!("{name} s = {s} guess {with_guess}: {}", show(&p));
            got.push(p);
        }
    }
    assert_eq!(got, pinned, "{name}");
}

#[test]
fn block_solves_keep_their_bits_on_the_serve_shape() {
    check(
        "5³ Dirichlet",
        5,
        Boundary::Dirichlet,
        11,
        &[
            (0xaf5d002a7ae324a8, 57, 114, 0, 0x8fdf7cec49fcefa8),
            (0x8bc50d5043991362, 35, 72, 0, 0xda38d5d67ad8b536),
            (0xed93e7d1bf7d5ffe, 42, 126, 0, 0x949f241a47aaa0c5),
            (0xb93f6a129a30993f, 28, 87, 0, 0xd7c92a7b9a3d396c),
            (0x92192d81fffcc1ab, 33, 132, 0, 0x1b94b029b1348f1d),
            (0x20d9720738bc0265, 23, 96, 0, 0xd574477e0a9d4764),
            (0x3ff4acbf69822cba, 26, 130, 0, 0x0108c85defa0c4ed),
            (0x46aba4694f001462, 21, 110, 0, 0x945bccdc6d43f09a),
            (0x81293cf09147f818, 106, 835, 1, 0x1a54ea30c5431431),
            (0xcbfce6265efca368, 14, 120, 0, 0x5bf673a7d3420b73),
            (0xab3058993ec82f25, 98, 1545, 1, 0x8cd5d98c92ac8cc8),
            (0xc82f47a4cb382100, 57, 925, 1, 0x1b0571f4492b21db),
        ],
    );
}

#[test]
fn block_solves_keep_their_bits_on_the_si8_shape() {
    check(
        "7³ periodic",
        7,
        Boundary::Periodic,
        7,
        &[
            (0x4b8e305cf9b4b08a, 73, 146, 0, 0x6229ec0cad459e78),
            (0xed678c3d6cc4343d, 43, 88, 0, 0x32fb67cd5cb165a7),
            (0xc66d6f69fa68b831, 53, 159, 0, 0xb4e3aa9f31406cbb),
            (0x659fdaa637a7c241, 35, 108, 0, 0x9eb2f3024a34162b),
            (0xf30d227ec69071cd, 44, 176, 0, 0x08cf0455c51538fb),
            (0x0ea31698fe9a65ef, 31, 128, 0, 0x2c6e37ba43eaaba8),
            (0xe2b74c05b1bc2366, 39, 195, 0, 0xeb442e52095b2d84),
            (0xe0dbc7930423508d, 29, 150, 0, 0x4b7a97839dd72d0b),
            (0xa305e444c0a85899, 31, 248, 0, 0x79c70d3b73387089),
            (0x58f7eae8c09884a5, 25, 208, 0, 0xcfcc70f2a5329d6a),
            (0xb731cda066821e1b, 20, 320, 0, 0xb401eaba0405a078),
            (0x396ec7dcdd56eacf, 18, 304, 0, 0x6dc33f39a9eff687),
        ],
    );
}

#[test]
fn block_solves_keep_their_bits_on_the_cluster_shape() {
    check(
        "8³ Dirichlet",
        8,
        Boundary::Dirichlet,
        7,
        &[
            (0x23c806ef94aac180, 80, 160, 0, 0xea6ec7d2ed3c4d0b),
            (0xad6b30dcc149c345, 50, 102, 0, 0xb6188dd45d095b69),
            (0x147ca506a6117875, 63, 189, 0, 0x8e2a5cf9ff409a85),
            (0xf8255ab674b1146c, 42, 129, 0, 0xf90d52ca840bde3d),
            (0x4df72169c5b77be1, 52, 208, 0, 0xe9c5e8462e3f6181),
            (0x11bcbd97b26b7f32, 38, 156, 0, 0x589ffb7ca68bafdc),
            (0xaaeba911a9bc95b8, 47, 235, 0, 0x6ffa8f6f59c624a3),
            (0x14e898ae3e59737d, 36, 185, 0, 0x7d7234f0643df797),
            (0x0ae61650bd750a86, 36, 288, 0, 0x989ebfe23b5d2560),
            (0xb853d01890a10b25, 30, 248, 0, 0x2a9b5cf6b946348b),
            (0xe9d7adf55621de14, 25, 400, 0, 0xd4ea4a3d2f989cb8),
            (0xce492bb0c75cf0dc, 22, 368, 0, 0x991907ff8cf68f7d),
        ],
    );
}

#[test]
fn a_restart_as_pairs_keeps_its_bits() {
    // four columns in the span of six eigenvectors of H, three occupied and
    // three not: the block Krylov space runs out after one step (with no
    // guess) or at the start (the Galerkin guess leaves a residual in the
    // three unoccupied ones alone), and the columns restart as pairs
    let (ham, ks) = shape(5, Boundary::Dirichlet, 11);
    let n = ham.dim();
    let m = ks.n_occupied;
    let picked = [2, 5, 9, m, m + 2, m + 5];
    let coef = seeded(6, 6, 0x0ff);
    let b = Mat::from_fn(n, 6, |i, c| {
        (0..6)
            .map(|l| coef[(l, c)] * ks.orbitals[(i, picked[l])])
            .sum()
    });
    let got: Vec<Pin> = [false, true]
        .into_iter()
        .map(|with_guess| {
            let p = pin(&ham, &ks, &b, 4, with_guess);
            println!("restart guess {with_guess}: {}", show(&p));
            assert_eq!(p.3, 1, "the solve must restart once: {p:?}");
            p
        })
        .collect();
    let pinned = [
        (0xb5c6cdb50913d641, 7, 28, 1, 0x639560c5115545cd),
        (0x730a64be05cda394, 3, 20, 1, 0x5832b82a75125cb4),
    ];
    assert_eq!(got, pinned);
}

/// A seeded complex block: `Re` and `Im` from two seeds.
fn seeded_c64(rows: usize, cols: usize, seed: u64) -> Mat<C64> {
    let (re, im) = (seeded(rows, cols, seed), seeded(rows, cols, seed + 1));
    Mat::from_fn(rows, cols, |i, j| C64::new(re[(i, j)], im[(i, j)]))
}

/// The hash of a complex block's components, column by column.
fn hash_c64(x: &Mat<C64>) -> u64 {
    fnv1a64(x.as_slice().iter().flat_map(|z| [z.re, z.im]))
}

fn cocg_opts() -> CocgOptions {
    CocgOptions {
        track_residuals: true,
        max_iters: 400,
        ..CocgOptions::with_tol(1e-7)
    }
}

/// `block_cocg_ws` on the first `s` columns of `b`, from the same columns
/// of `guess` when given.
fn cocg_pin(op: &dyn LinearOperator<C64>, b: &Mat<C64>, guess: Option<&Mat<C64>>, s: usize) -> Pin {
    let g = guess.map(|g| g.columns(0, s));
    let (x, rep) = block_cocg_ws(
        op,
        &b.columns(0, s),
        g.as_ref(),
        &cocg_opts(),
        &mut Workspace::new(),
    );
    assert!(rep.converged, "s = {s}, guess {}: {rep:?}", guess.is_some());
    (
        hash_c64(&x),
        rep.iterations,
        rep.matvecs,
        rep.breakdowns,
        fnv1a64(rep.residual_history.iter().copied()),
    )
}

fn check_cocg(
    name: &str,
    op: &dyn LinearOperator<C64>,
    b: &Mat<C64>,
    guess: &Mat<C64>,
    pinned: &[Pin],
) {
    let mut got = Vec::new();
    for s in [1, 2, 4, 8] {
        for g in [None, Some(guess)] {
            let p = cocg_pin(op, b, g, s);
            println!("{name} s = {s} guess {}: {}", g.is_some(), show(&p));
            got.push(p);
        }
    }
    assert_eq!(got, pinned, "{name}");
}

#[test]
fn block_cocg_keeps_its_bits_on_the_si8_shape() {
    let (ham, ks) = shape(7, Boundary::Periodic, 7);
    let j = ks.n_occupied - 1;
    let (lambda, omega) = (ks.energies[j], 0.3);
    let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
    let b = seeded_c64(ham.dim(), 8, 0xc0c6);
    let psi = ks.occupied_orbitals();
    let guess = galerkin_guess(&psi, ks.occupied_energies(), lambda, omega, &b);
    check_cocg(
        "7³ periodic",
        &op,
        &b,
        &guess,
        &[
            (0x928b1e26bf8a38ec, 97, 97, 0, 0x1067164dbd99f044),
            (0x4de876e6105567db, 52, 53, 0, 0xb5771598bd3a12c6),
            (0xa8f98dff308820bb, 73, 146, 0, 0x4b41f5818d63eed7),
            (0x08e95ad7c104ca08, 43, 88, 0, 0x181eaf17859dcdd0),
            (0x1918a42a030c095d, 46, 184, 0, 0x4daefd8642df46b0),
            (0xa24843fe15a0f781, 31, 128, 0, 0xef7ab83df16d1899),
            (0xcc56bc63fefd14b5, 30, 240, 0, 0x5b7082f997aed019),
            (0x9e4ffd06ea34ac36, 25, 208, 0, 0xed63829d5ca1ccb5),
        ],
    );
}

#[test]
fn block_cocg_keeps_its_bits_past_two_gram_panels() {
    // 8 × 8 × 16 = 1024 points: at s = 8 the Gram products' m·s² reaches
    // 2¹⁶, so their rows are cut into panels and folded, and on two
    // threads the GEMMs run in row strips
    let crystal = SiliconSpec {
        points_per_cell: 8,
        cells_z: 2,
        ..SiliconSpec::default()
    }
    .build();
    let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
    assert_eq!(ham.dim(), 1024);
    let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, -0.2, 0.5));
    let b = seeded_c64(ham.dim(), 8, 0xc0c8);
    let mut guess = seeded_c64(ham.dim(), 8, 0xc0ca);
    guess.scale_assign(C64::new(0.05, 0.0));
    check_cocg(
        "8²×16 periodic",
        &op,
        &b,
        &guess,
        &[
            (0xf1270eebdf612363, 146, 146, 0, 0x91e6115f8336b7cd),
            (0xe9c87b488bb73206, 146, 147, 0, 0x2696771b63b0214d),
            (0x76c2462266081acd, 138, 276, 0, 0x44ba48e28e8b3f3a),
            (0x15428faf7148d283, 145, 292, 0, 0xa15ebc9c310b5a34),
            (0xc3bb64fc8710b413, 99, 396, 0, 0xa3161801b6413d6b),
            (0xb4a879a91b88f3f2, 99, 400, 0, 0x4417668647c07e67),
            (0x8fb5b7008600da50, 68, 544, 0, 0x65bd9b95684904fa),
            (0x330a710aa9420428, 68, 552, 0, 0x2039c0ad6408fe82),
        ],
    );
}

#[test]
fn dynamic_cost_model_solve_keeps_its_bits() {
    let (ham, ks) = shape(7, Boundary::Periodic, 7);
    let j = ks.n_occupied - 1;
    let (lambda, omega) = (ks.energies[j], 0.3);
    let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
    let b = seeded_c64(ham.dim(), 13, 0xd1a4);
    let psi = ks.occupied_orbitals();
    let guess = galerkin_guess(&psi, ks.occupied_energies(), lambda, omega, &b);
    let mut stats = WorkerStats::new();
    let out = solve_multi_rhs(
        &op,
        &b,
        Some(&guess),
        &cocg_opts(),
        BlockPolicy::DynamicCostModel,
        &mut stats,
    );
    assert!(out.all_converged);
    let got = (
        hash_c64(&out.solution),
        out.final_block_size,
        stats.iterations,
        stats.matvecs,
        stats.breakdowns,
    );
    println!("{got:#x?}");
    assert_eq!(got, (0x7521bc7428802d8f, 6, 153, 436, 0));
}
