//! Solver playground: block COCG on Sternheimer systems of varying
//! difficulty — the §III-B story in one binary.
//!
//! Builds real Sternheimer matrices `H − λ_j I + iω_k I` from a model
//! crystal and reports iteration counts and matvec counts for
//! (a) the easy `(j=1, k=1)` pair, (b) the hard `(j=n_s, k=ℓ)` pair, at
//! (c) block sizes 1/2/4. The GMRES and QMR baselines run in
//! `cargo run -p mbrpa-bench --bin solver_convergence_curves`.
//!
//! Run with `cargo run --release --example solver_playground`.

use mbrpa::core::frequency_quadrature;
use mbrpa::dft::SternheimerLinOp;
use mbrpa::prelude::*;
use mbrpa::solver::{block_cocg, true_relative_residual};

fn random_rhs(n: usize, s: usize, seed: u64) -> Mat<C64> {
    let mut state = seed | 1;
    Mat::from_fn(n, s, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let re = (state as f64 / u64::MAX as f64) - 0.5;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        C64::new(re, (state as f64 / u64::MAX as f64) - 0.5)
    })
}

fn main() {
    let crystal = SiliconSpec {
        points_per_cell: 7,
        perturbation: 0.02,
        seed: 3,
        ..SiliconSpec::default()
    }
    .build();
    let n_s = crystal.n_occupied();
    let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
    let ks = solve_occupied_dense(&ham, n_s, 0).expect("KS solve");
    let quad = frequency_quadrature(8);
    let n = ham.dim();

    println!("system: {} (n_d = {n}, n_s = {n_s})", crystal.label);
    println!();
    println!(
        "pair           ω        spectrum-shift λ_j   solver      s   iters  matvecs  residual"
    );

    let cases = [
        ("(1,1) easy ", ks.energies[0], quad[0].omega),
        ("(ns,ℓ) hard", ks.energies[n_s - 1], quad[7].omega),
    ];
    for (label, lambda, omega) in cases {
        let stern = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
        for s in [1usize, 2, 4] {
            let b = random_rhs(n, s, 42);
            let opts = CocgOptions {
                tol: 1e-6,
                max_iters: 3000,
                ..CocgOptions::default()
            };
            let (x, rep) = block_cocg(&stern, &b, None, &opts);
            let res = true_relative_residual(&stern, &b, &x);
            println!(
                "{label}  {omega:>7.3}  {lambda:>18.4}   block COCG  {s}  {:>6}  {:>7}  {res:.1e}",
                rep.iterations, rep.matvecs
            );
        }
    }

    println!();
    println!("takeaways (cf. §III-B): the hard pair needs far more iterations; block");
    println!("sizes s > 1 cut the iteration count; COCG keeps O(1) memory per column.");
}
