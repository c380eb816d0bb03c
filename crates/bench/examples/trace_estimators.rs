//! Trace estimation showdown — §II's three integrand approximations and
//! the §V future-work path, side by side on one system:
//!
//! 1. **subspace iteration** over the lowest `n_eig` eigenvalues (the
//!    paper's evaluated method; truncates the trace),
//! 2. **scalar Lanczos quadrature** (§V: no eigensolve, full spectrum),
//!    block Lanczos at `b = 1`,
//! 3. **block Lanczos quadrature** at `b = 4` (§V: "can additionally take
//!    advantage of a block-type algorithm"),
//! 4. the **exact dense trace** as ground truth.
//!
//! Run with `cargo run --release -p mbrpa-bench --example trace_estimators`.

use mbrpa::core::{
    dielectric_spectrum, frequency_quadrature, full_spectrum, random_orthonormal_block,
    subspace_iteration, trace_term,
};
use mbrpa::prelude::*;
use mbrpa_bench::trace_est::{block_lanczos_trace, BlockTraceOptions};
use std::time::Instant;

fn main() {
    let crystal = SiliconSpec {
        points_per_cell: 6,
        perturbation: 0.02,
        seed: 7,
        ..SiliconSpec::default()
    }
    .build();
    let n_s = crystal.n_occupied();
    let setup = RpaSetup::prepare(
        crystal,
        &PotentialParams::default(),
        2,
        KsSolver::Dense { extra: 2 },
    )
    .expect("setup");
    let psi = setup.ks.occupied_orbitals();
    let energies = setup.ks.occupied_energies().to_vec();
    let omega = frequency_quadrature(8)[4].omega;
    let n_eig = 64;
    println!(
        "Tr[ln(I − νχ⁰) + νχ⁰] at ω = {omega:.3} for {} (n_d = {}, n_s = {n_s})\n",
        setup.crystal.label,
        setup.crystal.n_grid()
    );

    // ground truth
    let eig_h = full_spectrum(&setup.ham.to_dense()).expect("spectrum");
    let spectrum =
        dielectric_spectrum(&eig_h, n_s, omega, &setup.coulomb).expect("dielectric spectrum");
    let exact: f64 = spectrum.iter().map(|&m| (1.0 - m).ln() + m).sum();
    println!("exact dense trace                  : {exact:+.6} Ha");

    let settings = SternheimerSettings {
        tol: 1e-4,
        ..SternheimerSettings::default()
    };
    let op = DielectricOperator::new(
        &setup.ham,
        &psi,
        &energies,
        &setup.coulomb,
        omega,
        settings,
        4,
    );

    // 1. subspace iteration (truncated to n_eig)
    let t0 = Instant::now();
    let v0 = random_orthonormal_block(setup.ham.dim(), n_eig, 5);
    let sub = subspace_iteration(&op, v0, 5e-4, 30, 2).expect("subspace");
    let t_sub = t0.elapsed().as_secs_f64();
    println!(
        "subspace iteration (n_eig = {n_eig})   : {:+.6} Ha   [{t_sub:.1} s, truncated]",
        trace_term(&sub.eigenvalues)
    );

    // 2. scalar Lanczos quadrature: block size 1
    let f = |mu: f64| {
        let mu = mu.min(0.0);
        (1.0 - mu).ln() + mu
    };
    let t0 = Instant::now();
    let scalar = block_lanczos_trace(
        &op,
        &f,
        &BlockTraceOptions {
            n_blocks: 16,
            block_size: 1,
            steps: 20,
            seed: 31,
        },
    )
    .expect("scalar lanczos");
    let t_scalar = t0.elapsed().as_secs_f64();
    println!(
        "scalar Lanczos (16 probes, b = 1)  : {:+.6} ± {:.4} Ha   [{t_scalar:.1} s, full spectrum]",
        scalar.trace, scalar.std_error
    );

    // 3. block Lanczos quadrature, b = 4
    let t0 = Instant::now();
    let block = block_lanczos_trace(
        &op,
        &f,
        &BlockTraceOptions {
            n_blocks: 4,
            block_size: 4,
            steps: 10,
            seed: 31,
        },
    )
    .expect("block lanczos");
    let t_block = t0.elapsed().as_secs_f64();
    println!(
        "block Lanczos (4 blocks, b = 4)    : {:+.6} ± {:.4} Ha   [{t_block:.1} s, full spectrum]",
        block.trace, block.std_error
    );

    println!();
    println!("the subspace path truncates to the {n_eig} most-negative eigenvalues; the");
    println!("Lanczos paths are unbiased estimators of the FULL trace (§V) and need no");
    println!("Rayleigh–Ritz eigensolve — the kernel the paper flags as the scaling limit.");
}
