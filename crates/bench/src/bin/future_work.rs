//! The paper's §V future-work directions, implemented and measured:
//!
//! 1. **Lanczos quadrature** replacing the subspace-iteration eigensolve
//!    (embarrassingly parallel over probes, no `n_eig` truncation),
//! 2. plus the **seed-projection method** of §II as the rejected-design
//!    baseline for block COCG.

use mbrpa_bench::rpa_lanczos::compute_rpa_energy_lanczos;
use mbrpa_bench::seed::seed_cocg;
use mbrpa_bench::trace_est::BlockTraceOptions;
use mbrpa_bench::{ladder_config, prepare_ladder_system, print_table, HarnessOptions};
use mbrpa_core::frequency_quadrature;
use mbrpa_dft::{SternheimerLinOp, SternheimerOperator};
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{block_cocg, CocgOptions};
use std::time::Instant;

fn main() {
    let opts = HarnessOptions::from_args();
    let workers = opts.max_threads();
    let setup = prepare_ladder_system(opts.cells.unwrap_or(1), opts.points_per_cell());
    let atoms = setup.crystal.atoms.len();
    println!(
        "future-work ablations on {} (n_d = {}, n_s = {})\n",
        setup.crystal.label,
        setup.crystal.n_grid(),
        setup.ks.n_occupied
    );

    // -------- 1. subspace iteration vs Lanczos quadrature --------
    let config = ladder_config(atoms, opts.eig_per_atom(), workers);
    eprintln!("subspace-iteration path…");
    let t0 = Instant::now();
    let subspace = setup.run(&config).expect("subspace path");
    let t_subspace = t0.elapsed().as_secs_f64();
    eprintln!("Lanczos-quadrature path…");
    let estimator = BlockTraceOptions {
        n_blocks: 16,
        block_size: 1,
        steps: 24,
        seed: 31,
    };
    let t0 = Instant::now();
    let lanczos = compute_rpa_energy_lanczos(
        &setup.crystal,
        &setup.ham,
        &setup.ks,
        &setup.coulomb,
        &config,
        &estimator,
    )
    .expect("lanczos path");
    let t_lanczos = t0.elapsed().as_secs_f64();
    println!("§V.1: trace evaluation method\n");
    print_table(
        &["method", "E_RPA (Ha)", "σ (Ha)", "time (s)"],
        &[
            vec![
                "subspace iteration".into(),
                format!("{:.6}", subspace.total_energy),
                "-".into(),
                format!("{t_subspace:.2}"),
            ],
            vec![
                "Lanczos quadrature".into(),
                format!("{:.6}", lanczos.total_energy),
                format!("{:.4}", lanczos.total_std_error),
                format!("{t_lanczos:.2}"),
            ],
        ],
    );

    // -------- 2. seed method vs block COCG (§II baseline) --------
    println!("\n§II baseline: seed projection vs block COCG on a hard system\n");
    let n = setup.ham.dim();
    let n_s = setup.ks.n_occupied;
    let quad = frequency_quadrature(8);
    let op = SternheimerLinOp::new(SternheimerOperator::new(
        &setup.ham,
        setup.ks.energies[n_s - 1],
        quad[7].omega,
    ));
    let mut state = 71u64;
    let b = Mat::from_fn(n, 8, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let re = (state as f64 / u64::MAX as f64) - 0.5;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        C64::new(re, (state as f64 / u64::MAX as f64) - 0.5)
    });
    let sopts = CocgOptions {
        tol: 1e-4,
        max_iters: 4000,
        ..CocgOptions::default()
    };
    let t0 = Instant::now();
    let (_, block_rep) = block_cocg(&op, &b, None, &sopts);
    let t_block = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (_, seed_rep) = seed_cocg(&op, &b, &sopts);
    let t_seed = t0.elapsed().as_secs_f64();
    let mean_proj = seed_rep.projected_residuals.iter().sum::<f64>()
        / seed_rep.projected_residuals.len().max(1) as f64;
    print_table(
        &["solver", "iterations", "matvecs", "time (s)", "note"],
        &[
            vec![
                "block COCG (s=8)".into(),
                block_rep.iterations.to_string(),
                block_rep.matvecs.to_string(),
                format!("{t_block:.3}"),
                "-".into(),
            ],
            vec![
                "seed projection".into(),
                seed_rep.total.iterations.to_string(),
                seed_rep.total.matvecs.to_string(),
                format!("{t_seed:.3}"),
                format!("mean projected residual {mean_proj:.2}"),
            ],
        ],
    );
    println!(
        "\n(random Sternheimer right-hand sides project poorly onto the seed Krylov\n\
         subspace — the reason §II dismisses seed methods for this application)"
    );
}
