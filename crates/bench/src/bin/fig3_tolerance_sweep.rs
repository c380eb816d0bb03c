//! Regenerates **Figure 3** of the paper: RPA correlation energy and total
//! wall time for the smallest system across a sweep of Sternheimer
//! tolerances, with the block size fixed at `s = 1` (the paper's
//! configuration for this figure).
//!
//! Expected shape: time drops rapidly as the tolerance loosens while the
//! energy stays flat until ~2e-2, beyond which subspace iteration fails to
//! converge.

use mbrpa_bench::{ladder_config, prepare_ladder_system, print_table, HarnessOptions};
use mbrpa_solver::BlockPolicy;

fn main() {
    let opts = HarnessOptions::from_args();
    let workers = opts.max_threads();
    let setup = prepare_ladder_system(1, opts.points_per_cell());
    let atoms = setup.crystal.atoms.len();
    eprintln!(
        "system {}: n_d = {}, sweeping TOL_STERN_RES at fixed s = 1",
        setup.crystal.label,
        setup.crystal.n_grid()
    );

    let tolerances = [1e-4, 4e-4, 1e-3, 4e-3, 1e-2, 2e-2, 4e-2, 8e-2];
    let mut rows = Vec::new();
    for &tol in &tolerances {
        let mut config = ladder_config(atoms, opts.eig_per_atom(), workers);
        config.tol_sternheimer = tol;
        config.block_policy = BlockPolicy::Fixed(1);
        match setup.run(&config) {
            Ok(result) => {
                let all_converged = result.per_omega.iter().all(|r| r.converged);
                rows.push(vec![
                    format!("{tol:.0e}"),
                    format!("{:.6}", result.total_energy),
                    format!("{:.6}", result.energy_per_atom),
                    format!("{:.2}", result.wall_time.as_secs_f64()),
                    if all_converged { "yes" } else { "NO" }.to_string(),
                ]);
            }
            Err(e) => rows.push(vec![
                format!("{tol:.0e}"),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("failed: {e}"),
            ]),
        }
    }

    println!("\nFigure 3: energy & time vs Sternheimer tolerance (s = 1)\n");
    print_table(
        &["tol", "E_RPA (Ha)", "E/atom (Ha)", "time (s)", "converged"],
        &rows,
    );
    println!(
        "\n(the paper selects 1e-2 for production: loosest tolerance that leaves the\n\
         energy unchanged; convergence fails past ~4e-2)"
    );
}
