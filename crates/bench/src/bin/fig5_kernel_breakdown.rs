//! Regenerates **Figure 5** of the paper: the timing breakdown of the
//! major computational kernels (`ν½χ⁰ν½` application, dense matmult,
//! generalized eigensolve, error evaluation) for the largest ladder system
//! across a thread sweep.
//!
//! The kernel totals come from the shared `mbrpa-obs` telemetry spans — the
//! same source of truth `rpacalc -profile` reports — by aggregating every
//! span whose leaf name matches the kernel (`apply`, `matmult`,
//! `eigensolve`, `eval_error`) across all frequencies.
//!
//! Expected shape: the `ν½χ⁰ν½` kernel dominates and scales well; the
//! dense eigensolve and the tall-skinny matmults scale poorly and
//! eventually cap the overall parallel efficiency.

use mbrpa_bench::{ladder_spec, print_table, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args();
    if opts.answer_sweep_point(|setup, config| {
        mbrpa_obs::set_enabled(true);
        mbrpa_obs::reset();
        let result = setup.run(config).expect("RPA failed");
        let report = mbrpa_obs::report();
        vec![
            report.sum_leaf("apply"),
            report.sum_leaf("matmult"),
            report.sum_leaf("eigensolve"),
            report.sum_leaf("eval_error"),
            result.wall_time.as_secs_f64(),
        ]
    }) {
        return;
    }
    let cells = opts.cells.unwrap_or(3);

    let crystal = ladder_spec(cells, opts.points_per_cell()).build();
    let atoms = crystal.atoms.len();
    println!(
        "Figure 5: kernel breakdown for {} (n_d = {}, n_eig = {})\n",
        crystal.label,
        crystal.n_grid(),
        atoms * opts.eig_per_atom()
    );

    let mut rows = Vec::new();
    for threads in opts.thread_counts() {
        if atoms * opts.eig_per_atom() / threads < 4 {
            continue;
        }
        eprintln!("{} thread(s)…", threads);
        let p = opts.sweep_point(threads, cells);
        rows.push(vec![
            threads.to_string(),
            format!("{:.2}", p[0]),
            format!("{:.3}", p[1]),
            format!("{:.3}", p[2]),
            format!("{:.4}", p[3]),
            format!("{:.2}", p[4]),
        ]);
    }
    print_table(
        &[
            "threads",
            "nu.chi0.nu (s)",
            "matmult (s)",
            "eigensolve (s)",
            "eval error (s)",
            "total (s)",
        ],
        &rows,
    );
    println!(
        "\n(matmult/eigensolve run on the shared dense layer — the ScaLAPACK part of\n\
         the paper — and do not speed up with the worker partition, mirroring the\n\
         paper's observation that they cap scaling at high processor counts)"
    );
}
