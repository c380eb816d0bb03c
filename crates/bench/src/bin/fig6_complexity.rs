//! Regenerates **Figure 6** of the paper: total solve time vs the number
//! of grid points `n_d` across the ladder, at two thread counts, with a
//! log–log least-squares fit of the complexity exponent.
//!
//! Expected shape: sub-cubic fitted exponents (the paper reports
//! `O(n_d^2.95)` at 24 cores and `O(n_d^2.87)` at 192 cores).

use mbrpa_bench::{ladder_spec, loglog_slope, print_table, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args();
    if opts.answer_sweep_point(|setup, config| {
        let result = setup.run(config).expect("RPA failed");
        vec![result.wall_time.as_secs_f64()]
    }) {
        return;
    }
    let max_cells = opts.cells.unwrap_or(4);
    let max_threads = opts.max_threads();
    let thread_counts = if max_threads >= 4 {
        vec![1usize, max_threads]
    } else {
        vec![1usize]
    };

    println!("Figure 6: time vs n_d (complexity fit)\n");
    let mut rows = Vec::new();
    let mut fits = Vec::new();
    for &threads in &thread_counts {
        let mut points = Vec::new();
        for cells in 1..=max_cells {
            let crystal = ladder_spec(cells, opts.points_per_cell()).build();
            if crystal.atoms.len() * opts.eig_per_atom() / threads < 4 {
                continue;
            }
            eprintln!("{} @ {threads} thread(s)…", crystal.label);
            let t = opts.sweep_point(threads, cells)[0];
            points.push((crystal.n_grid() as f64, t));
            rows.push(vec![
                crystal.label.clone(),
                threads.to_string(),
                crystal.n_grid().to_string(),
                format!("{t:.2}"),
            ]);
        }
        if points.len() >= 2 {
            fits.push((threads, loglog_slope(&points)));
        }
    }
    print_table(&["System", "threads", "n_d", "time (s)"], &rows);
    println!();
    for (threads, slope) in fits {
        println!("fit @ {threads} thread(s): time ~ n_d^{slope:.2}");
    }
    println!("(paper: n_d^2.95 at 24 cores, n_d^2.87 at 192 cores)");
}
