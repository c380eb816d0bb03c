//! One ledger of solver work: the solvers fill `WorkerStats`, the χ⁰
//! operator merges them with the per-orbital iterations, and
//! `RpaSetup::run_with` publishes that ledger once per frequency. The
//! counters of a profiled run are therefore the `RpaResult`'s own stats —
//! real block Lanczos chunks, real Lanczos pairs and blocks restarted as
//! pairs alike — and the per-frequency counters and series add up to them.
//!
//! This file holds a single `#[test]`: the telemetry sink is one per
//! process, so a second test in the binary would add to the counters.

use mbrpa_core::{parse_rpa_input, RpaSetup};

#[test]
fn profiled_counters_equal_the_returned_solver_stats() {
    // smoke-sized, two workers; the cost model runs width-1 chunks (real
    // Lanczos pairs) and wider ones (real block Lanczos) in one run
    let input = parse_rpa_input(
        "N_NUCHI_EIGS: 8\nN_OMEGA: 2\nTOL_EIG: 4e-3\nMAXIT_FILTERING: 4\n\
         POINTS_PER_CELL: 5\nNP: 2\nBLOCK_POLICY: cost_model\n",
    )
    .unwrap();
    let setup = RpaSetup::from_input(&input).unwrap();
    mbrpa_obs::reset();
    mbrpa_obs::set_enabled(true);
    let result = setup.run(&input.config).unwrap();
    let profile = mbrpa_obs::report();
    mbrpa_obs::set_enabled(false);

    let stats = &result.solver_stats;
    assert!(stats.block_sizes.count(1) > 0 && stats.block_sizes.count(2) > 0);
    let count = |name: &str| profile.counter(name) as usize;
    let chunks: usize = stats.block_sizes.iter().map(|(s, c)| c / s).sum();
    assert_eq!(count("solver.cocg.solves"), chunks);
    assert_eq!(count("solver.cocg.iterations"), stats.iterations);
    assert_eq!(count("solver.cocg.matvecs"), stats.matvecs);
    assert_eq!(count("solver.cocg.breakdowns"), stats.breakdowns);
    let slots = &stats.lanczos;
    assert_eq!(count("solver.lanczos.lone_solves"), slots.lone_solves);
    assert_eq!(count("solver.lanczos.carried"), slots.carried);
    assert!(slots.carried > 0, "the probe carried no column");
    // every column applied is solved once per occupied orbital
    assert_eq!(
        count("chi0.applications") * result.n_s,
        stats.block_sizes.total()
    );

    // the per-width ledger: its columns are the block-size table, its
    // steps the iterations, and its busy times the solve time, each
    // frequency's rounded down to the microsecond
    let (mut steps, mut busy_us) = (0, 0);
    for (s, columns) in stats.block_sizes.iter() {
        assert_eq!(count(&format!("solver.width.s{s}.columns")), columns);
        steps += count(&format!("solver.width.s{s}.steps"));
        busy_us += count(&format!("solver.width.s{s}.busy_us"));
    }
    assert_eq!(steps, stats.iterations);
    let solve_us = stats.solve_time.as_micros() as usize;
    let publishes = result.per_omega.len() * stats.block_sizes.iter().count();
    assert!(
        busy_us <= solve_us && solve_us <= busy_us + publishes,
        "per-width busy {busy_us} µs against {solve_us} µs of solves"
    );

    // the per-frequency ledger adds up to the run's
    let n_omega = result.per_omega.len();
    let per_omega = |name: &str| -> usize {
        (0..n_omega)
            .map(|k| count(&format!("omega[{k}]/{name}")))
            .sum()
    };
    assert_eq!(per_omega("sternheimer.iterations"), stats.iterations);
    assert_eq!(per_omega("sternheimer.matvecs"), stats.matvecs);
    assert_eq!(per_omega("chi0.applications"), count("chi0.applications"));
    for k in 0..n_omega {
        let name = format!("omega[{k}]/sternheimer.orbital_iterations");
        let series = profile.series.iter().find(|s| s.name == name);
        let values = &series.unwrap_or_else(|| panic!("no {name}")).values;
        assert_eq!(values.len(), result.n_s, "{name}");
        let total: f64 = values.iter().sum();
        assert_eq!(
            total as usize,
            count(&format!("omega[{k}]/sternheimer.iterations")),
            "{name}"
        );
    }
}
