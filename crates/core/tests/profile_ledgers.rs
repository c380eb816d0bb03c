//! The two ledgers of solver work agree: the `solver.cocg.*` telemetry
//! counters a profiled run reports and the `WorkerStats` the run returns
//! are both sums of the same per-solve `SolveReport`s — block COCG chunks,
//! real Lanczos pairs and half-split sub-solves alike.
//!
//! This file holds a single `#[test]`: the telemetry sink is one per
//! process, so a second test in the binary would add to the counters.

use mbrpa_core::{parse_rpa_input, RpaSetup};

#[test]
fn profiled_counters_equal_the_returned_solver_stats() {
    // smoke-sized, two workers; the cost model runs width-1 chunks (real
    // Lanczos) and wider ones (block COCG) in one run
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
    assert_eq!(
        profile.counter("solver.cocg.iterations"),
        stats.iterations as u64
    );
    assert_eq!(profile.counter("solver.cocg.matvecs"), stats.matvecs as u64);
}
