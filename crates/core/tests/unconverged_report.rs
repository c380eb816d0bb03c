//! A run whose filter the inexact solves led astray says so (ROADMAP
//! 13(a1)): a degree-4 filter at `TOL_STERN_RES: 1e-2` leaves frequencies
//! short of `TOL_EIG` with positive Ritz values that `trace_term` clamps
//! to zero; the degree-2 run of the same input converges and prints
//! neither. The report names both, `-profile` counts the clamped values
//! in `core.positive_ritz`, and no new line looks like one the benchmark's
//! `.out` reader (`crates/e2e/src/outparse.rs`) takes in.
//!
//! This file holds a single `#[test]`: the telemetry sink is one per
//! process, so a second test in the binary would add to the counters.

use mbrpa_core::{parse_rpa_input, positive_ritz, report, RpaSetup};

/// Item 13's reproducer (the si8 shape at `fixed_1`, `CHEB_DEGREE_RPA:
/// 4`), shrunk to a 5³ grid, 48 eigenpairs and three frequencies.
fn input(degree: usize) -> String {
    format!(
        "N_NUCHI_EIGS: 48\nN_OMEGA: 3\nTOL_EIG: 5e-4\nTOL_STERN_RES: 1e-2\n\
         MAXIT_FILTERING: 10\nCHEB_DEGREE_RPA: {degree}\nPOINTS_PER_CELL: 5\nMESH: 0.69\n\
         PERTURBATION: 0.02\nSYSTEM_SEED: 7\nNP: 1\nBLOCK_POLICY: fixed_1\n"
    )
}

/// What `outparse.rs` reads: a line keyed `N_OMEGA:`, `TOL_EIG:`,
/// `Total RPA correlation energy:` or `Total walltime`, a table header
/// `omega … (value`, or a nine-column table row with `;` fifth.
fn outparse_reads(line: &str) -> bool {
    let keyed = [
        "N_OMEGA:",
        "TOL_EIG:",
        "Total RPA correlation energy:",
        "Total walltime",
    ]
    .iter()
    .any(|key| line.starts_with(key));
    let header = line.starts_with("omega ") && line.contains("(value");
    let cols: Vec<&str> = line.split_whitespace().collect();
    keyed || header || (cols.len() == 9 && cols[4] == ";")
}

#[test]
fn unconverged_frequencies_and_clamped_ritz_values_are_reported() {
    let (mut noted, mut clamped) = (Vec::new(), 0);
    for degree in [2, 4] {
        let input = parse_rpa_input(&input(degree)).unwrap();
        let setup = RpaSetup::from_input(&input).unwrap();
        mbrpa_obs::reset();
        mbrpa_obs::set_enabled(true);
        let result = setup.run(&input.config).unwrap();
        let profile = mbrpa_obs::report();
        mbrpa_obs::set_enabled(false);
        let doc = report::full_report(&input.config, &result);

        let missed = result.per_omega.iter().filter(|r| !r.converged).count();
        let positive: Vec<(usize, f64)> = result
            .per_omega
            .iter()
            .filter_map(|r| positive_ritz(&r.eigenvalues))
            .collect();
        let lines = |prefix: &str| doc.lines().filter(|l| l.starts_with(prefix)).count();
        assert_eq!(
            lines("  not converged: eig Error"),
            missed,
            "degree {degree}"
        );
        assert_eq!(
            lines("  positive Ritz values:"),
            positive.len(),
            "degree {degree}"
        );
        let summary = format!(
            "Not converged: {missed} of {} frequencies missed TOL_EIG",
            result.per_omega.len()
        );
        assert_eq!(doc.contains(&summary), missed > 0, "degree {degree}");
        let count: usize = positive.iter().map(|&(c, _)| c).sum();
        assert_eq!(profile.counter("core.positive_ritz"), count as u64);
        for line in doc.lines() {
            let ours = line.starts_with("  not converged")
                || line.starts_with("  positive Ritz")
                || line.starts_with("Not converged");
            assert!(!(ours && outparse_reads(line)), "{line}");
        }
        noted.push((missed, positive.len()));
        clamped += count;
    }
    // degree 2 converges clean; degree 4 misses with values clamped away
    assert_eq!(noted[0], (0, 0), "degree 2: {noted:?}");
    assert!(noted[1].0 > 0 && noted[1].1 > 0, "degree 4: {noted:?}");
    assert!(clamped > 0);
}
