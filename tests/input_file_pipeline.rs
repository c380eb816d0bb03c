//! The artifact workflow end-to-end through the library API: parse a
//! `.rpa` input, build the system it describes, run the calculation, and
//! render the report — everything `rpacalc` does, minus the filesystem.

// Test code: panics are failures, and exact float comparisons assert
// bitwise-reproducible results (DESIGN.md §9).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use mbrpa::core::{io::parse_rpa_input, report, RpaSetup};

const INPUT: &str = "\
# tiny end-to-end configuration
N_NUCHI_EIGS: 20
N_OMEGA: 4
TOL_EIG: 4e-3 2e-3 5e-4
TOL_STERN_RES: 1e-3
MAXIT_FILTERING: 20
CHEB_DEGREE_RPA: 2
FLAG_PQ_OPERATOR: 0
FLAG_COCGINITIAL: 1
CELLS_Z: 1
POINTS_PER_CELL: 5
MESH: 0.69
PERTURBATION: 0.03
SYSTEM_SEED: 11
NP: 2
BLOCK_POLICY: cost_model
";

#[test]
fn parse_build_run_report() {
    let input = parse_rpa_input(INPUT).expect("parse");
    assert_eq!(input.ignored_keys, vec!["FLAG_PQ_OPERATOR"]);

    let setup = RpaSetup::from_input(&input).expect("KS stage");
    assert_eq!(setup.crystal.label, "Si8");
    assert_eq!(setup.crystal.n_grid(), 125);
    let result = setup.run(&input.config).expect("RPA stage");

    assert!(result.total_energy < 0.0);
    assert_eq!(result.per_omega.len(), 4);
    for rep in &result.per_omega {
        assert!(rep.converged);
    }

    let doc = report::full_report(&input.config, &result);
    assert!(doc.contains("N_NUCHI_EIGS: 20"));
    assert!(doc.contains("TOL_STERN_RES: 1e-3"));
    assert!(doc.contains("Total RPA correlation energy"));
    assert!(doc.contains("Worker | Sternheimer time"));
}

#[test]
fn vacancy_input_builds_the_smaller_system() {
    let text = format!("{INPUT}VACANCY: 2\nN_NUCHI_EIGS: 18\n");
    let input = parse_rpa_input(&text).expect("parse");
    assert_eq!(input.vacancy, Some(2));
    assert_eq!(input.config.n_eig, 18); // later key wins
    let crystal = RpaSetup::from_input(&input).expect("KS stage").crystal;
    assert_eq!(crystal.label, "Si7");
    assert_eq!(crystal.n_occupied(), 14);
}
