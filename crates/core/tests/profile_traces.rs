//! A profiled run keeps one `subspace.si_error` trace per frequency, up to
//! the 64 frequencies an input may ask for: a 12-frequency run reports all
//! 12 histories and says it dropped none.
//!
//! This file holds a single `#[test]`: the telemetry sink is one per
//! process.

use mbrpa_core::{parse_rpa_input, RpaSetup};

#[test]
fn a_twelve_frequency_profile_keeps_every_trace() {
    let input = parse_rpa_input(
        "N_NUCHI_EIGS: 4\nN_OMEGA: 12\nTOL_EIG: 1e-2\nMAXIT_FILTERING: 2\n\
         POINTS_PER_CELL: 5\nNP: 1\nBLOCK_POLICY: fixed_2\n",
    )
    .unwrap();
    let setup = RpaSetup::from_input(&input).unwrap();
    mbrpa_obs::reset();
    mbrpa_obs::set_enabled(true);
    let result = setup.run(&input.config).unwrap();
    let profile = mbrpa_obs::report();
    mbrpa_obs::set_enabled(false);

    assert_eq!(result.per_omega.len(), 12);
    let labels: Vec<&str> = profile
        .traces
        .iter()
        .filter(|t| t.name == "subspace.si_error")
        .map(|t| t.label.as_str())
        .collect();
    let want: Vec<String> = (0..12).map(|k| format!("omega[{k}]")).collect();
    assert_eq!(labels, want);
    assert!(profile
        .trace_names()
        .contains(&("subspace.si_error", 12, 0)));
    let json = profile.to_json();
    assert!(
        json.contains("\"dropped_traces\":{") && json.contains("\"subspace.si_error\":0"),
        "{json}"
    );
}
