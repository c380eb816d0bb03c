//! The form the non-local projectors take on the shipped inputs and on the
//! benchmark's workload templates, read through the real input parser: dense
//! where the supports cover at least half of `rows × n_d`, sparse below.
//! (The cost model reading the same work under either form is pinned in
//! `mbrpa-dft`, where the other form can be built.)

use mbrpa_core::io::parse_rpa_input;
use mbrpa_dft::{Hamiltonian, PotentialParams, ProjectorForm};

/// The projector form of the system an input describes, with the
/// Hamiltonian `RpaSetup::from_input` builds (radius 2, default potential).
fn form_of(text: &str) -> (ProjectorForm, f64) {
    let input = parse_rpa_input(text).expect("the input parses");
    let crystal = match input.vacancy {
        Some(site) => input.system.build_with_vacancy(site),
        None => input.system.build(),
    };
    let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
    let nl = ham.nonlocal().expect("the model has a projector term");
    (nl.form(), nl.nnz_per_point())
}

/// A workload template with its placeholders filled as the benchmark fills
/// them.
fn render(template: &str, points_per_cell: usize, system_seed: u64) -> String {
    template
        .replace("{{N_NUCHI_EIGS}}", "16")
        .replace("{{N_OMEGA}}", "2")
        .replace("{{POINTS_PER_CELL}}", &points_per_cell.to_string())
        .replace("{{SYSTEM_SEED}}", &system_seed.to_string())
        .replace("{{SEED}}", "2024")
}

#[test]
fn inputs_and_workloads_take_their_projector_form() {
    use ProjectorForm::{Dense, Sparse};
    for (what, text) in [
        ("Si8.rpa", include_str!("../../../inputs/Si8.rpa")),
        (
            "Si7_vacancy.rpa",
            include_str!("../../../inputs/Si7_vacancy.rpa"),
        ),
        (
            "cluster_smoke.rpa",
            include_str!("../../../inputs/cluster_smoke.rpa"),
        ),
    ] {
        let (form, per_point) = form_of(text);
        assert_eq!(form, Dense, "{what}: nnz/n_d = {per_point:.2}");
    }
    let si8 = include_str!("../../e2e/workloads/si8_solve.rpa.tmpl");
    let serve = include_str!("../../e2e/workloads/serve_mix.rpa.tmpl");
    let fine = include_str!("../../e2e/workloads/finegrid_solve.rpa.tmpl");
    let cluster = include_str!("../../e2e/workloads/cluster_ckpt_solve.rpa.tmpl");
    let mut cases = vec![
        ("si8_solve", render(si8, 7, 7), Dense),
        ("finegrid_solve", render(fine, 14, 7), Sparse),
        ("finegrid_solve --smoke", render(fine, 11, 7), Sparse),
        ("cluster_ckpt_solve", render(cluster, 8, 7), Sparse),
        ("paper scale, 15³", render(fine, 15, 7), Sparse),
    ];
    // serve_mix draws a fresh geometry per miss
    cases.extend((1..=6).map(|seed| ("serve_mix", render(serve, 5, seed), Dense)));
    for (what, text, want) in cases {
        let (form, per_point) = form_of(&text);
        assert_eq!(form, want, "{what}: nnz/n_d = {per_point:.2}");
    }
}
