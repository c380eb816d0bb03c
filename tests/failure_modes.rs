//! Failure injection: the pipeline must fail loudly and typed — never
//! with NaNs or silent wrong answers.

use mbrpa::core::{parse_rpa_input, KsSolver, RpaConfig, RpaSetup};
use mbrpa::dft::{
    solve_occupied_chefsi, ChefsiOptions, Hamiltonian, PotentialParams, SiliconSpec,
    SternheimerLinOp, SternheimerOperator,
};
use mbrpa::prelude::*;
use mbrpa::solver::true_relative_residual;

fn tiny_ham() -> (usize, Hamiltonian) {
    let c = SiliconSpec {
        points_per_cell: 5,
        ..SiliconSpec::default()
    }
    .build();
    (
        c.n_occupied(),
        Hamiltonian::new(&c, 2, &PotentialParams::default()),
    )
}

#[test]
fn cocg_on_singular_system_reports_nonconvergence_without_nans() {
    // ω = 0 with λ = an exact eigenvalue makes A = H − λI singular:
    // the solver must stagnate gracefully, not emit NaNs
    let (n_s, ham) = tiny_ham();
    let ks = solve_occupied_dense(&ham, n_s, 0).unwrap();
    let lambda = ks.energies[0];
    // the operator type rejects ω = 0 at the DielectricOperator layer;
    // at the raw solver layer we build it directly with ω = 0
    let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, 0.0));
    let n = ham.dim();
    let b = Mat::from_fn(n, 2, |i, j| C64::new(((i + j) % 7) as f64 - 3.0, 0.0));
    let opts = CocgOptions {
        tol: 1e-12,
        max_iters: 50,
        ..CocgOptions::default()
    };
    let (x, rep) = block_cocg(&op, &b, None, &opts);
    assert!(!x.has_bad_values(), "no NaN/Inf in the iterate");
    assert!(rep.relative_residual.is_finite());
    // either it found a least-squares-ish iterate or honestly failed —
    // but a singular system must never report a tiny residual by luck
    if rep.converged {
        assert!(true_relative_residual(&op, &b, &x) < 1e-10);
    }
}

#[test]
fn chefsi_with_zero_iterations_is_a_typed_error() {
    let (n_s, ham) = tiny_ham();
    let result = solve_occupied_chefsi(
        &ham,
        n_s,
        &ChefsiOptions {
            max_iters: 0,
            ..ChefsiOptions::default()
        },
    );
    match result {
        Err(mbrpa::linalg::LinalgError::NoConvergence { what, .. }) => {
            assert!(what.contains("CheFSI"));
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "n_eig")]
fn oversized_config_panics_at_validation() {
    let setup = RpaSetup::prepare(
        SiliconSpec {
            points_per_cell: 5,
            ..SiliconSpec::default()
        }
        .build(),
        &PotentialParams::default(),
        2,
        KsSolver::Dense { extra: 0 },
    )
    .unwrap();
    // n_eig = 8·96 = 768 > n_d = 125: must panic with a clear message
    let _ = setup.run(&RpaConfig::for_system(8, 96));
}

#[test]
fn bad_input_files_error_with_line_numbers() {
    let cases = [
        ("N_OMEGA: 8\nWHAT_IS_THIS: 1\n", 2, "unknown key"),
        ("N_NUCHI_EIGS: many\n", 1, "integer"),
        ("TOL_EIG:\n", 1, "at least one"),
        ("BLOCK_POLICY: vibes\n", 1, "BLOCK_POLICY"),
    ];
    for (text, line, needle) in cases {
        let err = parse_rpa_input(text).unwrap_err();
        assert_eq!(err.line, line, "{text:?}");
        assert!(
            err.message.contains(needle),
            "{text:?}: message {:?} lacks {needle:?}",
            err.message
        );
    }
}

#[test]
fn unconverged_sternheimer_surfaces_in_stats() {
    // starve the solver: 1 iteration cap at a hard frequency
    let (n_s, ham) = tiny_ham();
    let ks = solve_occupied_dense(&ham, n_s, 0).unwrap();
    let psi = ks.occupied_orbitals();
    let energies = ks.occupied_energies().to_vec();
    let crystal = SiliconSpec {
        points_per_cell: 5,
        ..SiliconSpec::default()
    }
    .build();
    let spec = mbrpa::grid::SpectralLaplacian::new(crystal.grid, 2).unwrap();
    let coulomb = CoulombOperator::new(spec);
    let op = DielectricOperator::new(
        &ham,
        &psi,
        &energies,
        &coulomb,
        0.05,
        SternheimerSettings {
            tol: 1e-12,
            max_iters: 1,
            use_galerkin_guess: false,
            ..SternheimerSettings::default()
        },
        1,
    );
    let v = Mat::from_fn(ham.dim(), 1, |i, _| ((i % 5) as f64) - 2.0);
    let out = op.apply_chi0_block(&v);
    assert!(
        !out.has_bad_values(),
        "starved solves must not produce NaNs"
    );
    let stats = op.stats_snapshot();
    assert!(
        stats.unconverged > 0,
        "starved solves must be counted as unconverged"
    );
}

#[test]
fn dirichlet_and_periodic_grids_refuse_undersized_stencils() {
    let result = std::panic::catch_unwind(|| {
        let g = Grid3::cubic(4, 0.5, Boundary::Periodic);
        Laplacian::new(g, 3)
    });
    assert!(result.is_err(), "4 points cannot host a radius-3 stencil");
}

#[test]
fn rpacalc_refuses_an_unsatisfiable_input_before_the_ks_stage() {
    // each of these used to panic: the first inside `run_with`, after the
    // KS stage had been paid for; the second in the grid builder
    let dir = std::env::temp_dir().join(format!("mbrpa-unsat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (text, needle) in [
        ("N_NUCHI_EIGS: 100000\n", "N_NUCHI_EIGS"),
        ("POINTS_PER_CELL: 2\n", "POINTS_PER_CELL"),
    ] {
        std::fs::write(dir.join("bad.rpa"), text).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rpacalc"))
            .args(["-name", "bad", "-stdout"])
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{text:?}: {stderr}");
        assert!(stderr.contains(needle), "{text:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{text:?}: {stderr}");
        // the KS stage announces the system it solved
        assert!(!stderr.contains("n_s ="), "{text:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
