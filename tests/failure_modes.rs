//! Failure injection: the pipeline must fail loudly and typed — never
//! with NaNs or silent wrong answers.

use mbrpa::core::{parse_rpa_input, KsSolver, RpaConfig, RpaSetup};
use mbrpa::dft::{
    solve_occupied_chefsi, ChefsiOptions, Hamiltonian, PotentialParams, SiliconSpec,
    SternheimerLinOp, SternheimerOperator,
};
use mbrpa::prelude::*;
use mbrpa::solver::{block_cocg, true_relative_residual};

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
    // KS stage had been paid for; the second in the grid builder; the last
    // three on a grid too large to allocate (abort, OOM kill) or whose
    // point count wraps (`capacity overflow`); the tolerance and filter
    // cases ran and printed an energy: no filter round at all (NaN, inf),
    // every round to the cap (0, −1), or a filter that is the identity;
    // the quadrature and filter bounds stop an abort or a run deaf to
    // SIGTERM, the displacement bound an energy of atoms outside the box;
    // a loose TOL_STERN_RES let every solve accept its guess and collapse
    // χ⁰, a MESH out of scale printed zero or nonsense (1e-300 failed only
    // after the KS stage)
    let dir = std::env::temp_dir().join(format!("mbrpa-unsat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (text, needle) in [
        ("N_NUCHI_EIGS: 100000\n", "N_NUCHI_EIGS"),
        ("POINTS_PER_CELL: 2\n", "POINTS_PER_CELL"),
        ("POINTS_PER_CELL: 5000\n", "POINTS_PER_CELL"),
        ("POINTS_PER_CELL: 2642246\n", "POINTS_PER_CELL"),
        ("CELLS_Z: 53778940035039405\n", "CELLS_Z"),
        ("TOL_EIG: nan\n", "TOL_EIG"),
        ("TOL_EIG: inf\n", "TOL_EIG"),
        ("TOL_EIG: 0\n", "TOL_EIG"),
        ("TOL_EIG: 4e-3 -1\n", "TOL_EIG"),
        ("MAXIT_FILTERING: 0\n", "MAXIT_FILTERING"),
        ("CHEB_DEGREE_RPA: 0\n", "CHEB_DEGREE_RPA"),
        ("N_OMEGA: 65\n", "N_OMEGA"),
        ("N_OMEGA: 1000000000000\n", "N_OMEGA"),
        ("CHEB_DEGREE_RPA: 33\n", "CHEB_DEGREE_RPA"),
        ("CHEB_DEGREE_RPA: 1000000000\n", "CHEB_DEGREE_RPA"),
        ("PERTURBATION: inf\n", "PERTURBATION"),
        ("PERTURBATION: -inf\n", "PERTURBATION"),
        ("PERTURBATION: nan\n", "PERTURBATION"),
        ("PERTURBATION: 1e10\n", "PERTURBATION"),
        ("PERTURBATION: -0.02\n", "PERTURBATION"),
        ("TOL_STERN_RES: 0.5\n", "TOL_STERN_RES"),
        ("TOL_STERN_RES: 1e300\n", "TOL_STERN_RES"),
        ("MESH: 1e300\n", "MESH"),
        ("MESH: 20\n", "MESH"),
        ("MESH: 0.001\n", "MESH"),
        ("MESH: 1e-300\n", "MESH"),
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

#[test]
fn rpacalc_runs_an_np_far_above_n_eig_as_n_eig_workers() {
    // the per-worker ledgers were sized by NP: 10¹² of them aborted the
    // run on allocation, after the KS stage; the column partition never
    // uses more than n_eig = 8 workers, so NP = 8 is the same run
    let dir = std::env::temp_dir().join(format!("mbrpa-np-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = include_str!("../inputs/cluster_smoke.rpa");
    assert!(base.contains("NP: 2\n") && base.contains("N_NUCHI_EIGS: 8\n"));
    let report = |np| {
        std::fs::write(dir.join("np.rpa"), base.replace("NP: 2\n", np)).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rpacalc"))
            .args(["-name", "np", "-stdout"])
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{np:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let (eight, huge) = (report("NP: 8\n"), report("NP: 1000000000000\n"));
    let energy = huge.lines().find(|l| l.starts_with("Total RPA")).unwrap();
    assert!(eight.contains(energy), "{eight}\n{huge}");
    // the last table of the report: one row per worker that owns columns
    let rows = huge.split("Worker |").nth(1).unwrap().lines();
    assert_eq!(rows.filter(|l| l.contains(" | ")).count(), 8, "{huge}");
    let _ = std::fs::remove_dir_all(&dir);
}
