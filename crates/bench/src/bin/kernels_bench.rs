//! Micro-benchmarks of the hot kernels as they run today: the
//! runtime-dispatched SIMD stencil block applies (beside the all-columns-
//! per-point layout §III-C argues against), the packed GEMM
//! microkernels, the lane-split reduction suite, the fused block-COCG
//! update, one whole block-COCG iteration, one step of each real-arithmetic
//! Sternheimer solve, one Sternheimer apply and one Galerkin guess at the
//! shapes the drivers solve, emitting a schema-versioned
//! `BENCH_kernels.json`. The committed document is the baseline a later run
//! is compared against; there is no in-tree copy of older kernels (their
//! correctness oracles live in the crates' tests).
//!
//! Flags: see [`USAGE`].
//!
//! The active SIMD dispatch path (settable via `MBRPA_SIMD`) and the
//! thread count are recorded in the emitted document, and every case
//! records wall seconds, scalar GFLOP/s, and full shape metadata, so
//! regressions are attributable without rerunning.

use mbrpa_dft::{Hamiltonian, PotentialParams, SiliconSpec, SternheimerLinOp, SternheimerOperator};
use mbrpa_grid::{Boundary, CoulombOperator, Grid3, Laplacian, SpectralLaplacian};
use mbrpa_linalg::{matmul_into, vecops, Mat, Scalar, C64};
use mbrpa_schema::json::{self, obj, require_num, require_str, s, u, JsonValue};
use mbrpa_solver::{
    block_cocg_ws, galerkin_guess_real, shifted_block_lanczos, shifted_lanczos_pair, CocgOptions,
    LinearOperator, Workspace,
};
use std::hint::black_box;
use std::time::Instant;

const USAGE: &str = "\
usage: kernels_bench [--smoke] [--out PATH] [--threads N] [--validate PATH]
  --smoke          tiny shapes (seconds, CI-friendly) instead of paper-relevant ones
  --out PATH       output path (default BENCH_kernels.json)
  --threads N      rayon pool size
  --validate PATH  check PATH against the kernels-bench schema, then exit
                   (no benchmarks run)";

/// One benchmark result row.
struct Case {
    name: String,
    shape: String,
    secs: f64,
    gflops: f64,
}

impl Case {
    fn new(name: impl Into<String>, shape: String, secs: f64, flops: f64) -> Self {
        Self {
            name: name.into(),
            shape,
            secs,
            gflops: flops / secs * 1e-9,
        }
    }
}

/// Best-of-`reps` wall time of `f` per invocation, in seconds.
fn time_best(reps: usize, f: &mut dyn FnMut()) -> f64 {
    f(); // warm-up: pools, pack arenas, page faults
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn filled<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    Mat::from_fn(rows, cols, |_, _| T::from_re(next()))
}

fn stencil_cases(smoke: bool, reps: usize, cases: &mut Vec<Case>) {
    let (dims, radius) = if smoke { (10, 2) } else { (30, 4) };
    let g = Grid3::new((dims, dims, dims), (0.45, 0.45, 0.45), Boundary::Periodic);
    let lap = Laplacian::new(g, radius);
    let n = g.len();
    for s in [8usize, 32] {
        let v = filled::<f64>(n, s, 0x5eed + s as u64);
        let mut out = Mat::zeros(n, s);
        let secs = time_best(reps, &mut || lap.apply_block(&v, &mut out));
        cases.push(Case::new(
            format!("laplacian_block_f64_s{s}"),
            format!("grid={dims}x{dims}x{dims} radius={radius} s={s}"),
            secs,
            lap.apply_flops_per_vector() as f64 * s as f64,
        ));
    }
    // §III-C's arithmetic-intensity argument: the same s = 8 block with all
    // columns touched at every grid point (the layout the paper argues
    // against, kept as the test oracle of `apply_block`)
    let s = 8;
    let v = filled::<f64>(n, s, 0x5eed + s as u64);
    let mut out = Mat::zeros(n, s);
    let secs = time_best(reps, &mut || lap.apply_block_simultaneous(&v, &mut out));
    cases.push(Case::new(
        "laplacian_block_simultaneous_f64_s8",
        format!("grid={dims}x{dims}x{dims} radius={radius} s={s}"),
        secs,
        lap.apply_flops_per_vector() as f64 * s as f64,
    ));
}

fn sternheimer_case(smoke: bool, reps: usize, cases: &mut Vec<Case>) {
    let spec = SiliconSpec {
        points_per_cell: if smoke { 5 } else { 15 },
        cells_z: 2,
        perturbation: 0.02,
        seed: 7,
        ..SiliconSpec::default()
    };
    let crystal = spec.build();
    let radius = if smoke { 2 } else { 4 };
    let ham = Hamiltonian::new(&crystal, radius, &PotentialParams::default());
    let (lambda, omega) = (0.3, 0.5);
    let op = SternheimerOperator::new(&ham, lambda, omega);
    let g = ham.laplacian().grid();
    let n = ham.dim();
    let s = 8usize;
    let v = filled::<C64>(n, s, 0xabcd);
    let mut out = Mat::zeros(n, s);
    let secs = time_best(reps, &mut || op.apply_block(&v, &mut out));
    cases.push(Case::new(
        "sternheimer_block_c64_s8",
        format!(
            "grid={}x{}x{} radius={radius} s={s} lambda={lambda} omega={omega}",
            g.nx, g.ny, g.nz
        ),
        secs,
        op.apply_flops() as f64 * s as f64,
    ));
}

fn gemm_cases(smoke: bool, reps: usize, cases: &mut Vec<Case>) {
    // Rayleigh–Ritz update shape: tall grid block times small subspace
    // matrix (`V·Q`, `P·β`), and the conjugated projection `VᴴW`.
    let (m, k) = if smoke { (4096, 32) } else { (27_000, 96) };
    let n = k;
    let shape = format!("m={m} k={k} n={n}");

    let a64 = filled::<f64>(m, k, 1);
    let b64 = filled::<f64>(k, n, 2);
    let mut c64 = Mat::zeros(m, n);
    let secs = time_best(reps, &mut || matmul_into(1.0, &a64, &b64, 0.0, &mut c64));
    cases.push(Case::new(
        "gemm_nn_f64",
        shape.clone(),
        secs,
        2.0 * (m * k * n) as f64,
    ));

    let ac = filled::<C64>(m, k, 3);
    let bc = filled::<C64>(k, n, 4);
    let one = C64::new(1.0, 0.0);
    let zero = C64::new(0.0, 0.0);
    let mut cc = Mat::zeros(m, n);
    let secs = time_best(reps, &mut || matmul_into(one, &ac, &bc, zero, &mut cc));
    cases.push(Case::new(
        "gemm_nn_c64",
        shape,
        secs,
        8.0 * (m * k * n) as f64,
    ));
}

/// The reduction suite: lane-split dispatched dot/norm/axpy on single
/// vectors.
fn reduce_cases(smoke: bool, cases: &mut Vec<Case>) {
    let n = if smoke { 1 << 14 } else { 1 << 21 };
    let reps = if smoke { 11 } else { 31 };
    let shape = format!("n={n}");

    let x = filled::<f64>(n, 1, 0x11);
    let mut y = filled::<f64>(n, 1, 0x12);
    let xs = x.col(0);
    let secs = time_best(reps, &mut || {
        black_box(vecops::dot_t(black_box(xs), black_box(y.col(0))));
    });
    cases.push(Case::new(
        "reduce_dot_t_f64",
        shape.clone(),
        secs,
        2.0 * n as f64,
    ));

    let secs = time_best(reps, &mut || {
        black_box(vecops::norm2(black_box(xs)));
    });
    cases.push(Case::new(
        "reduce_nrm2_f64",
        shape.clone(),
        secs,
        2.0 * n as f64,
    ));

    // streaming update: bandwidth-bound
    let secs = time_best(reps, &mut || {
        vecops::axpy(black_box(0.5), black_box(xs), y.col_mut(0));
    });
    cases.push(Case::new("reduce_axpy_f64", shape, secs, 2.0 * n as f64));
}

/// One whole block-COCG iteration (operator apply, `μ`, the residual and
/// iterate updates, the direction update, two `s × s` solves) against the
/// Sternheimer operator, at the grid sizes and block widths of the
/// end-to-end workloads: the price of the reference the real solves are
/// held to. `secs` is per iteration: a fixed-length solve that cannot
/// converge, divided by its iteration count.
fn cocg_iter_cases(reps: usize, cases: &mut Vec<Case>) {
    const ITERS: usize = 24;
    for (sw, ppc, boundary) in [
        (1usize, 14usize, Boundary::Periodic),
        (2, 14, Boundary::Periodic),
        (1, 7, Boundary::Periodic),
        (4, 8, Boundary::Dirichlet),
    ] {
        let crystal = SiliconSpec {
            points_per_cell: ppc,
            boundary,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let (lambda, omega) = (-0.2, 0.5);
        let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
        let n = ham.dim();
        let b = filled::<C64>(n, sw, 0xc0c6 + sw as u64);
        let opts = CocgOptions {
            tol: 0.0,
            max_iters: ITERS,
            ..CocgOptions::default()
        };
        let mut ws = Workspace::new();
        let mut iterations = 0;
        let secs = time_best(reps, &mut || {
            let (x, rep) = block_cocg_ws(&op, &b, None, &opts, &mut ws);
            iterations = rep.iterations;
            black_box(x);
        });
        assert_eq!(
            iterations, ITERS,
            "the timed solve must run its full length"
        );
        // real flops: the operator on s columns plus five n·s² complex products
        let flops = (sw * op.apply_flops() + 40 * n * sw * sw) as f64;
        cases.push(Case::new(
            format!("cocg_iter_c64_s{sw}_n{n}"),
            format!("grid={ppc}x{ppc}x{ppc} radius=2 s={sw} lambda={lambda} omega={omega} iters={ITERS}"),
            secs / ITERS as f64,
            flops,
        ));
    }
}

/// One step of the real-arithmetic Sternheimer solve (one complex apply of
/// `H − λ` on two real vectors plus the two paired passes) on the grids of
/// the `s = 1` workloads, timed the way [`cocg_iter_cases`] times Alg. 3.
/// `secs` is per right-hand side and iteration, the unit of
/// `cocg_iter_c64_s1_*`: a `pair` step serves two, a `lone` step (second
/// slot idle, what an unpaired column runs) one.
fn lanczos_iter_cases(reps: usize, cases: &mut Vec<Case>) {
    const ITERS: usize = 24;
    for (ppc, lanes) in [(7usize, 2usize), (14, 2), (14, 1)] {
        let crystal = SiliconSpec {
            points_per_cell: ppc,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let (lambda, omega) = (-0.2, 0.5);
        let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
        let n = ham.dim();
        let b = filled::<f64>(n, lanes, 0xc0c6 + 1);
        let opts = CocgOptions {
            tol: 0.0,
            max_iters: ITERS,
            ..CocgOptions::default()
        };
        let mut ws = Workspace::new();
        let mut iterations = 0;
        let secs = time_best(reps, &mut || {
            let reports = shifted_lanczos_pair(
                &op,
                &b,
                None,
                &[0, 1][..lanes],
                &opts,
                &mut ws,
                &mut |_, x, _| {
                    black_box(x);
                },
            );
            iterations = reports[0].iterations;
        });
        assert_eq!(
            iterations, ITERS,
            "the timed solve must run its full length"
        );
        // real flops per right-hand side: half a complex apply, then 5 (first
        // pass) + 18 (second pass) per grid point
        let flops = (op.apply_flops() / 2 + 23 * n) as f64;
        let kind = if lanes == 2 { "pair" } else { "lone" };
        cases.push(Case::new(
            format!("lanczos_{kind}_iter_n{n}"),
            format!("grid={ppc}x{ppc}x{ppc} radius=2 rhs={lanes} lambda={lambda} omega={omega} iters={ITERS}"),
            secs / (ITERS * lanes) as f64,
            flops,
        ));
    }
}

/// One step of the real block solve (`⌈s/2⌉` complex applies of `H − λ`
/// on pair-packed columns plus the three block Lanczos sweeps and the
/// `s × s` recurrence), timed the way [`cocg_iter_cases`] times Alg. 3 at
/// the same width: `secs` is per iteration of the whole block, the unit of
/// `cocg_iter_c64_s{s}_*`. The `s = 16` row is Alg. 4's widest probe on
/// si8's grid, on the tiled wide sweeps; it stops at 12 steps, inside
/// the 7³ grid's block Krylov space.
fn block_lanczos_iter_cases(reps: usize, cases: &mut Vec<Case>) {
    for (sw, ppc, boundary, iters) in [
        (2usize, 7usize, Boundary::Periodic, 24usize),
        (4, 8, Boundary::Dirichlet, 24),
        (2, 14, Boundary::Periodic, 24),
        (16, 7, Boundary::Periodic, 12),
    ] {
        let crystal = SiliconSpec {
            points_per_cell: ppc,
            boundary,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let (lambda, omega) = (-0.2, 0.5);
        let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, omega));
        let n = ham.dim();
        let b = filled::<f64>(n, sw, 0xc0c6 + sw as u64);
        let opts = CocgOptions {
            tol: 0.0,
            max_iters: iters,
            ..CocgOptions::default()
        };
        let mut ws = Workspace::new();
        let mut steps = (0, 0);
        let secs = time_best(reps, &mut || {
            let rep =
                shifted_block_lanczos(&op, &b, None, 0..sw, &opts, &mut ws, &mut |_, x, _| {
                    black_box(x);
                });
            steps = (rep.iterations, rep.breakdowns);
        });
        assert_eq!(
            steps,
            (iters, 0),
            "the timed solve must run its full length, all of it block Lanczos"
        );
        // real flops: half a complex apply per column, then 2·s (first
        // sweep) + 1.5·s (second) + 9·s (third) multiply-adds per column
        // and grid point
        let flops = (sw * op.apply_flops() / 2 + 25 * n * sw * sw) as f64;
        cases.push(Case::new(
            format!("block_lanczos_iter_s{sw}_n{n}"),
            format!("grid={ppc}x{ppc}x{ppc} radius=2 s={sw} lambda={lambda} omega={omega} iters={iters}"),
            secs / iters as f64,
            flops,
        ));
    }
}

/// One Sternheimer `A·v` and its non-local projector term alone, on the
/// grids of the end-to-end workloads. `secs` is per apply (a batch of
/// applies divided by its length); `nnz/n_d` in the shape is what the
/// projector term costs per grid point — it scales with atoms, not with
/// the grid — and `projectors=` the form (and so the kernel) it runs in:
/// dense on 7³ and the 5³ serve shape, sparse on 14³ and 8³ Dirichlet.
fn apply_cases(reps: usize, cases: &mut Vec<Case>) {
    const BATCH: usize = 64;
    for (ppc, boundary, stern_row) in [
        (7usize, Boundary::Periodic, true),
        (14, Boundary::Periodic, true),
        (8, Boundary::Dirichlet, true),
        (5, Boundary::Dirichlet, false),
    ] {
        let crystal = SiliconSpec {
            points_per_cell: ppc,
            boundary,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let (lambda, omega) = (-0.2, 0.5);
        let op = SternheimerOperator::new(&ham, lambda, omega);
        let n = ham.dim();
        let nl = ham.nonlocal().expect("the model has a projector term");
        let shape = format!(
            "grid={ppc}x{ppc}x{ppc} radius=2 nnz/n_d={:.2} projectors={}",
            nl.nnz_per_point(),
            nl.form().name()
        );
        let v = filled::<C64>(n, 1, 0xa9917 + ppc as u64);
        let mut out = Mat::<C64>::zeros(n, 1);
        if stern_row {
            let secs = time_best(reps, &mut || {
                for _ in 0..BATCH {
                    op.apply(black_box(v.col(0)), out.col_mut(0));
                }
            });
            cases.push(Case::new(
                format!("stern_apply_c64_n{n}"),
                format!("{shape} lambda={lambda} omega={omega}"),
                secs / BATCH as f64,
                op.apply_flops() as f64,
            ));
        }
        let secs = time_best(reps, &mut || {
            for _ in 0..BATCH {
                nl.apply_add(black_box(v.col(0)), out.col_mut(0));
            }
        });
        cases.push(Case::new(
            format!("projector_apply_c64_n{n}"),
            shape,
            secs / BATCH as f64,
            8.0 * nl.nnz() as f64,
        ));
    }
}

/// `ν½` on a block (Algorithm 7, lines 2 and 7) on the periodic grids of
/// `si8_solve` and `finegrid_solve`, at one worker's width there. `secs`
/// includes refilling the block, so every apply starts from the same values.
fn nu_sqrt_cases(reps: usize, cases: &mut Vec<Case>) {
    for (ppc, cols) in [(7usize, 48usize), (14, 8)] {
        let g = Grid3::cubic(ppc, 0.69, Boundary::Periodic);
        let nu = CoulombOperator::new(SpectralLaplacian::new(g, 2).expect("1-D eigensolves"));
        let v = filled::<f64>(g.len(), cols, 0x5e1f + ppc as u64);
        let mut w = v.clone();
        let secs = time_best(reps, &mut || {
            w.as_mut_slice().copy_from_slice(v.as_slice());
            nu.apply_nu_sqrt_block(black_box(&mut w));
        });
        // six contractions of one FMA per point and axis length, one scaling
        let flops = cols * g.len() * (12 * ppc + 1);
        let shape = format!("grid={ppc}x{ppc}x{ppc} periodic cols={cols}");
        let name = format!("nu_sqrt_block_n{}_c{cols}", g.len());
        cases.push(Case::new(name, shape, secs, flops as f64));
    }
}

/// The Galerkin guess of Eq. 13 (what every orbital of a `χ⁰` apply runs
/// before its solves) at the shapes of the `ν½` rows: 16 occupied
/// orbitals on the `si8_solve` and `finegrid_solve` grids. `secs` is per
/// guess.
fn galerkin_cases(reps: usize, cases: &mut Vec<Case>) {
    const N_S: usize = 16;
    for (ppc, cols) in [(7usize, 48usize), (14, 8)] {
        let n = ppc * ppc * ppc;
        let psi = filled::<f64>(n, N_S, 0x6a1e + ppc as u64);
        let energies: Vec<f64> = (0..N_S).map(|m| -0.5 + 0.05 * m as f64).collect();
        let b = filled::<f64>(n, cols, 0x6a1f + ppc as u64);
        let mut guess = Mat::zeros(n, 2 * cols);
        let secs = time_best(reps, &mut || {
            galerkin_guess_real(&psi, &energies, -0.2, 0.5, &b, &mut guess);
            black_box(&guess);
        });
        // ΨᵀB, then Ψ times the scaled [Re | Im] coefficients
        let flops = 6 * n * N_S * cols;
        let shape = format!("n={n} orbitals={N_S} cols={cols}");
        let name = format!("galerkin_guess_n{n}_c{cols}");
        cases.push(Case::new(name, shape, secs, flops as f64));
    }
}

// ---------------------------------------------------------------------
// JSON emission + validation (schema `mbrpa_schema::KERNELS_BENCH`)
// ---------------------------------------------------------------------

const SCHEMA: &str = mbrpa_schema::KERNELS_BENCH;

fn emit_json(cases: &[Case], dispatch: &str, threads: usize, smoke: bool) -> String {
    let rows = cases
        .iter()
        .map(|c| {
            obj(vec![
                ("name", s(&c.name)),
                ("shape", s(&c.shape)),
                ("secs", JsonValue::Num(c.secs)),
                ("gflops", JsonValue::Num(c.gflops)),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("schema", s(SCHEMA)),
        ("dispatch", s(dispatch)),
        ("threads", u(threads)),
        ("smoke", JsonValue::Bool(smoke)),
        ("cases", JsonValue::Arr(rows)),
    ]);
    doc.to_json() + "\n"
}

/// Validate `text` against the `mbrpa.kernels-bench/3` schema.
fn validate(text: &str) -> Result<usize, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let schema = require_str(&root, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema '{schema}', expected '{SCHEMA}'"));
    }
    let dispatch = require_str(&root, "dispatch")?;
    if !matches!(mbrpa_simd::Dispatch::parse(dispatch), Ok(Some(_))) {
        return Err(format!("unknown 'dispatch' path '{dispatch}'"));
    }
    if require_num(&root, "threads")? < 1.0 {
        return Err("'threads' must be >= 1".into());
    }
    root.get("smoke")
        .and_then(JsonValue::as_bool)
        .ok_or("missing boolean member `smoke`")?;
    let cases = root
        .get("cases")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array member `cases`")?;
    if cases.is_empty() {
        return Err("'cases' must be non-empty".into());
    }
    for (i, case) in cases.iter().enumerate() {
        let check = || -> Result<(), String> {
            require_str(case, "name")?;
            require_str(case, "shape")?;
            for key in ["secs", "gflops"] {
                let v = require_num(case, key)?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("'{key}' must be finite and >= 0"));
                }
            }
            Ok(())
        };
        check().map_err(|e| format!("case {i}: {e}"))?;
    }
    Ok(cases.len())
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut threads: Option<usize> = None;
    let mut validate_path: Option<String> = None;
    mbrpa::cli::parse_args(USAGE, |flag, args| {
        match flag {
            "-smoke" => smoke = true,
            "-out" => out_path = args.value()?,
            "-threads" => threads = Some(args.count()?),
            "-validate" => validate_path = Some(args.value()?),
            _ => return Err(args.unknown()),
        }
        Ok(())
    });

    if let Some(path) = validate_path {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read it: {e}"));
        match text.and_then(|text| validate(&text)) {
            Ok(n) => println!("{path}: valid {SCHEMA} document ({n} cases)"),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Resolve (and honor MBRPA_SIMD) before any kernel runs, so the
    // recorded dispatch is exactly what every case measured.
    let dispatch = match mbrpa::init_runtime(threads) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!("SIMD dispatch: {}", dispatch.name());

    let threads = rayon::current_num_threads();
    let reps = if smoke { 3 } else { 9 };
    // Stencil, COCG-iteration and apply cases run in ~1 ms or
    // less, so a best-of-7 is one scheduler blip away from garbage; they
    // get more samples for the same wall time.
    let stencil_reps = if smoke { 5 } else { 25 };
    let mut cases: Vec<Case> = Vec::new();
    stencil_cases(smoke, stencil_reps, &mut cases);
    sternheimer_case(smoke, stencil_reps, &mut cases);
    gemm_cases(smoke, reps, &mut cases);
    reduce_cases(smoke, &mut cases);
    cocg_iter_cases(stencil_reps, &mut cases);
    lanczos_iter_cases(stencil_reps, &mut cases);
    block_lanczos_iter_cases(stencil_reps, &mut cases);
    apply_cases(stencil_reps, &mut cases);
    nu_sqrt_cases(stencil_reps, &mut cases);
    galerkin_cases(stencil_reps, &mut cases);

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.shape.clone(),
                format!("{:.2}", c.secs * 1e3),
                format!("{:.2}", c.gflops),
            ]
        })
        .collect();
    mbrpa_bench::print_table(&["kernel", "shape", "time [ms]", "GF/s"], &rows);

    let doc = emit_json(&cases, dispatch.name(), threads, smoke);
    if let Err(e) = validate(&doc) {
        eprintln!("internal error: emitted JSON failed validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(&out_path, &doc).expect("write BENCH json");
    println!("wrote {out_path} ({} cases, schema {SCHEMA})", cases.len());
}
