//! The traced run of a solve pipeline: the library crates linked in-process,
//! each layer's public functions called and timed from here. Nothing in this
//! file is used by a timed run.
//!
//! Span tree (all under `trace`):
//! `core.parse` → `dft.build` → `dft.prepare` → `core.run` (children
//! synthesised from `RpaResult`) → `replay.omega_hi` / `replay.omega_lo`,
//! each holding the real `core.chi0_apply` and a `core.chi0_apply.replay`
//! rebuilt from public pieces (`grid.nu_sqrt`, per-orbital
//! `solver.solve_multi_rhs` ⊃ {`solver.galerkin_guess`, `dft.stern_apply`})
//! → `solver.cheb_filter` → `kernels`.

use crate::metrics::Values;
use crate::trace::{Recorder, SpanId};
use mbrpa_ckpt::{encode_snapshot, CheckpointStore, Snapshot};
use mbrpa_core::checkpoint::summary_of;
use mbrpa_core::{
    fingerprint_hex, parse_rpa_input, partition_columns, quadrature_of, random_orthonormal_block,
    DielectricOperator, KsSolver, ResumableOutcome, ResumePolicy, RpaConfig, RpaResult, RpaSetup,
    SternheimerSettings, WorkDistribution,
};
use mbrpa_dft::{
    ChefsiOptions, Hamiltonian, PotentialParams, SternheimerLinOp, SternheimerOperator,
};
use mbrpa_grid::par::outer_scope;
use mbrpa_linalg::{generalized_sym_eig, matmul, matmul_tn, Mat, C64};
use mbrpa_serve::cache::{CacheStore, DEFAULT_BUDGET};
use mbrpa_serve::job::{result_doc, JobSpec, DEFAULT_PRIORITY};
use mbrpa_serve::json::{self, JsonValue};
use mbrpa_serve::store::JobStore;
use mbrpa_solver::{
    chebyshev_filter, galerkin_guess, solve_multi_rhs, CocgOptions, LinearOperator, WorkerStats,
};
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Median seconds per call of `f`: batches sized to ≥ 2 ms, up to 9 batches
/// or 80 ms, whichever ends first (at least 3 batches).
fn per_call_s(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((2e-3 / once).ceil() as usize).clamp(1, 100_000);
    let mut batches = Vec::new();
    let started = Instant::now();
    while batches.len() < 3 || (batches.len() < 9 && started.elapsed().as_secs_f64() < 0.08) {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(t.elapsed().as_secs_f64() / per_batch as f64);
    }
    crate::stats::median(&batches)
}

/// `LinearOperator` decorator counting calls and time spent inside the
/// wrapped operator; what is left of a solve is COCG self time.
struct CountingOp<'a> {
    inner: &'a dyn LinearOperator<C64>,
    nanos: AtomicU64,
    columns: AtomicU64,
}

impl<'a> CountingOp<'a> {
    fn new(inner: &'a dyn LinearOperator<C64>) -> Self {
        CountingOp {
            inner,
            nanos: AtomicU64::new(0),
            columns: AtomicU64::new(0),
        }
    }
    fn busy_s(&self) -> f64 {
        self.nanos.load(Ordering::SeqCst) as f64 * 1e-9
    }
    fn columns(&self) -> u64 {
        self.columns.load(Ordering::SeqCst)
    }
    fn note(&self, t: Instant, cols: usize) {
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
        self.columns.fetch_add(cols as u64, Ordering::SeqCst);
    }
}

impl LinearOperator<C64> for CountingOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        let t = Instant::now();
        self.inner.apply(x, y);
        self.note(t, 1);
    }
    fn apply_block(&self, x: &Mat<C64>, y: &mut Mat<C64>) {
        let t = Instant::now();
        self.inner.apply_block(x, y);
        self.note(t, x.cols());
    }
    fn apply_flops(&self) -> usize {
        self.inner.apply_flops()
    }
}

/// Everything the replays need from a prepared system.
struct Ctx<'a> {
    setup: &'a RpaSetup,
    config: &'a RpaConfig,
    psi: Mat<f64>,
    energies: Vec<f64>,
    settings: SternheimerSettings,
    rec: &'a Recorder,
}

impl Ctx<'_> {
    fn cocg_opts(&self) -> CocgOptions {
        CocgOptions {
            tol: self.settings.tol,
            max_iters: self.settings.max_iters,
            ..CocgOptions::default()
        }
    }

    /// `B = −V ⊙ Ψ_j`, the Sternheimer right-hand sides of orbital `j`.
    fn rhs(&self, v: &Mat<f64>, j: usize) -> Mat<C64> {
        let psi_j = self.psi.col(j);
        let mut b = Mat::<C64>::zeros(v.rows(), v.cols());
        for c in 0..v.cols() {
            for (bi, (&vi, &pi)) in b.col_mut(c).iter_mut().zip(v.col(c).iter().zip(psi_j)) {
                *bi = C64::new(-vi * pi, 0.0);
            }
        }
        b
    }

    /// One orbital's Sternheimer solve for the columns `v`, from the same
    /// public pieces `DielectricOperator` composes. Returns the solution,
    /// iterations, and `(operator seconds, operator columns)`.
    fn orbital_solve(
        &self,
        v: &Mat<f64>,
        j: usize,
        omega: f64,
        parent: Option<SpanId>,
    ) -> (Mat<C64>, usize, f64, u64) {
        let rec = self.rec;
        let span = rec.begin("solver.solve_multi_rhs", parent);
        let b = self.rhs(v, j);
        let guess = self.settings.use_galerkin_guess.then(|| {
            rec.time("solver.galerkin_guess", Some(span), |_| {
                galerkin_guess(&self.psi, &self.energies, self.energies[j], omega, &b)
            })
            .0
        });
        let stern = SternheimerLinOp::new(SternheimerOperator::new(
            &self.setup.ham,
            self.energies[j],
            omega,
        ));
        let counting = CountingOp::new(&stern);
        let mut stats = WorkerStats::new();
        let t_solve = rec.now();
        let out = solve_multi_rhs(
            &counting,
            &b,
            guess.as_ref(),
            &self.cocg_opts(),
            self.settings.policy,
            &mut stats,
        );
        // one folded span for all operator applications of this solve
        rec.add(
            "dft.stern_apply",
            Some(span),
            t_solve,
            counting.busy_s(),
            counting.columns(),
            "folded",
        );
        rec.end(span);
        (
            out.solution,
            stats.iterations,
            counting.busy_s(),
            counting.columns(),
        )
    }

    /// `(ν½χ⁰ν½)V` rebuilt from public pieces with the static column
    /// partition `DielectricOperator` uses, recording a span per piece.
    fn replay_apply(&self, v: &Mat<f64>, omega: f64, parent: SpanId) -> Mat<f64> {
        let rec = self.rec;
        let (n, cols) = (v.rows(), v.cols());
        let ranges = partition_columns(cols, self.config.n_workers.min(cols));
        // same guard the real partition registers: inner kernels stay serial
        let _outer = outer_scope(ranges.len());
        let pieces: Vec<(usize, Mat<f64>)> = ranges
            .par_iter()
            .map(|range| {
                let mut local = v.columns(range.start, range.count);
                rec.time("grid.nu_sqrt", Some(parent), |_| {
                    self.setup.coulomb.apply_nu_sqrt_block(&mut local)
                });
                let mut acc = Mat::<f64>::zeros(n, range.count);
                for j in 0..self.energies.len() {
                    let (y, ..) = self.orbital_solve(&local, j, omega, Some(parent));
                    let psi_j = self.psi.col(j);
                    for c in 0..range.count {
                        for (a, (&p, yc)) in
                            acc.col_mut(c).iter_mut().zip(psi_j.iter().zip(y.col(c)))
                        {
                            *a += 4.0 * p * yc.re;
                        }
                    }
                }
                (range.start, acc)
            })
            .collect();
        let mut result = Mat::zeros(n, cols);
        for (start, piece) in &pieces {
            result.set_columns(*start, piece);
        }
        rec.time("grid.nu_sqrt", Some(parent), |_| {
            self.setup.coulomb.apply_nu_sqrt_block(&mut result)
        });
        result
    }
}

/// Real/rebuilt pairs per replayed frequency.
const REPLAY_ROUNDS: usize = 3;

/// Result of one `replay.omega_*` block.
struct Replay {
    real_s: f64,
    coverage: f64,
    max_diff: f64,
    y: Mat<f64>,
}

fn replay_omega(ctx: &Ctx<'_>, name: &str, omega: f64, v: &Mat<f64>, root: SpanId) -> Replay {
    let rec = ctx.rec;
    let parent = rec.begin(name, Some(root));
    let op = DielectricOperator::new(
        &ctx.setup.ham,
        &ctx.psi,
        &ctx.energies,
        &ctx.setup.coulomb,
        omega,
        ctx.settings,
        ctx.config.n_workers,
    );
    // real and rebuilt applies alternate so that a slow spell of the machine
    // falls on both; the coverage compares their medians
    let (mut real, mut rebuilt) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..REPLAY_ROUNDS {
        let (y, real_s) = rec.time("core.chi0_apply", Some(parent), |_| {
            op.apply_dielectric_block(v)
        });
        let (y_replay, replay_s) = rec.time("core.chi0_apply.replay", Some(parent), |id| {
            ctx.replay_apply(v, omega, id)
        });
        real.push(real_s);
        rebuilt.push(replay_s);
        last = Some((y, y_replay));
    }
    rec.end(parent);
    let (y, y_replay) = last.expect("at least one replay round");
    let real_s = crate::stats::median(&real);
    Replay {
        real_s,
        coverage: crate::stats::median(&rebuilt) / real_s,
        max_diff: y.max_abs_diff(&y_replay),
        y,
    }
}

/// Lay `RpaResult`'s per-frequency timings out as children of `core.run`.
fn synthesise_run_children(rec: &Recorder, run: SpanId, start_s: f64, result: &RpaResult) {
    let mut cursor = start_s;
    for (k, rep) in result.per_omega.iter().enumerate() {
        let total: f64 = rep.history.iter().map(|h| h.elapsed.as_secs_f64()).sum();
        let omega = rec.add(
            &format!("core.omega[{k}]"),
            Some(run),
            cursor,
            total,
            1,
            "synthesised",
        );
        let mut inner = cursor;
        let t = &rep.timings;
        for (name, d) in [
            ("core.chi0_apply", t.apply),
            ("core.rr_matmult", t.matmult),
            ("core.rr_eigensolve", t.eigensolve),
            ("core.eval_error", t.eval_error),
        ] {
            rec.add(name, Some(omega), inner, d.as_secs_f64(), 1, "synthesised");
            inner += d.as_secs_f64();
        }
        cursor += total;
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub struct PipelineOptions<'a> {
    /// Run through the checkpointing driver (`run_resumable`, every frequency).
    pub checkpoint: bool,
    pub scratch: &'a Path,
}

/// What the caller needs back besides the metrics.
pub struct PipelineReport {
    pub run_s: f64,
    pub energy: f64,
    pub notes: Vec<String>,
    pub extra: Vec<(String, JsonValue)>,
}

/// Trace one input through every layer. The global rayon pool must already
/// be sized to the thread count the timed run of this workload uses.
pub fn trace_pipeline(
    text: &str,
    opts: &PipelineOptions<'_>,
    rec: &Recorder,
    values: &mut Values,
) -> Result<PipelineReport, String> {
    let mut notes = Vec::new();
    let mut extra = Vec::new();
    let root = rec.begin("trace", None);

    // ---- core: parse + fingerprint
    let (input, _) = rec.time("core.parse", Some(root), |_| parse_rpa_input(text));
    let input = input.map_err(|e| format!("generated input does not parse: {e}"))?;
    values.set(
        "core.parse_us",
        1e6 * per_call_s(|| drop(black_box(parse_rpa_input(black_box(text))))),
    );
    values.set(
        "core.fingerprint_us",
        1e6 * per_call_s(|| drop(black_box(fingerprint_hex(black_box(&input))))),
    );
    let config = input.config.clone();
    if config.distribution != WorkDistribution::StaticColumns {
        return Err("the replay mirrors the static column partition only".to_string());
    }

    // ---- dft: build + prepare (the rule rpacalc applies: radius 2, dense up to 1000 points)
    let params = PotentialParams::default();
    let ((crystal, _ham), build_s) = rec.time("dft.build", Some(root), |_| {
        let crystal = match input.vacancy {
            Some(site) => input.system.build_with_vacancy(site),
            None => input.system.build(),
        };
        let ham = Hamiltonian::new(&crystal, 2, &params);
        (crystal, ham)
    });
    values.set("dft.build_ms", 1e3 * build_s);
    let ks_solver = if crystal.n_grid() <= 1000 {
        KsSolver::Dense { extra: 4 }
    } else {
        KsSolver::Chefsi(ChefsiOptions::default())
    };
    let (setup, prepare_s) = rec.time("dft.prepare", Some(root), |_| {
        RpaSetup::prepare(crystal, &params, 2, ks_solver)
    });
    let setup = setup.map_err(|e| format!("KS stage failed: {e}"))?;
    values.set("dft.prepare_s", prepare_s);
    let n_d = setup.ham.dim();
    let n_eig = config.n_eig;

    // ---- core.run: the in-process twin of a timed rep
    let run_span = rec.begin("core.run", Some(root));
    let run_start = rec.now();
    let result: RpaResult = if opts.checkpoint {
        let dir = opts.scratch.join("trace-ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).map_err(|e| e.to_string())?;
        let policy = ResumePolicy {
            every: 1,
            resume: false,
            stop_after: None,
        };
        match setup.run_resumable(&config, &mut store, &policy) {
            Ok(ResumableOutcome::Complete(r)) => *r,
            Ok(_) => return Err("the resumable run stopped early".to_string()),
            Err(e) => return Err(format!("RPA stage failed: {e}")),
        }
    } else {
        setup
            .run(&config)
            .map_err(|e| format!("RPA stage failed: {e}"))?
    };
    rec.end(run_span);
    synthesise_run_children(rec, run_span, run_start, &result);

    let run_s = secs(result.wall_time);
    let t = &result.timings;
    let four = secs(t.apply) + secs(t.matmult) + secs(t.eigensolve) + secs(t.eval_error);
    values.set("core.run_s", run_s);
    values.set("core.chi0_apply_s", secs(t.apply));
    values.set("core.rr_matmult_s", secs(t.matmult));
    values.set("core.rr_eigensolve_s", secs(t.eigensolve));
    values.set("core.eval_error_s", secs(t.eval_error));
    values.set("core.unattributed_s", run_s - four);
    let rounds: usize = result.per_omega.iter().map(|r| r.filter_rounds).sum();
    values.set("core.filter_rounds", rounds as f64);
    let unconverged = result.per_omega.iter().filter(|r| !r.converged).count();
    values.set("core.unconverged_omegas", unconverged as f64);
    let per_omega_s: Vec<f64> = result
        .per_omega
        .iter()
        .map(|r| r.history.iter().map(|h| secs(h.elapsed)).sum())
        .collect();
    let hi_count = per_omega_s.len().div_ceil(2);
    values.set("core.omega_hi_s", per_omega_s[..hi_count].iter().sum());
    values.set("core.omega_lo_s", per_omega_s[hi_count..].iter().sum());

    let st = &result.solver_stats;
    let systems = st.block_sizes.total();
    let block_solves: f64 = st
        .block_sizes
        .iter()
        .map(|(s, c)| c as f64 / s as f64)
        .sum();
    values.set("solver.solves", systems as f64);
    values.set("solver.cocg_iterations", st.iterations as f64);
    values.set("solver.matvecs", st.matvecs as f64);
    values.set(
        "solver.iters_per_solve",
        st.iterations as f64 / block_solves.max(1.0),
    );
    values.set("solver.unconverged", st.unconverged as f64);
    values.set("solver.block_s1_share", st.block_sizes.fraction(1));
    values.set("solver.block_s2_share", st.block_sizes.fraction(2));
    values.set("solver.solve_s", secs(st.solve_time));
    let loads: Vec<f64> = result.worker_load.iter().map(|&d| secs(d)).collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    values.set(
        "solver.worker_imbalance",
        if mean > 0.0 {
            crate::stats::max(&loads) / mean
        } else {
            1.0
        },
    );

    // ---- replays at the easiest (first, largest ω) and hardest (last) frequency
    let quad = quadrature_of(&config);
    let (omega_hi, omega_lo) = (quad[0].omega, quad[quad.len() - 1].omega);
    let ctx = Ctx {
        setup: &setup,
        config: &config,
        psi: setup.ks.occupied_orbitals(),
        energies: setup.ks.occupied_energies().to_vec(),
        settings: SternheimerSettings {
            tol: config.tol_sternheimer,
            max_iters: config.cocg_max_iters,
            policy: config.block_policy,
            use_galerkin_guess: config.use_galerkin_guess,
            precondition: config.precondition,
            distribution: config.distribution,
        },
        rec,
    };
    let v = random_orthonormal_block(n_d, n_eig, config.seed);
    let hi = replay_omega(&ctx, "replay.omega_hi", omega_hi, &v, root);
    let lo = replay_omega(&ctx, "replay.omega_lo", omega_lo, &v, root);
    values.set("core.chi0_apply_replay_s", lo.real_s);
    let mut coverage = Vec::new();
    for (name, r) in [("replay.omega_hi", &hi), ("replay.omega_lo", &lo)] {
        let valid = (0.9..=1.1).contains(&r.coverage) && r.max_diff <= 1e-9;
        if !valid {
            notes.push(format!(
                "{name}: replay INVALID (children cover {:.3} of the real apply, max |diff| {:.2e})",
                r.coverage, r.max_diff
            ));
        }
        coverage.push((
            name.to_string(),
            json::obj(vec![
                ("coverage", JsonValue::Num(r.coverage)),
                ("max_abs_diff", JsonValue::Num(r.max_diff)),
                ("valid", JsonValue::Bool(valid)),
            ]),
        ));
    }
    extra.push(("replay".to_string(), JsonValue::Obj(coverage)));

    // single solves, under the guard the real partition holds so inner
    // block applies stay serial exactly as they do inside a run
    let n_s = ctx.energies.len();
    {
        let _outer = outer_scope(rayon::current_num_threads());
        let solo = rec.begin("replay.single_solves", Some(root));
        let t = Instant::now();
        let (_, iters, op_s, _) = ctx.orbital_solve(&v, n_s - 1, omega_lo, Some(solo));
        let hard_s = t.elapsed().as_secs_f64();
        values.set("solver.replay_hard_s", hard_s);
        values.set("solver.replay_hard_iters", iters as f64);
        values.set("solver.replay_hard_op_share", op_s / hard_s);
        let t = Instant::now();
        let (_, iters, ..) = ctx.orbital_solve(&v, 0, omega_hi, Some(solo));
        values.set("solver.replay_easy_s", t.elapsed().as_secs_f64());
        values.set("solver.replay_easy_iters", iters as f64);
        rec.end(solo);
        let b = ctx.rhs(&v, n_s - 1);
        values.set(
            "solver.galerkin_guess_us",
            1e6 * per_call_s(|| {
                black_box(galerkin_guess(
                    &ctx.psi,
                    &ctx.energies,
                    ctx.energies[n_s - 1],
                    omega_lo,
                    &b,
                ));
            }),
        );
    }

    // one Chebyshev filter sweep of the dielectric operator at the hardest
    // frequency, with the bounds subspace iteration derives from Ritz values
    {
        let eigs = &result.per_omega[result.per_omega.len() - 1].eigenvalues;
        let (mu_min, mu_edge) = (eigs[0], eigs[eigs.len() - 1]);
        let b_up = 1e-3 * mu_min.abs().max(1e-12);
        let a = if mu_edge < b_up { mu_edge } else { 0.5 * b_up };
        let op = DielectricOperator::new(
            &setup.ham,
            &ctx.psi,
            &ctx.energies,
            &setup.coulomb,
            omega_lo,
            ctx.settings,
            config.n_workers,
        );
        let (_, cheb_s) = rec.time("solver.cheb_filter", Some(root), |_| {
            black_box(chebyshev_filter(
                &op,
                &v,
                config.cheb_degree,
                a,
                b_up,
                mu_min,
            ))
        });
        values.set("solver.cheb_filter_s", cheb_s);
    }

    // ---- leaf kernels at this workload's shapes
    let kernels = rec.begin("kernels", Some(root));
    let triad = kernel_metrics(&ctx, &v, &lo.y, omega_lo, values);
    extra.push(("triad".to_string(), triad));
    storage_metrics(text, &result, &v, opts.scratch, values)?;
    rec.end(kernels);
    rec.end(root);

    extra.push(("n_d".to_string(), JsonValue::Num(n_d as f64)));
    extra.push(("n_s".to_string(), JsonValue::Num(n_s as f64)));
    extra.push(("n_eig".to_string(), JsonValue::Num(n_eig as f64)));
    Ok(PipelineReport {
        run_s,
        energy: result.total_energy,
        notes,
        extra,
    })
}

/// STREAM-style triad `a = b + s·c` on arrays far larger than the caches,
/// single thread (the kernels it is compared with run one thread per worker).
fn triad_gbs() -> (f64, u64, u64) {
    let llc = crate::host::llc_bytes();
    // ≥ 4× LLC per array as the sizing rule asks, capped so a VM reporting a
    // host-sized LLC (hundreds of MiB) does not allocate gigabytes
    let want = (4 * llc).clamp(32 << 20, 128 << 20);
    let n = (want / 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 3.0 * z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3.0 * 8.0 * n as f64 / best / 1e9, want, llc)
}

fn kernel_metrics(
    ctx: &Ctx<'_>,
    v: &Mat<f64>,
    w: &Mat<f64>,
    omega: f64,
    values: &mut Values,
) -> JsonValue {
    // serial inner kernels, as inside a run's worker partition
    let _outer = outer_scope(rayon::current_num_threads());
    let ham = &ctx.setup.ham;
    let n_d = ham.dim();
    let n_s = ctx.energies.len();
    let (triad, array_bytes, llc) = triad_gbs();
    values.set("machine.triad_gbs", triad);

    let stern = SternheimerOperator::new(ham, ctx.energies[n_s - 1], omega);
    let mut s1_call = 0.0;
    for (s, name) in [
        (1, "dft.stern_apply_ns_pt.s1"),
        (2, "dft.stern_apply_ns_pt.s2"),
        (4, "dft.stern_apply_ns_pt.s4"),
    ] {
        let x = Mat::<C64>::from_fn(n_d, s, |i, j| C64::new(v[(i, j)], -v[(i, j)]));
        let mut y = Mat::<C64>::zeros(n_d, s);
        let t = per_call_s(|| stern.apply_block(black_box(&x), black_box(&mut y)));
        values.set(name, 1e9 * t / (n_d * s) as f64);
        if s == 1 {
            s1_call = t;
        }
    }
    // computed, not measured: one column reads v and vloc and writes out in
    // the Hamiltonian pass (16+8+16 B/point), then the separate (−λ+iω)
    // shift pass reads v and updates out (16+32 B/point); cache misses ignored
    let flops = stern.apply_flops() as f64;
    let bytes = 88.0 * n_d as f64;
    values.set("dft.stern_apply_gflops", flops / s1_call / 1e9);
    values.set("dft.stern_apply_ai", flops / bytes);
    values.set("dft.stern_apply_bw_frac", bytes / s1_call / 1e9 / triad);

    let x8 = v.columns(0, 8.min(v.cols()));
    let mut y8 = Mat::<f64>::zeros(n_d, x8.cols());
    let per_pt = (n_d * x8.cols()) as f64;
    let t = per_call_s(|| ham.apply_block(black_box(&x8), black_box(&mut y8)));
    values.set("dft.ham_apply_f64_ns_pt", 1e9 * t / per_pt);
    let t = per_call_s(|| {
        ham.laplacian()
            .apply_block(black_box(&x8), black_box(&mut y8))
    });
    values.set("grid.laplacian_ns_pt", 1e9 * t / per_pt);
    let mut vv = v.clone();
    let t = per_call_s(|| ctx.setup.coulomb.apply_nu_sqrt_block(black_box(&mut vv)));
    values.set("grid.nu_sqrt_ns_pt", 1e9 * t / (n_d * v.cols()) as f64);

    // Rayleigh–Ritz shapes: (n_d × n_eig)ᵀ(n_d × n_eig) and (n_d × n_eig)(n_eig × n_eig)
    let n_eig = v.cols();
    let gemm_flops = 2.0 * n_d as f64 * (n_eig * n_eig) as f64;
    let t = per_call_s(|| drop(black_box(matmul_tn(black_box(v), black_box(w)))));
    values.set("linalg.matmul_tn_gflops", gemm_flops / t / 1e9);
    let h_s = matmul_tn(v, w);
    let h_sym = Mat::from_fn(n_eig, n_eig, |i, j| 0.5 * (h_s[(i, j)] + h_s[(j, i)]));
    let m_s = matmul_tn(v, v);
    let t = per_call_s(|| drop(black_box(matmul(black_box(v), black_box(&h_sym)))));
    values.set("linalg.matmul_nn_gflops", gemm_flops / t / 1e9);
    let t = per_call_s(|| drop(black_box(generalized_sym_eig(&h_sym, &m_s))));
    values.set("linalg.gen_sym_eig_ms", 1e3 * t);

    // complex reductions/updates on one grid vector (interleaved re,im), cache resident
    let x: Vec<f64> = (0..2 * n_d).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut y = x.clone();
    let t = per_call_s(|| {
        black_box(mbrpa_simd::dot_t_c64(black_box(&x), black_box(&y)));
    });
    values.set("simd.dot_c64_ns_elem", 1e9 * t / n_d as f64);
    // |a| = 1 keeps y bounded over millions of updates
    let t = per_call_s(|| mbrpa_simd::axpy_c64(0.0, 1.0, black_box(&x), black_box(&mut y)));
    values.set("simd.axpy_c64_ns_elem", 1e9 * t / n_d as f64);

    json::obj(vec![
        ("array_bytes", JsonValue::Num(array_bytes as f64)),
        ("llc_bytes", JsonValue::Num(llc as f64)),
        ("threads", JsonValue::Num(1.0)),
        (
            "bytes_model",
            json::s("computed: 88 B per grid point per column"),
        ),
    ])
}

/// Checkpoint store and serving-side storage calls at this workload's sizes.
fn storage_metrics(
    text: &str,
    result: &RpaResult,
    v: &Mat<f64>,
    scratch: &Path,
    values: &mut Values,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let dir = scratch.join("layer-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).map_err(|e| e.to_string())?;
    let mut snap = Snapshot {
        fingerprint: 1,
        sequence: 0,
        completed: result.per_omega.len() as u64,
        n_omega_total: result.per_omega.len() as u64,
        accumulated_energy: result.total_energy,
        warm_start: v.clone(),
        omega: result.per_omega.iter().map(summary_of).collect(),
    };
    values.set("ckpt.snapshot_bytes", encode_snapshot(&snap).len() as f64);
    let mut save_ms = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        store.save(&mut snap).map_err(|e| e.to_string())?;
        save_ms.push(1e3 * t.elapsed().as_secs_f64());
    }
    values.set("ckpt.save_ms_p50", crate::stats::median(&save_ms));
    let mut load_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let loaded = store.load_latest().map_err(|e| e.to_string())?;
        load_ms.push(1e3 * t.elapsed().as_secs_f64());
        if loaded.is_none() {
            return Err("the checkpoint store lost the snapshot it just saved".to_string());
        }
    }
    values.set("ckpt.load_ms", crate::stats::median(&load_ms));

    let doc = result_doc("job-000001", result);
    let doc_text = doc.to_json();
    values.set(
        "serve.json_parse_us",
        1e6 * per_call_s(|| drop(black_box(json::parse(black_box(&doc_text))))),
    );
    let cache_dir = scratch.join("layer-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cache = CacheStore::open(&cache_dir, DEFAULT_BUDGET).map_err(io)?;
    let mut insert_ms = Vec::new();
    for k in 0..9u32 {
        let t = Instant::now();
        cache.insert(&format!("{k:032x}"), &doc).map_err(io)?;
        insert_ms.push(1e3 * t.elapsed().as_secs_f64());
    }
    values.set("serve.cache_insert_ms", crate::stats::median(&insert_ms));
    let fp = format!("{:032x}", 4);
    if cache.lookup(&fp).is_none() {
        return Err("the result cache lost the entry it just stored".to_string());
    }
    values.set(
        "serve.cache_lookup_us",
        1e6 * per_call_s(|| drop(black_box(cache.lookup(&fp)))),
    );
    let store_dir = scratch.join("layer-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let jobs = JobStore::open(&store_dir).map_err(io)?;
    let spec = JobSpec {
        name: None,
        priority: DEFAULT_PRIORITY,
        input: text.to_string(),
    };
    let mut alloc_ms = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        jobs.allocate(&spec).map_err(io)?;
        alloc_ms.push(1e3 * t.elapsed().as_secs_f64());
    }
    values.set("serve.store_allocate_ms", crate::stats::median(&alloc_ms));
    Ok(())
}
