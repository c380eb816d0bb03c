//! Property-based tests for the Krylov solvers on random well-conditioned
//! complex-symmetric systems of the Sternheimer shape.

use mbrpa_check::{assume, check, Rng, StdRng};
use mbrpa_linalg::{matmul, symmetric_eig, Mat, C64};
use mbrpa_solver::{
    block_cocg, block_cocg_ws, galerkin_guess, galerkin_guess_real, shifted_block_lanczos,
    shifted_lanczos_pair, true_relative_residual, CocgOptions, DenseOperator, LinearOperator,
    RealShifted, SolveReport, Workspace, MAX_BREAKDOWNS,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A dense operator that goes bad: from its `from_call`-th block
/// application on, every entry of the result is `poison` — NaN or Inf (a
/// blown-up `U`), or zero (`μ = UᵀP = 0`, a breakdown no restart cures).
struct FaultyOperator {
    inner: DenseOperator<C64>,
    calls: AtomicUsize,
    from_call: usize,
    poison: C64,
}

impl LinearOperator<C64> for FaultyOperator {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.inner.apply(x, y);
    }
    fn apply_block(&self, x: &Mat<C64>, y: &mut Mat<C64>) {
        self.inner.apply_block(x, y);
        if self.calls.fetch_add(1, Ordering::SeqCst) >= self.from_call {
            y.fill(self.poison);
        }
    }
}

/// Random complex-symmetric `A = S + (d + iω)I`, diagonally dominated so
/// every draw is solvable.
fn operator_strategy(rng: &mut StdRng, n: usize) -> DenseOperator<C64> {
    let g = Mat::from_fn(n, n, |_, _| rng.random_range(-0.5..0.5));
    let (diag, omega) = (rng.random_range(2.0..6.0), rng.random_range(0.1..1.0));
    let a = Mat::from_fn(n, n, |i, j| {
        let mut z = C64::new(0.5 * (g[(i, j)] + g[(j, i)]), 0.0);
        if i == j {
            z += C64::new(diag, omega);
        }
        z
    });
    DenseOperator::new(a)
}

fn rhs_strategy(rng: &mut StdRng, n: usize, s: usize) -> Mat<C64> {
    Mat::from_fn(n, s, |_, _| {
        C64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
    })
}

/// `R + iω` with a dense real symmetric `R`: Alg. 3 sees the complex
/// matrix, the real-arithmetic solve sees `R` and `ω`.
struct ShiftedDense {
    r: Mat<f64>,
    omega: f64,
    complex: DenseOperator<C64>,
    /// Eigenpairs of `R` (Galerkin guesses, conditioning, planted
    /// right-hand sides).
    eig: mbrpa_linalg::SymEig,
}

impl ShiftedDense {
    /// `S − μ` with `μ` placed by `kind`: well below the spectrum of `S`
    /// (definite), or on its `at`-th eigenvalue (indefinite, singular but
    /// for `iω`).
    fn new(s: Mat<f64>, definite: bool, at: usize, omega: f64) -> Self {
        let n = s.rows();
        let spec = symmetric_eig(&s).expect("symmetric input");
        let mu = if definite {
            spec.values[0] - 1.0
        } else {
            spec.values[at % n]
        };
        let r = Mat::from_fn(n, n, |i, j| s[(i, j)] - if i == j { mu } else { 0.0 });
        Self::shifted(r, omega)
    }

    /// `R + iω` for a given real symmetric `R`.
    fn shifted(r: Mat<f64>, omega: f64) -> Self {
        let n = r.rows();
        let complex = DenseOperator::new(Mat::from_fn(n, n, |i, j| {
            C64::new(r[(i, j)], if i == j { omega } else { 0.0 })
        }));
        let eig = symmetric_eig(&r).expect("symmetric input");
        Self {
            r,
            omega,
            complex,
            eig,
        }
    }

    /// `σ_min(R + iω) = min_i |λ_i + iω|`.
    fn sigma_min(&self) -> f64 {
        let lam = self
            .eig
            .values
            .iter()
            .fold(f64::INFINITY, |m, l| m.min(l.abs()));
        lam.hypot(self.omega)
    }
}

impl LinearOperator<C64> for ShiftedDense {
    fn dim(&self) -> usize {
        self.r.rows()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.complex.apply(x, y);
    }
}

impl RealShifted for ShiftedDense {
    fn omega(&self) -> f64 {
        self.omega
    }
    fn apply_real_pair(&self, x: &[C64], y: &mut [C64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let (mut re, mut im) = (0.0, 0.0);
            for (j, xj) in x.iter().enumerate() {
                re += self.r[(i, j)] * xj.re;
                im += self.r[(i, j)] * xj.im;
            }
            *yi = C64::new(re, im);
        }
    }
}

fn symmetric_strategy(rng: &mut StdRng, n: usize) -> Mat<f64> {
    let g = Mat::from_fn(n, n, |_, _| rng.random_range(-0.5..0.5));
    Mat::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]))
}

/// The columns `cols` of `b` (one per slot) through the real-arithmetic
/// solve: `Re x` per column, in the order of `cols`, and the reports.
fn real_solve(
    op: &ShiftedDense,
    b: &Mat<f64>,
    guess: Option<&Mat<f64>>,
    cols: &[usize],
    opts: &CocgOptions,
) -> (Vec<Vec<f64>>, [SolveReport; 2]) {
    let mut out = vec![Vec::new(); cols.len()];
    let mut ws = Workspace::new();
    let reports = shifted_lanczos_pair(op, b, guess, cols, opts, &mut ws, &mut |col, x, slot| {
        assert_eq!(cols[slot], col, "slot {slot} holds column {}", cols[slot]);
        out[slot] = x
            .iter()
            .map(|z| if slot == 0 { z.re } else { z.im })
            .collect();
    });
    (out, reports)
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn max_diff(a: &[f64], b: impl Iterator<Item = f64>) -> f64 {
    a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

/// "Same iterates": single and paired real solves stop at the
/// iteration Alg. 3 stops at, with its matvec count, and land on its
/// `Re x` — definite and singular-but-for-`iω` `R`, `n` not a multiple
/// of 4, with and without the Galerkin guess, a zero right-hand side
/// in one slot, and slots that converge many steps apart (one
/// right-hand side two eigenvectors wide, the other random).
#[test]
fn real_solves_stop_where_cocg_stops() {
    check(64, |rng| {
        let n = [33, 46, 61, 75][rng.random_range(0..4)];
        let entries = (0..75 * 75)
            .map(|_| rng.random_range(-0.5f64..0.5))
            .collect::<Vec<_>>();
        let definite = rng.random::<bool>();
        let at = rng.random_range(0usize..75);
        let log_omega = rng.random_range(-3.0f64..0.0);
        let tight = rng.random::<bool>();
        let with_guess = rng.random::<bool>();
        let scenario = rng.random_range(0usize..3);
        let rhs = (0..2 * 75)
            .map(|_| rng.random_range(-1.0f64..1.0))
            .collect::<Vec<_>>();
        let g = Mat::from_col_major(n, n, entries[..n * n].to_vec());
        let s = Mat::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
        let op = ShiftedDense::new(s, definite, at, 10f64.powf(log_omega));
        let opts = CocgOptions {
            tol: if tight { 1e-4 } else { 1e-2 },
            max_iters: 200,
            ..CocgOptions::default()
        };
        let mut b = Mat::from_fn(n, 2, |i, c| rhs[c * n + i]);
        match scenario {
            1 => b.col_mut(0).fill(0.0),
            2 => {
                // two eigenvectors: done in two steps, long before slot 1
                let (p, q) = (
                    op.eig.vectors.col(1).to_vec(),
                    op.eig.vectors.col(n - 2).to_vec(),
                );
                for (i, bi) in b.col_mut(0).iter_mut().enumerate() {
                    *bi = 0.7 * p[i] - 0.4 * q[i];
                }
            }
            _ => {}
        }
        // the guess projects on a third of the spectrum, bottom up
        let k = n / 3;
        let psi = op.eig.vectors.columns(0, k);
        let bc = Mat::from_fn(n, 2, |i, c| C64::new(b[(i, c)], 0.0));
        let (guess_c, guess_r) = if with_guess {
            let mut gr = Mat::zeros(n, 4);
            galerkin_guess_real(&psi, &op.eig.values[..k], 0.0, op.omega, &b, &mut gr);
            (
                Some(galerkin_guess(
                    &psi,
                    &op.eig.values[..k],
                    0.0,
                    op.omega,
                    &bc,
                )),
                Some(gr),
            )
        } else {
            (None, None)
        };
        let exact = mbrpa_linalg::solve(op.complex.matrix(), &bc).unwrap();

        let (pair_x, pair_rep) = real_solve(&op, &b, guess_r.as_ref(), &[0, 1], &opts);
        let mut ws = Workspace::new();
        for c in 0..2 {
            let gc = guess_c.as_ref().map(|g| g.columns(c, 1));
            let (x, want) = block_cocg_ws(&op, &bc.columns(c, 1), gc.as_ref(), &opts, &mut ws);
            // short solves, and clear of the end of the Krylov space, where
            // what is left of either residual is rounding. A Galerkin guess
            // leaves rounding-sized components along the deflated
            // eigenvectors in the start vector, and either recurrence grows
            // them several-fold per step once it nears their eigenvalues
            // (measured here: 1e-12 at 12 steps, 1e-8 at 20): two correct
            // solvers drift apart, so only short deflated solves compare
            // digit for digit — the regime of the Sternheimer workloads.
            let cap = if with_guess { 12 } else { 30 };
            assume(want.converged && want.iterations <= cap && 2 * want.iterations <= n - k);
            let (lone_x, lone_rep) = real_solve(&op, &b, guess_r.as_ref(), &[c], &opts);
            let x_norm = x.fro_norm();
            let solves = [
                ("pair", &pair_x[c], &pair_rep[c]),
                ("lone", &lone_x[0], &lone_rep[0]),
            ];
            for (what, got_x, got) in solves {
                assert!(got.converged, "{what} slot {c}: {got:?} vs {want:?}");
                assert_eq!(
                    got.iterations, want.iterations,
                    "{} slot {}: iterations",
                    what, c
                );
                assert_eq!(got.matvecs, want.matvecs, "{} slot {}: matvecs", what, c);
                // rounding separates the two recurrences in proportion to
                // the conditioning: 1e-10·‖x‖ up to κ = 10, κ-fold beyond
                let r_norm = op.eig.values.iter().fold(op.omega, |m, l| m.max(l.abs()));
                let kappa = r_norm / op.sigma_min();
                let d = max_diff(got_x, x.col(0).iter().map(|z| z.re));
                assert!(
                    d <= 1e-11 * kappa.max(10.0) * x_norm,
                    "{what} slot {c}: Re x off Alg. 3's by {d:e} (‖x‖ {x_norm:e}, κ {kappa:e}, \
                     {} iterations)",
                    want.iterations
                );
                // and both are the solution, to what the tolerance buys
                let err = max_diff(got_x, exact.col(c).iter().map(|z| z.re));
                let bound = 2.0 * opts.tol * norm(b.col(c)) / op.sigma_min();
                assert!(
                    err <= bound + 1e-12,
                    "{what} slot {c}: {err:e} from the dense solve, bound {bound:e}"
                );
            }
        }
    });
}

/// Long solves (an indefinite `R` with small `ω`, a tight tolerance):
/// rounding moves the two recurrences apart, so the counts may differ
/// by a few; what must hold is the answer.
#[test]
fn long_real_solves_reach_the_dense_solution() {
    check(64, |rng| {
        let s = symmetric_strategy(rng, 120);
        let at = rng.random_range(30usize..90);
        let rhs = (0..240)
            .map(|_| rng.random_range(-1.0f64..1.0))
            .collect::<Vec<_>>();
        let n = 120;
        let op = ShiftedDense::new(s, false, at, 2e-3);
        let opts = CocgOptions {
            tol: 1e-8,
            max_iters: 3000,
            ..CocgOptions::default()
        };
        let b = Mat::from_col_major(n, 2, rhs);
        let bc = Mat::from_fn(n, 2, |i, c| C64::new(b[(i, c)], 0.0));
        let exact = mbrpa_linalg::solve(op.complex.matrix(), &bc).unwrap();
        let (xs, reports) = real_solve(&op, &b, None, &[0, 1], &opts);
        for c in 0..2 {
            assert!(reports[c].converged, "{:?}", reports[c]);
            assert!(
                reports[c].iterations > 60,
                "not a long solve: {:?}",
                reports[c]
            );
            let err = max_diff(&xs[c], exact.col(c).iter().map(|z| z.re));
            let bound = 10.0 * opts.tol * norm(b.col(c)) / op.sigma_min();
            assert!(
                err <= bound,
                "slot {c}: {err:e} from the dense solve, bound {bound:e}"
            );
        }
    });
}

/// The slots never mix: a column's `Re x`, iterations and matvecs are the
/// same bits lone, beside its neighbour, and in either slot beside any
/// other column of the block — what lets Alg. 4's probe carry the last
/// column. With and without the Galerkin guess, a zero right-hand side,
/// a column that converges in two steps beside ones that take many, and
/// a tolerance no column meets (every slot runs to the cap).
#[test]
fn a_column_solves_the_same_beside_any_partner() {
    check(48, |rng| {
        let n = [29, 40, 53][rng.random_range(0..3)];
        let s = symmetric_strategy(rng, n);
        let definite = rng.random::<bool>();
        let at = rng.random_range(0..n);
        let op = ShiftedDense::new(s, definite, at, rng.random_range(0.01..0.5));
        let w = 5;
        let mut b = Mat::from_fn(n, w, |_, _| rng.random_range(-1.0f64..1.0));
        b.col_mut(rng.random_range(0..w)).fill(0.0);
        let fast = rng.random_range(0..w);
        let (p, q) = (
            op.eig.vectors.col(2).to_vec(),
            op.eig.vectors.col(n - 3).to_vec(),
        );
        for (i, bi) in b.col_mut(fast).iter_mut().enumerate() {
            *bi = 0.6 * p[i] + 0.3 * q[i];
        }
        let opts = CocgOptions {
            tol: [1e-2, 1e-6, 0.0][rng.random_range(0..3)],
            max_iters: 40,
            ..CocgOptions::default()
        };
        let guess = rng.random::<bool>().then(|| {
            let k = n / 4;
            let psi = op.eig.vectors.columns(0, k);
            let mut g = Mat::zeros(n, 2 * w);
            galerkin_guess_real(&psi, &op.eig.values[..k], 0.0, op.omega, &b, &mut g);
            g
        });
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for c in 0..w {
            let (lone_x, lone) = real_solve(&op, &b, guess.as_ref(), &[c], &opts);
            let want = (bits(&lone_x[0]), lone[0].iterations, lone[0].matvecs);
            for d in (0..w).filter(|&d| d != c) {
                for (cols, slot) in [([c, d], 0), ([d, c], 1)] {
                    let (x, rep) = real_solve(&op, &b, guess.as_ref(), &cols, &opts);
                    let got = (bits(&x[slot]), rep[slot].iterations, rep[slot].matvecs);
                    assert!(
                        got == want,
                        "column {c} in slot {slot} beside {d}: {} iterations, {} matvecs \
                         against {} and {} lone, Re x equal: {}",
                        got.1,
                        got.2,
                        want.1,
                        want.2,
                        got.0 == want.0
                    );
                    assert_eq!(rep[slot].converged, lone[0].converged);
                }
            }
        }
    });
}

/// A zero right-hand side is solved by its guess with no step, as in
/// Alg. 3, and its history records the start: one entry per iteration
/// plus the start's, for a pair with one zero column (the zero in either
/// slot, with or without a guess) and for a zero block, as block COCG
/// keeps it.
#[test]
fn zero_right_hand_sides_record_the_start() {
    check(24, |rng| {
        let n = 30;
        let op = ShiftedDense::new(symmetric_strategy(rng, n), true, 0, 0.3);
        let mut b = Mat::from_fn(n, 3, |_, _| rng.random_range(-1.0f64..1.0));
        let zero = rng.random_range(0..2);
        b.col_mut(zero).fill(0.0);
        let guess = rng
            .random::<bool>()
            .then(|| Mat::from_fn(n, 6, |_, _| rng.random_range(-0.1f64..0.1)));
        let opts = CocgOptions {
            track_residuals: true,
            ..CocgOptions::with_tol(1e-8)
        };
        let (_, reports) = real_solve(&op, &b, guess.as_ref(), &[0, 1], &opts);
        for (slot, rep) in reports.iter().enumerate() {
            assert_eq!(
                rep.residual_history.len(),
                rep.iterations + 1,
                "slot {slot}: {rep:?}"
            );
        }
        assert_eq!(reports[zero].residual_history, [0.0]);
        assert!(reports[1 - zero].iterations > 0);
        let z = Mat::zeros(n, 3);
        let s = rng.random_range(1..4);
        let (_, rep) = real_block_solve(&op, &z, None, 0..s, &opts);
        assert!(rep.converged && rep.iterations == 0, "{rep:?}");
        assert_eq!(rep.residual_history.len(), rep.iterations + 1, "{rep:?}");
    });
}

/// The columns `cols` of `b` through the real block solve: `Re X` as a
/// matrix of the chunk's width, and the report.
fn real_block_solve(
    op: &ShiftedDense,
    b: &Mat<f64>,
    guess: Option<&Mat<f64>>,
    cols: std::ops::Range<usize>,
    opts: &CocgOptions,
) -> (Mat<f64>, SolveReport) {
    let start = cols.start;
    let mut out = Mat::from_fn(b.rows(), cols.len(), |_, _| f64::NAN);
    let mut ws = Workspace::new();
    let report = shifted_block_lanczos(op, b, guess, cols, opts, &mut ws, &mut |c, x, slot| {
        for (o, z) in out.col_mut(c - start).iter_mut().zip(x) {
            *o = if slot == 0 { z.re } else { z.im };
        }
    });
    (out, report)
}

/// "Same iterates", block edition: the real block solve stops where block
/// COCG stops, with its matvecs, and lands on its `Re X` and residual
/// history — widths 2..=9 (odd ones with an idle slot), definite and
/// singular-but-for-`iω` `R`, no guess or a complex guess `X₀ = A⁻¹G` for
/// a real `G` (so `Im W₀ = 0` and both start from the same residual), and
/// `tol = 0` running both to `max_iters`.
#[test]
fn real_block_solves_match_block_cocg() {
    check(64, |rng| {
        let n = [83, 120, 150][rng.random_range(0..3)];
        let s = rng.random_range(2usize..10);
        let op = ShiftedDense::new(
            symmetric_strategy(rng, n),
            rng.random_range(0..4) > 0,
            rng.random_range(0..n),
            rng.random_range(0.05..1.0),
        );
        let run_out = rng.random_range(0..3) == 0;
        let opts = CocgOptions {
            tol: if run_out {
                0.0
            } else {
                [1e-2, 1e-6][rng.random_range(0..2)]
            },
            max_iters: if run_out { rng.random_range(1..4) } else { 200 },
            track_residuals: true,
        };
        // the chunk sits inside a wider block, as Alg. 4's chunks do
        let w = s + 2;
        let b = Mat::from_fn(n, w, |_, _| rng.random_range(-1.0f64..1.0));
        let start = rng.random_range(0..3);
        let cols = start..start + s;
        let bc = Mat::from_fn(n, s, |i, c| C64::new(b[(i, start + c)], 0.0));
        let (guess_c, guess_r) = if rng.random::<bool>() {
            let g = Mat::from_fn(n, s, |i, c| {
                C64::new(
                    0.6 * b[(i, start + c)] + rng.random_range(-0.2f64..0.2),
                    0.0,
                )
            });
            let x0 = mbrpa_linalg::solve(op.complex.matrix(), &g).unwrap();
            let mut gr = Mat::zeros(n, 2 * w);
            for c in 0..s {
                for i in 0..n {
                    gr[(i, start + c)] = x0[(i, c)].re;
                    gr[(i, w + start + c)] = x0[(i, c)].im;
                }
            }
            (Some(x0), Some(gr))
        } else {
            (None, None)
        };
        let mut ws = Workspace::new();
        let (x, want) = block_cocg_ws(&op, &bc, guess_c.as_ref(), &opts, &mut ws);
        // short solves, clear of the end of the block Krylov space, where
        // what is left of either residual is rounding
        assume(want.breakdowns == 0 && want.iterations <= 25 && 2 * s * want.iterations <= n);
        let (got_x, got) = real_block_solve(&op, &b, guess_r.as_ref(), cols, &opts);
        let what = format!(
            "n {n}, s {s}, tol {:e}, guess {}",
            opts.tol,
            guess_r.is_some()
        );
        assert_eq!(got.iterations, want.iterations, "{what}: iterations");
        assert_eq!(got.matvecs, want.matvecs, "{what}: matvecs");
        assert_eq!(got.converged, want.converged, "{what}: converged");
        assert_eq!(got.breakdowns, 0, "{what}: breakdowns");
        assert_eq!(
            got.residual_history.len(),
            want.residual_history.len(),
            "{what}"
        );
        for (k, (g, r)) in got
            .residual_history
            .iter()
            .zip(&want.residual_history)
            .enumerate()
        {
            assert!(
                (g - r).abs() <= 1e-10 * r,
                "{what}: residual {k} is {g:e}, block COCG's {r:e}"
            );
        }
        let x_norm = x.fro_norm();
        let d = (0..s)
            .map(|c| max_diff(got_x.col(c), x.col(c).iter().map(|z| z.re)))
            .fold(0.0, f64::max);
        assert!(
            d <= 1e-10 * x_norm,
            "{what}: Re X off block COCG's by {d:e} (‖X‖ {x_norm:e})"
        );
    });
}

/// The real block solve of the columns `0..s` of `b`, `None` where it did
/// not break down, else the block's steps, held to the contract of a
/// restart: one breakdown; every column its lone pair solve's `Re x` bit
/// for bit, within `2·tol·‖b‖/σ_min` of the dense solve; the block's steps
/// and matvecs plus the pairs'; one history entry per iteration and the
/// start's, the last the solve's residual.
fn restarted_steps(
    op: &ShiftedDense,
    b: &Mat<f64>,
    guess: Option<&Mat<f64>>,
    opts: &CocgOptions,
) -> Option<usize> {
    let s = b.cols();
    let (x, got) = real_block_solve(op, b, guess, 0..s, opts);
    if got.breakdowns == 0 {
        return None;
    }
    let what = format!("s {s}, guess {}: {got:?}", guess.is_some());
    let bits = |v: &[f64]| v.iter().map(|z| z.to_bits()).collect::<Vec<_>>();
    let bc = b.map(|v| C64::new(v, 0.0));
    let exact = mbrpa_linalg::solve(op.complex.matrix(), &bc).expect("R + iω is nonsingular");
    let bound = 2.0 * opts.tol * b.fro_norm() / op.sigma_min();
    let (mut pair_iters, mut pair_matvecs) = (0, 0);
    for c in 0..s {
        let (lone, [rep, _]) = real_solve(op, b, guess, &[c], opts);
        assert!(rep.converged, "{what}: column {c} alone: {rep:?}");
        assert_eq!(bits(x.col(c)), bits(&lone[0]), "{what}: column {c}");
        let err = max_diff(x.col(c), exact.col(c).iter().map(|z| z.re));
        assert!(
            err <= bound,
            "{what}: column {c}: {err:e} from the dense solve, bound {bound:e}"
        );
        pair_iters = pair_iters.max(rep.iterations);
        pair_matvecs += rep.matvecs;
    }
    assert!(got.converged, "{what}");
    assert_eq!(got.breakdowns, 1, "{what}");
    let steps = got.iterations.checked_sub(pair_iters).expect(&what);
    let start = if guess.is_some() { s } else { 0 };
    assert_eq!(got.matvecs, start + s * steps + pair_matvecs, "{what}");
    assert_eq!(got.residual_history.len(), got.iterations + 1, "{what}");
    assert_eq!(
        got.residual_history.last(),
        Some(&got.relative_residual),
        "{what}"
    );
    Some(steps)
}

/// A rank-deficient start block — a repeated column, or a zero one — has
/// no QR: the real block solve breaks down before a step and restarts
/// every column as a Lanczos pair.
#[test]
fn rank_deficient_blocks_restart_as_pairs() {
    check(24, |rng| {
        let n = 40;
        let s = rng.random_range(2usize..6);
        let op = ShiftedDense::new(symmetric_strategy(rng, n), true, 0, 0.3);
        let mut b = Mat::from_fn(n, s, |_, _| rng.random_range(-1.0f64..1.0));
        let (c, d) = (rng.random_range(0..s), rng.random_range(0..s - 1));
        let d = if d >= c { d + 1 } else { d };
        if rng.random::<bool>() {
            let col = b.col(c).to_vec();
            b.col_mut(d).copy_from_slice(&col);
        } else {
            b.col_mut(c).fill(0.0);
        }
        let opts = CocgOptions {
            track_residuals: true,
            ..CocgOptions::with_tol(1e-8)
        };
        assert_eq!(restarted_steps(&op, &b, None, &opts), Some(0));
    });
}

/// A block whose Krylov space runs out mid-solve — every column in the
/// span of a few eigenvectors, more of them than one block holds — loses
/// its QR part-way and restarts every column as a Lanczos pair from the
/// start, with no guess or a complex one.
#[test]
fn exhausted_krylov_spaces_restart_mid_solve() {
    check(128, |rng| {
        let n = 40;
        let s = rng.random_range(2usize..6);
        let k = s + rng.random_range(1..s);
        let op = ShiftedDense::new(symmetric_strategy(rng, n), true, 0, 0.3);
        let mut picked: Vec<usize> = (0..n).collect();
        for l in 0..k {
            picked.swap(l, rng.random_range(l..n));
        }
        let coef = Mat::from_fn(k, s, |_, _| rng.random_range(-1.0f64..1.0));
        let b = Mat::from_fn(n, s, |i, c| {
            (0..k)
                .map(|l| coef[(l, c)] * op.eig.vectors[(i, picked[l])])
                .sum()
        });
        let opts = CocgOptions {
            track_residuals: true,
            ..CocgOptions::with_tol(1e-10)
        };
        // or from X₀ = A⁻¹(0.6·B), complex, whose residual stays in the span
        let guess = rng.random::<bool>().then(|| {
            let bc = b.map(|v| C64::new(0.6 * v, 0.0));
            let x0 = mbrpa_linalg::solve(op.complex.matrix(), &bc).unwrap();
            Mat::from_fn(n, 2 * s, |i, c| {
                let z = x0[(i, c % s)];
                if c < s {
                    z.re
                } else {
                    z.im
                }
            })
        });
        // a column of U that is rounding alone passes the equilibrated rank
        // test, and the recurrence runs on past it: no restart to check
        assume(restarted_steps(&op, &b, guess.as_ref(), &opts).is_some());
    });
}

/// A `Δ_k` with no LU restarts as well. `R = diag(±(1 + 0.1·l))`, the two
/// signs of each magnitude side by side, and `b₁ = e₀ + e₁` give
/// `b₁ᵀRb₁ = 0`; with `b₂` kept off `e₀` and `e₁`, `V₁ = [b₁/√2, b₂/‖b₂‖]`
/// and `α₁ = diag(0, ·)`, so `Δ₁ = α₁ + iω` has a pivot ratio of about
/// `ω`, under the breakdown floor at `ω = 1e-15`: the first step stops on
/// it. The pairs, whose pivots keep `Im δ_k ≥ ω`, finish the solve.
#[test]
fn singular_pivot_blocks_restart_as_pairs() {
    check(8, |rng| {
        let n = 40;
        let r = Mat::from_fn(n, n, |i, j| {
            let mag = 1.0 + 0.1 * (i / 2) as f64;
            match (i == j, i % 2) {
                (false, _) => 0.0,
                (true, 0) => mag,
                (true, _) => -mag,
            }
        });
        let op = ShiftedDense::shifted(r, 1e-15);
        let b = Mat::from_fn(n, 2, |i, c| match (c, i) {
            (0, 0 | 1) | (1, 2) => 1.0,
            (1, 3..) => rng.random_range(-1e-3f64..1e-3),
            _ => 0.0,
        });
        let opts = CocgOptions {
            track_residuals: true,
            ..CocgOptions::with_tol(1e-8)
        };
        assert_eq!(restarted_steps(&op, &b, None, &opts), Some(1));
    });
}

/// The real Galerkin guess is the complex one, bit for bit: a chunk
/// Alg. 3 solves starts from the guess it always started from.
#[test]
fn real_guess_equals_the_complex_one_bit_for_bit() {
    // 1100 rows: the Gram product sums in row panels
    for (n, k, w) in [(37usize, 5usize, 3usize), (1100, 9, 6), (64, 16, 48)] {
        let mut state = 0x9e37u64 + n as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let psi = Mat::from_fn(n, k, |_, _| next());
        let energies: Vec<f64> = (0..k).map(|m| -1.0 + 0.3 * m as f64).collect();
        let b = Mat::from_fn(n, w, |_, _| next());
        let bc = Mat::from_fn(n, w, |i, c| C64::new(b[(i, c)], 0.0));
        let want = galerkin_guess(&psi, &energies, -0.4, 0.07, &bc);
        let mut got = Mat::from_fn(n, 2 * w, |_, _| f64::NAN);
        galerkin_guess_real(&psi, &energies, -0.4, 0.07, &b, &mut got);
        for c in 0..w {
            for i in 0..n {
                assert_eq!(
                    got[(i, c)].to_bits(),
                    want[(i, c)].re.to_bits(),
                    "Re ({i}, {c}) of {n}×{w}"
                );
                assert_eq!(
                    got[(i, w + c)].to_bits(),
                    want[(i, c)].im.to_bits(),
                    "Im ({i}, {c}) of {n}×{w}"
                );
            }
        }
    }
}

/// Block COCG residuals actually meet the requested tolerance.
#[test]
fn block_cocg_meets_tolerance() {
    check(24, |rng| {
        let op = operator_strategy(rng, 20);
        let b = rhs_strategy(rng, 20, 3);
        let opts = CocgOptions::with_tol(1e-8);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        assume(rep.converged);
        assert!(true_relative_residual(&op, &b, &x) < 1e-6);
    });
}

/// The solution is actually A⁻¹B: verify against a direct dense solve.
#[test]
fn block_cocg_matches_direct_solve() {
    check(24, |rng| {
        let op = operator_strategy(rng, 16);
        let b = rhs_strategy(rng, 16, 2);
        let opts = CocgOptions::with_tol(1e-11);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        assume(rep.converged);
        let x_direct = mbrpa_linalg::solve(op.matrix(), &b).unwrap();
        assert!(x.max_abs_diff(&x_direct) < 1e-7);
    });
}

/// Linearity: solving for B1+B2 equals the sum of the solutions.
#[test]
fn solver_linearity() {
    check(24, |rng| {
        let op = operator_strategy(rng, 14);
        let b1 = rhs_strategy(rng, 14, 1);
        let b2 = rhs_strategy(rng, 14, 1);
        let opts = CocgOptions::with_tol(1e-11);
        let (x1, r1) = block_cocg(&op, &b1, None, &opts);
        let (x2, r2) = block_cocg(&op, &b2, None, &opts);
        assume(r1.converged && r2.converged);
        let mut bsum = b1.clone();
        bsum.axpy(C64::new(1.0, 0.0), &b2);
        let (xs, rs) = block_cocg(&op, &bsum, None, &opts);
        assume(rs.converged);
        let (x1, x2, xs) = (x1.col(0), x2.col(0), xs.col(0));
        for i in 0..14 {
            assert!((xs[i] - (x1[i] + x2[i])).norm() < 1e-6);
        }
    });
}

/// The thread's warm pool and a fresh workspace give the same solve —
/// not one bit apart, converged or not: no pooled buffer is read
/// before it is written.
#[test]
fn pooled_and_fresh_workspaces_agree() {
    check(24, |rng| {
        let op = operator_strategy(rng, 12);
        let b = rhs_strategy(rng, 12, 2);
        let opts = CocgOptions::with_tol(1e-10);
        let (x1, r1) = block_cocg(&op, &b, None, &opts);
        let (x2, r2) = block_cocg_ws(&op, &b, None, &opts, &mut Workspace::new());
        assert_eq!(r1.iterations, r2.iterations);
        for (a, c) in x1.as_slice().iter().zip(x2.as_slice()) {
            assert_eq!(a.re.to_bits(), c.re.to_bits());
            assert_eq!(a.im.to_bits(), c.im.to_bits());
        }
    });
}

/// An operator that starts returning NaN, Inf or zeros mid-solve ends
/// the solve flagged unconverged with a finite iterate — no panic (the
/// debug assertions of a test build included), no NaN handed back —
/// and a residual history of one entry per iteration and the start's,
/// at widths 1, 2 and 4.
#[test]
fn operator_faults_end_unconverged_and_finite() {
    check(24, |rng| {
        let op = operator_strategy(rng, 18);
        let b = rhs_strategy(rng, 18, 4);
        let from_call = rng.random_range(0usize..4);
        let kind = rng.random_range(0usize..3);
        let poison = [
            C64::new(f64::NAN, 0.0),
            C64::new(0.0, f64::INFINITY),
            C64::new(0.0, 0.0),
        ][kind];
        for s in [1usize, 2, 4] {
            let faulty = FaultyOperator {
                inner: op.clone(),
                calls: AtomicUsize::new(0),
                from_call,
                poison,
            };
            let opts = CocgOptions {
                tol: 1e-12,
                max_iters: 60,
                track_residuals: true,
            };
            let (x, rep) = block_cocg_ws(
                &faulty,
                &b.columns(0, s),
                None,
                &opts,
                &mut Workspace::new(),
            );
            assert!(!rep.converged, "s={s} kind={kind}: {rep:?}");
            assert!(!x.has_bad_values(), "s={s} kind={kind}: non-finite iterate");
            assert!(rep.iterations <= opts.max_iters + 1);
            // a solve that breaks off still records where it stopped
            assert_eq!(
                rep.residual_history.len(),
                rep.iterations + 1,
                "s={s} kind={kind}"
            );
        }
    });
}

/// Two identical right-hand sides make every Gram matrix singular: the
/// block breaks down until the half-split recursion separates them,
/// and the halves' solutions still solve the block.
#[test]
fn half_split_recovers_from_dependent_columns() {
    check(24, |rng| {
        let op = operator_strategy(rng, 16);
        let b = rhs_strategy(rng, 16, 2);
        let mut twins = Mat::zeros(16, 4);
        twins.set_columns(0, &b);
        twins.set_columns(2, &b);
        let opts = CocgOptions {
            tol: 1e-9,
            track_residuals: true,
            ..CocgOptions::default()
        };
        let (x, rep) = block_cocg(&op, &twins, None, &opts);
        assert!(rep.breakdowns > MAX_BREAKDOWNS, "no breakdown: {rep:?}");
        assert_eq!(rep.residual_history.len(), rep.iterations + 1, "{rep:?}");
        assume(rep.converged);
        assert!(true_relative_residual(&op, &twins, &x) < 1e-7);
    });
}

/// Solving with the exact solution as guess converges immediately.
#[test]
fn exact_guess_converges_at_once() {
    check(24, |rng| {
        let op = operator_strategy(rng, 12);
        let b = rhs_strategy(rng, 12, 2);
        let opts = CocgOptions::with_tol(1e-10);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        assume(rep.converged);
        let (_, rep2) = block_cocg(&op, &b, Some(&x), &CocgOptions::with_tol(1e-7));
        assert!(rep2.converged);
        assert_eq!(rep2.iterations, 0);
    });
}

/// Solution of A(x) scaled: A(αB) has solution αX.
#[test]
fn scaling_equivariance() {
    check(24, |rng| {
        let op = operator_strategy(rng, 12);
        let b = rhs_strategy(rng, 12, 1);
        let scale = rng.random_range(0.5f64..3.0);
        let opts = CocgOptions::with_tol(1e-11);
        let (x, r) = block_cocg(&op, &b, None, &opts);
        assume(r.converged);
        let bs = b.map(|z| z.scale(scale));
        let (xs, rs) = block_cocg(&op, &bs, None, &opts);
        assume(rs.converged);
        let (x, xs) = (x.col(0), xs.col(0));
        for i in 0..12 {
            assert!((xs[i] - x[i].scale(scale)).norm() < 1e-6 * (1.0 + x[i].norm()));
        }
    });
}

/// Residual reported by the recurrence is close to the true residual.
#[test]
fn reported_residual_is_honest() {
    check(24, |rng| {
        let op = operator_strategy(rng, 16);
        let b = rhs_strategy(rng, 16, 2);
        let opts = CocgOptions::with_tol(1e-7);
        let (x, rep) = block_cocg(&op, &b, None, &opts);
        assume(rep.converged);
        let true_res = true_relative_residual(&op, &b, &x);
        assert!((true_res - rep.relative_residual).abs() < 1e-4);
    });
}

/// matmul sanity used by the strategies (kept here to exercise the public
/// API from an integration-test context).
#[test]
fn dense_operator_is_its_matrix() {
    let a = Mat::from_fn(5, 5, |i, j| C64::new((i + 2 * j) as f64, (j as f64) - 1.0));
    let op = DenseOperator::new(a.clone());
    let b = Mat::from_fn(5, 2, |i, j| C64::new(i as f64, j as f64));
    let mut out = Mat::zeros(5, 2);
    use mbrpa_solver::LinearOperator;
    op.apply_block(&b, &mut out);
    let expect = matmul(&a, &b);
    assert!(out.max_abs_diff(&expect) < 1e-12);
}
