//! The dielectric operator `ν½χ⁰(iω)ν½` applied through Sternheimer solves
//! (Algorithm 7 of the paper) with the worker partition of §III-D.
//!
//! One application, per worker owning a column range of `V`:
//!
//! 1. `V ← ν½V` (spectral Poisson machinery; no communication),
//! 2. for each occupied orbital `j`: solve the complex-symmetric block
//!    system `(H − λ_j I + iω I) Y_j = −V ⊙ Ψ_j` under the dynamic
//!    block-size policy (Algorithms 3 + 4), seeded by the Galerkin guess of
//!    Eq. 13 — the right-hand sides are real and only `Re Y_j` is wanted,
//!    so every chunk runs Alg. 3's iterates in real arithmetic on
//!    `H − λ_j` (`mbrpa_solver::shifted_lanczos`): width-1 chunks as real
//!    Lanczos pairs, wider ones as real block Lanczos,
//! 3. accumulate `χ⁰V = 4 Re Σ_j Ψ_j ⊙ Y_j` (Eq. 5),
//! 4. `V ← ν½V`, still on the worker's own columns; the merge of the
//!    workers' column ranges is a copy.
//!
//! A worker is not a thread. The apply runs one task per (column range,
//! orbital), orbital-major, on the rayon pool, so whichever thread is free
//! takes the next orbital of any range and a thread woken late or a range
//! with costlier columns leaves no core idle. The first task to reach a
//! range makes its `ν½V` (step 1); each task adds its orbital's term of
//! step 3 to the range's accumulator in orbital order — straight in when
//! its orbital is next, else through a side buffer that joins in turn —
//! and the task that adds the last orbital runs step 4. The ranges, Alg.
//! 4's chunks, every iterate and the ledger are those of one task per
//! range running its orbitals in turn, bit for bit, on any thread count.
//!
//! The operator is real symmetric negative semi-definite, so the subspace
//! iteration above it runs entirely in real arithmetic.

use crate::cancel::CancelToken;
use crate::workers::partition_columns;
use mbrpa_dft::{Hamiltonian, SternheimerLinOp, SternheimerOperator};
use mbrpa_grid::CoulombOperator;
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{
    galerkin_guess_real, solve_shifted_real_rhs, BlockPolicy, CocgOptions, LinearOperator,
    WorkerStats,
};
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Least Sternheimer work (grid points × columns × occupied orbitals) each
/// column range must bring before a `χ⁰` apply fans its (range, orbital)
/// tasks out over rayon; with less, the same tasks run back to back on the
/// calling thread, in the same order and with the same arithmetic, every
/// orbital adding straight into its range's accumulator. 2¹⁴ is about 5 ms
/// of solves. A fan-out pays only once the pool's sleeping helper runs on
/// a core of its own, and a helper the kernel wakes on the caller's core is
/// moved off it at a scheduler tick (4 ms at `HZ=250`): a task list shorter
/// than that ran on one core or on two depending on where the tick fell,
/// and the same job took 20 or 33 ms from one submission to the next
/// (EXPERIMENTS.md, "`solve_s` on `serve_mix`").
const MIN_FAN_OUT_WORK: usize = 1 << 14;

/// `f` over `items`, results in input order: across the pool when
/// `fan_out`, otherwise one after another on the calling thread.
fn map_tasks<T: Sync, R: Send>(items: &[T], fan_out: bool, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if fan_out {
        items.par_iter().map(f).collect()
    } else {
        items.iter().map(f).collect()
    }
}

/// Type of the `precondition` fields of [`SternheimerSettings`] and
/// `RpaConfig`. Every Sternheimer solve is unpreconditioned (the paper's
/// evaluated configuration; EXPERIMENTS.md has the measurement that
/// retired the §V preconditioner), so the fields select nothing. They
/// exist only because the frozen `crates/e2e/src/layers.rs` copies one
/// into the other in a struct literal; the `benchmark` issue that drops
/// that line drops this type with it (ROADMAP 2(c)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrecondPolicy {
    /// Plain block COCG / real Lanczos everywhere.
    Never,
}

/// Type of the `distribution` fields of [`SternheimerSettings`] and
/// `RpaConfig`. Every `χ⁰` apply uses the paper's §III-D static column
/// partition (EXPERIMENTS.md has the measurement that retired the §V
/// manager-worker distribution), so the fields select nothing. They exist
/// only because the frozen `crates/e2e/src/layers.rs` compares one with
/// `StaticColumns` and copies it into the other in a struct literal; the
/// `benchmark` issue that drops those lines drops this type with it
/// (ROADMAP 1(d)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkDistribution {
    /// Each of `p` workers owns `n_eig/p` columns for every orbital.
    StaticColumns,
}

/// Sternheimer solver settings shared by all workers.
#[derive(Clone, Copy, Debug)]
pub struct SternheimerSettings {
    /// `τ_Sternheimer` of Eq. 10.
    pub tol: f64,
    /// COCG iteration cap per solve.
    pub max_iters: usize,
    /// Block-size policy (Algorithm 4 variants or fixed).
    pub policy: BlockPolicy,
    /// Use the Galerkin initial guess (Eq. 13).
    pub use_galerkin_guess: bool,
    /// Selects nothing; see [`PrecondPolicy`].
    pub precondition: PrecondPolicy,
    /// Selects nothing; see [`WorkDistribution`].
    pub distribution: WorkDistribution,
}

impl Default for SternheimerSettings {
    fn default() -> Self {
        Self {
            tol: 1e-2,
            max_iters: 600,
            policy: BlockPolicy::DynamicCostModel,
            use_galerkin_guess: true,
            precondition: PrecondPolicy::Never,
            distribution: WorkDistribution::StaticColumns,
        }
    }
}

/// The one record of the Sternheimer work a [`DielectricOperator`] has
/// done, filled by the merge after each apply.
#[derive(Clone, Debug)]
pub(crate) struct Ledger {
    /// Statistics per column range, whichever threads ran its orbitals;
    /// their solve times are the per-rank load profile behind the
    /// paper's load-imbalance discussion (§III-D, §V).
    pub(crate) workers: Vec<WorkerStats>,
    /// Columns applied.
    pub(crate) applications: usize,
    /// Krylov iterations per occupied orbital, over every worker and
    /// apply.
    pub(crate) orbital_iterations: Vec<usize>,
}

impl Ledger {
    /// The worker slots' statistics merged.
    pub(crate) fn stats(&self) -> WorkerStats {
        let mut all = WorkerStats::new();
        for w in &self.workers {
            all.merge(w);
        }
        all
    }
}

/// Matrix-free `ν½χ⁰(iω)ν½` at one quadrature frequency.
pub struct DielectricOperator<'a> {
    ham: &'a Hamiltonian,
    /// Doubly occupied orbitals `Ψ ∈ ℝ^{n_d × n_s}`.
    psi: &'a Mat<f64>,
    /// Orbital energies, ascending, matching `psi` columns.
    energies: &'a [f64],
    coulomb: &'a CoulombOperator,
    omega: f64,
    settings: SternheimerSettings,
    n_workers: usize,
    ledger: Mutex<Ledger>,
    /// Cooperative cancellation, observed between per-orbital Sternheimer
    /// solves. A cancelled application returns a truncated (garbage)
    /// block; this is sound because every caller that could observe it
    /// sees the same one-way token and discards the result (see
    /// [`crate::cancel`]).
    cancel: Option<CancelToken>,
}

impl<'a> DielectricOperator<'a> {
    /// Build the closed-shell operator for frequency `ω > 0` (doubly
    /// occupied orbitals — the paper's configuration).
    pub fn new(
        ham: &'a Hamiltonian,
        psi: &'a Mat<f64>,
        energies: &'a [f64],
        coulomb: &'a CoulombOperator,
        omega: f64,
        settings: SternheimerSettings,
        n_workers: usize,
    ) -> Self {
        assert_eq!(psi.rows(), ham.dim(), "orbital grid mismatch");
        assert_eq!(psi.cols(), energies.len(), "orbital count mismatch");
        assert!(omega > 0.0, "ω must be positive (ω → 0 is singular)");
        assert!(n_workers >= 1);
        Self {
            ham,
            psi,
            energies,
            coulomb,
            omega,
            settings,
            n_workers,
            ledger: Mutex::new(Ledger {
                workers: vec![WorkerStats::new(); n_workers],
                applications: 0,
                orbital_iterations: vec![0; energies.len()],
            }),
            cancel: None,
        }
    }

    /// Attach a cooperative [`CancelToken`], observed between per-orbital
    /// Sternheimer solves so a cancel lands within one solve's latency
    /// instead of one full operator application.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Frequency `ω`.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    fn lock_ledger(&self) -> MutexGuard<'_, Ledger> {
        // lint: allow(unwrap) — a poisoned mutex means a worker already crashed; abort loudly
        self.ledger.lock().expect("ledger mutex poisoned")
    }

    /// Snapshot of the ledger.
    pub(crate) fn ledger(&self) -> Ledger {
        self.lock_ledger().clone()
    }

    /// Snapshot of the merged worker statistics accumulated so far.
    // lint: allow(unreached_pub) — read by tests/failure_modes.rs and chi0_alloc
    pub fn stats_snapshot(&self) -> WorkerStats {
        self.lock_ledger().stats()
    }

    /// Total single-column operator applications so far.
    pub fn applications(&self) -> usize {
        self.lock_ledger().applications
    }

    /// Has the attached [`CancelToken`] (if any) been set? The operator
    /// is the one holder of the token below the RPA driver: the subspace
    /// iteration asks here at its own boundaries.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// One orbital's contribution to `χ⁰V` for a set of columns
    /// (one line of Eq. 6 plus its share of Eq. 5): solves
    /// `(H − λ_j + iω) Y_j = −V ⊙ Ψ_j` and adds `4·Re(Ψ_j ⊙ Y_j)` to
    /// `acc` (the range's accumulator or a side buffer), each column
    /// straight from the iterate of the chunk that solved it. `b` (the
    /// shape of `v`) and `guess` (twice as wide, `[Re Y₀ | Im Y₀]`) are
    /// the range's buffers, overwritten here and handed from orbital to
    /// orbital; a warm call allocates nothing (`tests/chi0_alloc.rs`).
    fn orbital_contribution(
        &self,
        j: usize,
        v: &Mat<f64>,
        b: &mut Mat<f64>,
        guess: &mut Mat<f64>,
        acc: &mut Mat<f64>,
        stats: &mut WorkerStats,
    ) {
        // Early-exit between Sternheimer solves: `acc` is left truncated,
        // which is sound because the one-way token guarantees every
        // downstream consumer observes the cancellation and discards the
        // whole application (see `crate::cancel`).
        if self.cancel_requested() {
            return;
        }
        let cocg_opts = CocgOptions {
            tol: self.settings.tol,
            max_iters: self.settings.max_iters,
            ..CocgOptions::default()
        };
        let (psi_j, lambda) = (self.psi.col(j), self.energies[j]);
        // B = −V ⊙ Ψ_j
        for c in 0..v.cols() {
            for ((bi, &vi), &pi) in b.col_mut(c).iter_mut().zip(v.col(c)).zip(psi_j) {
                *bi = -vi * pi;
            }
        }
        let guess = if self.settings.use_galerkin_guess {
            galerkin_guess_real(self.psi, self.energies, lambda, self.omega, b, guess);
            Some(&*guess)
        } else {
            None
        };
        let stern = SternheimerLinOp::new(SternheimerOperator::new(self.ham, lambda, self.omega));
        // 4·Re(Ψ_j ⊙ Y_j): the ± iω conjugate-pair combination gives a 2,
        // the double occupancy of a closed shell the other 2
        solve_shifted_real_rhs(
            &stern,
            b,
            guess,
            &cocg_opts,
            self.settings.policy,
            stats,
            &mut |col, y: &[C64], slot| {
                let terms = acc.col_mut(col).iter_mut().zip(psi_j).zip(y);
                if slot == 0 {
                    terms.for_each(|((a, &p), yi)| *a += 4.0 * p * yi.re);
                } else {
                    terms.for_each(|((a, &p), yi)| *a += 4.0 * p * yi.im);
                }
            },
        );
    }

    /// `χ⁰V` over the worker partition (no `ν½` factors), for the
    /// direct-comparison tests.
    // lint: allow(unreached_pub) — checked by sternheimer_vs_adler_wiser, chi0_alloc, failure_modes
    pub fn apply_chi0_block(&self, v: &Mat<f64>) -> Mat<f64> {
        self.partitioned_apply(v, false)
    }

    /// `(ν½χ⁰ν½)V` over the worker partition (Algorithm 7 complete).
    pub fn apply_dielectric_block(&self, v: &Mat<f64>) -> Mat<f64> {
        self.partitioned_apply(v, true)
    }

    fn partitioned_apply(&self, v: &Mat<f64>, with_nu_sqrt: bool) -> Mat<f64> {
        let n = self.ham.dim();
        assert_eq!(v.rows(), n);
        let cols = v.cols();
        let n_s = self.energies.len();
        // The span lives on the calling thread (nested under the filter or
        // projection that requested the product); worker-side metrics are
        // flat counters flushed per task.
        let _stern_span = mbrpa_obs::span("sternheimer");

        // §III-D's column ranges; one task per (range, orbital), orbital-major
        let ranges = partition_columns(cols, self.n_workers);
        let slots = ranges.len();
        let works: Vec<RangeWork> = ranges
            .iter()
            .map(|range| RangeWork::new(n, range.count, n_s))
            .collect();
        let tasks: Vec<(usize, usize)> = (0..n_s)
            .flat_map(|j| (0..slots).map(move |r| (r, j)))
            .collect();
        // whether `slots` concurrent tasks each get enough of this apply
        let fan_out = n * cols * n_s >= slots * MIN_FAN_OUT_WORK;
        // Register the tasks that can run at once with the shared
        // nested-parallelism guard: inner block applies and GEMMs under
        // them see the reduced `inner_slots()` budget instead of
        // oversubscribing the pool.
        let _outer = mbrpa_grid::par::outer_scope(if fan_out { tasks.len() } else { slots });

        let spares = Mutex::new(Spares::default());
        map_tasks(&tasks, fan_out, |&(r, j)| {
            let (range, work) = (&ranges[r], &works[r]);
            // Algorithm 7 line 2 on this range's columns, once
            let local = work.local.get_or_init(|| {
                let mut local = v.columns(range.start, range.count);
                if with_nu_sqrt {
                    self.coulomb.apply_nu_sqrt_block(&mut local);
                }
                local
            });
            // lines 3–6 for orbital j
            let mut scratch = lock(&spares).scratch(n, range.count);
            let mut target = lock(&work.fold).begin(j, &spares);
            let Scratch { b, guess, stats } = &mut scratch;
            self.orbital_contribution(j, local, b, guess, &mut target.buf, stats);
            let mut fold = lock(&work.fold);
            if fold.finish(j, target, stats, &spares) && with_nu_sqrt {
                // line 7 on the same columns: `ν½` acts column by column,
                // so these are the bits a `ν½` of the merged block gives
                if let Some(acc) = fold.acc.as_mut() {
                    self.coulomb.apply_nu_sqrt_block(acc);
                }
            }
            drop(fold);
            lock(&spares).give(scratch);
            mbrpa_obs::flush_thread();
        });
        // the solve buffers go before the merge allocates the result
        drop(spares);

        let mut result = Mat::zeros(n, cols);
        let mut ledger = self.lock_ledger();
        for (w, (range, work)) in ranges.iter().zip(works).enumerate() {
            let fold = work.fold.into_inner().unwrap_or_else(|e| e.into_inner());
            let span = range.start * n..(range.start + range.count) * n;
            // lint: allow(unwrap) — every orbital of the range was folded above
            let acc = fold.acc.expect("the range's accumulator is home");
            result.as_mut_slice()[span].copy_from_slice(acc.as_slice());
            ledger.workers[w].merge(&fold.stats);
            for (total, it) in ledger
                .orbital_iterations
                .iter_mut()
                .zip(&fold.orbital_iterations)
            {
                *total += it;
            }
        }
        ledger.applications += cols;
        result
    }
}

/// A mutex of the apply's own, held for a few buffer moves at a time.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint: allow(unwrap) — a poisoned mutex means a task already crashed; abort loudly
    m.lock().expect("χ⁰ task mutex poisoned")
}

/// One column range's share of an apply: its `ν½V` columns, made by the
/// first task that reaches the range, and the fold its orbitals' tasks
/// add to.
struct RangeWork {
    local: OnceLock<Mat<f64>>,
    fold: Mutex<Fold>,
}

impl RangeWork {
    fn new(n: usize, count: usize, n_s: usize) -> Self {
        Self {
            local: OnceLock::new(),
            fold: Mutex::new(Fold::new(n, count, n_s)),
        }
    }
}

/// The buffers one orbital's solve works in: the right-hand sides, the
/// Galerkin guess and the statistics.
struct Scratch {
    b: Mat<f64>,
    guess: Mat<f64>,
    stats: WorkerStats,
}

/// `m` as a `rows × cols` block, its storage kept where it is large
/// enough; the entries are left as they were.
fn shaped(m: Mat<f64>, rows: usize, cols: usize) -> Mat<f64> {
    if m.shape() == (rows, cols) {
        return m;
    }
    let mut data = m.into_vec();
    data.resize(rows * cols, 0.0);
    Mat::from_col_major(rows, cols, data)
}

/// The buffers the tasks of one apply hand on to each other: as many
/// solve buffers as tasks ran at once, and the side buffers of orbitals
/// that finished out of turn. A warm apply allocates none per orbital
/// (`tests/chi0_alloc.rs`); on one thread no side buffer is made.
#[derive(Default)]
struct Spares {
    scratch: Vec<Scratch>,
    sides: Vec<Mat<f64>>,
}

impl Spares {
    /// Solve buffers for a range of `cols` columns, empty statistics.
    fn scratch(&mut self, rows: usize, cols: usize) -> Scratch {
        match self.scratch.pop() {
            Some(Scratch { b, guess, stats }) => Scratch {
                b: shaped(b, rows, cols),
                guess: shaped(guess, rows, 2 * cols),
                stats,
            },
            None => Scratch {
                b: Mat::zeros(rows, cols),
                guess: Mat::zeros(rows, 2 * cols),
                stats: WorkerStats::new(),
            },
        }
    }

    fn give(&mut self, mut scratch: Scratch) {
        scratch.stats.clear();
        self.scratch.push(scratch);
    }

    /// A zeroed `rows × cols` side buffer.
    fn side(&mut self, rows: usize, cols: usize) -> Mat<f64> {
        match self.sides.pop() {
            Some(side) => {
                let mut side = shaped(side, rows, cols);
                side.fill(0.0);
                side
            }
            None => Mat::zeros(rows, cols),
        }
    }
}

/// Where one orbital's `4·Re(Ψ_j ⊙ Y_j)` is added: the range's
/// accumulator, when the orbital is the next one it takes, or a zeroed
/// side buffer that joins it in turn.
struct Target {
    buf: Mat<f64>,
    is_acc: bool,
}

/// The orbital-order fold of one range's contributions. The accumulator
/// takes orbital `j` only after every orbital before it, so its bits do
/// not depend on which thread ran which orbital, or when: a side buffer
/// holds `c = 0 + 4pY` and the accumulator, which starts at `+0` and
/// never holds `−0`, adds it as `acc + c`, the bits of `acc += 4pY`.
struct Fold {
    /// `Σ_{j < next} 4·Re(Ψ_j ⊙ Y_j)`; out (`None`) while orbital
    /// `next`'s task adds into it straight.
    acc: Option<Mat<f64>>,
    /// The accumulator's shape, a side buffer's too.
    rows: usize,
    cols: usize,
    /// The orbital the accumulator takes next.
    next: usize,
    /// Later orbitals' contributions that finished first.
    parked: Vec<(usize, Mat<f64>)>,
    /// The range's share of the ledger.
    stats: WorkerStats,
    orbital_iterations: Vec<usize>,
}

impl Fold {
    fn new(n: usize, count: usize, n_s: usize) -> Self {
        Self {
            acc: Some(Mat::zeros(n, count)),
            rows: n,
            cols: count,
            next: 0,
            parked: Vec::new(),
            stats: WorkerStats::new(),
            orbital_iterations: vec![0; n_s],
        }
    }

    /// Where orbital `j` adds its contribution.
    fn begin(&mut self, j: usize, spares: &Mutex<Spares>) -> Target {
        match self.acc.take_if(|_| j == self.next) {
            Some(buf) => Target { buf, is_acc: true },
            None => {
                let buf = lock(spares).side(self.rows, self.cols);
                Target { buf, is_acc: false }
            }
        }
    }

    /// Take back orbital `j`'s target and statistics: its contribution
    /// joins the accumulator now if every earlier one has, or waits for
    /// them. Returns whether the accumulator holds every orbital now.
    fn finish(
        &mut self,
        j: usize,
        target: Target,
        stats: &WorkerStats,
        spares: &Mutex<Spares>,
    ) -> bool {
        self.orbital_iterations[j] = stats.iterations;
        self.stats.merge(stats);
        if target.is_acc {
            self.acc = Some(target.buf);
            self.next += 1;
        } else {
            self.parked.push((j, target.buf));
        }
        // the orbitals that are next and waiting, in order
        while let Some(acc) = self.acc.as_mut() {
            let Some(at) = self.parked.iter().position(|&(k, _)| k == self.next) else {
                break;
            };
            let (_, side) = self.parked.swap_remove(at);
            for (a, &c) in acc.as_mut_slice().iter_mut().zip(side.as_slice()) {
                *a += c;
            }
            lock(spares).sides.push(side);
            self.next += 1;
        }
        self.next == self.orbital_iterations.len()
    }
}

impl LinearOperator<f64> for DielectricOperator<'_> {
    fn dim(&self) -> usize {
        self.ham.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let xm = Mat::col_vector(x.to_vec());
        let out = self.apply_dielectric_block(&xm);
        y.copy_from_slice(out.col(0));
    }

    fn apply_block(&self, x: &Mat<f64>, y: &mut Mat<f64>) {
        let out = self.apply_dielectric_block(x);
        *y = out;
    }

    fn apply_flops(&self) -> usize {
        // dominated by the Sternheimer solves: n_s systems × iterations;
        // a rough per-column estimate for scheduling heuristics only
        self.energies.len() * 20 * self.ham.apply_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_dft::{solve_occupied_dense, PotentialParams, SiliconSpec};
    use mbrpa_grid::SpectralLaplacian;
    use std::time::Duration;

    /// Small fixture shared by the operator tests: a 2-atom-scale crystal
    /// is too big; use a 5³ grid with a handful of orbitals.
    struct Fixture {
        ham: Hamiltonian,
        psi: Mat<f64>,
        energies: Vec<f64>,
        coulomb: CoulombOperator,
    }

    fn fixture() -> Fixture {
        let crystal = SiliconSpec {
            points_per_cell: 5,
            perturbation: 0.03,
            seed: 11,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let n_s = 6; // fewer than the physical 16 to keep the test fast
        let ks = solve_occupied_dense(&ham, n_s, 0).unwrap();
        let spec = SpectralLaplacian::new(crystal.grid, 2).unwrap();
        Fixture {
            psi: ks.occupied_orbitals(),
            energies: ks.occupied_energies().to_vec(),
            ham,
            coulomb: CoulombOperator::new(spec),
        }
    }

    fn op<'a>(f: &'a Fixture, omega: f64, workers: usize) -> DielectricOperator<'a> {
        DielectricOperator::new(
            &f.ham,
            &f.psi,
            &f.energies,
            &f.coulomb,
            omega,
            SternheimerSettings {
                tol: 1e-8,
                ..SternheimerSettings::default()
            },
            workers,
        )
    }

    #[test]
    fn chi0_output_is_real_and_finite() {
        let f = fixture();
        let d = op(&f, 1.0, 1);
        let n = f.ham.dim();
        let v = Mat::from_fn(n, 2, |i, j| ((i * 7 + j) % 13) as f64 * 0.1 - 0.6);
        let out = d.apply_chi0_block(&v);
        assert_eq!(out.shape(), (n, 2));
        assert!(!out.has_bad_values());
        assert!(out.fro_norm() > 0.0);
    }

    #[test]
    fn operator_is_symmetric() {
        // uᵀ(ν½χ⁰ν½)v == vᵀ(ν½χ⁰ν½)u
        let f = fixture();
        let d = op(&f, 0.8, 1);
        let n = f.ham.dim();
        let u = Mat::from_fn(n, 1, |i, _| ((i % 17) as f64 - 8.0) * 0.07);
        let v = Mat::from_fn(n, 1, |i, _| ((i % 11) as f64 - 5.0) * 0.09);
        let au = d.apply_dielectric_block(&u);
        let av = d.apply_dielectric_block(&v);
        let uav: f64 = u.col(0).iter().zip(av.col(0)).map(|(a, b)| a * b).sum();
        let vau: f64 = v.col(0).iter().zip(au.col(0)).map(|(a, b)| a * b).sum();
        assert!(
            (uav - vau).abs() < 1e-6 * (1.0 + uav.abs()),
            "{uav} vs {vau}"
        );
    }

    #[test]
    fn operator_is_negative_semidefinite() {
        let f = fixture();
        let d = op(&f, 0.5, 1);
        let n = f.ham.dim();
        for seed in 0..3u64 {
            let v = Mat::from_fn(n, 1, |i, _| {
                (((i as u64).wrapping_mul(seed * 2 + 13) % 29) as f64 - 14.0) * 0.03
            });
            let av = d.apply_dielectric_block(&v);
            let quad: f64 = v.col(0).iter().zip(av.col(0)).map(|(a, b)| a * b).sum();
            assert!(quad <= 1e-8, "vᵀAv = {quad} must be ≤ 0");
        }
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let f = fixture();
        let n = f.ham.dim();
        let v = Mat::from_fn(n, 4, |i, j| ((i * 3 + j * 5) % 19) as f64 * 0.05 - 0.45);
        let d1 = op(&f, 0.7, 1);
        let d4 = op(&f, 0.7, 4);
        let o1 = d1.apply_dielectric_block(&v);
        let o4 = d4.apply_dielectric_block(&v);
        assert!(
            o1.max_abs_diff(&o4) < 1e-7,
            "partition must not change the math: {}",
            o1.max_abs_diff(&o4)
        );
    }

    #[test]
    fn fanned_out_apply_equals_its_workers_run_one_by_one() {
        // the other tests here sit below MIN_FAN_OUT_WORK and never leave
        // the calling thread; 48 columns over 2 workers go through the pool
        let f = fixture();
        let n = f.ham.dim();
        let cols = 48;
        assert!(n * cols * f.energies.len() >= 2 * MIN_FAN_OUT_WORK);
        let v = Mat::from_fn(n, cols, |i, j| ((i * 3 + j * 7) % 23) as f64 * 0.04 - 0.44);
        let pooled = op(&f, 0.7, 2).apply_dielectric_block(&v);
        for range in partition_columns(cols, 2) {
            let alone = op(&f, 0.7, 1).apply_dielectric_block(&v.columns(range.start, range.count));
            for c in 0..range.count {
                let same = pooled
                    .col(range.start + c)
                    .iter()
                    .zip(alone.col(c))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "column {} differs", range.start + c);
            }
        }
    }

    #[test]
    fn nu_sqrt_in_each_task_equals_nu_sqrt_of_the_merged_block() {
        // Algorithm 7's order as one block: ν½ on all of V, χ⁰ over the
        // partition, ν½ on the merged result; 48 columns fan out
        let f = fixture();
        let n = f.ham.dim();
        for (cols, workers) in [(7, 1), (7, 2), (7, 3), (7, 9), (48, 2)] {
            let v = Mat::from_fn(n, cols, |i, j| ((i * 5 + j * 3) % 21) as f64 * 0.05 - 0.5);
            let mut half = v.clone();
            f.coulomb.apply_nu_sqrt_block(&mut half);
            let mut want = op(&f, 0.6, workers).apply_chi0_block(&half);
            f.coulomb.apply_nu_sqrt_block(&mut want);
            let got = op(&f, 0.6, workers).apply_dielectric_block(&v);
            let bits = |m: &Mat<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&got) == bits(&want),
                "{cols} columns over {workers} workers"
            );
        }
    }

    #[test]
    fn oversubscribed_workers_clamp_to_column_count() {
        // far more workers than columns: the static partition must clamp
        // to one column per active worker (idle workers get nothing),
        // produce the single-worker answer, and keep the load ledger
        // sized to the configured (not clamped) worker count
        let f = fixture();
        let n = f.ham.dim();
        let v = Mat::from_fn(n, 2, |i, j| ((i * 5 + j * 3) % 17) as f64 * 0.06 - 0.48);
        let d1 = op(&f, 0.9, 1);
        let d64 = op(&f, 0.9, 64);
        let o1 = d1.apply_dielectric_block(&v);
        let o64 = d64.apply_dielectric_block(&v);
        assert!(
            o1.max_abs_diff(&o64) < 1e-7,
            "oversubscription changed the math: {}",
            o1.max_abs_diff(&o64)
        );
        let load = d64.ledger().workers;
        assert_eq!(load.len(), 64, "ledger keeps the configured width");
        // only the clamped workers can have accrued any solve time
        assert!(load[2..].iter().all(|w| w.solve_time.is_zero()));
    }

    #[test]
    fn galerkin_guess_reduces_solver_work() {
        let f = fixture();
        let n = f.ham.dim();
        let v = Mat::from_fn(n, 2, |i, j| ((i + j * 7) % 23) as f64 * 0.04 - 0.4);
        let with = DielectricOperator::new(
            &f.ham,
            &f.psi,
            &f.energies,
            &f.coulomb,
            0.3,
            SternheimerSettings {
                tol: 1e-6,
                use_galerkin_guess: true,
                ..SternheimerSettings::default()
            },
            1,
        );
        let without = DielectricOperator::new(
            &f.ham,
            &f.psi,
            &f.energies,
            &f.coulomb,
            0.3,
            SternheimerSettings {
                tol: 1e-6,
                use_galerkin_guess: false,
                ..SternheimerSettings::default()
            },
            1,
        );
        let _ = with.apply_dielectric_block(&v);
        let _ = without.apply_dielectric_block(&v);
        let iters_with = with.stats_snapshot().iterations;
        let iters_without = without.stats_snapshot().iterations;
        assert!(
            iters_with <= iters_without,
            "Eq. 13 guess should not increase iterations: {iters_with} vs {iters_without}"
        );
    }

    #[test]
    fn stats_and_counters_accumulate() {
        // the ledger alone, no telemetry: its parts agree after every apply
        let f = fixture();
        let n = f.ham.dim();
        let v = Mat::from_fn(n, 3, |i, j| ((i + j) % 7) as f64 * 0.1);
        for workers in 1..=3 {
            let d = op(&f, 1.2, workers);
            for applies in 1..=2 {
                let _ = d.apply_dielectric_block(&v);
                assert_eq!(d.applications(), 3 * applies);
                let s = d.stats_snapshot();
                // every column solved once per occupied orbital
                assert_eq!(s.block_sizes.total(), 3 * applies * f.energies.len());
                let ledger = d.ledger();
                assert_eq!(ledger.orbital_iterations.len(), f.energies.len());
                let per_orbital: usize = ledger.orbital_iterations.iter().sum();
                assert_eq!(per_orbital, s.iterations, "{workers} workers");
                assert_eq!(ledger.workers.len(), workers);
                let load = ledger.workers.iter().map(|w| w.solve_time);
                assert_eq!(load.sum::<Duration>(), s.solve_time);
            }
        }
    }

    /// `χ⁰V` rebuilt from the complex pieces — `galerkin_guess`, then
    /// `solve_multi_rhs` (Alg. 3 on every chunk) — over the same column
    /// partition, with the statistics those solves report.
    fn rebuilt_from_complex_pieces(
        f: &Fixture,
        v: &Mat<f64>,
        omega: f64,
        settings: SternheimerSettings,
        workers: usize,
    ) -> (Mat<f64>, WorkerStats) {
        use mbrpa_solver::{galerkin_guess, solve_multi_rhs};
        let n = f.ham.dim();
        let opts = CocgOptions {
            tol: settings.tol,
            max_iters: settings.max_iters,
            ..CocgOptions::default()
        };
        let mut out = Mat::zeros(n, v.cols());
        let mut stats = WorkerStats::new();
        for range in partition_columns(v.cols(), workers) {
            let local = v.columns(range.start, range.count);
            for (j, &lambda) in f.energies.iter().enumerate() {
                let psi_j = f.psi.col(j);
                let b = Mat::from_fn(n, range.count, |i, c| {
                    C64::new(-local[(i, c)] * psi_j[i], 0.0)
                });
                let guess = galerkin_guess(&f.psi, &f.energies, lambda, omega, &b);
                let stern = SternheimerLinOp::new(SternheimerOperator::new(&f.ham, lambda, omega));
                let y =
                    solve_multi_rhs(&stern, &b, Some(&guess), &opts, settings.policy, &mut stats);
                for c in 0..range.count {
                    for i in 0..n {
                        out[(i, range.start + c)] += 4.0 * psi_j[i] * y.solution[(i, c)].re;
                    }
                }
            }
        }
        (out, stats)
    }

    #[test]
    fn apply_equals_the_one_rebuilt_from_complex_solves_with_the_same_counts() {
        // width-1 chunks run as paired real Lanczos, the rest as real block
        // Lanczos: Alg. 3's iterates either way, so the same χ⁰V to
        // rounding and the same Table IV as complex block COCG, with pairs
        // (Fixed(1)), blocks (Fixed(2) but for its odd tail) and Alg. 4's mix
        let f = fixture();
        let n = f.ham.dim();
        let v = Mat::from_fn(n, 7, |i, j| ((i * 5 + j * 11) % 27) as f64 * 0.03 - 0.4);
        for policy in [
            BlockPolicy::Fixed(1),
            BlockPolicy::Fixed(2),
            BlockPolicy::DynamicCostModel,
        ] {
            for (workers, tol) in [(1, 1e-2), (2, 1e-2), (2, 1e-6)] {
                let settings = SternheimerSettings {
                    tol,
                    policy,
                    ..SternheimerSettings::default()
                };
                let d = DielectricOperator::new(
                    &f.ham,
                    &f.psi,
                    &f.energies,
                    &f.coulomb,
                    0.35,
                    settings,
                    workers,
                );
                let got = d.apply_chi0_block(&v);
                let (want, stats) = rebuilt_from_complex_pieces(&f, &v, 0.35, settings, workers);
                let what = format!("{policy:?}, {workers} workers, tol {tol:e}");
                assert!(
                    got.max_abs_diff(&want) < 1e-9 * want.max_abs().max(1.0),
                    "{what}: {}",
                    got.max_abs_diff(&want)
                );
                let s = d.stats_snapshot();
                assert_eq!(s.block_sizes, stats.block_sizes, "{what}");
                assert_eq!(
                    (s.iterations, s.matvecs, s.unconverged),
                    (stats.iterations, stats.matvecs, stats.unconverged),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn a_column_solves_the_same_beside_any_partner_on_the_hamiltonian() {
        // what lets Alg. 4's probe carry the last column: the slots of a
        // real Lanczos call never mix through the Sternheimer apply
        // (stencil and non-local projectors), so `Re x` and the counts of
        // a column are the same bits lone and beside any other column
        use mbrpa_solver::{shifted_lanczos_pair, Workspace};
        let f = fixture();
        // the form whose kernel takes a masked path for a vector with `−0`s
        assert_eq!(f.ham.nonlocal().map(|nl| nl.form().name()), Some("dense"));
        let n = f.ham.dim();
        let v = Mat::from_fn(n, 4, |i, j| ((i * 5 + j * 11) % 27) as f64 * 0.03 - 0.4);
        let j = f.energies.len() - 1;
        let lambda = f.energies[j];
        let b = Mat::from_fn(n, 4, |i, c| -v[(i, c)] * f.psi[(i, j)]);
        let mut guess = Mat::zeros(n, 8);
        galerkin_guess_real(&f.psi, &f.energies, lambda, 0.35, &b, &mut guess);
        let op = SternheimerLinOp::new(SternheimerOperator::new(&f.ham, lambda, 0.35));
        let opts = CocgOptions::with_tol(1e-6);
        let solve = |cols: &[usize], slot: usize| {
            let mut x = Vec::new();
            let reports = shifted_lanczos_pair(
                &op,
                &b,
                Some(&guess),
                cols,
                &opts,
                &mut Workspace::new(),
                &mut |c, y, s| {
                    if c == cols[slot] {
                        x = y
                            .iter()
                            .map(|z| if s == 0 { z.re } else { z.im }.to_bits())
                            .collect();
                    }
                },
            );
            (x, reports[slot].iterations, reports[slot].matvecs)
        };
        for c in 0..4 {
            let lone = solve(&[c], 0);
            assert!(lone.1 > 3, "column {c} takes {} steps", lone.1);
            for d in (0..4).filter(|&d| d != c) {
                assert!(solve(&[c, d], 0) == lone, "column {c} beside {d}");
                assert!(solve(&[d, c], 1) == lone, "column {c} after {d}");
            }
        }
    }

    #[test]
    fn orbital_contributions_fold_in_orbital_order_whatever_order_they_finish() {
        // Orbitals finishing in order, reversed and shuffled, begun just
        // before they finish or all at once in the pool's claim order: the
        // accumulator and the per-orbital iteration ledger are the
        // in-order sum's, bit for bit. The contributions hold `−0`s and
        // terms whose sum depends on the order they are added in.
        let (rows, cols, n_s) = (7, 3, 9);
        let term = |j: usize, k: usize| -> f64 {
            match (j * 7 + k * 3) % 5 {
                0 => -0.0,
                1 => 1e16 * if j.is_multiple_of(2) { 1.0 } else { -1.0 },
                2 => 1.0 + j as f64 * 0.1,
                3 => -(k as f64) * 3.7e-9,
                _ => 0.1 * (j + k) as f64,
            }
        };
        let mut want = vec![0.0_f64; rows * cols];
        for j in 0..n_s {
            for (k, a) in want.iter_mut().enumerate() {
                *a += term(j, k);
            }
        }
        let iterations = |j: usize| 3 * j + 1;
        let mut shuffled: Vec<usize> = (0..n_s).collect();
        let mut state = 0x2545_f491_u64;
        for l in (1..n_s).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(l, state as usize % (l + 1));
        }
        let orders = [
            (0..n_s).collect::<Vec<_>>(),
            (0..n_s).rev().collect(),
            shuffled,
        ];
        for order in &orders {
            for all_begun_first in [false, true] {
                let mut fold = Fold::new(rows, cols, n_s);
                let spares = Mutex::new(Spares::default());
                let mut begun: Vec<Option<Target>> = (0..n_s).map(|_| None).collect();
                if all_begun_first {
                    for (j, slot) in begun.iter_mut().enumerate() {
                        *slot = Some(fold.begin(j, &spares));
                    }
                }
                let mut completions = 0;
                for &j in order {
                    let mut target = begun[j].take().unwrap_or_else(|| fold.begin(j, &spares));
                    for (k, a) in target.buf.as_mut_slice().iter_mut().enumerate() {
                        *a += term(j, k);
                    }
                    let stats = WorkerStats {
                        iterations: iterations(j),
                        ..WorkerStats::new()
                    };
                    completions += usize::from(fold.finish(j, target, &stats, &spares));
                }
                let what = format!("finishing in {order:?}, all begun first: {all_begun_first}");
                assert_eq!(completions, 1, "{what}");
                assert!(fold.parked.is_empty(), "{what}");
                let acc = fold.acc.as_ref().expect("the accumulator is home");
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(acc.as_slice()), bits(&want), "{what}");
                let ledger: Vec<usize> = (0..n_s).map(iterations).collect();
                assert_eq!(fold.orbital_iterations, ledger, "{what}");
                assert_eq!(
                    fold.stats.iterations,
                    ledger.iter().sum::<usize>(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ω must be positive")]
    fn rejects_zero_omega() {
        let f = fixture();
        let _ = op(&f, 0.0, 1);
    }
}
