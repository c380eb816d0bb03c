//! Dynamic block size selection — Algorithm 4 of the paper.
//!
//! Each worker owns `n_eig/p` right-hand sides per Sternheimer block system
//! and must pick the COCG block size `s` that balances fewer iterations
//! (larger `s`) against the extra `O(n·s²)` matrix-matrix work. The optimal
//! `s` depends on the `(j, k)` index pair and cannot be chosen a priori, so
//! the worker probes geometrically increasing sizes and keeps doubling while
//! doubling the block less than doubles the cost of a chunk.
//!
//! Two cost oracles are provided: wall-clock timing (the paper's method)
//! and a deterministic FLOP model (for reproducible tests and CI).

use crate::block_cocg::{block_cocg_ws, CocgOptions};
use crate::operator::LinearOperator;
use crate::shifted_lanczos::{shifted_block_lanczos, shifted_lanczos_pair, ReSink, RealShifted};
use crate::stats::{SolveReport, WorkerStats};
use crate::workspace::{with_thread_workspace, Workspace};
use mbrpa_linalg::{Mat, C64};
use std::time::{Duration, Instant};

/// How a worker chooses its COCG block size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockPolicy {
    /// Always use block size `s` (the `s = 1` setting reproduces the
    /// paper's Figure 3 configuration).
    Fixed(usize),
    /// Algorithm 4 with wall-clock chunk timings.
    DynamicTimed,
    /// Algorithm 4 with a deterministic FLOP cost model: reproducible
    /// selection for tests and for machines with noisy clocks.
    DynamicCostModel,
}

/// Cost model of one block-COCG chunk solve (per §III-B): per iteration,
/// one operator application on `s` vectors, five `O(n·s²)` products, and
/// two `O(s³)` solves.
///
/// The two halves are not in the same unit: `apply_flops` counts real
/// flops, while `10·n·s²` (five products, two per multiply-add) and
/// `4·s³` count *complex* operations, each worth about four real ones.
/// The model therefore under-weights the block algebra against the
/// operator by that factor. The constants are the ones Alg. 4's choices
/// were validated with, and they price every width as complex block COCG
/// although the Sternheimer chunks run in real arithmetic; re-fitting them
/// changes block sizes and is a change of its own.
///
/// Beside the `4s³` term, measured (AVX2, one thread, a diagonal `R` whose
/// apply is nearly free, extrapolated to `n → 0`): a real block Lanczos
/// step keeps a fixed cost of ≈ 0.4 µs at `s = 2` and ≈ 1.2 µs at `s = 4`
/// — the `s × s` half and the three sweeps' own set-up — where `4s³`
/// prices 32 and 256 complex operations, tens of nanoseconds. On
/// `serve_mix`'s 5³ grid that is a fifth of an `s = 2` step.
fn model_cost<O: LinearOperator<C64> + ?Sized>(op: &O, s: usize, report: &SolveReport) -> f64 {
    let n = op.dim() as f64;
    let sf = s as f64;
    let per_iter = op.apply_flops() as f64 * sf + 10.0 * n * sf * sf + 4.0 * sf * sf * sf;
    (report.iterations.max(1) as f64) * per_iter
}

/// Outcome of [`solve_multi_rhs`].
#[derive(Clone, Debug)]
pub struct MultiRhsOutcome {
    /// Solutions, one column per right-hand side.
    pub solution: Mat<C64>,
    /// Block size in effect when the final chunk was solved.
    pub final_block_size: usize,
    /// Whether every chunk met the tolerance.
    pub all_converged: bool,
}

/// Solve `A X = B` for `B` with many columns, choosing the COCG block size
/// per `policy` and accumulating per-worker statistics.
pub fn solve_multi_rhs(
    op: &dyn LinearOperator<C64>,
    b: &Mat<C64>,
    guess: Option<&Mat<C64>>,
    opts: &CocgOptions,
    policy: BlockPolicy,
    stats: &mut WorkerStats,
) -> MultiRhsOutcome {
    let mut solution = Mat::zeros(b.rows(), b.cols());
    let (final_block_size, all_converged) =
        schedule_chunks(b.cols(), policy, false, &mut |start, width, _| {
            let chunk_b = b.columns(start, width);
            let chunk_g = guess.map(|g| g.columns(start, width));
            let t0 = Instant::now();
            let (x, report) =
                with_thread_workspace(|ws| block_cocg_ws(op, &chunk_b, chunk_g.as_ref(), opts, ws));
            let elapsed = t0.elapsed();
            solution.set_columns(start, &x);
            stats.absorb(width, width, &report, elapsed);
            (
                chunk_cost(policy, op, width, &report, elapsed),
                report.converged,
            )
        });
    MultiRhsOutcome {
        solution,
        final_block_size,
        all_converged,
    }
}

/// What Alg. 4 compares: the model's cost or the wall clock's.
fn chunk_cost<O: LinearOperator<C64> + ?Sized>(
    policy: BlockPolicy,
    op: &O,
    width: usize,
    report: &SolveReport,
    elapsed: Duration,
) -> f64 {
    match policy {
        BlockPolicy::DynamicCostModel => model_cost(op, width, report),
        _ => elapsed.as_secs_f64(),
    }
}

/// The chunk schedule of `policy` over `nrhs` columns — Algorithm 4, or
/// its line 13 alone for a fixed size. `solve(start, width, chunks)`
/// solves `chunks` chunks of `width` columns each from column `start` on
/// and returns the cost of one (read for probes only) and whether all
/// converged. `chunks` is 2 only where `pair_singles` lets two width-1
/// chunks past the probes share a call. Returns the block size in effect
/// at the last chunk and whether every chunk converged.
fn schedule_chunks(
    nrhs: usize,
    policy: BlockPolicy,
    pair_singles: bool,
    solve: &mut dyn FnMut(usize, usize, usize) -> (f64, bool),
) -> (usize, bool) {
    let mut all_converged = true;
    let mut start = 0;
    let s = match policy {
        BlockPolicy::Fixed(s) => s.max(1),
        BlockPolicy::DynamicTimed | BlockPolicy::DynamicCostModel => {
            // Lines 1–2: probe s = 1 then s = 2.
            let mut s = 1usize;
            let (mut t_old, ok) = solve(start, 1.min(nrhs), 1);
            all_converged &= ok;
            start += 1;
            if start >= nrhs {
                return (s, all_converged);
            }
            s = 2;
            let width = s.min(nrhs - start);
            let (mut t_new, ok) = solve(start, width, 1);
            all_converged &= ok;
            start += width;

            // Lines 3–12: double while the bigger block is worth it.
            if width == s {
                while start < nrhs {
                    if t_new <= 2.0 * t_old {
                        s *= 2;
                        t_old = t_new;
                        let width = s.min(nrhs - start);
                        let (t, ok) = solve(start, width, 1);
                        all_converged &= ok;
                        start += width;
                        if width < s {
                            // partial probe: no comparable timing, stop here
                            s = width.max(1);
                            break;
                        }
                        t_new = t;
                    } else {
                        s /= 2;
                        break;
                    }
                }
            } else {
                s = width;
            }
            s.max(1)
        }
    };
    // Line 13: the remainder at the selected size.
    while start < nrhs {
        let width = s.min(nrhs - start);
        let chunks = if pair_singles && width == 1 && nrhs - start >= 2 {
            2
        } else {
            1
        };
        let (_, ok) = solve(start, width, chunks);
        all_converged &= ok;
        start += width * chunks;
    }
    (s, all_converged)
}

/// [`solve_multi_rhs`] for `A = R + iω` and a real block `b`, wanting
/// only `Re X`: the Sternheimer solves of `χ⁰`. Same schedule, same
/// statistics, every chunk in real arithmetic: a width-1 chunk through
/// [`shifted_lanczos_pair`] (two of them per call past the probes), a
/// wider one through [`shifted_block_lanczos`]. `guess` is
/// `[Re X₀ | Im X₀]` as [`galerkin_guess_real`](crate::galerkin_guess_real)
/// leaves it. Nothing the width of `b` is allocated: each column's `Re x`
/// goes to `sink` from the chunk's own iterate, once per column. Returns
/// whether every chunk converged.
///
/// No Lanczos call need leave its second slot idle for the probe: under
/// Alg. 4 with `w ≥ 4` the `s = 1` probe solves column 0 and, beside it,
/// column `w − 1`, and Alg. 4 schedules the first `w − 1` columns only.
/// Only column 0's report prices the probe, so Alg. 4 chooses what it
/// chose without the passenger. The slots never mix, so every column's
/// `Re x`, iterations and matvecs are the ones a lone solve gives.
pub fn solve_shifted_real_rhs<O: RealShifted>(
    op: &O,
    b: &Mat<f64>,
    guess: Option<&Mat<f64>>,
    opts: &CocgOptions,
    policy: BlockPolicy,
    stats: &mut WorkerStats,
    sink: &mut ReSink<'_>,
) -> bool {
    let w = b.cols();
    let carries = w >= 4 && !matches!(policy, BlockPolicy::Fixed(_));
    let scheduled = if carries { w - 1 } else { w };
    schedule_chunks(scheduled, policy, true, &mut |start, width, chunks| {
        let t0 = Instant::now();
        if width == 1 {
            // Alg. 4's `s = 1` probe takes the last column into its idle slot
            let probe = carries && start == 0;
            let (cols, lanes) = if probe {
                ([0, w - 1], 2)
            } else {
                ([start, start + 1], chunks)
            };
            let reports = with_thread_workspace(|ws: &mut Workspace<C64>| {
                shifted_lanczos_pair(op, b, guess, &cols[..lanes], opts, ws, sink)
            });
            let total = t0.elapsed();
            let elapsed = total / lanes as u32;
            let mut ok = true;
            for report in &reports[..lanes] {
                stats.absorb(1, 1, report, elapsed);
                ok &= report.converged;
            }
            stats.lanczos.lone_solves += usize::from(lanes == 1);
            stats.lanczos.carried += usize::from(probe);
            // the probe is priced by column 0 alone: its report, and its
            // share of the steps the call ran
            let priced = if probe {
                let steps = reports[0].iterations.max(reports[1].iterations).max(1);
                total.mul_f64(reports[0].iterations.max(1) as f64 / steps as f64)
            } else {
                elapsed
            };
            return (chunk_cost(policy, op, 1, &reports[0], priced), ok);
        }
        let report = with_thread_workspace(|ws: &mut Workspace<C64>| {
            shifted_block_lanczos(op, b, guess, start..start + width, opts, ws, sink)
        });
        let elapsed = t0.elapsed();
        stats.absorb(width, width, &report, elapsed);
        (
            chunk_cost(policy, op, width, &report, elapsed),
            report.converged,
        )
    })
    .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_cocg::{block_cocg, true_relative_residual};
    use crate::stats::{BlockSizeHistogram, LanczosSlots};
    use crate::test_util::{rand_rhs, test_operator};
    use mbrpa_check::Rng;

    #[test]
    fn singles_pair_up_past_the_probes_only() {
        // the calls the schedule makes, with a chunk of width w costing cost(w)
        let calls = |policy, nrhs, pair, cost: fn(usize) -> f64| {
            let mut seen = Vec::new();
            let out = schedule_chunks(nrhs, policy, pair, &mut |start, width, chunks| {
                seen.push((start, width, chunks));
                (cost(width), true)
            });
            (seen, out.0)
        };
        let flat = |_| 1.0;
        assert_eq!(
            calls(BlockPolicy::Fixed(1), 5, true, flat).0,
            [(0, 1, 2), (2, 1, 2), (4, 1, 1)]
        );
        assert_eq!(calls(BlockPolicy::Fixed(1), 3, false, flat).0.len(), 3);
        // only width-1 chunks pair: the odd tail of a wider size runs alone
        assert_eq!(
            calls(BlockPolicy::Fixed(2), 5, true, flat).0,
            [(0, 2, 1), (2, 2, 1), (4, 1, 1)]
        );
        // Alg. 4 settling on s = 1: both probes run alone, the rest in pairs
        let (seen, s) = calls(BlockPolicy::DynamicCostModel, 6, true, |w| {
            (w * w * w) as f64
        });
        assert_eq!(seen, [(0, 1, 1), (1, 2, 1), (3, 1, 2), (5, 1, 1)]);
        assert_eq!(s, 1);
        // and growing: no width-1 chunk is left to pair
        let (seen, s) = calls(BlockPolicy::DynamicCostModel, 9, true, flat);
        assert_eq!(seen, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (7, 2, 1)]);
        assert_eq!(s, 2);
    }

    /// `R + iω` with a diagonal `R`: the real and the complex solves on
    /// one operator.
    struct DiagShifted {
        d: Vec<f64>,
        omega: f64,
    }

    impl LinearOperator<C64> for DiagShifted {
        fn dim(&self) -> usize {
            self.d.len()
        }
        fn apply(&self, x: &[C64], y: &mut [C64]) {
            for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.d) {
                *yi = xi * C64::new(di, self.omega);
            }
        }
    }

    impl RealShifted for DiagShifted {
        fn omega(&self) -> f64 {
            self.omega
        }
        fn apply_real_pair(&self, x: &[C64], y: &mut [C64]) {
            for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.d) {
                *yi = xi.scale(di);
            }
        }
    }

    #[test]
    fn the_probe_carries_the_last_column_beside_column_0() {
        // For w = 1..=24 under fixed and cost-model policies: the chunks the
        // schedule makes over the columns Alg. 4 schedules (all w, or the
        // first w − 1 where the probe carries), each solved alone by block
        // COCG (Alg. 3) for its solution and by its real solver for its
        // price and matvecs, plus column w − 1 as its own width-1 solve where
        // the probe carries; then the real path itself: the same histogram
        // and matvecs (no column solved twice), every column sunk once with
        // its solution, and a Lanczos call left lone for each width-1 chunk
        // without a partner.
        for w in 1..=24 {
            for policy in [
                BlockPolicy::Fixed(1),
                BlockPolicy::Fixed(2),
                BlockPolicy::Fixed(3),
                BlockPolicy::DynamicCostModel,
            ] {
                let n = 40;
                let op = DiagShifted {
                    d: (0..n)
                        .map(|i| 0.5 + 0.37 * i as f64 + 0.01 * w as f64)
                        .collect(),
                    omega: 0.3,
                };
                let bc = rand_rhs(n, w, 31 + w as u64);
                let b = bc.map(|z| z.re);
                let opts = CocgOptions::with_tol(1e-7);
                let carries = w >= 4 && policy == BlockPolicy::DynamicCostModel;
                let scheduled = if carries { w - 1 } else { w };
                let mut chunks_seen = Vec::new();
                let mut want = Mat::zeros(n, w);
                let mut want_hist = BlockSizeHistogram::new();
                let mut want_matvecs = 0;
                let mut reference = |c0: usize, width: usize| {
                    let rhs = b.columns(c0, width).map(|x| C64::new(x, 0.0));
                    want.set_columns(c0, &block_cocg(&op, &rhs, None, &opts).0);
                    want_hist.record(width, width);
                    // the real solve of this chunk alone prices it
                    let report = with_thread_workspace(|ws: &mut Workspace<C64>| {
                        let ignore = &mut |_: usize, _: &[C64], _: usize| {};
                        if width == 1 {
                            let [report, _] =
                                shifted_lanczos_pair(&op, &b, None, &[c0], &opts, ws, ignore);
                            report
                        } else {
                            shifted_block_lanczos(&op, &b, None, c0..c0 + width, &opts, ws, ignore)
                        }
                    });
                    want_matvecs += report.matvecs;
                    report
                };
                schedule_chunks(scheduled, policy, true, &mut |start, width, chunks| {
                    chunks_seen.push((start, width, chunks));
                    let reports: Vec<_> = (0..chunks)
                        .map(|k| reference(start + k * width, width))
                        .collect();
                    (model_cost(&op, width, &reports[0]), reports[0].converged)
                });
                let lone = chunks_seen
                    .iter()
                    .filter(|&&(_, width, chunks)| width == 1 && chunks == 1)
                    .count();
                if carries {
                    reference(w - 1, 1);
                }
                let want_slots = LanczosSlots {
                    // the probe runs as a pair
                    lone_solves: lone - usize::from(carries),
                    carried: usize::from(carries),
                };

                let mut stats = WorkerStats::new();
                let mut sunk = vec![0; w];
                let ok = solve_shifted_real_rhs(
                    &op,
                    &b,
                    None,
                    &opts,
                    policy,
                    &mut stats,
                    &mut |c, x, slot| {
                        sunk[c] += 1;
                        let got = x.iter().map(|z| if slot == 0 { z.re } else { z.im });
                        let err = got
                            .zip(want.col(c))
                            .fold(0.0f64, |m, (g, z)| m.max((g - z.re).abs()));
                        assert!(err < 1e-9, "w {w}, {policy:?}: column {c} off by {err:e}");
                    },
                );
                let what = format!("w {w}, {policy:?}, chunks {chunks_seen:?}");
                assert!(ok, "{what}");
                assert!(sunk.iter().all(|&k| k == 1), "{what}: sunk {sunk:?}");
                assert_eq!(stats.block_sizes, want_hist, "{what}");
                assert_eq!(stats.matvecs, want_matvecs, "{what}");
                assert_eq!(stats.lanczos, want_slots, "{what}");
            }
        }
    }

    #[test]
    fn carrying_moves_no_chunk_where_a_width_one_chunk_reaches_the_last_column() {
        // Alg. 4 over w columns, on seeded chunk costs, against Alg. 4 over
        // the first w − 1: wherever the former reaches column w − 1 in a
        // width-1 chunk, taking that column out of the chunk gives the
        // latter's calls, so solving it beside the probe changes no chunk.
        let mut reached = 0;
        mbrpa_check::check(256, |rng| {
            let w = rng.random_range(4..41);
            let seed: u64 = rng.random();
            let calls = |nrhs| {
                let mut seen = Vec::new();
                schedule_chunks(
                    nrhs,
                    BlockPolicy::DynamicCostModel,
                    true,
                    &mut |start, width, chunks| {
                        seen.push((start, width, chunks));
                        // a cost per chunk, the same whichever schedule asks
                        let h = (seed ^ ((start as u64) << 32) ^ width as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        (
                            width as f64 * (0.5 + (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0),
                            true,
                        )
                    },
                );
                seen
            };
            let mut full = calls(w);
            let last = full.pop().unwrap();
            if last.1 > 1 {
                return;
            }
            reached += 1;
            if last.2 == 2 {
                full.push((last.0, 1, 1));
            }
            assert_eq!(full, calls(w - 1), "w {w}, last chunk {last:?}");
        });
        assert!(
            reached >= 32,
            "{reached} of 256 schedules reached it in a width-1 chunk"
        );
    }

    #[test]
    fn fixed_policy_solves_all_columns() {
        let op = test_operator(30, 4.0, 0.5, 1);
        let b = rand_rhs(30, 7, 2);
        let mut stats = WorkerStats::new();
        let out = solve_multi_rhs(
            &op,
            &b,
            None,
            &CocgOptions::with_tol(1e-9),
            BlockPolicy::Fixed(3),
            &mut stats,
        );
        assert!(out.all_converged);
        assert!(true_relative_residual(&op, &b, &out.solution) < 1e-7);
        // chunks: 3 + 3 + 1
        assert_eq!(stats.block_sizes.count(3), 6);
        assert_eq!(stats.block_sizes.count(1), 1);
        assert_eq!(stats.block_sizes.total(), 7);
    }

    #[test]
    fn cost_model_policy_is_deterministic_and_correct() {
        let op = test_operator(40, 1.0, 0.2, 3);
        let b = rand_rhs(40, 12, 4);
        let opts = CocgOptions::with_tol(1e-8);
        let mut s1 = WorkerStats::new();
        let out1 = solve_multi_rhs(&op, &b, None, &opts, BlockPolicy::DynamicCostModel, &mut s1);
        let mut s2 = WorkerStats::new();
        let out2 = solve_multi_rhs(&op, &b, None, &opts, BlockPolicy::DynamicCostModel, &mut s2);
        assert_eq!(out1.final_block_size, out2.final_block_size);
        assert_eq!(s1.block_sizes, s2.block_sizes);
        assert!(out1.all_converged);
        assert!(true_relative_residual(&op, &b, &out1.solution) < 1e-6);
        assert_eq!(s1.block_sizes.total(), 12);
    }

    #[test]
    fn timed_policy_solves_everything() {
        let op = test_operator(35, 2.0, 0.4, 5);
        let b = rand_rhs(35, 9, 6);
        let mut stats = WorkerStats::new();
        let out = solve_multi_rhs(
            &op,
            &b,
            None,
            &CocgOptions::with_tol(1e-8),
            BlockPolicy::DynamicTimed,
            &mut stats,
        );
        assert!(out.all_converged);
        assert!(true_relative_residual(&op, &b, &out.solution) < 1e-6);
        assert_eq!(stats.block_sizes.total(), 9);
        assert!(out.final_block_size >= 1);
    }

    #[test]
    fn single_rhs_short_circuits() {
        let op = test_operator(20, 3.0, 0.3, 7);
        let b = rand_rhs(20, 1, 8);
        let mut stats = WorkerStats::new();
        let out = solve_multi_rhs(
            &op,
            &b,
            None,
            &CocgOptions::with_tol(1e-9),
            BlockPolicy::DynamicCostModel,
            &mut stats,
        );
        assert!(out.all_converged);
        assert_eq!(out.final_block_size, 1);
        assert_eq!(stats.block_sizes.count(1), 1);
    }

    #[test]
    fn guess_columns_are_respected() {
        let op = test_operator(25, 4.0, 0.6, 9);
        let b = rand_rhs(25, 4, 10);
        let opts = CocgOptions::with_tol(1e-9);
        let mut stats = WorkerStats::new();
        // first solve to get the exact answer, then re-solve with it as guess
        let out = solve_multi_rhs(&op, &b, None, &opts, BlockPolicy::Fixed(2), &mut stats);
        let mut stats2 = WorkerStats::new();
        let out2 = solve_multi_rhs(
            &op,
            &b,
            Some(&out.solution),
            &CocgOptions::with_tol(1e-6),
            BlockPolicy::Fixed(2),
            &mut stats2,
        );
        assert!(out2.all_converged);
        assert_eq!(stats2.iterations, 0, "exact guesses should not iterate");
    }

    #[test]
    fn block_size_one_sweeps_column_by_column() {
        // the paper's Figure 3 baseline: s = 1 degenerates to nrhs
        // independent single-vector COCG solves
        let op = test_operator(28, 3.0, 0.4, 21);
        let b = rand_rhs(28, 11, 22);
        let mut stats = WorkerStats::new();
        let out = solve_multi_rhs(
            &op,
            &b,
            None,
            &CocgOptions::with_tol(1e-9),
            BlockPolicy::Fixed(1),
            &mut stats,
        );
        assert!(out.all_converged);
        assert_eq!(out.final_block_size, 1);
        assert!(true_relative_residual(&op, &b, &out.solution) < 1e-7);
        assert_eq!(stats.block_sizes.count(1), 11);
        assert_eq!(stats.block_sizes.total(), 11);
    }

    #[test]
    fn oversized_fixed_block_clamps_to_available_columns() {
        // a worker handed fewer columns than its configured block size
        // (the oversubscribed tail of a static partition) must solve them
        // in a single clamped chunk, not panic or pad
        let op = test_operator(26, 3.5, 0.3, 23);
        let b = rand_rhs(26, 5, 24);
        let mut stats = WorkerStats::new();
        let out = solve_multi_rhs(
            &op,
            &b,
            None,
            &CocgOptions::with_tol(1e-9),
            BlockPolicy::Fixed(16),
            &mut stats,
        );
        assert!(out.all_converged);
        assert!(true_relative_residual(&op, &b, &out.solution) < 1e-7);
        assert_eq!(stats.block_sizes.count(5), 5, "one chunk of all 5 columns");
        assert_eq!(stats.block_sizes.total(), 5);
    }

    #[test]
    fn dynamic_policy_with_exact_guess_does_no_iterations() {
        // all columns converged before the first iteration: the probe
        // chunks and the remainder sweep must all short-circuit cleanly
        let op = test_operator(24, 4.0, 0.5, 25);
        let b = rand_rhs(24, 6, 26);
        let opts = CocgOptions::with_tol(1e-9);
        let mut stats = WorkerStats::new();
        let exact = solve_multi_rhs(&op, &b, None, &opts, BlockPolicy::Fixed(6), &mut stats);
        assert!(exact.all_converged);
        let mut stats2 = WorkerStats::new();
        let out = solve_multi_rhs(
            &op,
            &b,
            Some(&exact.solution),
            &CocgOptions::with_tol(1e-6),
            BlockPolicy::DynamicCostModel,
            &mut stats2,
        );
        assert!(out.all_converged);
        assert_eq!(stats2.iterations, 0, "exact guesses should not iterate");
        assert_eq!(stats2.block_sizes.total(), 6, "every column still recorded");
        assert!(true_relative_residual(&op, &b, &out.solution) < 1e-6);
    }

    #[test]
    fn histogram_powers_of_two_for_dynamic() {
        let op = test_operator(30, 0.5, 0.1, 11);
        let b = rand_rhs(30, 20, 12);
        let mut stats = WorkerStats::new();
        let out = solve_multi_rhs(
            &op,
            &b,
            None,
            &CocgOptions::with_tol(1e-7),
            BlockPolicy::DynamicCostModel,
            &mut stats,
        );
        assert!(out.all_converged);
        // every recorded size is a power of two or a remainder chunk
        for (s, _) in stats.block_sizes.iter() {
            assert!((1..=20).contains(&s));
        }
        assert_eq!(stats.block_sizes.total(), 20);
    }
}
