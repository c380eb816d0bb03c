//! Solver statistics: iteration counts, operator applications, and the
//! block-size histogram behind the paper's Table IV.

use crate::block_cocg::CocgOptions;
use std::time::Duration;

/// Outcome of one (block) linear solve.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveReport {
    /// Krylov iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖W‖_F / ‖B‖_F`.
    pub relative_residual: f64,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
    /// Single-vector operator applications (`matvec` count; a block
    /// application of width `s` counts `s`).
    pub matvecs: usize,
    /// Gram-matrix breakdown restarts performed.
    pub breakdowns: usize,
    /// Relative residual after every iteration (populated only when
    /// [`crate::CocgOptions::track_residuals`] is set — convergence-curve
    /// studies only; empty in production runs). The three Sternheimer
    /// solvers keep `iterations + 1` entries, the start's first, whatever
    /// ends the solve.
    pub residual_history: Vec<f64>,
}

impl SolveReport {
    /// A fresh, empty report.
    pub fn new() -> Self {
        Self {
            iterations: 0,
            relative_residual: f64::INFINITY,
            converged: false,
            matvecs: 0,
            breakdowns: 0,
            residual_history: Vec::new(),
        }
    }

    // The Eq. 10 stop test of the three Sternheimer solvers (block COCG,
    // the real Lanczos pair lanes, block Lanczos), and the only writers of
    // `residual_history` in the crate.

    /// A zero right-hand side is solved by its guess, as in Alg. 3:
    /// converged at residual 0, with the start's history entry.
    pub(crate) fn solved_by_guess(&mut self, opts: &CocgOptions) {
        self.converged = true;
        self.relative_residual = 0.0;
        self.log_residual(0.0, opts.track_residuals);
    }

    /// Eq. 10 where Alg. 3 tests it: `rel` becomes the solve's relative
    /// residual and its next history entry, the solve converges at
    /// `rel ≤ tol`, and it stops there or at the iteration cap. Returns
    /// whether it stops.
    pub(crate) fn test_iteration(&mut self, rel: f64, opts: &CocgOptions) -> bool {
        self.relative_residual = rel;
        self.log_residual(rel, opts.track_residuals);
        if rel <= opts.tol {
            self.converged = true;
            return true;
        }
        self.iterations >= opts.max_iters
    }

    /// Push `rel` to the history when `track` is set, testing nothing: the
    /// entry of an iteration that broke off before the next test.
    pub(crate) fn log_residual(&mut self, rel: f64, track: bool) {
        if track {
            self.residual_history.push(rel);
        }
    }

    /// A restart from the current iterate (a hand-off or a half split):
    /// the restarted solve's history, which opens with the fresh residual,
    /// replaces the last entry, the recurrence's residual for the same
    /// iterate.
    pub(crate) fn restart_history(&mut self, entries: impl Iterator<Item = f64>) {
        self.residual_history.pop();
        self.residual_history.extend(entries);
    }
}

impl Default for SolveReport {
    fn default() -> Self {
        Self::new()
    }
}

/// What the solves of one block width did: the paper's Table IV count
/// and, beside it, the steps and busy time that price the width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WidthLoad {
    /// Right-hand sides solved at this width.
    pub columns: usize,
    /// Krylov steps of those solves: one per block iteration, one per
    /// column and iteration of a width-1 solve.
    pub steps: usize,
    /// Wall time of those solves.
    pub busy: Duration,
}

/// Frequency table of block sizes chosen by the dynamic selection
/// (Algorithm 4), accumulated per worker and merged for Table IV, with
/// the steps and busy time of each width. Widths are kept in ascending
/// order in a vector that [`clear`](BlockSizeHistogram::clear) empties
/// without freeing, so a pooled table fills again without allocating.
/// Two tables are equal when they are the same Table IV (the same
/// columns at every width); steps and busy times take no part.
#[derive(Clone, Debug, Default)]
pub struct BlockSizeHistogram {
    widths: Vec<(usize, WidthLoad)>,
}

impl PartialEq for BlockSizeHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for BlockSizeHistogram {}

impl BlockSizeHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry of width `s`, made empty where there is none.
    fn entry(&mut self, s: usize) -> &mut WidthLoad {
        let at = match self.widths.binary_search_by_key(&s, |&(w, _)| w) {
            Ok(at) => at,
            Err(at) => {
                self.widths.insert(at, (s, WidthLoad::default()));
                at
            }
        };
        &mut self.widths[at].1
    }

    /// Record that one block system was solved with block size `s`.
    pub fn record(&mut self, s: usize, systems: usize) {
        self.entry(s).columns += systems;
    }

    /// Add `steps` Krylov steps and `busy` wall time to width `s`.
    pub(crate) fn add_load(&mut self, s: usize, steps: usize, busy: Duration) {
        let e = self.entry(s);
        e.steps += steps;
        e.busy += busy;
    }

    /// Merge another histogram (worker reduction).
    pub fn merge(&mut self, other: &BlockSizeHistogram) {
        for &(s, load) in &other.widths {
            let e = self.entry(s);
            e.columns += load.columns;
            e.steps += load.steps;
            e.busy += load.busy;
        }
    }

    /// Empty the table, keeping its storage.
    fn clear(&mut self) {
        self.widths.clear();
    }

    /// Iterate `(block_size, count)` in ascending block-size order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.widths.iter().map(|&(s, load)| (s, load.columns))
    }

    /// Iterate `(block_size, load)` in ascending block-size order.
    pub fn loads(&self) -> impl Iterator<Item = (usize, WidthLoad)> + '_ {
        self.widths.iter().copied()
    }

    /// Count for one block size.
    pub fn count(&self, s: usize) -> usize {
        self.widths
            .binary_search_by_key(&s, |&(w, _)| w)
            .map_or(0, |at| self.widths[at].1.columns)
    }

    /// Total systems recorded.
    pub fn total(&self) -> usize {
        self.widths.iter().map(|(_, load)| load.columns).sum()
    }

    /// Fraction of systems solved at block size `s`.
    pub fn fraction(&self, s: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(s) as f64 / t as f64
        }
    }
}

/// How the real-arithmetic solves used their two slots
/// ([`solve_shifted_real_rhs`](crate::solve_shifted_real_rhs)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LanczosSlots {
    /// Lanczos calls that solved one column with the other slot idle.
    pub lone_solves: usize,
    /// Last columns Alg. 4's `s = 1` probe solved in its idle slot.
    pub carried: usize,
    /// Carried columns a wider chunk solved again; their work is in no
    /// other field.
    pub carried_dropped: usize,
    /// Matvecs of the dropped carried columns.
    pub carried_dropped_matvecs: usize,
}

impl LanczosSlots {
    fn merge(&mut self, other: &LanczosSlots) {
        self.lone_solves += other.lone_solves;
        self.carried += other.carried;
        self.carried_dropped += other.carried_dropped;
        self.carried_dropped_matvecs += other.carried_dropped_matvecs;
    }
}

/// Accumulated statistics of all Sternheimer solves done by one worker.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Block-size selection frequencies.
    pub block_sizes: BlockSizeHistogram,
    /// Total Krylov iterations.
    pub iterations: usize,
    /// Total single-vector operator applications.
    pub matvecs: usize,
    /// Wall time in the linear solver; the busy times of
    /// [`block_sizes`](WorkerStats::block_sizes) add up to it.
    pub solve_time: Duration,
    /// Systems that failed to reach tolerance.
    pub unconverged: usize,
    /// Gram-matrix breakdown restarts, half-split sub-solves included.
    pub breakdowns: usize,
    /// Slot use of the real-arithmetic solves.
    pub lanczos: LanczosSlots,
}

impl WorkerStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Back to empty, keeping the block-size table's storage.
    pub fn clear(&mut self) {
        let mut block_sizes = std::mem::take(&mut self.block_sizes);
        block_sizes.clear();
        *self = Self {
            block_sizes,
            ..Self::default()
        };
    }

    /// Merge a peer worker's statistics.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.block_sizes.merge(&other.block_sizes);
        self.iterations += other.iterations;
        self.matvecs += other.matvecs;
        self.solve_time += other.solve_time;
        self.unconverged += other.unconverged;
        self.breakdowns += other.breakdowns;
        self.lanczos.merge(&other.lanczos);
    }

    /// Fold in one solve report at block size `s` covering `systems`
    /// right-hand sides.
    pub fn absorb(&mut self, s: usize, systems: usize, report: &SolveReport, elapsed: Duration) {
        self.block_sizes.record(s, systems);
        self.block_sizes.add_load(s, report.iterations, elapsed);
        self.iterations += report.iterations;
        self.matvecs += report.matvecs;
        self.breakdowns += report.breakdowns;
        self.solve_time += elapsed;
        if !report.converged {
            self.unconverged += systems;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_merges() {
        let mut h = BlockSizeHistogram::new();
        h.record(1, 3);
        h.record(2, 10);
        h.record(2, 5);
        assert_eq!(h.count(1), 3);
        assert_eq!(h.count(2), 15);
        assert_eq!(h.count(4), 0);
        assert_eq!(h.total(), 18);
        assert!((h.fraction(2) - 15.0 / 18.0).abs() < 1e-15);

        let mut other = BlockSizeHistogram::new();
        other.record(4, 2);
        other.record(1, 1);
        h.merge(&other);
        assert_eq!(h.count(4), 2);
        assert_eq!(h.count(1), 4);
        let sizes: Vec<usize> = h.iter().map(|(s, _)| s).collect();
        assert_eq!(sizes, vec![1, 2, 4]);
    }

    #[test]
    fn worker_stats_absorb_and_merge() {
        let mut w = WorkerStats::new();
        let mut r = SolveReport::new();
        r.iterations = 7;
        r.matvecs = 14;
        r.converged = true;
        r.breakdowns = 1;
        w.absorb(2, 2, &r, Duration::from_millis(5));
        assert_eq!(w.iterations, 7);
        assert_eq!(w.unconverged, 0);

        let mut r2 = SolveReport::new();
        r2.iterations = 3;
        r2.matvecs = 3;
        r2.converged = false;
        let mut w2 = WorkerStats::new();
        w2.absorb(1, 1, &r2, Duration::from_millis(2));
        assert_eq!(w2.unconverged, 1);

        w.merge(&w2);
        assert_eq!(w.iterations, 10);
        assert_eq!(w.matvecs, 17);
        assert_eq!(w.breakdowns, 1);
        assert_eq!(w.block_sizes.total(), 3);
        assert_eq!(w.solve_time, Duration::from_millis(7));
    }

    #[test]
    fn empty_fraction_is_zero() {
        let h = BlockSizeHistogram::new();
        assert_eq!(h.fraction(1), 0.0);
    }
}
