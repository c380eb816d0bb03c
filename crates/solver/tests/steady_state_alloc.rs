//! Proof that the block COCG iteration loop is allocation-free in steady
//! state: with a warmed [`Workspace`] pool (and warmed thread-local GEMM
//! pack arena), a 40-iteration solve performs exactly as many heap
//! allocations as a 4-iteration solve — every per-iteration temporary is
//! pooled, so iteration count no longer touches the allocator. Per solve
//! the count does not depend on the block width either: the iterate is
//! the one matrix allocated, whatever `s` is. The real block Lanczos solve
//! keeps the same two promises: its vectors and every `s × s` matrix of
//! its recurrence (the `LU` of `Δ_k` included) come from the pool, once
//! per chunk.
//!
//! This file intentionally holds a single `#[test]`: the counting global
//! allocator tallies the whole process, so concurrent tests in the same
//! binary would race the counter.

use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{
    block_cocg_ws, shifted_block_lanczos, CocgOptions, DenseOperator, LinearOperator, RealShifted,
    Workspace,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocation and reallocation.
struct CountingAlloc;

// SAFETY: defers all allocation to `System`; only adds a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ord: Relaxed — single-threaded test counts totals; no data is published
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // upholds `GlobalAlloc`'s contract (non-zero size, valid align).
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same contract as `System::alloc_zeroed`; pure delegation.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ord: Relaxed — see `alloc` above
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: same contract as `System::realloc`; pure delegation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ord: Relaxed — see `alloc` above
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` (every path in this
        // wrapper delegates there), and `layout`/`new_size` come from a
        // caller upholding `GlobalAlloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: same contract as `System::dealloc`; pure delegation.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Random complex-symmetric, diagonally dominant Sternheimer-like matrix.
fn test_operator(n: usize, seed: u64) -> DenseOperator<C64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    let g = Mat::from_fn(n, n, |_, _| next());
    let a = Mat::from_fn(n, n, |i, j| {
        let sym = 0.5 * (g[(i, j)] + g[(j, i)]);
        let mut z = C64::new(sym, 0.0);
        if i == j {
            z += C64::new(8.0, 1.0);
        }
        z
    });
    DenseOperator::new(a)
}

fn rand_rhs(n: usize, s: usize, seed: u64) -> Mat<C64> {
    let mut state = seed | 1;
    Mat::from_fn(n, s, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let re = (state as f64 / u64::MAX as f64) - 0.5;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let im = (state as f64 / u64::MAX as f64) - 0.5;
        C64::new(re, im)
    })
}

/// `R + iω` with `R` the real part of [`test_operator`]'s matrix: the
/// same system for the real-arithmetic solve.
struct Shifted {
    r: Mat<f64>,
    omega: f64,
}

impl LinearOperator<C64> for Shifted {
    fn dim(&self) -> usize {
        self.r.rows()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.apply_real_pair(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += C64::new(-self.omega * xi.im, self.omega * xi.re);
        }
    }
}

impl RealShifted for Shifted {
    fn omega(&self) -> f64 {
        self.omega
    }
    fn apply_real_pair(&self, x: &[C64], y: &mut [C64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = (0..x.len()).map(|j| x[j].scale(self.r[(i, j)])).sum();
        }
    }
}

#[test]
fn iteration_count_does_not_change_allocation_count() {
    let n = 400;
    let s = 8;
    let op = test_operator(n, 7);
    let b = rand_rhs(n, s, 11);
    check(&op, &b);
    assert_eq!(
        warm_solve_allocs(&op, &b.columns(0, 2)),
        warm_solve_allocs(&op, &b),
        "a warm solve must allocate the same number of times at s = 2 and s = 8"
    );

    // the real block solve on the same system's real part
    let real = Shifted {
        r: Mat::from_fn(n, n, |i, j| op.matrix()[(i, j)].re),
        omega: 1.0,
    };
    let b = rand_rhs(n, 16, 13).map(|z| z.re);
    let real_allocs = |s: usize, tol: f64, iters: usize, ws: &mut Workspace<C64>| {
        let opts = CocgOptions {
            tol,
            max_iters: iters,
            ..CocgOptions::default()
        };
        // ord: Relaxed — the measured solve runs on this thread; program order suffices
        let before = ALLOCS.load(Ordering::Relaxed);
        let rep = shifted_block_lanczos(&real, &b, None, 0..s, &opts, ws, &mut |_, x, _| {
            std::hint::black_box(x);
        });
        // ord: Relaxed — see `before` above
        let count = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(rep.breakdowns, 0, "s = {s}: {rep:?}");
        assert!(rep.converged || rep.iterations == iters, "s = {s}: {rep:?}");
        count
    };
    let mut ws = Workspace::new();
    real_allocs(4, 1e-30, 40, &mut ws);
    assert_eq!(
        real_allocs(4, 1e-30, 4, &mut ws),
        real_allocs(4, 1e-30, 40, &mut ws),
        "a warm block Lanczos solve must allocate as often at 40 iterations as at 4"
    );
    let mut ws = Workspace::new();
    real_allocs(16, 1e-10, 200, &mut ws);
    real_allocs(2, 1e-10, 200, &mut ws);
    assert_eq!(
        real_allocs(2, 1e-10, 200, &mut ws),
        real_allocs(16, 1e-10, 200, &mut ws),
        "a warm block Lanczos solve must allocate no more at s = 16 than at s = 2"
    );
}

/// Heap allocations of one solve from a pool an identical solve has warmed.
fn warm_solve_allocs(op: &DenseOperator<C64>, b: &Mat<C64>) -> u64 {
    let opts = CocgOptions::with_tol(1e-10);
    let mut ws = Workspace::new();
    let (_, warm) = block_cocg_ws(op, b, None, &opts, &mut ws);
    assert!(warm.converged && warm.breakdowns == 0, "report: {warm:?}");
    // ord: Relaxed — the measured solve runs on this thread; program order suffices
    let before = ALLOCS.load(Ordering::Relaxed);
    let (x, rep) = block_cocg_ws(op, b, None, &opts, &mut ws);
    // ord: Relaxed — see `before` above
    let count = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(rep.iterations, warm.iterations);
    drop(x);
    count
}

fn check(op: &DenseOperator<C64>, b: &Mat<C64>) {
    // unreachable tolerance: both runs execute exactly `max_iters`
    // iterations of the steady-state loop
    let opts = |iters: usize| CocgOptions {
        tol: 1e-30,
        max_iters: iters,
        ..CocgOptions::default()
    };

    let mut ws = Workspace::new();
    // Warm-up: populates the workspace free list and the thread-local GEMM
    // pack arena, the two places first-touch allocation is allowed.
    let (_, warm) = block_cocg_ws(op, b, None, &opts(40), &mut ws);
    assert!(!warm.converged && warm.iterations == 40, "report: {warm:?}");
    assert_eq!(warm.breakdowns, 0, "breakdowns would skew the comparison");

    let measure = |iters: usize, ws: &mut Workspace<C64>| -> (u64, usize) {
        // ord: Relaxed — the measured solve runs on this thread; program order suffices
        let before = ALLOCS.load(Ordering::Relaxed);
        let (x, rep) = block_cocg_ws(op, b, None, &opts(iters), ws);
        // ord: Relaxed — see `before` above
        let count = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(rep.iterations, iters);
        assert_eq!(rep.breakdowns, 0);
        drop(x);
        (count, rep.matvecs)
    };

    let (allocs_short, mv_short) = measure(4, &mut ws);
    let (allocs_long, mv_long) = measure(40, &mut ws);
    assert!(mv_long > mv_short, "long run must do more operator work");
    assert_eq!(
        allocs_long,
        allocs_short,
        "36 extra iterations allocated {} extra times — the steady-state \
         loop is supposed to run entirely from the workspace pool",
        allocs_long as i64 - allocs_short as i64
    );
    assert_eq!(
        ws.fresh_allocs(),
        {
            let mut probe = Workspace::<C64>::new();
            let _ = block_cocg_ws(op, b, None, &opts(40), &mut probe);
            probe.fresh_allocs()
        },
        "warm pool must serve every take without fresh buffers beyond warm-up"
    );
}
