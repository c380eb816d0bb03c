//! Proof that a warm operator apply does not touch the allocator: once the
//! calling thread's halo scratch exists, 100 `SternheimerOperator::apply_block`
//! and 100 `Hamiltonian::apply_block::<f64>` calls perform **zero** heap
//! allocations. Everything about an apply that does not depend on the
//! vector — which plane feeds which halo plane, the sweep's terms, the
//! projectors' checked indices — is built with the operator, so the
//! 665 936 applies of a Si8 run cost their grid points and nothing else.
//! This machine's timings cannot gate that; a count can.
//!
//! The tally is per thread: the applies run on the test's own thread, while
//! the rayon pool that the first block apply sizes itself against spins up
//! its workers — which allocate — whenever the scheduler gets to them.

use mbrpa_dft::{Hamiltonian, PotentialParams, ProjectorForm, SiliconSpec, SternheimerOperator};
use mbrpa_grid::Boundary;
use mbrpa_linalg::{Mat, C64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts every allocation and reallocation
/// of the calling thread.
struct CountingAlloc;

fn count_one() {
    // a thread that is tearing its locals down is not the one under test
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers all allocation to `System`; only bumps a const-initialised
// thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // upholds `GlobalAlloc`'s contract (non-zero size, valid align).
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same contract as `System::alloc_zeroed`; pure delegation.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: same contract as `System::realloc`; pure delegation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// Allocations `f` performs on this thread.
fn allocations(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

#[test]
fn warm_applies_do_not_allocate() {
    // As under a `χ⁰` apply, where every apply of a run happens: its task
    // list owns the pool, so a block apply walks its columns on the thread
    // that called it.
    let _chi0_tasks = mbrpa_grid::par::outer_scope(1 << 16);
    // the periodic Si8 grid and the Dirichlet cluster: wrapped and zeroed
    // halos take different branches of the fill, and the projectors the
    // dense and the sparse kernel
    for (ppc, boundary, form) in [
        (7, Boundary::Periodic, ProjectorForm::Dense),
        (8, Boundary::Dirichlet, ProjectorForm::Sparse),
    ] {
        let crystal = SiliconSpec {
            points_per_cell: ppc,
            boundary,
            ..SiliconSpec::default()
        }
        .build();
        let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
        let nl = ham.nonlocal().expect("the projector term must run");
        assert_eq!(nl.form(), form, "{boundary:?} {ppc}³");
        let op = SternheimerOperator::new(&ham, -0.2, 0.5);
        let n = ham.dim();
        // the block widths of every solve the drivers run
        for s in [1, 2, 4] {
            let v = Mat::from_fn(n, s, |i, j| {
                C64::new(
                    (i + 3 * j) as f64 * 0.01 - 1.0,
                    j as f64 - 0.5 * i as f64 * 0.01,
                )
            });
            let vr = Mat::from_fn(n, s, |i, j| ((i * 7 + j) % 13) as f64 * 0.1 - 0.6);
            let (mut out, mut outr) = (Mat::zeros(n, s), Mat::zeros(n, s));
            // warm-up: the thread's halo scratch grows to this grid once
            op.apply_block(&v, &mut out);
            ham.apply_block(&vr, &mut outr);
            let counted = allocations(|| {
                for _ in 0..100 {
                    op.apply_block(&v, &mut out);
                    ham.apply_block(&vr, &mut outr);
                }
            });
            assert_eq!(
                counted, 0,
                "{boundary:?} {ppc}³, s = {s}: 200 warm applies allocated {counted} times"
            );
            assert!(out
                .as_slice()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite()));
        }
    }
}
