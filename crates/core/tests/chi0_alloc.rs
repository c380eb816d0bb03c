//! Proof that a warm `orbital_contribution` of the real-arithmetic path
//! does not touch the allocator: under `Fixed(1)` every Sternheimer chunk is
//! one column wide, and a warm `χ⁰` apply over 5, 6, 7 or 8 occupied
//! orbitals performs the same number of heap allocations — the apply's own
//! (its column copies, accumulators and result), none per orbital. The
//! right-hand sides, the Galerkin guess, the six Lanczos vectors and the
//! accumulation into `acc` all live in buffers that outlast the orbital.
//!
//! Under Alg. 4 (`DynamicCostModel`) the same holds for everything but
//! block COCG: a warm apply allocates, per orbital, what its one `s = 2`
//! block solve allocates and nothing for the probe pair that carries the
//! last column or for the held vector.
//!
//! This file holds a single `#[test]`; the tally is per thread, and the
//! apply is small enough to stay on the calling thread.

use mbrpa_core::{DielectricOperator, SternheimerSettings};
use mbrpa_dft::{
    solve_occupied_dense, Hamiltonian, PotentialParams, SiliconSpec, SternheimerLinOp,
    SternheimerOperator,
};
use mbrpa_grid::{CoulombOperator, SpectralLaplacian};
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{block_cocg_ws, with_thread_workspace, BlockPolicy, CocgOptions};
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
fn warm_orbital_contributions_do_not_allocate() {
    let crystal = SiliconSpec {
        points_per_cell: 5,
        perturbation: 0.03,
        seed: 11,
        ..SiliconSpec::default()
    }
    .build();
    let ham = Hamiltonian::new(&crystal, 2, &PotentialParams::default());
    let ks = solve_occupied_dense(&ham, 8, 0).unwrap();
    let coulomb = CoulombOperator::new(SpectralLaplacian::new(crystal.grid, 2).unwrap());
    let n = ham.dim();
    // five columns: two pairs and a lone one per orbital
    let v = Mat::from_fn(n, 5, |i, j| ((i * 7 + j * 3) % 19) as f64 * 0.05 - 0.45);
    let settings = SternheimerSettings {
        policy: BlockPolicy::Fixed(1),
        ..SternheimerSettings::default()
    };
    // 5..=8 orbitals: the apply's own orbital list is one `Vec` growth step
    // (4 → 8) in all four, so any difference is per orbital
    let counts: Vec<u64> = (5..=8)
        .map(|n_s| {
            let psi = ks.orbitals.columns(0, n_s);
            let d = DielectricOperator::new(
                &ham,
                &psi,
                &ks.energies[..n_s],
                &coulomb,
                0.4,
                settings,
                1,
            );
            // warm-up: pools, pack arenas and the halo scratch grow once
            let warm = d.apply_chi0_block(&v);
            assert!(!warm.has_bad_values());
            let counted = allocations(|| {
                std::hint::black_box(d.apply_chi0_block(&v));
            });
            assert_eq!(d.stats_snapshot().block_sizes.count(1), 2 * 5 * n_s);
            counted
        })
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations of a warm apply over 5, 6, 7, 8 orbitals: {counts:?}"
    );
    // Alg. 4 on four columns runs, per orbital, the `s = 1` probe (column
    // 0, column 3 carried in its idle slot), the `s = 2` probe (columns 1
    // and 2, block COCG) and column 3 from the carry, whatever the costs.
    // Block COCG's iterate and its `s`-long scalars are its own, so each
    // orbital allocates exactly what one warm `s = 2` block solve does:
    // the carried vector, the probe pair and the served column add nothing
    let v = Mat::from_fn(n, 4, |i, j| ((i * 7 + j * 3) % 19) as f64 * 0.05 - 0.45);
    let settings = SternheimerSettings {
        policy: BlockPolicy::DynamicCostModel,
        ..SternheimerSettings::default()
    };
    let counts: Vec<u64> = (5..=8)
        .map(|n_s| {
            let psi = ks.orbitals.columns(0, n_s);
            let d = DielectricOperator::new(
                &ham,
                &psi,
                &ks.energies[..n_s],
                &coulomb,
                0.4,
                settings,
                1,
            );
            let warm = d.apply_chi0_block(&v);
            assert!(!warm.has_bad_values());
            let counted = allocations(|| {
                std::hint::black_box(d.apply_chi0_block(&v));
            });
            let stats = d.stats_snapshot();
            assert_eq!(stats.block_sizes.count(2), 2 * 2 * n_s);
            assert_eq!(stats.lanczos.carried, 2 * n_s);
            assert_eq!(stats.lanczos.lone_solves + stats.lanczos.carried_dropped, 0);
            counted
        })
        .collect();
    let lambda = ks.energies[0];
    let op = SternheimerLinOp::new(SternheimerOperator::new(&ham, lambda, 0.4));
    let pair = Mat::from_fn(n, 2, |i, j| {
        C64::new(v[(i, j + 1)] * ks.orbitals[(i, 0)], 0.0)
    });
    let opts = CocgOptions::with_tol(1e-2);
    let block_solve = || {
        with_thread_workspace(|ws| {
            std::hint::black_box(block_cocg_ws(&op, &pair, None, &opts, ws))
        });
    };
    block_solve();
    let per_block_solve = allocations(block_solve);
    assert!(
        counts.windows(2).all(|d| d[1] - d[0] == per_block_solve),
        "allocations of a warm cost-model apply over 5, 6, 7, 8 orbitals: {counts:?}, \
         {per_block_solve} per s = 2 block solve"
    );
}
