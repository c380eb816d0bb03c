//! Proof that a warm `orbital_contribution` of the real-arithmetic path
//! does not touch the allocator: under `Fixed(1)` every Sternheimer chunk is
//! one column wide, and a warm `χ⁰` apply over 5, 6, 7 or 8 occupied
//! orbitals performs the same number of heap allocations — the apply's own
//! (its column copies, accumulators and result), none per orbital. The
//! right-hand sides, the Galerkin guess, the six Lanczos vectors and the
//! accumulation into `acc` all live in buffers that outlast the orbital.
//!
//! Under Alg. 4 (`DynamicCostModel`), `Fixed(2)` and `Fixed(4)` the same
//! holds: the chunks wider than one column run as real block Lanczos solves
//! whose vectors and `s × s` state live in the thread's workspace pool, and
//! neither the probe pair that carries the last column nor the held vector
//! allocates.
//!
//! This file holds a single `#[test]`; the tally is per thread, and the
//! apply is small enough to stay on the calling thread.

use mbrpa_core::{DielectricOperator, SternheimerSettings};
use mbrpa_dft::{solve_occupied_dense, Hamiltonian, PotentialParams, SiliconSpec};
use mbrpa_grid::{CoulombOperator, SpectralLaplacian};
use mbrpa_linalg::Mat;
use mbrpa_solver::BlockPolicy;
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
    // Four columns under Alg. 4 (the `s = 1` probe on column 0 with column
    // 3 carried in its idle slot, then the `s = 2` probe on columns 1 and
    // 2), under `Fixed(2)` (two block solves)
    // and under `Fixed(4)` (one): every chunk wider than one column is a
    // real block Lanczos solve on pooled buffers, so a warm apply allocates
    // the same over 5, 6, 7 or 8 orbitals — nothing per orbital
    let v = Mat::from_fn(n, 4, |i, j| ((i * 7 + j * 3) % 19) as f64 * 0.05 - 0.45);
    for policy in [
        BlockPolicy::DynamicCostModel,
        BlockPolicy::Fixed(2),
        BlockPolicy::Fixed(4),
    ] {
        let settings = SternheimerSettings {
            policy,
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
                match policy {
                    BlockPolicy::DynamicCostModel => {
                        assert_eq!(stats.block_sizes.count(2), 2 * 2 * n_s);
                        assert_eq!(stats.lanczos.carried, 2 * n_s);
                        assert_eq!(stats.lanczos.lone_solves, 0);
                    }
                    BlockPolicy::Fixed(s) => assert_eq!(stats.block_sizes.count(s), 2 * 4 * n_s),
                    BlockPolicy::DynamicTimed => unreachable!(),
                }
                assert_eq!(stats.breakdowns, 0, "{policy:?}: a block solve broke down");
                counted
            })
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "allocations of a warm {policy:?} apply over 5, 6, 7, 8 orbitals: {counts:?}"
        );
    }
}
