//! Crash/restart behaviour of the checkpointed RPA driver: a run killed
//! after a prefix of the quadrature frequencies must resume and finish
//! with a total energy **bit-for-bit identical** to an uninterrupted run,
//! and a corrupted newest slot must fall back to the older snapshot.

// Test code: panics are failures, and exact float comparisons assert
// bitwise-reproducible results (DESIGN.md §9).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use mbrpa::ckpt::{CheckpointStore, Slot};
use mbrpa::core::{CancelToken, ResumableOutcome, ResumePolicy, RpaRunError, RunOptions};
use mbrpa::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mbrpa-restart-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed) // ord: Relaxed — unique-id counter, no data published
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_setup() -> RpaSetup {
    let crystal = SiliconSpec {
        points_per_cell: 5,
        perturbation: 0.03,
        seed: 11,
        ..SiliconSpec::default()
    }
    .build();
    RpaSetup::prepare(
        crystal,
        &PotentialParams::default(),
        2,
        KsSolver::Dense { extra: 2 },
    )
    .unwrap()
}

fn tiny_config() -> RpaConfig {
    RpaConfig {
        n_eig: 12,
        n_omega: 4,
        tol_eig: vec![4e-3, 2e-3],
        tol_sternheimer: 1e-3,
        max_filter_iters: 20,
        cheb_degree: 2,
        n_workers: 1,
        seed: 3,
        ..RpaConfig::default()
    }
}

/// Run `stop_after` frequencies and exit — the "killed job" stand-in.
fn run_prefix(setup: &RpaSetup, config: &RpaConfig, dir: &Path, stop_after: usize) -> usize {
    let mut store = CheckpointStore::open(dir).unwrap();
    let policy = ResumePolicy {
        every: 1,
        resume: true,
        stop_after: Some(stop_after),
    };
    match setup.run_resumable(config, &mut store, &policy).unwrap() {
        ResumableOutcome::Checkpointed { completed, .. } => completed,
        ResumableOutcome::Complete(_) => panic!("prefix run unexpectedly completed"),
        ResumableOutcome::Cancelled(_) => panic!("no cancel token was attached"),
    }
}

fn resume_to_completion(setup: &RpaSetup, config: &RpaConfig, dir: &Path) -> RpaResult {
    let mut store = CheckpointStore::open(dir).unwrap();
    match setup
        .run_resumable(config, &mut store, &ResumePolicy::default())
        .unwrap()
    {
        ResumableOutcome::Complete(r) => *r,
        ResumableOutcome::Checkpointed { completed, n_omega } => {
            panic!("resume stopped early at {completed}/{n_omega}")
        }
        ResumableOutcome::Cancelled(_) => panic!("no cancel token was attached"),
    }
}

#[test]
fn interrupted_run_resumes_bit_identical() {
    let setup = tiny_setup();
    let config = tiny_config();
    let reference = setup.run(&config).unwrap();

    // "crash" after 2 of 4 frequencies, then resume in a fresh process
    // (fresh store handle) and finish
    let dir = scratch_dir("bitexact");
    let completed = run_prefix(&setup, &config, &dir, 2);
    assert_eq!(completed, 2);
    let resumed = resume_to_completion(&setup, &config, &dir);

    assert_eq!(resumed.n_restored, 2);
    assert_eq!(reference.n_restored, 0);
    assert_eq!(resumed.per_omega.len(), reference.per_omega.len());
    assert_eq!(
        resumed.total_energy.to_bits(),
        reference.total_energy.to_bits(),
        "resumed energy {} differs from uninterrupted energy {}",
        resumed.total_energy,
        reference.total_energy
    );
    assert_eq!(
        resumed.energy_per_atom.to_bits(),
        reference.energy_per_atom.to_bits()
    );
    // every per-frequency record survives the round trip bit-exactly
    for (res, refr) in resumed.per_omega.iter().zip(reference.per_omega.iter()) {
        assert_eq!(res.energy_term.to_bits(), refr.energy_term.to_bits());
        assert_eq!(res.contribution.to_bits(), refr.contribution.to_bits());
        assert_eq!(res.eigenvalues, refr.eigenvalues);
        assert_eq!(res.filter_rounds, refr.filter_rounds);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_frequency_slices_reach_the_same_bits() {
    // the extreme schedule: one frequency per "job", three restarts
    let setup = tiny_setup();
    let config = tiny_config();
    let reference = setup.run(&config).unwrap();

    let dir = scratch_dir("slices");
    assert_eq!(run_prefix(&setup, &config, &dir, 1), 1);
    assert_eq!(run_prefix(&setup, &config, &dir, 1), 2);
    assert_eq!(run_prefix(&setup, &config, &dir, 1), 3);
    let resumed = resume_to_completion(&setup, &config, &dir);

    assert_eq!(resumed.n_restored, 3);
    assert_eq!(
        resumed.total_energy.to_bits(),
        reference.total_energy.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_latest_slot_falls_back_to_older_snapshot() {
    let setup = tiny_setup();
    let config = tiny_config();
    let reference = setup.run(&config).unwrap();

    // two one-frequency jobs: slot A holds "1 done", slot B "2 done"
    let dir = scratch_dir("fallback");
    run_prefix(&setup, &config, &dir, 1);
    run_prefix(&setup, &config, &dir, 1);

    let store = CheckpointStore::open(&dir).unwrap();
    let latest = store.load_latest().unwrap().unwrap();
    assert_eq!(latest.snapshot.completed, 2);
    let newest_path = store.slot_path(latest.slot);
    assert_eq!(latest.slot, Slot::B);
    drop(store);

    // flip one byte in the middle of the newest slot — the CRC must
    // reject it and the loader must fall back to the older snapshot
    let mut bytes = std::fs::read(&newest_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest_path, &bytes).unwrap();

    let store = CheckpointStore::open(&dir).unwrap();
    let fallback = store.load_latest().unwrap().unwrap();
    assert!(fallback.recovered_from_fallback);
    assert_eq!(fallback.slot, Slot::A);
    assert_eq!(fallback.snapshot.completed, 1);
    drop(store);

    // resuming recomputes frequencies 2..4 from the older snapshot and
    // still lands on the exact bits
    let resumed = resume_to_completion(&setup, &config, &dir);
    assert_eq!(resumed.n_restored, 1);
    assert_eq!(
        resumed.total_energy.to_bits(),
        reference.total_energy.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancel_after_restored_prefix_preserves_state() {
    // deterministic cancellation path: a token already set when the run
    // starts must return the restored prefix untouched, re-persist it,
    // and leave the store resumable to the exact reference bits
    let setup = tiny_setup();
    let config = tiny_config();
    let reference = setup.run(&config).unwrap();
    let dir = scratch_dir("cancelprefix");
    assert_eq!(run_prefix(&setup, &config, &dir, 2), 2);

    let cancel = CancelToken::new();
    cancel.cancel();
    let mut store = CheckpointStore::open(&dir).unwrap();
    let outcome = setup
        .run_with(
            &config,
            RunOptions {
                checkpoint: Some((&mut store, &ResumePolicy::default())),
                cancel: Some(&cancel),
                on_frequency: None,
            },
        )
        .unwrap();
    drop(store);
    match outcome {
        ResumableOutcome::Cancelled(p) => {
            assert_eq!(p.completed, 2);
            assert_eq!(p.n_omega, config.n_omega);
            assert_eq!(p.per_omega.len(), 2);
            // the partial accumulator matches the reference prefix bits
            let prefix: f64 = {
                let mut acc = 0.0;
                for rep in &reference.per_omega[..2] {
                    acc += rep.contribution;
                }
                acc
            };
            assert_eq!(p.accumulated_energy.to_bits(), prefix.to_bits());
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let resumed = resume_to_completion(&setup, &config, &dir);
    assert_eq!(resumed.n_restored, 2);
    assert_eq!(
        resumed.total_energy.to_bits(),
        reference.total_energy.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancel_at_every_boundary_resumes_bit_identical() {
    // cancel from inside the per-frequency observer at boundary k (a
    // token already set when the run starts, for k = 0), under a dense
    // and a sparse `every` — the forced snapshot on cancellation must
    // cover boundaries the sparse policy skips — and without a store
    let setup = tiny_setup();
    let config = tiny_config();
    let reference = setup.run(&config).unwrap();

    for every in [Some(1), Some(3), None] {
        for k in 0..config.n_omega {
            let dir = scratch_dir("cancelsweep");
            let mut store = every.map(|_| CheckpointStore::open(&dir).unwrap());
            let policy = ResumePolicy {
                every: every.unwrap_or(1),
                resume: true,
                stop_after: None,
            };
            let cancel = CancelToken::new();
            if k == 0 {
                cancel.cancel();
            }
            let mut cancel_at_k = |completed: usize, _n_omega: usize| {
                if completed == k {
                    cancel.cancel();
                }
            };
            let outcome = setup
                .run_with(
                    &config,
                    RunOptions {
                        checkpoint: store.as_mut().map(|s| (s, &policy)),
                        cancel: Some(&cancel),
                        on_frequency: Some(&mut cancel_at_k),
                    },
                )
                .unwrap();
            let ResumableOutcome::Cancelled(p) = outcome else {
                panic!("every {every:?}, k = {k}: expected Cancelled, got {outcome:?}");
            };
            assert_eq!(p.completed, k, "every {every:?}");
            assert_eq!(p.per_omega.len(), k);
            // the partial accumulator is the reference's prefix, bit for bit
            let mut prefix = 0.0;
            for rep in &reference.per_omega[..k] {
                prefix += rep.contribution;
            }
            assert_eq!(p.accumulated_energy.to_bits(), prefix.to_bits());

            if let Some(store) = store {
                // the forced snapshot holds exactly the completed prefix
                // (nothing was ever written for k = 0)
                let latest = store.load_latest().unwrap();
                assert_eq!(
                    latest.map(|l| l.snapshot.completed),
                    (k > 0).then_some(k as u64),
                    "every {every:?}, k = {k}"
                );
                drop(store);
                let resumed = resume_to_completion(&setup, &config, &dir);
                assert_eq!(resumed.n_restored, k);
                assert_eq!(
                    resumed.total_energy.to_bits(),
                    reference.total_energy.to_bits(),
                    "every {every:?}, k = {k}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn observer_fires_once_per_computed_frequency_after_its_snapshot() {
    let setup = tiny_setup();
    let config = tiny_config();
    let dir = scratch_dir("observer");
    assert_eq!(run_prefix(&setup, &config, &dir, 1), 1);

    // one frequency is restored, so the observer sees 2, 3, 4 — and a
    // second handle on the store already finds each of them journaled
    let mut seen = Vec::new();
    let mut observe = |completed: usize, n_omega: usize| {
        assert_eq!(n_omega, config.n_omega);
        let journaled = CheckpointStore::open(&dir)
            .unwrap()
            .load_latest()
            .unwrap()
            .unwrap();
        assert_eq!(journaled.snapshot.completed, completed as u64);
        seen.push(completed);
    };
    let mut store = CheckpointStore::open(&dir).unwrap();
    let outcome = setup
        .run_with(
            &config,
            RunOptions {
                checkpoint: Some((&mut store, &ResumePolicy::default())),
                cancel: None,
                on_frequency: Some(&mut observe),
            },
        )
        .unwrap();
    assert!(matches!(outcome, ResumableOutcome::Complete(_)));
    assert_eq!(seen, vec![2, 3, 4]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_change_is_rejected_instead_of_mixing_state() {
    let setup = tiny_setup();
    let config = tiny_config();
    let dir = scratch_dir("mismatch");
    run_prefix(&setup, &config, &dir, 1);

    let changed = RpaConfig {
        seed: 4,
        ..tiny_config()
    };
    let mut store = CheckpointStore::open(&dir).unwrap();
    let err = setup
        .run_resumable(&changed, &mut store, &ResumePolicy::default())
        .unwrap_err();
    match err {
        RpaRunError::ConfigMismatch { saved, current } => assert_ne!(saved, current),
        other => panic!("expected ConfigMismatch, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn another_system_on_the_same_grid_is_rejected() {
    // the system seed moves the atoms and the mesh the spacing, neither
    // the grid dimension: the setup key still tells them from the saved run
    let setup = tiny_setup();
    let config = tiny_config();
    let dir = scratch_dir("system");
    run_prefix(&setup, &config, &dir, 1);

    let spec = SiliconSpec {
        points_per_cell: 5,
        perturbation: 0.03,
        seed: 11,
        ..SiliconSpec::default()
    };
    for (label, other) in [
        ("SYSTEM_SEED", SiliconSpec { seed: 12, ..spec }),
        ("MESH", SiliconSpec { mesh: 0.75, ..spec }),
    ] {
        let other = RpaSetup::prepare(
            other.build(),
            &PotentialParams::default(),
            2,
            KsSolver::Dense { extra: 2 },
        )
        .unwrap();
        assert_eq!(other.ham.dim(), setup.ham.dim(), "{label}");
        let mut store = CheckpointStore::open(&dir).unwrap();
        match other.run_resumable(&config, &mut store, &ResumePolicy::default()) {
            Err(RpaRunError::ConfigMismatch { saved, current }) => {
                assert_ne!(saved, current, "{label}")
            }
            Err(e) => panic!("{label}: expected ConfigMismatch, got {e}"),
            Ok(_) => panic!("{label}: resumed another system's checkpoint"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fresh_start_ignores_checkpoints_when_resume_is_off() {
    let setup = tiny_setup();
    let config = tiny_config();
    let dir = scratch_dir("noresume");
    run_prefix(&setup, &config, &dir, 2);

    let mut store = CheckpointStore::open(&dir).unwrap();
    let policy = ResumePolicy {
        every: 1,
        resume: false,
        stop_after: None,
    };
    let result = match setup.run_resumable(&config, &mut store, &policy).unwrap() {
        ResumableOutcome::Complete(r) => *r,
        ResumableOutcome::Checkpointed { .. } => panic!("should have completed"),
        ResumableOutcome::Cancelled(_) => panic!("no cancel token was attached"),
    };
    assert_eq!(result.n_restored, 0);
    assert_eq!(result.per_omega.len(), config.n_omega);
    std::fs::remove_dir_all(&dir).ok();
}
