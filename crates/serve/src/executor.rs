//! Executor pool: claims jobs, runs each with one checkpointed
//! [`RpaSetup::run_with`] call, and finalizes their on-disk documents.
//!
//! Each claimed job goes through the path `rpacalc` takes —
//! [`RpaSetup::from_input`], then the one frequency loop — so a served
//! energy is bit-identical to a command-line run of the same input. The
//! loop checkpoints every frequency through `core::checkpoint`, so a
//! `kill -9` at any instant loses at most the in-flight frequency; it
//! observes the job's cancel token itself, and its per-frequency
//! observer publishes progress for the status endpoint once that
//! frequency's snapshot is durable.
//!
//! Cancellation is disambiguated at the end: a token tripped by a
//! client finalizes the job as `Cancelled` (with a partial report); a
//! token tripped by a drain requeues it, so the next daemon to open the
//! store resumes it bit-for-bit.

use crate::daemon::{lock, RunningJob, ServeShared};
use crate::job::{self, JobSpec, JobState};
use crate::queue::JobQueue;
use crate::store::{ERROR_FILE, PARTIAL_FILE, PROFILE_FILE, REPORT_FILE, RESULT_FILE};
use mbrpa_ckpt::CheckpointStore;
use mbrpa_core::io::parse_rpa_input;
use mbrpa_core::{
    report, BlockPolicy, ResumableOutcome, ResumePolicy, RpaInput, RpaResult, RpaSetup, RunOptions,
};
use mbrpa_grid::par::outer_scope;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// How a run ended, before the queue/store transition is applied.
enum Finish {
    /// Completed; `result.json` and `report.out` are written.
    Complete,
    /// Cancelled by a drain: back to the backlog, checkpoints intact.
    Requeue,
    /// Cancelled by a client: terminal, with a partial report.
    Cancelled,
    /// Errored (or panicked); the message goes to `error.txt`.
    Failed(String),
}

/// Block until a job is claimed (`Some`) or a drain begins (`None`). The
/// predicate is re-checked under the queue lock before every wait and
/// every notifier holds that lock, so no wake-up is lost and no timeout
/// is needed.
pub(crate) fn claim_or_drain(
    queue: &Mutex<JobQueue>,
    wake: &Condvar,
    draining: &AtomicBool,
) -> Option<String> {
    let mut guard = lock(queue);
    loop {
        // ord: Acquire — pairs with the Release store in `begin_drain`
        if draining.load(Ordering::Acquire) {
            return None;
        }
        if let Some(id) = guard.claim() {
            return Some(id);
        }
        // lint: allow(lock_hold) — `Condvar::wait` takes the guard and releases the mutex while blocked
        guard = wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Body of one executor thread: claim, run, finalize, repeat until the
/// daemon drains.
pub(crate) fn executor_loop(shared: &Arc<ServeShared>) {
    while let Some(id) = claim_or_drain(&shared.queue, &shared.wake, &shared.draining) {
        run_one(shared, &id);
    }
}

fn run_one(shared: &Arc<ServeShared>, id: &str) {
    let Some(spec) = shared.store.load_spec(id) else {
        finalize(
            shared,
            id,
            Finish::Failed("job.json is unreadable".to_string()),
        );
        return;
    };
    if let Err(e) = shared.store.write_state(id, JobState::Running) {
        finalize(
            shared,
            id,
            Finish::Failed(format!("cannot persist running state: {e}")),
        );
        return;
    }

    let job = Arc::new(RunningJob::new(id));
    lock(&shared.running).push(Arc::clone(&job));
    // a panic anywhere in the numeric stack must not strand the job in
    // `Running` or kill the executor thread
    let finish = catch_unwind(AssertUnwindSafe(|| execute(shared, &spec, &job)))
        .unwrap_or_else(|_| Finish::Failed("executor panicked while running the job".to_string()));
    lock(&shared.running).retain(|r| r.id != id);
    finalize(shared, id, finish);
}

/// Apply a [`Finish`]: queue transition and state file move together
/// under the queue lock, so API readers never see them disagree.
fn finalize(shared: &Arc<ServeShared>, id: &str, finish: Finish) {
    let mut queue = lock(&shared.queue);
    let (moved, state) = match &finish {
        Finish::Complete => (queue.complete(id), JobState::Completed),
        Finish::Requeue => {
            let moved = queue.requeue(id);
            // claimable again; only a drain requeues today, so every
            // executor is leaving, but the pairing holds whoever does
            shared.wake.notify_one();
            (moved, JobState::Queued)
        }
        Finish::Cancelled => (queue.finish_cancelled(id), JobState::Cancelled),
        Finish::Failed(message) => {
            if let Err(e) = shared.store.write_doc(id, ERROR_FILE, message) {
                (shared.log)(&format!("{id}: cannot write error.txt: {e}"));
            }
            (shared.log)(&format!("{id}: failed: {message}"));
            (queue.fail(id), JobState::Failed)
        }
    };
    if !moved {
        // only possible if the queue lost track of a job it claimed
        (shared.log)(&format!(
            "{id}: queue transition to {} refused",
            state.as_str()
        ));
    }
    if let Err(e) = shared.store.write_state(id, state) {
        (shared.log)(&format!(
            "{id}: cannot persist state {}: {e}",
            state.as_str()
        ));
    }
}

/// Run one job to an end state. Writes result/report/profile documents
/// but leaves the queue/state transition to [`finalize`].
fn execute(shared: &Arc<ServeShared>, spec: &JobSpec, job: &RunningJob) -> Finish {
    // `Daemon::start` refuses a profile with more than one executor, so
    // this job owns the process-global sink
    let profiled = shared.profile;
    if profiled {
        mbrpa_obs::reset();
        mbrpa_obs::set_enabled(true);
    }

    let input = match parse_rpa_input(&spec.input) {
        Ok(i) => i,
        Err(e) => return Finish::Failed(format!("invalid `.rpa` input: {e}")),
    };
    if let Err(e) = input.check() {
        return Finish::Failed(e);
    }

    let setup = {
        let _setup_span = mbrpa_obs::span("setup");
        match RpaSetup::from_input(&input) {
            Ok(s) => s,
            Err(e) => return Finish::Failed(format!("KS stage failed: {e}")),
        }
    };

    let mut store = match open_job_checkpoints(shared, &input, &job.id) {
        Ok(s) => s,
        Err(e) => return Finish::Failed(format!("cannot open checkpoint namespace: {e}")),
    };

    // with several executors, register each job as an outer parallel
    // region so the shared rayon pool is split instead of oversubscribed
    let _outer = (shared.executors > 1).then(|| outer_scope(1));

    // every boundary checkpoints, and the first thing the run does is
    // pick up any state a previous daemon left behind
    let policy = ResumePolicy::default();
    let mut publish = |completed: usize, n_omega: usize| {
        // ord: Release — pairs with the status endpoint's Acquire loads;
        // store `completed` first so a reader that sees `n_omega > 0`
        // also sees the matching progress
        job.completed.store(completed, Ordering::Release);
        // ord: Release — see `completed` above
        job.n_omega.store(n_omega, Ordering::Release);
    };
    let _rpa_span = mbrpa_obs::span("rpa");
    let outcome = setup.run_with(
        &input.config,
        RunOptions {
            checkpoint: Some((&mut store, &policy)),
            cancel: Some(&job.token),
            on_frequency: Some(&mut publish),
        },
    );
    match outcome {
        Ok(ResumableOutcome::Complete(result)) => complete(shared, &input, job, &result, profiled),
        Ok(ResumableOutcome::Checkpointed { .. }) => {
            unreachable!("the policy sets no stop_after")
        }
        Ok(ResumableOutcome::Cancelled(partial)) => {
            // ord: Acquire — pairs with the cancel endpoint's Release store,
            // so a tripped token implies the flag is already visible
            if job.user_cancel.load(Ordering::Acquire) {
                let partial_json = job::partial_doc(&job.id, &partial).to_json();
                write_or_log(shared, &job.id, PARTIAL_FILE, &partial_json);
                let doc = report::partial_report(
                    &input.config,
                    &partial,
                    setup.crystal.n_grid(),
                    setup.crystal.n_occupied(),
                    setup.crystal.atoms.len(),
                    &report::projector_note(&setup.ham),
                );
                write_or_log(shared, &job.id, REPORT_FILE, &doc);
                return Finish::Cancelled;
            }
            // drain: the checkpointed prefix stays in the namespace and
            // the job returns to the backlog for the next daemon
            Finish::Requeue
        }
        Err(e) => Finish::Failed(format!("RPA stage failed: {e}")),
    }
}

/// Open the job's checkpoint namespace. With a shared `-ckpt-root`, the
/// namespace is keyed by the input's canonical fingerprint rather than
/// the worker-local job id: two workers given the same submission open
/// the *same* directory, so a worker adopting a job after a failover
/// resumes from the dead worker's completed frequencies bit-for-bit. (The
/// router's rendezvous hash assigns each fingerprint to exactly one live
/// worker, so the namespace has a single writer at a time.)
fn open_job_checkpoints(
    shared: &ServeShared,
    input: &RpaInput,
    id: &str,
) -> Result<CheckpointStore, mbrpa_ckpt::CkptError> {
    match shared.ckpt_root.as_ref() {
        Some(root) => CheckpointStore::open_namespaced(root, &mbrpa_core::fingerprint_hex(input)),
        None => CheckpointStore::open_namespaced(shared.store.ckpt_root(), id),
    }
}

fn complete(
    shared: &Arc<ServeShared>,
    input: &RpaInput,
    job: &RunningJob,
    result: &RpaResult,
    profiled: bool,
) -> Finish {
    let result_doc = job::result_doc(&job.id, result);
    if let Err(e) = shared
        .store
        .write_doc(&job.id, RESULT_FILE, &result_doc.to_json())
    {
        // without a result document the job must not report success
        return Finish::Failed(format!("cannot write result.json: {e}"));
    }

    // populate the exact result cache — only here, on full completion:
    // cancelled, partial, and failed runs never enter it, nor does a run
    // whose block sizes came from wall-clock noise, not from its input
    if input.config.block_policy == BlockPolicy::DynamicTimed {
        (shared.log)(&format!("{}: BLOCK_POLICY dynamic; not cached", job.id));
    } else if let Some(cache) = shared.cache.as_ref() {
        let fingerprint = mbrpa_core::fingerprint_hex(input);
        match lock(cache).insert(&fingerprint, &result_doc) {
            Ok(true) => mbrpa_obs::add("serve.cache.insert", 1),
            Ok(false) => (shared.log)(&format!(
                "{}: result exceeds the cache budget; not cached",
                job.id
            )),
            Err(e) => (shared.log)(&format!("{}: cannot cache result: {e}", job.id)),
        }
    }

    let mut doc = report::full_report(&input.config, result);
    if profiled {
        let profile = mbrpa_obs::report_tagged(&job.id);
        doc.push('\n');
        doc.push_str(&profile.summary_table());
        write_or_log(shared, &job.id, PROFILE_FILE, &profile.to_json());
    }
    write_or_log(shared, &job.id, REPORT_FILE, &doc);
    (shared.log)(&format!(
        "{}: completed, E_c = {:.5E} Ha in {:.3} s",
        job.id,
        result.total_energy,
        result.wall_time.as_secs_f64()
    ));
    Finish::Complete
}

/// Best-effort auxiliary document write (the job outcome does not depend
/// on it).
fn write_or_log(shared: &Arc<ServeShared>, id: &str, file: &str, text: &str) {
    if let Err(e) = shared.store.write_doc(id, file, text) {
        (shared.log)(&format!("{id}: cannot write {file}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Wake-up stress without a solver: producers submit and notify as
    /// `api::submit` does, consumers run the executors' claim loop with a
    /// no-op job body; a lost wake-up leaves jobs unclaimed at the
    /// deadline, a double claim or a dropped job fails the count.
    #[test]
    fn every_submitted_job_is_claimed_once_and_a_drain_ends_the_wait() {
        for round in 0..50 {
            let queue = Mutex::new(JobQueue::new(200));
            let (wake, draining) = (Condvar::new(), AtomicBool::new(false));
            let claimed = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                let consumers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            while let Some(id) = claim_or_drain(&queue, &wake, &draining) {
                                lock(&claimed).push(id);
                            }
                        })
                    })
                    .collect();
                let producers: Vec<_> = (0..4)
                    .map(|p| {
                        let (queue, wake) = (&queue, &wake);
                        scope.spawn(move || {
                            for n in 0..50 {
                                let mut guard = lock(queue);
                                guard.submit(&format!("job-{p}-{n}"), 4).unwrap();
                                wake.notify_one();
                            }
                        })
                    })
                    .collect();
                for producer in producers {
                    producer.join().unwrap();
                }
                // the consumers are woken for every job; wait for the last
                // claim, then drain as `begin_drain` does
                let deadline = Instant::now() + Duration::from_secs(10);
                while lock(&claimed).len() < 200 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                // ord: Release — pairs with the Acquire load in `claim_or_drain`
                draining.store(true, Ordering::Release);
                {
                    let _queue = lock(&queue);
                    wake.notify_all();
                }
                for consumer in consumers {
                    consumer.join().unwrap();
                }
            });
            let mut ids = claimed.into_inner().unwrap();
            assert_eq!(ids.len(), 200, "round {round}: claims");
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), 200, "round {round}: distinct ids");
        }
    }
}
