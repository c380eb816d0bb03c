//! # mbrpa-serve
//!
//! Batch job-scheduling and serving daemon for RPA runs: submit `.rpa`
//! inputs over HTTP, watch per-frequency progress, cancel cooperatively,
//! and survive both graceful drains and `kill -9`.
//!
//! Everything is hand-rolled on `std` — no tokio, no hyper, no serde —
//! matching the workspace's zero-dependency discipline:
//!
//! * [`json`] — the workspace's JSON toolkit, re-exported from
//!   `mbrpa-schema` under the path callers have always used,
//! * [`job`] — schema-versioned wire documents (`mbrpa.job/1`,
//!   `mbrpa.job-status/1`, `mbrpa.result/1`, `mbrpa.health/1`) with
//!   validators; submissions are fully parsed and cross-checked against
//!   the system they would run on *before* they are accepted,
//! * [`queue`] — a pure in-memory priority queue with a bounded backlog
//!   (full ⇒ `429` + `Retry-After`, never a dropped job),
//! * [`store`] — one directory per job with atomically-written state
//!   files; a restarted daemon rebuilds its queue from this store,
//! * [`http`] — HTTP/1.1 on `std::net`: accept thread + worker pool,
//!   and the one client ([`http::exchange`]) the router, `rpaclient`
//!   and the tests call,
//! * [`api`] — the `/v1` routes,
//! * [`cache`] — a content-addressed exact result cache keyed by the
//!   canonical 128-bit input fingerprint; a resubmission of a
//!   semantically identical input is answered with the stored
//!   `mbrpa.result/1` (same `f64` bits) instead of recomputed,
//! * [`executor`] — runs each claimed job with one checkpointed
//!   `RpaSetup::run_with` call (the path `rpacalc` takes, so energies
//!   are bit-identical), which journals every frequency, observes the
//!   job's cancel token and publishes progress as it goes,
//! * [`daemon`] — assembly: crash recovery at startup, graceful drain
//!   on shutdown,
//! * [`router`] — `rparouter`: shards submissions across a fleet of
//!   workers by rendezvous-hashing the input fingerprint, polls worker
//!   health, and hands a dead worker's jobs to survivors, which resume
//!   bit-for-bit from a shared fingerprint-keyed checkpoint root,
//! * [`signal`] — SIGINT/SIGTERM → a cooperative `CancelToken`.
//!
//! A running job journals per-frequency state through `core::checkpoint`
//! into a per-job namespace; after a crash the job re-enters the queue
//! and its next run resumes from the journal, reproducing the
//! uninterrupted energy bit for bit.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod daemon;
pub mod executor;
pub mod http;
pub mod job;
pub mod queue;
pub mod router;
pub mod signal;
pub mod store;

pub use mbrpa_schema::json;

pub use cache::{CacheCounters, CacheStore};
pub use daemon::{Daemon, DaemonConfig, Logger, RunningJob, ServeShared};
pub use job::{JobSpec, JobState};
pub use queue::{CancelOutcome, JobQueue, SubmitError};
pub use router::{Router, RouterConfig};
pub use store::JobStore;

/// A scratch directory for one unit test, cleared of an earlier run's files.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mbrpa-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file directly under `dir`, by path, with its bytes.
#[cfg(test)]
pub(crate) fn files_in(
    dir: &std::path::Path,
) -> std::collections::BTreeMap<std::path::PathBuf, Vec<u8>> {
    let paths = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let files = paths.filter(|path| path.is_file());
    files
        .map(|path| (path.clone(), std::fs::read(&path).unwrap()))
        .collect()
}
