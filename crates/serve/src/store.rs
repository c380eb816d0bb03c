//! On-disk job store: one directory per job, crash-safe state files.
//!
//! Layout under the daemon root:
//!
//! ```text
//! <root>/jobs/<id>/job.json     # the mbrpa.job/1 submission, re-serialised
//! <root>/jobs/<id>/state       # single word: queued|running|…
//! <root>/jobs/<id>/result.json # mbrpa.result/1, completed jobs only
//! <root>/jobs/<id>/profile.json# mbrpa-obs profile, when enabled
//! <root>/jobs/<id>/report.out  # human-readable run report
//! <root>/jobs/<id>/error.txt   # failure message, failed jobs only
//! <root>/ckpt/<id>/            # two-slot checkpoint namespace
//! ```
//!
//! Every file is written with `mbrpa_ckpt::write_atomic` (temp file in
//! the same directory, `fsync`, rename, directory `fsync` — the one
//! implementation the two-slot checkpoint store also uses), so a
//! `kill -9` at any instant leaves each job with a consistent
//! `job.json`/`state` pair. On restart
//! [`JobStore::scan`] rebuilds the queue from these files; a directory
//! missing its `job.json` (crash between `mkdir` and the first write,
//! before the submission was ever acknowledged) is skipped.
//!
//! The store does no locking: the daemon serializes mutations through
//! its queue mutex.

use crate::job::{valid_label, JobSpec, JobState};
use crate::json;
use mbrpa_ckpt::write_atomic;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File holding the submission body.
pub const JOB_FILE: &str = "job.json";
/// File holding the single-word lifecycle state.
pub const STATE_FILE: &str = "state";
/// File holding the `mbrpa.result/1` body.
pub const RESULT_FILE: &str = "result.json";
/// File holding the `mbrpa-obs` profile JSON.
pub const PROFILE_FILE: &str = "profile.json";
/// File holding the human-readable run report.
pub const REPORT_FILE: &str = "report.out";
/// File holding the partial-progress summary of a cancelled job.
pub const PARTIAL_FILE: &str = "partial.json";
/// File holding the failure message of a failed job.
pub const ERROR_FILE: &str = "error.txt";

/// A job rebuilt from disk by [`JobStore::scan`].
#[derive(Debug, Clone)]
pub struct ScannedJob {
    /// Job id (the directory name).
    pub id: String,
    /// The persisted submission.
    pub spec: JobSpec,
    /// State at the moment of the scan.
    pub state: JobState,
}

/// Handle on a daemon root directory. Cheap to clone.
#[derive(Debug, Clone)]
pub struct JobStore {
    root: PathBuf,
    /// The job number [`JobStore::allocate`] tries next, shared by clones.
    next: Arc<AtomicU64>,
}

impl JobStore {
    /// Open (creating if needed) the store under `root`. Lists `jobs/`
    /// once: ids continue after the highest `job-<n>` already there.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("jobs"))?;
        fs::create_dir_all(root.join("ckpt"))?;
        let mut max = 0u64;
        for entry in fs::read_dir(root.join("jobs"))? {
            let name = entry?.file_name();
            if let Some(n) = name
                .to_str()
                .and_then(|name| name.strip_prefix("job-"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                max = max.max(n);
            }
        }
        Ok(Self {
            root,
            next: Arc::new(AtomicU64::new(max + 1)),
        })
    }

    /// The daemon root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding the per-job directories.
    pub fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    /// Root for per-job checkpoint namespaces (pass to
    /// `CheckpointStore::open_namespaced` with the job id).
    pub fn ckpt_root(&self) -> PathBuf {
        self.root.join("ckpt")
    }

    /// Directory of one job.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(id)
    }

    /// Persist a new job: allocates the next id, creates its directory,
    /// and writes `job.json` then `state = queued`. Returns the id.
    ///
    /// Not internally synchronized — the daemon calls this under its
    /// queue lock.
    pub fn allocate(&self, spec: &JobSpec) -> io::Result<String> {
        let (id, dir) = loop {
            // ord: Relaxed — an id counter; it publishes no other data
            let next = self.next.fetch_add(1, Ordering::Relaxed);
            let id = format!("job-{next:06}");
            let dir = self.job_dir(&id);
            match fs::create_dir(&dir) {
                Ok(()) => break (id, dir),
                // a second writer on this root took the id since `open`
                // listed the directory: its job is not ours to share
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        };
        write_atomic(
            &dir.join(JOB_FILE),
            spec.to_json_value().to_json().as_bytes(),
        )?;
        write_atomic(&dir.join(STATE_FILE), JobState::Queued.as_str().as_bytes())?;
        Ok(id)
    }

    /// Atomically rewrite a job's `state` file.
    pub fn write_state(&self, id: &str, state: JobState) -> io::Result<()> {
        write_atomic(
            &self.job_dir(id).join(STATE_FILE),
            state.as_str().as_bytes(),
        )
    }

    /// Read a job's state; `None` when the job or its state file does
    /// not exist or holds an unknown word.
    pub fn read_state(&self, id: &str) -> Option<JobState> {
        let text = fs::read_to_string(self.job_dir(id).join(STATE_FILE)).ok()?;
        JobState::parse(&text)
    }

    /// Load a job's persisted submission; `None` when absent or invalid.
    pub fn load_spec(&self, id: &str) -> Option<JobSpec> {
        let text = fs::read_to_string(self.job_dir(id).join(JOB_FILE)).ok()?;
        let value = json::parse(&text).ok()?;
        JobSpec::from_json(&value).ok()
    }

    /// Atomically write an auxiliary document (`result.json`,
    /// `profile.json`, `report.out`, `error.txt`) into the job's dir.
    pub fn write_doc(&self, id: &str, file: &str, text: &str) -> io::Result<()> {
        write_atomic(&self.job_dir(id).join(file), text.as_bytes())
    }

    /// Read an auxiliary document, if present.
    pub fn read_doc(&self, id: &str, file: &str) -> Option<String> {
        fs::read_to_string(self.job_dir(id).join(file)).ok()
    }

    /// Rebuild the job list from disk: every directory under `jobs/`
    /// whose name is a valid id and which holds a readable `job.json` +
    /// `state` pair, sorted by id (ids zero-pad, so lexical order is
    /// submission order).
    pub fn scan(&self) -> io::Result<Vec<ScannedJob>> {
        let mut jobs = Vec::new();
        for entry in fs::read_dir(self.jobs_dir())? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(id) = name.to_str() else { continue };
            if !valid_label(id) {
                continue;
            }
            let (Some(spec), Some(state)) = (self.load_spec(id), self.read_state(id)) else {
                continue;
            };
            jobs.push(ScannedJob {
                id: id.to_string(),
                spec,
                state,
            });
        }
        jobs.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn spec(priority: u8) -> JobSpec {
        JobSpec {
            name: Some("t".to_string()),
            priority,
            input: "N_OMEGA: 3\n".to_string(),
        }
    }

    #[test]
    fn allocate_assigns_sequential_ids_and_queued_state() {
        let root = test_dir("store_alloc");
        let store = JobStore::open(&root).unwrap();
        let a = store.allocate(&spec(4)).unwrap();
        let b = store.allocate(&spec(5)).unwrap();
        assert_eq!(a, "job-000001");
        assert_eq!(b, "job-000002");
        assert_eq!(store.read_state(&a), Some(JobState::Queued));
        assert_eq!(store.load_spec(&b).unwrap().priority, 5);

        // a second writer on the root takes the next id after `open`
        // listed the directory: its job is skipped and left as found
        let theirs = store.job_dir("job-000003");
        fs::create_dir(&theirs).unwrap();
        fs::write(theirs.join(JOB_FILE), b"theirs").unwrap();
        assert_eq!(store.allocate(&spec(4)).unwrap(), "job-000004");
        assert_eq!(fs::read(theirs.join(JOB_FILE)).unwrap(), b"theirs");
        assert_eq!(fs::read_dir(&theirs).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_rebuilds_jobs_and_survives_junk() {
        let root = test_dir("store_scan");
        let store = JobStore::open(&root).unwrap();
        let a = store.allocate(&spec(4)).unwrap();
        let b = store.allocate(&spec(9)).unwrap();
        store.write_state(&b, JobState::Running).unwrap();
        // junk: a dir with no job.json (crash before the first write)
        fs::create_dir_all(store.jobs_dir().join("job-000099")).unwrap();
        // junk: an invalid directory name
        fs::create_dir_all(store.jobs_dir().join(".hidden")).unwrap();

        let scanned = store.scan().unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].id, a);
        assert_eq!(scanned[0].state, JobState::Queued);
        assert_eq!(scanned[1].id, b);
        assert_eq!(scanned[1].state, JobState::Running);

        // a store opened over these continues after the highest number
        // there, junk included
        let reopened = JobStore::open(&root).unwrap();
        assert_eq!(reopened.allocate(&spec(1)).unwrap(), "job-000100");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn state_transitions_persist() {
        let root = test_dir("store_state");
        let store = JobStore::open(&root).unwrap();
        let id = store.allocate(&spec(4)).unwrap();
        for state in [
            JobState::Running,
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
        ] {
            store.write_state(&id, state).unwrap();
            // a second handle (a restarted daemon) sees the same state
            let reopened = JobStore::open(&root).unwrap();
            assert_eq!(reopened.read_state(&id), Some(state));
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn docs_roundtrip() {
        let root = test_dir("store_docs");
        let store = JobStore::open(&root).unwrap();
        let id = store.allocate(&spec(4)).unwrap();
        assert!(store.read_doc(&id, RESULT_FILE).is_none());
        store.write_doc(&id, RESULT_FILE, "{\"x\":1}").unwrap();
        assert_eq!(store.read_doc(&id, RESULT_FILE).unwrap(), "{\"x\":1}");
        let _ = fs::remove_dir_all(&root);
    }
}
