//! Daemon assembly: shared state, startup recovery, and graceful drain.
//!
//! [`Daemon::start`] rebuilds the queue from the on-disk job store
//! (crash recovery), binds the HTTP listener, and spawns the executor
//! pool. [`Daemon::drain`] is the graceful shutdown path: it stops
//! admissions, trips every running job's `CancelToken`, waits for the
//! executors to checkpoint and requeue their work, then closes the
//! listener — so a drained daemon restarts exactly where it left off.

use crate::api;
use crate::cache::{self, CacheStore};
use crate::executor;
use crate::http::HttpServer;
use crate::job::JobState;
use crate::queue::JobQueue;
use crate::store::JobStore;
use mbrpa_core::CancelToken;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Where daemon diagnostics go. The library never prints; binaries pass
/// an `eprintln!` closure, tests a capture buffer or a no-op.
pub type Logger = Arc<dyn Fn(&str) + Send + Sync>;

/// Daemon configuration.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Job-store root directory (created if absent).
    pub root: PathBuf,
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Executor threads. `0` is allowed (accept-only daemon — jobs queue
    /// but never run), which tests use to exercise backpressure
    /// deterministically.
    pub executors: usize,
    /// Maximum queued (not yet running) jobs before submissions get 429.
    pub backlog: usize,
    /// Emit per-job `profile.json` telemetry. Needs at most one executor:
    /// the telemetry sink is process-global, so two concurrent jobs would
    /// blend their spans, and [`Daemon::start`] refuses the pair.
    pub profile: bool,
    /// Enable the exact result cache (see [`crate::cache`]). On by
    /// default; `rpaserved -no-cache` turns it off.
    pub cache: bool,
    /// Cache directory; `None` means `<root>/cache`.
    pub cache_dir: Option<PathBuf>,
    /// Cache byte budget (LRU eviction above this).
    pub cache_budget: u64,
    /// Shared checkpoint root for multi-worker fleets. When set, job
    /// checkpoints live under `<ckpt_root>/<input-fingerprint>/` instead
    /// of the worker-local per-job-id namespace, so a job handed to
    /// another worker after a failover resumes from the dead worker's
    /// slices bit-for-bit. Point every worker behind one `rparouter` at
    /// the same (shared-storage) directory.
    pub ckpt_root: Option<PathBuf>,
    /// Diagnostics sink.
    pub log: Logger,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            root: PathBuf::from("mbrpa-serve-data"),
            addr: "127.0.0.1:0".to_string(),
            executors: 1,
            backlog: 16,
            profile: false,
            cache: true,
            cache_dir: None,
            cache_budget: cache::DEFAULT_BUDGET,
            ckpt_root: None,
            log: Arc::new(|_| {}),
        }
    }
}

/// A claimed job's live handles: the cancel token the API trips, and the
/// per-frequency progress the executor publishes for the status
/// endpoint.
#[derive(Debug)]
pub struct RunningJob {
    /// Job id.
    pub id: String,
    /// Cooperative cancellation; checked at frequency boundaries.
    pub token: CancelToken,
    /// Set when cancellation came from a client (vs. a drain): the
    /// executor finalizes the job as `Cancelled` instead of requeueing.
    pub user_cancel: AtomicBool,
    /// Frequencies completed so far.
    pub completed: AtomicUsize,
    /// Total frequencies of the run (0 until the first frequency this
    /// daemon computed is journaled).
    pub n_omega: AtomicUsize,
}

impl RunningJob {
    /// Fresh handles for a just-claimed job.
    pub fn new(id: &str) -> Self {
        Self {
            id: id.to_string(),
            token: CancelToken::new(),
            user_cancel: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            n_omega: AtomicUsize::new(0),
        }
    }
}

/// State shared between the HTTP handlers and the executor pool.
pub struct ServeShared {
    /// The in-memory queue; the single serialization point for job
    /// lifecycle transitions (the store is only mutated under this lock).
    pub queue: Mutex<JobQueue>,
    /// Paired with `queue`: idle executors wait on it, and whatever makes
    /// a job claimable or begins a drain notifies it under the queue lock.
    pub wake: Condvar,
    /// The on-disk job store.
    pub store: JobStore,
    /// Live handles of currently running jobs.
    pub running: Mutex<Vec<Arc<RunningJob>>>,
    /// Raised by drain/shutdown: executors stop claiming, submissions
    /// get 503.
    pub draining: AtomicBool,
    /// Size of the executor pool (for health reporting and the
    /// outer-scope hint).
    pub executors: usize,
    /// Whether per-job profiles are emitted (see [`DaemonConfig::profile`]).
    pub profile: bool,
    /// The exact result cache, `None` when disabled. Locked separately
    /// from (and never while holding) the queue lock.
    pub cache: Option<Mutex<CacheStore>>,
    /// Shared fingerprint-keyed checkpoint root, `None` for worker-local
    /// per-job-id namespaces (see [`DaemonConfig::ckpt_root`]).
    pub ckpt_root: Option<PathBuf>,
    /// Diagnostics sink.
    pub log: Logger,
}

/// Lock a mutex, recovering from poisoning: a panicking executor must
/// not take the whole daemon down with it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServeShared {
    /// Start a drain ([`Daemon::drain`], `POST /v1/shutdown`): refuse
    /// admissions and claims, wake the idle executors so they exit, and
    /// trip every running job's token without `user_cancel`, so those
    /// jobs checkpoint and requeue.
    pub fn begin_drain(&self) {
        // ord: Release — pairs with the Acquire loads gating admission and claims
        self.draining.store(true, Ordering::Release);
        {
            let _queue = lock(&self.queue);
            self.wake.notify_all();
        }
        for job in lock(&self.running).iter() {
            job.token.cancel();
        }
    }

    /// The live handle of a running job, if any.
    pub fn running_job(&self, id: &str) -> Option<Arc<RunningJob>> {
        lock(&self.running).iter().find(|r| r.id == id).cloned()
    }
}

/// A started daemon: HTTP server + executor pool over a [`ServeShared`].
pub struct Daemon {
    shared: Arc<ServeShared>,
    http: HttpServer,
    executors: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Start a daemon: recover jobs from `config.root`, bind
    /// `config.addr`, spawn the pool.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        if config.profile && config.executors > 1 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "-profile needs a single executor, not -executors {}: \
                     concurrent jobs would blend their telemetry",
                    config.executors
                ),
            ));
        }
        let store = JobStore::open(config.root.clone())?;
        let mut queue = JobQueue::new(config.backlog);
        let mut recovered = 0usize;
        for job in store.scan()? {
            if job.state == JobState::Running {
                // interrupted by a crash: persist the requeue so the state
                // file and queue agree, then resume from its checkpoints
                store.write_state(&job.id, JobState::Queued)?;
                recovered += 1;
            }
            // Duplicate is impossible here (scan ids are unique)
            let _ = queue.recover(&job.id, job.spec.priority, job.state);
        }
        if recovered > 0 {
            (config.log)(&format!(
                "recovered {recovered} interrupted job(s); they will resume from checkpoints"
            ));
        }

        let cache = if config.cache {
            let dir = config
                .cache_dir
                .clone()
                .unwrap_or_else(|| config.root.join("cache"));
            let cache = CacheStore::open(dir, config.cache_budget)?;
            let dropped = cache.counters().corrupt_dropped;
            if dropped > 0 {
                (config.log)(&format!(
                    "result cache: dropped {dropped} corrupt or leftover file(s) at startup"
                ));
            }
            (config.log)(&format!(
                "result cache: {} entr{} ({} bytes) under {}",
                cache.len(),
                if cache.len() == 1 { "y" } else { "ies" },
                cache.total_bytes(),
                cache.dir().display()
            ));
            Some(Mutex::new(cache))
        } else {
            None
        };

        if let Some(root) = config.ckpt_root.as_ref() {
            fs::create_dir_all(root)?;
            (config.log)(&format!(
                "shared checkpoint root: {} (fingerprint-keyed namespaces)",
                root.display()
            ));
        }

        let shared = Arc::new(ServeShared {
            queue: Mutex::new(queue),
            wake: Condvar::new(),
            store,
            running: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            executors: config.executors,
            profile: config.profile,
            cache,
            ckpt_root: config.ckpt_root.clone(),
            log: Arc::clone(&config.log),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let handler = api::handler(Arc::clone(&shared));
        let http = HttpServer::start(listener, handler)?;

        // recovered jobs entered the queue above, before any executor
        // exists to wait: the first claim finds them without a notify
        let executors = (0..config.executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mbrpa-exec-{i}"))
                    .spawn(move || executor::executor_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Daemon {
            shared,
            http,
            executors,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Shared state (tests poke it directly).
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.shared
    }

    /// True once a drain has been requested — by [`Daemon::drain`] or by
    /// a client's `POST /v1/shutdown`. The owning binary polls this and
    /// then calls [`Daemon::drain`] to finish the shutdown.
    pub fn drain_requested(&self) -> bool {
        // ord: Acquire — pairs with the Release store in `begin_drain`
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop admissions and claims, cancel running
    /// jobs (they checkpoint at the next frequency boundary and requeue),
    /// join the executors, close the listener. Idempotent.
    pub fn drain(&mut self) {
        self.shared.begin_drain();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        self.http.shutdown();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.drain();
    }
}
