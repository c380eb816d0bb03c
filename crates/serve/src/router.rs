//! `rparouter` — multi-node job sharding with worker-loss handoff.
//!
//! The router is a front daemon speaking the *same* `mbrpa.job/1` API as
//! a single `rpaserved` worker, fanning submissions out over a fleet:
//!
//! ```text
//!                 ┌── rpaserved A ──┐
//!  client ── rparouter ── rpaserved B ──┼── shared -ckpt-root
//!                 └── rpaserved C ──┘
//! ```
//!
//! Three mechanisms carry the design:
//!
//! * **Rendezvous (highest-random-weight) routing.** Each submission is
//!   canonicalized to its 128-bit input fingerprint and assigned to the
//!   live worker maximizing `fnv1a64(fingerprint ‖ worker)`. The hash is
//!   deterministic and per-key stable: adding or losing a worker only
//!   moves the keys that worker owned, so cache-hot workers keep their
//!   keys and a resubmission lands on the worker whose result cache (and
//!   checkpoint namespace) already knows it.
//! * **Health polling with timeout and backoff.** A poller thread probes
//!   every worker's `GET /v1/health` on a fixed cadence under a hard
//!   per-probe timeout. Consecutive failures beyond a threshold mark the
//!   worker dead; dead workers are re-probed under exponential backoff
//!   so a flapping host cannot monopolize the poll loop.
//! * **Ownership handoff.** Every accepted submission is recorded as a
//!   route binding the router-assigned id to the fingerprint, the owning
//!   worker, and the worker-local job id. A route is one record on disk,
//!   `jobs/<rid>.route.json` beside the verbatim submission body
//!   `jobs/<rid>.json` — a one-route `mbrpa.route-table/1` document,
//!   written at submit and again only when that route changes; start-up
//!   merges the records. When a worker dies with routes open, the
//!   poller re-homes each orphan: rendezvous over the *surviving*
//!   workers picks the adopter, the stored body is resubmitted there,
//!   and — because fleet workers share a fingerprint-keyed `-ckpt-root`
//!   — the adopter resumes from the dead worker's last completed
//!   frequency, reproducing the uninterrupted energy bit for bit. The
//!   superseded claim stays with
//!   its route (the document's `stale` list) and is cancelled if the old
//!   worker ever comes back, so the namespace regains a single writer.
//!
//! Result, profile, and report bodies are proxied byte-verbatim (their
//! `id` member names the executing worker's job): re-serializing a
//! result would re-render its floats, and the `total_energy_bits`
//! contract is easiest kept by never touching the bytes. Status bodies,
//! which carry no floats, are rewritten to the router's job id.

use crate::daemon::{lock, Logger};
use crate::http::{exchange, Handler, HttpServer, Request, Response};
use crate::job::{
    self, JobSpec, JobState, HEALTH_SCHEMA, LIST_SCHEMA, ROUTE_TABLE_SCHEMA, WORKER_SCHEMA,
};
use crate::json::{self, obj, s, u, JsonValue};
use mbrpa_ckpt::write_atomic;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Consecutive probe failures before a worker is declared dead.
pub const DEFAULT_FAIL_THRESHOLD: u32 = 3;
/// Default health-poll cadence.
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(500);
/// Default per-probe (connect + read) timeout.
pub const DEFAULT_PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest backoff between probes of a dead worker.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Router configuration.
#[derive(Clone)]
pub struct RouterConfig {
    /// Router state directory: the route records and stored submission
    /// bodies live here (created if absent).
    pub root: PathBuf,
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker addresses (`ip:port` of each `rpaserved`).
    pub workers: Vec<String>,
    /// Health-poll cadence.
    pub poll_interval: Duration,
    /// Per-probe timeout (connect + read).
    pub probe_timeout: Duration,
    /// Consecutive probe failures before a worker is declared dead.
    pub fail_threshold: u32,
    /// HTTP worker threads serving the API.
    pub http_workers: usize,
    /// Diagnostics sink.
    pub log: Logger,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            root: PathBuf::from("mbrpa-router-data"),
            addr: "127.0.0.1:0".to_string(),
            workers: Vec::new(),
            poll_interval: DEFAULT_POLL_INTERVAL,
            probe_timeout: DEFAULT_PROBE_TIMEOUT,
            fail_threshold: DEFAULT_FAIL_THRESHOLD,
            http_workers: 2,
            log: Arc::new(|_| {}),
        }
    }
}

/// One worker's tracked state.
#[derive(Clone, Debug)]
struct WorkerState {
    addr: String,
    /// Optimistically true at startup; the first failed probe round
    /// corrects it (routing before the first poll must not 503 a
    /// healthy fleet).
    alive: bool,
    consecutive_failures: u32,
    /// Dead workers are re-probed only after this instant (backoff).
    backoff_until: Option<Instant>,
    /// Occupancy from the last successful health probe.
    queued: u64,
    running: u64,
    backlog_limit: u64,
    executors: u64,
}

impl WorkerState {
    fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            alive: true,
            consecutive_failures: 0,
            backoff_until: None,
            queued: 0,
            running: 0,
            backlog_limit: 0,
            executors: 0,
        }
    }

    /// The `mbrpa.worker/1` document for this worker.
    fn to_doc(&self) -> JsonValue {
        obj(vec![
            ("schema", s(WORKER_SCHEMA)),
            ("addr", s(&self.addr)),
            ("alive", JsonValue::Bool(self.alive)),
            ("queued", u(self.queued as usize)),
            ("running", u(self.running as usize)),
            (
                "consecutive_failures",
                u(self.consecutive_failures as usize),
            ),
        ])
    }
}

/// One routed job — what one `jobs/<rid>.route.json` record holds: the
/// router id, its input fingerprint, the current owner, and the claims
/// earlier owners still hold.
#[derive(Clone, Debug)]
struct Route {
    /// Router-assigned id (`rjob-NNNNNN`), the one clients see.
    id: String,
    /// Canonical input fingerprint (the rendezvous and checkpoint key).
    fingerprint: String,
    /// Owning worker's address.
    worker: String,
    /// The job id the owner assigned.
    worker_job: String,
    /// How many times ownership has moved.
    failovers: u64,
    /// True once the router holds the result locally (a failover
    /// resubmission answered from the adopter's cache).
    done: bool,
    /// Superseded claims this route still owes a cancel.
    stale: Vec<StaleClaim>,
}

/// A superseded claim: a job id on a worker that lost ownership. If
/// that worker ever returns, the claim is cancelled so the shared
/// checkpoint namespace regains a single writer.
#[derive(Clone, Debug, PartialEq)]
struct StaleClaim {
    worker: String,
    worker_job: String,
}

/// The mutable route table (under one lock): the routes by id — ids
/// zero-pad, so map order is submission order. Handlers take an `Arc` of
/// the route they serve and talk to its worker with the lock released.
#[derive(Debug, Default)]
struct RouteTable {
    next_id: u64,
    routes: BTreeMap<String, Arc<Route>>,
}

/// The `mbrpa.route-table/1` document of `routes`: the whole table for
/// `GET /v1/routes`, one route for its on-disk record. A record's
/// `next_id` is past its own id, so the largest over all records is free.
fn table_doc<'a>(next_id: u64, routes: impl IntoIterator<Item = &'a Route>) -> JsonValue {
    let (mut rows, mut stale) = (Vec::new(), Vec::new());
    for r in routes {
        rows.push(obj(vec![
            ("id", s(&r.id)),
            ("fingerprint", s(&r.fingerprint)),
            ("worker", s(&r.worker)),
            ("worker_job", s(&r.worker_job)),
            ("state", s(if r.done { "done" } else { "routed" })),
            ("failovers", u(r.failovers as usize)),
        ]));
        stale.extend(r.stale.iter().map(|c| {
            obj(vec![
                ("worker", s(&c.worker)),
                ("worker_job", s(&c.worker_job)),
            ])
        }));
    }
    obj(vec![
        ("schema", s(ROUTE_TABLE_SCHEMA)),
        ("next_id", u(next_id as usize)),
        ("routes", JsonValue::Arr(rows)),
        ("stale", JsonValue::Arr(stale)),
    ])
}

impl RouteTable {
    fn to_doc(&self) -> JsonValue {
        table_doc(self.next_id, self.routes.values().map(Arc::as_ref))
    }

    /// Rebuild from a persisted (already schema-validated) document. The
    /// document does not say which route a `stale` claim belongs to; a
    /// record holds one route, so the first route takes them all.
    fn from_doc(v: &JsonValue) -> RouteTable {
        let get_str = |r: &JsonValue, k: &str| {
            r.get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let rows = |k: &str| v.get(k).and_then(JsonValue::as_arr).into_iter().flatten();
        let mut stale = rows("stale")
            .map(|c| StaleClaim {
                worker: get_str(c, "worker"),
                worker_job: get_str(c, "worker_job"),
            })
            .collect();
        let routes = rows("routes")
            .map(|r| {
                let route = Route {
                    id: get_str(r, "id"),
                    fingerprint: get_str(r, "fingerprint"),
                    worker: get_str(r, "worker"),
                    worker_job: get_str(r, "worker_job"),
                    failovers: r.get("failovers").and_then(JsonValue::as_u64).unwrap_or(0),
                    done: r.get("state").and_then(JsonValue::as_str) == Some("done"),
                    stale: std::mem::take(&mut stale),
                };
                (route.id.clone(), Arc::new(route))
            })
            .collect();
        RouteTable {
            next_id: v.get("next_id").and_then(JsonValue::as_u64).unwrap_or(1),
            routes,
        }
    }
}

/// Monotonic router counters (also fed to `mbrpa-obs`).
#[derive(Debug, Default)]
struct RouterCounters {
    routed: AtomicU64,
    failovers: AtomicU64,
    forward_errors: AtomicU64,
}

/// State shared between the HTTP handlers and the poller thread.
pub struct RouterShared {
    root: PathBuf,
    workers: Mutex<Vec<WorkerState>>,
    routes: Mutex<RouteTable>,
    /// Raised once by [`RouterShared::begin_drain`], which notifies
    /// `drain_wake`: the poller waits out its interval there, so it sees
    /// a drain at once however long the interval.
    draining: Mutex<bool>,
    drain_wake: Condvar,
    fail_threshold: u32,
    /// Period of the health poller, and the unit of dead-worker backoff.
    poll_interval: Duration,
    probe_timeout: Duration,
    counters: RouterCounters,
    log: Logger,
}

impl RouterShared {
    /// Refuse new submissions and wake the poller so it exits.
    fn begin_drain(&self) {
        *lock(&self.draining) = true;
        self.drain_wake.notify_all();
    }
}

// ---------------------------------------------------------------------
// rendezvous hashing

/// Rendezvous score of `(fingerprint, worker)`: the shared FNV-1a, stable
/// across platforms and releases — the route assignment must not move
/// when the router restarts.
fn rendezvous_score(fingerprint: &str, worker: &str) -> u64 {
    let mut key = Vec::with_capacity(fingerprint.len() + worker.len() + 1);
    key.extend_from_slice(fingerprint.as_bytes());
    key.push(0); // unambiguous separator: neither side contains NUL
    key.extend_from_slice(worker.as_bytes());
    mbrpa_core::fnv1a64(&key)
}

/// Candidate workers for `fingerprint`, best first: rendezvous score
/// descending, address as the (deterministic) tiebreak.
fn rendezvous_order<'a>(fingerprint: &str, workers: &[&'a str]) -> Vec<&'a str> {
    let mut scored: Vec<(u64, &str)> = workers
        .iter()
        .map(|w| (rendezvous_score(fingerprint, w), *w))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    scored.into_iter().map(|(_, w)| w).collect()
}

// ---------------------------------------------------------------------
// the router proper

/// A started router: HTTP server + health poller over a [`RouterShared`].
pub struct Router {
    shared: Arc<RouterShared>,
    http: HttpServer,
    poller: Option<JoinHandle<()>>,
}

impl Router {
    /// Start a router: recover the route table from `config.root`, bind
    /// `config.addr`, spawn the poller.
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        if config.workers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one worker address",
            ));
        }
        let table = load_routes(&config.root, &config.log)?;
        if !table.routes.is_empty() {
            (config.log)(&format!(
                "recovered {} route(s) from their records",
                table.routes.len()
            ));
        }
        let shared = Arc::new(RouterShared {
            root: config.root.clone(),
            workers: Mutex::new(config.workers.iter().map(|a| WorkerState::new(a)).collect()),
            routes: Mutex::new(table),
            draining: Mutex::new(false),
            drain_wake: Condvar::new(),
            fail_threshold: config.fail_threshold.max(1),
            poll_interval: config.poll_interval,
            probe_timeout: config.probe_timeout,
            counters: RouterCounters::default(),
            log: Arc::clone(&config.log),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let handler = handler(Arc::clone(&shared));
        let http = HttpServer::start(listener, handler, config.http_workers.max(1))?;

        let poll_shared = Arc::clone(&shared);
        let poller = std::thread::Builder::new()
            .name("mbrpa-router-poll".to_string())
            .spawn(move || poller_loop(&poll_shared))?;

        Ok(Router {
            shared,
            http,
            poller: Some(poller),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Shared state (tests poke it directly).
    pub fn shared(&self) -> &Arc<RouterShared> {
        &self.shared
    }

    /// True once a drain has been requested (signal or `POST
    /// /v1/shutdown`). The owning binary polls this, then calls
    /// [`Router::drain`].
    pub fn drain_requested(&self) -> bool {
        *lock(&self.shared.draining)
    }

    /// Stop polling and serving. Workers (and their jobs) are left
    /// running: a drained router restarts from its route records.
    pub fn drain(&mut self) {
        self.shared.begin_drain();
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
        self.http.shutdown();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Rebuild the route table from the records under `<root>/jobs`: each
/// `<rid>.route.json` is validated as a route table and merged, and the
/// next id continues after the largest any record saw. An invalid record
/// is skipped (losing a route costs re-routing, not results); a body
/// without a record is a submit that was never acknowledged.
fn load_routes(root: &Path, log: &Logger) -> io::Result<RouteTable> {
    let dir = root.join("jobs");
    fs::create_dir_all(&dir)?;
    let mut table = RouteTable {
        next_id: 1,
        ..RouteTable::default()
    };
    for entry in fs::read_dir(&dir)? {
        let path = entry?.path();
        if !path.to_string_lossy().ends_with(RECORD) {
            continue;
        }
        match job::validate_file("route-table", &path) {
            Ok(doc) => {
                let record = RouteTable::from_doc(&doc);
                table.next_id = table.next_id.max(record.next_id);
                table.routes.extend(record.routes);
            }
            Err(e) => log(&format!("route record skipped: {e}")),
        }
    }
    Ok(table)
}

/// Change one route in the table and rewrite its record: the document is
/// built under the table lock, the write happens outside it. The change
/// stands whether or not the write lands — a failure is logged and costs
/// that change at the next restart.
fn update_route(shared: &RouterShared, rid: &str, change: impl FnOnce(&mut Route)) {
    let doc = {
        let mut table = lock(&shared.routes);
        let next_id = table.next_id;
        let Some(route) = table.routes.get_mut(rid) else {
            return;
        };
        let route = Arc::make_mut(route);
        change(route);
        table_doc(next_id, [&*route])
    };
    if let Err(e) = write_atomic(
        &job_file(&shared.root, rid, RECORD),
        doc.to_json().as_bytes(),
    ) {
        (shared.log)(&format!("{rid}: cannot persist the route record: {e}"));
    }
}

/// Record a failed exchange with a worker: bump its failure count and,
/// past the threshold, declare it dead. Returns true when this call
/// flipped the worker from alive to dead.
fn note_worker_failure(shared: &RouterShared, addr: &str) -> bool {
    let mut workers = lock(&shared.workers);
    let Some(worker) = workers.iter_mut().find(|w| w.addr == addr) else {
        return false;
    };
    worker.consecutive_failures = worker.consecutive_failures.saturating_add(1);
    let newly_dead = worker.alive && worker.consecutive_failures >= shared.fail_threshold;
    if newly_dead {
        worker.alive = false;
    }
    if !worker.alive {
        // exponential backoff: 1, 2, 4, … poll intervals past the
        // threshold, capped, so a dead host is probed ever more lazily
        let over = worker.consecutive_failures - shared.fail_threshold;
        let factor = 1u32 << over.min(4);
        let delay = shared.poll_interval.saturating_mul(factor).min(MAX_BACKOFF);
        worker.backoff_until = Some(Instant::now() + delay);
    }
    newly_dead
}

/// Record a successful health probe.
fn note_worker_health(shared: &RouterShared, addr: &str, health: &JsonValue) -> bool {
    let mut workers = lock(&shared.workers);
    let Some(worker) = workers.iter_mut().find(|w| w.addr == addr) else {
        return false;
    };
    let revived = !worker.alive;
    worker.alive = true;
    worker.consecutive_failures = 0;
    worker.backoff_until = None;
    let get = |k: &str| health.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    worker.queued = get("queued");
    worker.running = get("running");
    worker.backlog_limit = get("backlog_limit");
    worker.executors = get("executors");
    revived
}

/// Addresses of currently-live workers.
fn live_workers(shared: &RouterShared) -> Vec<String> {
    lock(&shared.workers)
        .iter()
        .filter(|w| w.alive)
        .map(|w| w.addr.clone())
        .collect()
}

// ---------------------------------------------------------------------
// health poller + failover

fn poller_loop(shared: &Arc<RouterShared>) {
    loop {
        if *lock(&shared.draining) {
            return;
        }
        let round_started = Instant::now();

        // snapshot the workers due a probe, probe without any lock held
        let due: Vec<String> = lock(&shared.workers)
            .iter()
            .filter(|w| w.backoff_until.is_none_or(|until| until <= Instant::now()))
            .map(|w| w.addr.clone())
            .collect();
        for addr in due {
            match exchange(&addr, "GET", "/v1/health", None, shared.probe_timeout) {
                Ok(reply) if reply.status == 200 => {
                    if let Ok(health) = json::parse(&reply.body) {
                        if note_worker_health(shared, &addr, &health) {
                            (shared.log)(&format!("worker {addr} is back"));
                        }
                        continue;
                    }
                    probe_failed(shared, &addr, "health body is not JSON");
                }
                Ok(reply) => probe_failed(shared, &addr, &format!("health gave {}", reply.status)),
                Err(e) => probe_failed(shared, &addr, &e),
            }
        }

        adopt_orphans(shared);
        cancel_stale_claims(shared);

        // one wait for the rest of the interval, cut short by a drain
        let rest = shared.poll_interval.saturating_sub(round_started.elapsed());
        let flag = lock(&shared.draining);
        drop(
            shared
                .drain_wake
                .wait_timeout_while(flag, rest, |raised| !*raised),
        );
    }
}

fn probe_failed(shared: &RouterShared, addr: &str, why: &str) {
    mbrpa_obs::add("serve.router.probe_fail", 1);
    if note_worker_failure(shared, addr) {
        (shared.log)(&format!("worker {addr} declared dead ({why})"));
    }
}

/// Re-home every open route whose owner is dead onto a live worker. The
/// adopter resumes from the shared fingerprint-keyed checkpoint
/// namespace, so the job continues bit-for-bit from the dead worker's
/// last completed frequency.
fn adopt_orphans(shared: &Arc<RouterShared>) {
    let live = live_workers(shared);
    if live.is_empty() {
        return;
    }
    let dead: Vec<String> = lock(&shared.workers)
        .iter()
        .filter(|w| !w.alive)
        .map(|w| w.addr.clone())
        .collect();
    if dead.is_empty() {
        return;
    }
    let orphans: Vec<Arc<Route>> = lock(&shared.routes)
        .routes
        .values()
        .filter(|r| !r.done && dead.contains(&r.worker))
        .cloned()
        .collect();
    for orphan in orphans {
        let candidates: Vec<&str> = live.iter().map(String::as_str).collect();
        let order = rendezvous_order(&orphan.fingerprint, &candidates);
        let Ok(body) = fs::read_to_string(job_file(&shared.root, &orphan.id, BODY)) else {
            (shared.log)(&format!(
                "{}: stored submission body is missing; cannot fail over",
                orphan.id
            ));
            continue;
        };
        for adopter in order {
            match exchange(
                adopter,
                "POST",
                "/v1/jobs",
                Some(&body),
                shared.probe_timeout,
            ) {
                Ok(reply) if reply.status == 201 => {
                    let worker_job = json::parse(&reply.body).ok().and_then(|doc| {
                        doc.get("id").and_then(JsonValue::as_str).map(String::from)
                    });
                    let Some(worker_job) = worker_job else {
                        shared
                            .counters
                            .forward_errors
                            .fetch_add(1, Ordering::Relaxed); // ord: Relaxed — monotonic counter, no ordering needed
                        continue;
                    };
                    apply_failover(shared, &orphan, adopter, &worker_job, false);
                    (shared.log)(&format!(
                        "{}: handed off {} → {adopter} (resumes from the shared checkpoint namespace)",
                        orphan.id, orphan.worker
                    ));
                    break;
                }
                Ok(reply) if reply.status == 200 => {
                    // the adopter's result cache already holds this
                    // fingerprint: store the (bit-exact) body locally and
                    // close the route
                    let path = job_file(&shared.root, &orphan.id, RESULT);
                    if let Err(e) = write_atomic(&path, reply.body.as_bytes()) {
                        (shared.log)(&format!("{}: cannot store adopted result: {e}", orphan.id));
                        continue;
                    }
                    apply_failover(shared, &orphan, adopter, &orphan.worker_job, true);
                    (shared.log)(&format!(
                        "{}: adopted from {adopter}'s result cache",
                        orphan.id
                    ));
                    break;
                }
                Ok(reply) => {
                    // 429 = adopter is full; retry next round rather than
                    // scatter the key off its rendezvous order
                    shared
                        .counters
                        .forward_errors
                        .fetch_add(1, Ordering::Relaxed); // ord: Relaxed — monotonic counter, no ordering needed
                    (shared.log)(&format!(
                        "{}: {adopter} refused the handoff with {}",
                        orphan.id, reply.status
                    ));
                    if reply.status == 429 {
                        break;
                    }
                }
                Err(_) => {
                    probe_failed(shared, adopter, "handoff submission failed");
                }
            }
        }
    }
}

/// Update one route after a successful handoff and park the superseded
/// claim for cancellation if its worker ever returns.
fn apply_failover(
    shared: &RouterShared,
    orphan: &Route,
    adopter: &str,
    worker_job: &str,
    done: bool,
) {
    mbrpa_obs::add("serve.router.failover", 1);
    shared.counters.failovers.fetch_add(1, Ordering::Relaxed); // ord: Relaxed — monotonic counter, no ordering needed
    update_route(shared, &orphan.id, |route| {
        route.stale.push(StaleClaim {
            worker: orphan.worker.clone(),
            worker_job: orphan.worker_job.clone(),
        });
        route.worker = adopter.to_string();
        route.worker_job = worker_job.to_string();
        route.failovers += 1;
        route.done = done;
    });
}

/// Cancel superseded claims on workers that came back: a revived worker
/// re-queues the jobs it was running when it died, and letting that
/// duplicate run would put a second writer on the shared checkpoint
/// namespace.
fn cancel_stale_claims(shared: &Arc<RouterShared>) {
    let live = live_workers(shared);
    let claims: Vec<(String, StaleClaim)> = lock(&shared.routes)
        .routes
        .values()
        .flat_map(|r| r.stale.iter().map(|c| (r.id.clone(), c.clone())))
        .filter(|(_, c)| live.contains(&c.worker))
        .collect();
    for (rid, claim) in claims {
        let path = format!("/v1/jobs/{}/cancel", claim.worker_job);
        match exchange(&claim.worker, "POST", &path, None, shared.probe_timeout) {
            // 2xx = cancelled (or already terminal); 404 = the worker
            // never persisted it — either way the claim is settled
            Ok(reply) if (200..300).contains(&reply.status) || reply.status == 404 => {
                (shared.log)(&format!(
                    "cancelled superseded job {} on revived worker {}",
                    claim.worker_job, claim.worker
                ));
                update_route(shared, &rid, |route| route.stale.retain(|c| *c != claim));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// the HTTP handler (client → router)

/// The files of route `rid` under the router root: the verbatim
/// submission body, the route's record, and an adopted result.
const BODY: &str = ".json";
const RECORD: &str = ".route.json";
const RESULT: &str = ".result.json";

fn job_file(root: &Path, rid: &str, suffix: &str) -> PathBuf {
    root.join("jobs").join(format!("{rid}{suffix}"))
}

/// Build the request handler the HTTP server dispatches to.
fn handler(shared: Arc<RouterShared>) -> Handler {
    Arc::new(move |req: &Request| route(&shared, req))
}

fn route(shared: &Arc<RouterShared>, req: &Request) -> Response {
    let segments: Vec<&str> = req
        .path
        .split('/')
        .filter(|part| !part.is_empty())
        .collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "health"]) => health(shared),
        ("GET", ["v1", "workers"]) => workers(shared),
        ("GET", ["v1", "routes"]) => Response::json(200, &lock(&shared.routes).to_doc()),
        ("POST", ["v1", "jobs"]) => submit(shared, req),
        ("GET", ["v1", "jobs"]) => list(shared),
        ("GET", ["v1", "jobs", rid]) => status(shared, rid),
        ("GET", ["v1", "jobs", rid, "result"]) => passthrough(shared, rid, "result"),
        ("GET", ["v1", "jobs", rid, "profile"]) => passthrough(shared, rid, "profile"),
        ("GET", ["v1", "jobs", rid, "report"]) => passthrough(shared, rid, "report"),
        ("POST", ["v1", "jobs", rid, "cancel"]) => cancel(shared, rid),
        ("POST", ["v1", "shutdown"]) => shutdown(shared),
        (_, ["v1", ..]) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "unknown path (the API lives under /v1)"),
    }
}

fn health(shared: &Arc<RouterShared>) -> Response {
    let workers = lock(&shared.workers).clone();
    let (mut queued, mut running, mut backlog, mut executors) = (0u64, 0u64, 0u64, 0u64);
    let docs: Vec<JsonValue> = workers
        .iter()
        .map(|w| {
            if w.alive {
                queued += w.queued;
                running += w.running;
                backlog += w.backlog_limit;
                executors += w.executors;
            }
            w.to_doc()
        })
        .collect();
    let counters = &shared.counters;
    let router_block = obj(vec![
        ("workers", JsonValue::Arr(docs)),
        ("routes", u(lock(&shared.routes).routes.len())),
        (
            "routed",
            u(counters.routed.load(Ordering::Relaxed) as usize), // ord: Relaxed — monotonic counter, no ordering needed
        ),
        (
            "failovers",
            u(counters.failovers.load(Ordering::Relaxed) as usize), // ord: Relaxed — monotonic counter, no ordering needed
        ),
        (
            "forward_errors",
            u(counters.forward_errors.load(Ordering::Relaxed) as usize), // ord: Relaxed — monotonic counter, no ordering needed
        ),
    ]);
    let doc = obj(vec![
        ("schema", s(HEALTH_SCHEMA)),
        ("queued", u(queued as usize)),
        ("running", u(running as usize)),
        ("backlog_limit", u(backlog as usize)),
        ("executors", u(executors as usize)),
        // the router's own dispatch — workers report theirs in their own
        // health documents
        ("simd", s(mbrpa_simd::active().name())),
        ("draining", JsonValue::Bool(*lock(&shared.draining))),
        ("router", router_block),
    ]);
    Response::json(200, &doc)
}

fn workers(shared: &Arc<RouterShared>) -> Response {
    let docs: Vec<JsonValue> = lock(&shared.workers)
        .iter()
        .map(WorkerState::to_doc)
        .collect();
    Response::json(200, &obj(vec![("workers", JsonValue::Arr(docs))]))
}

fn submit(shared: &Arc<RouterShared>, req: &Request) -> Response {
    if *lock(&shared.draining) {
        return Response::error(503, "router is draining; resubmit after restart");
    }
    let Some(text) = req.body_str() else {
        return Response::error(400, "body is not valid UTF-8");
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
    };
    // full validation at the router door: a submission no worker would
    // accept is bounced here with the same 400 a worker would give
    let spec = match JobSpec::from_json(&value) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e),
    };
    let fingerprint = match spec.parsed() {
        Ok(input) => mbrpa_core::fingerprint_hex(&input),
        Err(e) => return Response::error(400, &e),
    };

    let live = live_workers(shared);
    let candidates: Vec<&str> = live.iter().map(String::as_str).collect();
    for owner in rendezvous_order(&fingerprint, &candidates) {
        match exchange(owner, "POST", "/v1/jobs", Some(text), shared.probe_timeout) {
            Ok(reply) if reply.status == 201 => {
                let worker_job = json::parse(&reply.body)
                    .ok()
                    .and_then(|doc| doc.get("id").and_then(JsonValue::as_str).map(String::from));
                let Some(worker_job) = worker_job else {
                    return Response::error(502, &format!("{owner} sent a malformed status body"));
                };
                return record_route(shared, &fingerprint, owner, &worker_job, text, &reply.body);
            }
            // a 200 is the worker's result cache answering: pass the
            // stored result through byte-verbatim (it already carries
            // `cached: true` and the fingerprint); no route is created
            Ok(reply) if reply.status == 200 => return Response::raw_json(200, &reply.body),
            // the owner refusing with backpressure is passed through —
            // hopping to another worker would scatter the key off its
            // cache-hot owner for the retry as well
            Ok(reply) if reply.status == 429 => {
                let mut response = Response::raw_json(429, &reply.body);
                if let Some(seconds) = reply.header("retry-after") {
                    response = response.with_header("retry-after", seconds);
                }
                return response;
            }
            Ok(reply) if reply.status == 400 => return Response::raw_json(400, &reply.body),
            Ok(_) | Err(_) => {
                // connect failure, 5xx, or a draining worker: count a
                // strike and fall through to the next candidate
                shared
                    .counters
                    .forward_errors
                    .fetch_add(1, Ordering::Relaxed); // ord: Relaxed — monotonic counter, no ordering needed
                probe_failed(shared, owner, "submission forward failed");
            }
        }
    }
    Response::error(503, "no live worker accepted the job; retry later")
}

/// Persist the accepted submission and its route, then answer the
/// client with the worker's status body under the router-assigned id.
fn record_route(
    shared: &Arc<RouterShared>,
    fingerprint: &str,
    owner: &str,
    worker_job: &str,
    body: &str,
    reply_body: &str,
) -> Response {
    let number = {
        let mut table = lock(&shared.routes);
        table.next_id += 1;
        table.next_id - 1
    };
    let rid = format!("rjob-{number:06}");
    let route = Route {
        id: rid.clone(),
        fingerprint: fingerprint.to_string(),
        worker: owner.to_string(),
        worker_job: worker_job.to_string(),
        failovers: 0,
        done: false,
        stale: Vec::new(),
    };
    // body first, record second, table last: a crash in between leaves a
    // body without a record, which start-up ignores, and the poller cannot
    // move a route whose record is not on disk yet
    let record = table_doc(number + 1, [&route]).to_json();
    if let Err(e) = write_atomic(&job_file(&shared.root, &rid, BODY), body.as_bytes())
        .and_then(|()| write_atomic(&job_file(&shared.root, &rid, RECORD), record.as_bytes()))
    {
        // without the stored body a failover could not re-submit, without
        // the record a restart forgets the id; refuse rather than accept a
        // job the router cannot protect
        return Response::error(500, &format!("cannot persist the submission: {e}"));
    }
    lock(&shared.routes)
        .routes
        .insert(rid.clone(), Arc::new(route));
    mbrpa_obs::add("serve.router.route", 1);
    shared.counters.routed.fetch_add(1, Ordering::Relaxed); // ord: Relaxed — monotonic counter, no ordering needed
    (shared.log)(&format!(
        "{rid}: routed {fingerprint} → {owner} ({worker_job})"
    ));
    match rewrite_id(reply_body, &rid) {
        Some(body) => Response::raw_json(201, &body),
        None => Response::error(502, &format!("{owner} sent a malformed status body")),
    }
}

/// Re-key a JSON object's `id` member to the router id. Only used on
/// status bodies, which carry no floats — result documents are never
/// re-serialized.
fn rewrite_id(body: &str, rid: &str) -> Option<String> {
    let doc = json::parse(body).ok()?;
    let mut pairs = doc.as_obj()?.to_vec();
    for pair in pairs.iter_mut() {
        if pair.0 == "id" {
            pair.1 = s(rid);
        }
    }
    Some(JsonValue::Obj(pairs).to_json())
}

/// The stored submission spec of a route (for synthesized statuses).
fn stored_spec(shared: &RouterShared, rid: &str) -> Option<JobSpec> {
    let text = fs::read_to_string(job_file(&shared.root, rid, BODY)).ok()?;
    JobSpec::from_json(&json::parse(&text).ok()?).ok()
}

/// A status body for `rid`, proxied from the owner when it is
/// reachable. Returns `(http_status, body)`.
fn status_body(shared: &Arc<RouterShared>, route: &Route) -> (u16, String) {
    if route.done {
        // the router holds the result locally; the job is complete
        if let Some(spec) = stored_spec(shared, &route.id) {
            let doc = job::status_doc(&route.id, &spec, JobState::Completed, None, None);
            return (200, doc.to_json());
        }
    }
    let path = format!("/v1/jobs/{}", route.worker_job);
    match exchange(&route.worker, "GET", &path, None, shared.probe_timeout) {
        Ok(reply) if reply.status == 200 => match rewrite_id(&reply.body, &route.id) {
            Some(body) => (200, body),
            None => (502, error_body("owner sent a malformed status body")),
        },
        Ok(reply) => (reply.status, reply.body),
        Err(_) => {
            // owner unreachable: the job is (or will be) re-homed by the
            // poller and resumes from its checkpoints — report it queued
            match stored_spec(shared, &route.id) {
                Some(spec) => {
                    let doc = job::status_doc(&route.id, &spec, JobState::Queued, None, None);
                    (200, doc.to_json())
                }
                None => (503, error_body("owner unreachable; failover pending")),
            }
        }
    }
}

fn error_body(message: &str) -> String {
    obj(vec![("error", s(message))]).to_json()
}

fn find_route(shared: &RouterShared, rid: &str) -> Option<Arc<Route>> {
    lock(&shared.routes).routes.get(rid).cloned()
}

fn status(shared: &Arc<RouterShared>, rid: &str) -> Response {
    match find_route(shared, rid) {
        Some(route) => {
            let (code, body) = status_body(shared, &route);
            Response::raw_json(code, &body)
        }
        None => Response::error(404, "no such job"),
    }
}

fn list(shared: &Arc<RouterShared>) -> Response {
    let routes: Vec<Arc<Route>> = lock(&shared.routes).routes.values().cloned().collect();
    let jobs: Vec<JsonValue> = routes
        .iter()
        .filter_map(|route| {
            let (code, body) = status_body(shared, route);
            (code == 200).then(|| json::parse(&body).ok())?
        })
        .collect();
    let doc = obj(vec![
        ("schema", s(LIST_SCHEMA)),
        ("jobs", JsonValue::Arr(jobs)),
    ]);
    Response::json(200, &doc)
}

/// Proxy a document endpoint byte-verbatim (results keep their exact
/// float renderings; the `id` inside names the worker's job).
fn passthrough(shared: &Arc<RouterShared>, rid: &str, what: &str) -> Response {
    let Some(route) = find_route(shared, rid) else {
        return Response::error(404, "no such job");
    };
    if route.done && what == "result" {
        if let Ok(text) = fs::read_to_string(job_file(&shared.root, rid, RESULT)) {
            return Response::raw_json(200, &text);
        }
    }
    let path = format!("/v1/jobs/{}/{what}", route.worker_job);
    match exchange(&route.worker, "GET", &path, None, shared.probe_timeout) {
        Ok(reply) if what == "report" => Response::text(reply.status, &reply.body),
        Ok(reply) => Response::raw_json(reply.status, &reply.body),
        Err(_) => Response::error(503, "owner unreachable; failover pending"),
    }
}

fn cancel(shared: &Arc<RouterShared>, rid: &str) -> Response {
    let Some(route) = find_route(shared, rid) else {
        return Response::error(404, "no such job");
    };
    if route.done {
        // terminal already — mirror a worker's cancel-of-terminal reply
        let (code, body) = status_body(shared, &route);
        return Response::raw_json(code.min(200), &body);
    }
    let path = format!("/v1/jobs/{}/cancel", route.worker_job);
    match exchange(&route.worker, "POST", &path, None, shared.probe_timeout) {
        Ok(reply) if (200..300).contains(&reply.status) => match rewrite_id(&reply.body, rid) {
            Some(body) => Response::raw_json(reply.status, &body),
            None => Response::error(502, "owner sent a malformed status body"),
        },
        Ok(reply) => Response::raw_json(reply.status, &reply.body),
        Err(_) => Response::error(503, "owner unreachable; cancel it after failover"),
    }
}

fn shutdown(shared: &Arc<RouterShared>) -> Response {
    shared.begin_drain();
    Response::json(202, &obj(vec![("status", s("draining"))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn fp(n: u8) -> String {
        format!("{:032x}", u128::from(n))
    }

    #[test]
    fn rendezvous_is_deterministic_and_minimally_disruptive() {
        let all = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"];
        for key in 0..32u8 {
            let fingerprint = fp(key);
            let first = rendezvous_order(&fingerprint, &all);
            let second = rendezvous_order(&fingerprint, &all);
            assert_eq!(first, second, "assignment must be deterministic");

            // removing a worker the key is NOT on must not move the key
            let owner = first[0];
            let other = all.iter().copied().find(|w| *w != owner).unwrap();
            let without_other: Vec<&str> = all.iter().copied().filter(|w| *w != other).collect();
            assert_eq!(
                rendezvous_order(&fingerprint, &without_other)[0],
                owner,
                "losing a non-owner must not move the key"
            );

            // removing the owner promotes the key's own second choice
            let without_owner: Vec<&str> = all.iter().copied().filter(|w| *w != owner).collect();
            assert_eq!(
                rendezvous_order(&fingerprint, &without_owner)[0],
                first[1],
                "failover must promote the rendezvous runner-up"
            );
        }
    }

    #[test]
    fn dead_worker_backoff_counts_in_configured_poll_intervals() {
        let addr = "127.0.0.1:9";
        let interval = Duration::from_millis(150);
        let shared = RouterShared {
            root: PathBuf::new(),
            workers: Mutex::new(vec![WorkerState::new(addr)]),
            routes: Mutex::new(RouteTable::default()),
            draining: Mutex::new(false),
            drain_wake: Condvar::new(),
            fail_threshold: 1,
            poll_interval: interval,
            probe_timeout: DEFAULT_PROBE_TIMEOUT,
            counters: RouterCounters::default(),
            log: Arc::new(|_| {}),
        };
        // the k-th failure past the threshold waits 2ᵏ poll intervals
        for k in 0..3 {
            let before = Instant::now();
            let newly_dead = note_worker_failure(&shared, addr);
            let after = Instant::now();
            assert_eq!(newly_dead, k == 0);
            let until = lock(&shared.workers)[0].backoff_until.unwrap();
            let delay = interval * (1 << k);
            assert!(
                before + delay <= until && until <= after + delay,
                "failure {k}: re-probe in {:?}, want {delay:?}",
                until - before
            );
        }
    }

    /// A router over `root` whose one worker refuses every connection and
    /// whose poller sleeps through the test after its first round.
    fn quiet_router(root: &Path) -> Router {
        Router::start(RouterConfig {
            root: root.to_path_buf(),
            workers: vec!["127.0.0.1:9".to_string()],
            poll_interval: Duration::from_secs(60),
            ..RouterConfig::default()
        })
        .unwrap()
    }

    /// Record route number `n` as `submit` does once a worker answered 201.
    fn record(router: &Router, n: u8) -> String {
        let reply = r#"{"schema":"mbrpa.job-status/1","id":"job-000001","state":"queued"}"#;
        let (shared, owner) = (router.shared(), "127.0.0.1:9");
        let response = record_route(shared, &fp(n), owner, "job-000001", "{}", reply);
        assert_eq!(response.status, 201);
        format!("rjob-{n:06}")
    }

    /// Every file of a router root, with its bytes.
    fn files_under(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = crate::files_in(root);
        files.extend(crate::files_in(&root.join("jobs")));
        files
    }

    fn served_routes(router: &Router) -> JsonValue {
        let addr = router.local_addr().to_string();
        let reply = exchange(&addr, "GET", "/v1/routes", None, DEFAULT_PROBE_TIMEOUT).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = json::parse(&reply.body).unwrap();
        job::validate_route_table_doc(&doc).unwrap();
        doc
    }

    /// A route is one record: a submit writes its own two files however
    /// many routes the router holds, and a restarted router serves the
    /// routes, the owed claims and the next id from the records alone.
    #[test]
    fn a_route_is_one_record_written_alone_and_recovered_at_restart() {
        let root = test_dir("router_records");
        let router = quiet_router(&root);
        let mut n = 0;
        for held in [1, 200] {
            while n < held {
                n += 1;
                record(&router, n);
            }
            let before = files_under(&root);
            n += 1;
            let rid = record(&router, n);
            let after = files_under(&root);
            assert!(
                before
                    .iter()
                    .all(|(path, bytes)| after.get(path) == Some(bytes)),
                "a file of another route was touched"
            );
            for own in [BODY, RECORD] {
                assert!(after.contains_key(&job_file(&root, &rid, own)));
            }
            assert_eq!(after.len(), before.len() + 2);
        }

        // route 2 fails over and its first owner never answers, so the
        // superseded claim stays owed; route 3 is adopted from a cache
        let orphan = find_route(router.shared(), "rjob-000002").unwrap();
        apply_failover(router.shared(), &orphan, "127.0.0.1:7", "job-000009", false);
        let orphan = find_route(router.shared(), "rjob-000003").unwrap();
        apply_failover(router.shared(), &orphan, "127.0.0.1:7", "job-000001", true);
        let before = served_routes(&router);
        drop(router);
        // a table file left by a router from before the records is not read
        let old = r#"{"schema":"mbrpa.route-table/1","next_id":900,"routes":[],"stale":[]}"#;
        fs::write(root.join("route-table.json"), old).unwrap();

        let router = quiet_router(&root);
        let after = served_routes(&router);
        assert_eq!(after, before);
        let rows = after.get("routes").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 201);
        let moved = |n: u8, job: &str, state: &str| {
            format!(
                r#"{{"id":"rjob-{n:06}","fingerprint":"{}","worker":"127.0.0.1:7","worker_job":"{job}","state":"{state}","failovers":1}}"#,
                fp(n)
            )
        };
        assert_eq!(rows[1].to_json(), moved(2, "job-000009", "routed"));
        assert_eq!(rows[2].to_json(), moved(3, "job-000001", "done"));
        let owed = r#"{"worker":"127.0.0.1:9","worker_job":"job-000001"}"#;
        let stale = after.get("stale").unwrap().to_json();
        assert_eq!(stale, format!("[{owed},{owed}]"));
        assert_eq!(after.get("next_id").unwrap().as_u64(), Some(202));
        assert_eq!(record(&router, 202), "rjob-000202");
        drop(router);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn drain_cuts_a_long_poll_interval_short() {
        let root = test_dir("router_drain");
        let mut router = quiet_router(&root);
        let started = Instant::now();
        router.drain();
        assert!(started.elapsed() < Duration::from_secs(1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rendezvous_spreads_keys_across_workers() {
        let all = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"];
        let mut histogram = [0usize; 3];
        for key in 0..96u8 {
            let owner = rendezvous_order(&fp(key), &all)[0];
            let slot = all.iter().position(|w| *w == owner).unwrap();
            histogram[slot] += 1;
        }
        for (slot, &count) in histogram.iter().enumerate() {
            assert!(
                count > 8,
                "worker {slot} owns only {count} of 96 keys: {histogram:?}"
            );
        }
    }

    #[test]
    fn worker_doc_validates() {
        let worker = WorkerState::new("127.0.0.1:9001");
        job::validate_worker_doc(&worker.to_doc()).unwrap();
        let reparsed = json::parse(&worker.to_doc().to_json()).unwrap();
        job::validate_worker_doc(&reparsed).unwrap();
    }

    #[test]
    fn rewrite_id_touches_only_the_id_member() {
        let body =
            r#"{"schema":"mbrpa.job-status/1","id":"job-000004","state":"queued","priority":4}"#;
        let rewritten = rewrite_id(body, "rjob-000001").unwrap();
        let doc = json::parse(&rewritten).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("rjob-000001"));
        assert_eq!(doc.get("state").unwrap().as_str(), Some("queued"));
        assert_eq!(doc.get("priority").unwrap().as_u64(), Some(4));
        assert!(rewrite_id("not json", "rjob-000001").is_none());
    }
}
