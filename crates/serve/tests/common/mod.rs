//! What the socket-level suites share: an in-process daemon on an
//! ephemeral port, one HTTP exchange through the crate's own client, and
//! the tiny job they all submit.

// each suite uses its own subset
#![allow(dead_code)]

use mbrpa_serve::daemon::{Daemon, DaemonConfig};
use mbrpa_serve::http::exchange;
use mbrpa_serve::job::validate_status_doc;
use mbrpa_serve::json::{self, JsonValue};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deliberately tiny Dirichlet cluster: n_d = 125, two frequencies.
pub const TINY_INPUT: &str = "\
N_NUCHI_EIGS: 4
N_OMEGA: 2
TOL_EIG: 1e-2
TOL_STERN_RES: 1e-2
MAXIT_FILTERING: 4
CHEB_DEGREE_RPA: 2
BOUNDARY: DIRICHLET
CELLS_Z: 1
POINTS_PER_CELL: 5
MESH: 0.69
PERTURBATION: 0.02
SYSTEM_SEED: 7
NP: 1
";

/// A store root no other test (or test process) uses.
pub fn scratch_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mbrpa-serve-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed) // ord: Relaxed — unique-id counter, no data published
    ))
}

/// Start a quiet daemon on `root` and an ephemeral port; `config` says
/// the rest (executors, backlog, cache settings).
pub fn start_on(root: &Path, config: DaemonConfig) -> (Daemon, SocketAddr) {
    let daemon = Daemon::start(DaemonConfig {
        root: root.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        profile: false,
        log: Arc::new(|_| {}),
        ..config
    })
    .unwrap();
    let addr = daemon.local_addr();
    (daemon, addr)
}

/// [`start_on`] a fresh scratch root, which is returned for clean-up.
pub fn start(tag: &str, config: DaemonConfig) -> (Daemon, SocketAddr, PathBuf) {
    let root = scratch_root(tag);
    let (daemon, addr) = start_on(&root, config);
    (daemon, addr, root)
}

/// One HTTP exchange; returns `(status, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let reply = exchange(
        &addr.to_string(),
        method,
        path,
        body,
        Duration::from_secs(30),
    )
    .unwrap();
    (reply.status, reply.body)
}

/// The `mbrpa.job/1` submission of an `.rpa` text.
pub fn submit_body(input: &str, priority: usize) -> String {
    json::obj(vec![
        ("schema", json::s("mbrpa.job/1")),
        ("input", json::s(input)),
        ("priority", json::u(priority)),
    ])
    .to_json()
}

/// Poll the status endpoint until the job reaches `want` (or panic at
/// the deadline).
pub fn wait_for_state(addr: SocketAddr, id: &str, want: &str, deadline: Duration) -> JsonValue {
    let start = Instant::now();
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        validate_status_doc(&doc).unwrap();
        let state = doc.get("state").unwrap().as_str().unwrap().to_string();
        if state == want {
            return doc;
        }
        assert!(
            !(state == "failed" && want != "failed"),
            "job failed while waiting for {want}: {body}"
        );
        assert!(
            start.elapsed() < deadline,
            "timed out waiting for {want}; last status: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
