//! What the suites that drive the real binaries over loopback HTTP share:
//! spawning a daemon on an ephemeral port, one HTTP exchange through the
//! daemon crate's own client, the tiny job they submit, the polls on it.

// each suite uses its own subset
#![allow(dead_code)]

use mbrpa::serve::http::exchange;
use mbrpa::serve::json::{self, require_str, require_uint, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Start `bin` (`rpaserved` or `rparouter`) on `-root`, bound to an
/// ephemeral loopback port it reports through `-port-file`.
pub fn spawn(bin: &str, root: &Path, port_file: &Path, extra: &[&str]) -> Child {
    let _ = std::fs::remove_file(port_file);
    Command::new(bin)
        .arg("-root")
        .arg(root)
        .args(["-addr", "127.0.0.1:0"])
        .arg("-port-file")
        .arg(port_file)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("{bin} should start: {e}"))
}

/// A single-executor `rpaserved`.
pub fn spawn_daemon(root: &Path, port_file: &Path) -> Child {
    spawn(
        env!("CARGO_BIN_EXE_rpaserved"),
        root,
        port_file,
        &["-executors", "1"],
    )
}

/// The address `who` wrote to its port file once bound.
pub fn read_addr(port_file: &Path, child: &mut Child, who: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if !text.trim().is_empty() {
                return text.trim().to_string();
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("{who} exited before binding: {status}");
        }
        assert!(Instant::now() < deadline, "{who} never wrote its address");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One HTTP exchange; returns `(status, body)`.
pub fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let reply = exchange(addr, method, path, body, Duration::from_secs(30)).unwrap();
    (reply.status, reply.body)
}

/// Every `/v1` body is one JSON document.
pub fn doc(body: &str) -> JsonValue {
    json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"))
}

/// The `mbrpa.job/1` submission of an `.rpa` text.
pub fn submit_body(input: &str) -> String {
    json::obj(vec![
        ("schema", json::s("mbrpa.job/1")),
        ("input", json::s(input)),
    ])
    .to_json()
}

/// A tiny Dirichlet cluster (n_d = 125) that runs in seconds, sized by
/// its eigenpair count, frequency count and filter-round cap.
pub fn tiny_input(n_eig: usize, n_omega: usize, max_filter: usize) -> String {
    format!(
        "\
N_NUCHI_EIGS: {n_eig}
N_OMEGA: {n_omega}
TOL_EIG: 1e-2
TOL_STERN_RES: 1e-2
MAXIT_FILTERING: {max_filter}
CHEB_DEGREE_RPA: 2
BOUNDARY: DIRICHLET
CELLS_Z: 1
POINTS_PER_CELL: 5
MESH: 0.69
PERTURBATION: 0.02
SYSTEM_SEED: 7
NP: 1
"
    )
}

/// A fresh, empty directory of this test process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbrpa-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Poll the job's status until `done` accepts it, and return that status;
/// a `failed` job, a status under another id, or three minutes passing is
/// a test failure.
fn poll_status(addr: &str, id: &str, done: impl Fn(&str, &JsonValue) -> bool) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let status_doc = doc(&body);
        assert_eq!(require_str(&status_doc, "id"), Ok(id), "{body}");
        let state = require_str(&status_doc, "state").unwrap();
        assert_ne!(state, "failed", "{body}");
        if done(state, &status_doc) {
            return status_doc;
        }
        assert!(Instant::now() < deadline, "gave up waiting on {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait until the job is `completed`.
pub fn wait_completed(addr: &str, id: &str) {
    poll_status(addr, id, |state, _| state == "completed");
}

/// Wait until the job has checkpointed a frequency and is still running,
/// so a kill lands mid-run; `false` when the machine was too fast and the
/// job completed first.
pub fn wait_mid_run(addr: &str, id: &str) -> bool {
    let last = poll_status(addr, id, |state, status| {
        let checkpointed = require_uint(status, "completed").unwrap_or(0) >= 1;
        state == "completed" || (state == "running" && checkpointed)
    });
    require_str(&last, "state") == Ok("running")
}

/// Graceful exit: `POST /v1/shutdown`, then the process must exit clean.
pub fn shut_down(addr: &str, mut child: Child, who: &str) {
    let (status, _) = http(addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 202);
    let exit = child.wait().unwrap();
    assert!(exit.success(), "{who} exited {exit}");
}
