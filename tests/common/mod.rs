//! What the suites that drive the real binaries over loopback HTTP share:
//! spawning a daemon on an ephemeral port, learning its address, and one
//! HTTP exchange through the daemon crate's own client.

// each suite uses its own subset
#![allow(dead_code)]

use mbrpa::serve::http::exchange;
use mbrpa::serve::json::{self, JsonValue};
use std::path::Path;
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
