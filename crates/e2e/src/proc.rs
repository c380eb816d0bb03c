//! Child processes: the shipped binaries run from outside, with wall time
//! and peak resident memory observed the way a user's shell would see them.

use crate::http;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `VmHWM` (peak resident set) of a live process, KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Directory holding `e2e_bench` and, built by the same cargo call, the
/// three binaries it drives.
pub fn bin_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("cannot locate the running executable");
    exe.parent()
        .expect("executable has a parent directory")
        .to_path_buf()
}

pub fn binary(name: &str) -> Result<PathBuf, String> {
    let path = bin_dir().join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build the workspace binaries first (crates/e2e/run.sh does)",
            path.display()
        ))
    }
}

pub struct ChildRun {
    pub wall_s: f64,
    pub success: bool,
    pub peak_rss_mib: f64,
}

/// Run `cmd` to completion. stderr goes to `stderr_path` (kept for
/// diagnosis), stdout is discarded. `VmHWM` is sampled every 100 ms by a
/// helper thread so the wait itself is a plain blocking `wait`.
pub fn run_child(cmd: &mut Command, stderr_path: &Path) -> Result<ChildRun, String> {
    let stderr = File::create(stderr_path)
        .map_err(|e| format!("cannot create {}: {e}", stderr_path.display()))?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (status, peak_kib) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0u64;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(vm_hwm_kib(pid).unwrap_or(0));
                std::thread::park_timeout(Duration::from_millis(100));
            }
            peak
        });
        let status = child.wait();
        done.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        (status, sampler.join().expect("sampler thread panicked"))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let status = status.map_err(|e| format!("wait failed: {e}"))?;
    Ok(ChildRun {
        wall_s,
        success: status.success(),
        peak_rss_mib: peak_kib as f64 / 1024.0,
    })
}

/// A daemon child (`rpaserved` / `rparouter`), killed and reaped on drop so
/// no process outlives the benchmark, whatever path it exits by.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawn `cmd` (which must carry `-port-file <port_file>`) and wait for
    /// the bound address to appear.
    pub fn spawn(mut cmd: Command, port_file: &Path, log: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(port_file);
        let log = File::create(log).map_err(|e| format!("cannot create the daemon log: {e}"))?;
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                // the file is written in one call; an address always has a port
                if text.contains(':') {
                    daemon.addr = text.trim().to_string();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("{cmd:?} exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!("{cmd:?} wrote no port file within 20 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn peak_rss_mib(&self) -> f64 {
        vm_hwm_kib(self.child.id()).unwrap_or(0) as f64 / 1024.0
    }

    /// Ask for a graceful drain, then make sure the process is gone.
    pub fn stop(mut self) {
        let _ = http::request(&self.addr, "POST", "/v1/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
