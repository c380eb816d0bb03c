//! `rparouter` — multi-node sharding front for a fleet of `rpaserved`
//! workers.
//!
//! ```text
//! rparouter -root router.d -worker 127.0.0.1:8377 -worker 127.0.0.1:8378
//! rparouter -root router.d -addr 127.0.0.1:0 -port-file addr.txt \
//!           -worker 127.0.0.1:8377 -worker 127.0.0.1:8378
//! rparouter -validate route-table router.d/jobs/rjob-000001.route.json
//! ```
//!
//! The router speaks the same `mbrpa.job/1` API as a single worker and
//! assigns each submission to the live worker that rendezvous-hashing
//! its input fingerprint picks — so resubmissions land on the worker
//! whose result cache already holds them. Worker health is polled on
//! `/v1/health`; when a worker dies mid-job, its routes are handed to
//! survivors, which resume bit-for-bit from the shared `-ckpt-root`
//! every worker in the fleet must be started with.

use mbrpa::serve::job::validate_file;
use mbrpa::serve::router::{Router, RouterConfig};
use mbrpa::serve::signal;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!("usage: rparouter -worker <ip:port> [-worker <ip:port> ...]");
    eprintln!("                 [-root <dir>] [-addr <ip:port>] [-port-file <path>]");
    eprintln!("                 [-poll-ms N] [-probe-timeout-ms N] [-fail-threshold N]");
    eprintln!("       rparouter -validate <kind> <file.json>");
    eprintln!("  -worker <ip:port>    a worker's rpaserved address (repeatable; required).");
    eprintln!("                       workers in one fleet must share a -ckpt-root so a");
    eprintln!("                       failover resumes the dead worker's slices bit-for-bit");
    eprintln!("  -root <dir>          router state directory: per job, the stored submission");
    eprintln!("                       body and its route record (default mbrpa-router-data)");
    eprintln!("  -addr <ip:port>      bind address (default 127.0.0.1:8380; port 0 = ephemeral)");
    eprintln!("  -port-file <path>    write the bound address to <path> after startup");
    eprintln!("  -poll-ms N           health-poll cadence in ms (default 500)");
    eprintln!("  -probe-timeout-ms N  per-probe timeout in ms (default 2000)");
    eprintln!("  -fail-threshold N    consecutive probe failures before a worker is");
    eprintln!("                       declared dead and its jobs re-homed (default 3)");
    eprintln!("  -validate K F        exit nonzero unless file F is a valid document of kind K:");
    eprintln!("                       job, status, result, health, profile, cache-entry, worker, route-table");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut root = PathBuf::from("mbrpa-router-data");
    let mut addr = "127.0.0.1:8380".to_string();
    let mut port_file: Option<String> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut poll_ms = 500u64;
    let mut probe_timeout_ms = 2000u64;
    let mut fail_threshold = 3u32;

    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-validate" | "--validate" => {
                let (Some(kind), Some(path)) = (it.next(), it.next()) else {
                    eprintln!("-validate needs a kind and a file");
                    return usage();
                };
                return match validate_file(kind, path) {
                    Ok(_) => {
                        println!("{path}: valid {kind} document");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "-worker" | "--worker" => {
                let Some(v) = it.next() else {
                    eprintln!("-worker needs an ip:port address");
                    return usage();
                };
                workers.push(v.clone());
            }
            "-root" | "--root" => {
                let Some(v) = it.next() else {
                    eprintln!("-root needs a directory");
                    return usage();
                };
                root = PathBuf::from(v);
            }
            "-addr" | "--addr" => {
                let Some(v) = it.next() else {
                    eprintln!("-addr needs an address");
                    return usage();
                };
                addr = v.clone();
            }
            "-port-file" | "--port-file" => {
                let Some(v) = it.next() else {
                    eprintln!("-port-file needs a path");
                    return usage();
                };
                port_file = Some(v.clone());
            }
            "-poll-ms" | "--poll-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => poll_ms = n,
                _ => {
                    eprintln!("-poll-ms needs a positive integer");
                    return usage();
                }
            },
            "-probe-timeout-ms" | "--probe-timeout-ms" => match it.next().map(|v| v.parse::<u64>())
            {
                Some(Ok(n)) if n >= 1 => probe_timeout_ms = n,
                _ => {
                    eprintln!("-probe-timeout-ms needs a positive integer");
                    return usage();
                }
            },
            "-fail-threshold" | "--fail-threshold" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n >= 1 => fail_threshold = n,
                _ => {
                    eprintln!("-fail-threshold needs a positive integer");
                    return usage();
                }
            },
            "-h" | "--help" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    if workers.is_empty() {
        eprintln!("a router needs at least one -worker address");
        return usage();
    }

    // install before spawning anything so every thread inherits it
    signal::install_termination_handler();

    let config = RouterConfig {
        root,
        addr,
        workers,
        poll_interval: Duration::from_millis(poll_ms),
        probe_timeout: Duration::from_millis(probe_timeout_ms),
        fail_threshold,
        http_workers: 2,
        log: Arc::new(|line| eprintln!("rparouter: {line}")),
    };
    let n_workers = config.workers.len();
    let mut router = match Router::start(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot start the router: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = router.local_addr();
    eprintln!("rparouter: listening on {bound}, fronting {n_workers} worker(s)");
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, bound.to_string()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // park until a signal or a client's POST /v1/shutdown requests a drain.
    // A timed poll, not a condvar wait: the termination flag is set by a
    // signal handler, which may not notify one. No request waits on this.
    while !signal::termination_requested() && !router.drain_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("rparouter: draining (workers and their jobs keep running)");
    router.drain();
    eprintln!("rparouter: drained");
    ExitCode::SUCCESS
}
