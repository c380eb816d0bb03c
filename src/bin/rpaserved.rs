//! `rpaserved` — the RPA job-serving daemon.
//!
//! ```text
//! rpaserved -root jobs.d                     # serve on 127.0.0.1:8377
//! rpaserved -root jobs.d -addr 127.0.0.1:0 -port-file addr.txt
//! rpaserved -validate result job-000001/result.json
//! ```
//!
//! The daemon accepts `mbrpa.job/1` submissions on `/v1/jobs`, runs them
//! through the same pipeline as `rpacalc` (energies are bit-identical),
//! and journals per-frequency checkpoints so a killed daemon resumes
//! every interrupted job on restart. SIGINT/SIGTERM trigger a graceful
//! drain: running jobs checkpoint at their next frequency boundary and
//! requeue. The `-validate` mode checks a stored JSON document against
//! its schema and exits nonzero on violations (CI uses it).

use mbrpa::serve::daemon::{Daemon, DaemonConfig};
use mbrpa::serve::job::validate_file;
use mbrpa::serve::signal;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!("usage: rpaserved [-root <dir>] [-addr <ip:port>] [-port-file <path>]");
    eprintln!("                 [-executors N] [-backlog N] [-threads N] [-profile]");
    eprintln!("                 [-cache-dir <dir>] [-cache-budget BYTES] [-no-cache]");
    eprintln!("                 [-ckpt-root <dir>]");
    eprintln!("       rpaserved -validate <kind> <file.json>");
    eprintln!("  -root <dir>       job store directory (default mbrpa-serve-data)");
    eprintln!("  -addr <ip:port>   bind address (default 127.0.0.1:8377; port 0 = ephemeral)");
    eprintln!("  -port-file <path> write the bound address to <path> after startup");
    eprintln!("  -executors N      concurrent job executors (default 1)");
    eprintln!("  -backlog N        max queued jobs before 429 (default 16)");
    eprintln!("  -threads N        size the global rayon pool");
    eprintln!("  -profile          emit per-job profile.json (single executor only)");
    eprintln!("  -cache-dir <dir>  exact result cache directory (default <root>/cache)");
    eprintln!("  -cache-budget B   cache byte budget, LRU-evicted above (default 64 MiB)");
    eprintln!("  -no-cache         disable the exact result cache");
    eprintln!("  -ckpt-root <dir>  shared checkpoint root for multi-worker fleets: namespaces");
    eprintln!("                    are keyed by input fingerprint, so another worker given the");
    eprintln!("                    same dir adopts a dead worker's job and resumes bit-for-bit");
    eprintln!("  -validate K F     exit nonzero unless file F is a valid document of kind K:");
    eprintln!("                    job, status, result, health, profile, cache-entry, worker, route-table");
    eprintln!("  MBRPA_SIMD=auto|scalar|avx2 in the environment picks the SIMD dispatch path");
    eprintln!("  (default auto); every path is bit-identical, the active one is in GET /v1/health");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut root = PathBuf::from("mbrpa-serve-data");
    let mut addr = "127.0.0.1:8377".to_string();
    let mut port_file: Option<String> = None;
    let mut executors = 1usize;
    let mut backlog = 16usize;
    let mut threads: Option<usize> = None;
    let mut profile = false;
    let mut cache = true;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_budget = mbrpa::serve::cache::DEFAULT_BUDGET;
    let mut ckpt_root: Option<PathBuf> = None;

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
            "-executors" | "--executors" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => executors = n,
                _ => {
                    eprintln!("-executors needs a non-negative integer");
                    return usage();
                }
            },
            "-backlog" | "--backlog" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => backlog = n,
                _ => {
                    eprintln!("-backlog needs a positive integer");
                    return usage();
                }
            },
            "-threads" | "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("-threads needs a positive integer");
                    return usage();
                }
            },
            "-profile" | "--profile" => profile = true,
            "-cache-dir" | "--cache-dir" => {
                let Some(v) = it.next() else {
                    eprintln!("-cache-dir needs a directory");
                    return usage();
                };
                cache_dir = Some(PathBuf::from(v));
            }
            "-cache-budget" | "--cache-budget" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => cache_budget = n,
                _ => {
                    eprintln!("-cache-budget needs a positive byte count");
                    return usage();
                }
            },
            "-no-cache" | "--no-cache" => cache = false,
            "-ckpt-root" | "--ckpt-root" => {
                let Some(v) = it.next() else {
                    eprintln!("-ckpt-root needs a directory");
                    return usage();
                };
                ckpt_root = Some(PathBuf::from(v));
            }
            "-h" | "--help" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    // install before spawning anything (the rayon pool included) so every
    // thread inherits it
    signal::install_termination_handler();

    // before the executors spin up, so every job (and the health
    // document) reports the same resolved dispatch path
    if let Err(e) = mbrpa::init_runtime(threads) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    let config = DaemonConfig {
        root,
        addr,
        executors,
        backlog,
        profile,
        http_workers: 2,
        cache,
        cache_dir,
        cache_budget,
        ckpt_root,
        log: Arc::new(|line| eprintln!("rpaserved: {line}")),
    };
    let mut daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("cannot start the daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = daemon.local_addr();
    eprintln!("rpaserved: listening on {bound}");
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, bound.to_string()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // park until a signal or a client's POST /v1/shutdown requests a drain.
    // A timed poll, not a condvar wait: the termination flag is set by a
    // signal handler, which may not notify one. No request waits on this.
    while !signal::termination_requested() && !daemon.drain_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("rpaserved: draining (running jobs checkpoint and requeue)");
    daemon.drain();
    eprintln!("rpaserved: drained");
    ExitCode::SUCCESS
}
