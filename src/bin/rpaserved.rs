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

use mbrpa::cli;
use mbrpa::serve::daemon::{Daemon, DaemonConfig};
use mbrpa::serve::signal;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: rpaserved [-root <dir>] [-addr <ip:port>] [-port-file <path>]
                 [-executors N] [-backlog N] [-threads N] [-profile]
                 [-cache-dir <dir>] [-cache-budget BYTES] [-no-cache]
                 [-ckpt-root <dir>]
       rpaserved -validate <kind> <file.json>
  -root <dir>       job store directory (default mbrpa-serve-data)
  -addr <ip:port>   bind address (default 127.0.0.1:8377; port 0 = ephemeral)
  -port-file <path> write the bound address to <path> after startup
  -executors N      concurrent job executors (default 1)
  -backlog N        max queued jobs before 429 (default 16)
  -threads N        size the global rayon pool
  -profile          emit per-job profile.json (single executor only)
  -cache-dir <dir>  exact result cache directory (default <root>/cache)
  -cache-budget B   cache byte budget, LRU-evicted above (default 64 MiB)
  -no-cache         disable the exact result cache
  -ckpt-root <dir>  shared checkpoint root for multi-worker fleets: namespaces
                    are keyed by input fingerprint, so another worker given the
                    same dir adopts a dead worker's job and resumes bit-for-bit
  -validate K F     exit nonzero unless file F is a valid document of kind K:
                    job, status, result, health, profile, cache-entry, worker, route-table
  MBRPA_SIMD=auto|scalar|avx2 in the environment picks the SIMD dispatch path
  (default auto); every path is bit-identical, the active one is in GET /v1/health";

fn main() -> ExitCode {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:8377".to_string(),
        log: Arc::new(|line| eprintln!("rpaserved: {line}")),
        ..DaemonConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut threads: Option<usize> = None;
    cli::parse_args(USAGE, |flag, args| {
        match flag {
            "-validate" => cli::validate_and_exit(&args.value()?, &args.value()?),
            "-root" => config.root = args.value()?.into(),
            "-addr" => config.addr = args.value()?,
            "-port-file" => port_file = Some(args.value()?),
            "-executors" => config.executors = args.uint()?,
            "-backlog" => config.backlog = args.count()?,
            "-threads" => threads = Some(args.count()?),
            "-profile" => config.profile = true,
            "-cache-dir" => config.cache_dir = Some(args.value()?.into()),
            "-cache-budget" => config.cache_budget = args.count()?,
            "-no-cache" => config.cache = false,
            "-ckpt-root" => config.ckpt_root = Some(args.value()?.into()),
            _ => return Err(args.unknown()),
        }
        Ok(())
    });

    // install before spawning anything (the rayon pool included) so every
    // thread inherits it
    signal::install_termination_handler();

    // before the executors spin up, so every job (and the health
    // document) reports the same resolved dispatch path
    if let Err(e) = mbrpa::init_runtime(threads) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    let daemon = match Daemon::start(config) {
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
    cli::serve_until_drained(
        daemon,
        "rpaserved",
        "",
        "running jobs checkpoint and requeue",
        port_file.as_deref(),
    )
}
