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

use mbrpa::cli;
use mbrpa::serve::router::{Router, RouterConfig};
use mbrpa::serve::signal;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: rparouter -worker <ip:port> [-worker <ip:port> ...]
                 [-root <dir>] [-addr <ip:port>] [-port-file <path>]
                 [-poll-ms N] [-probe-timeout-ms N] [-fail-threshold N]
       rparouter -validate <kind> <file.json>
  -worker <ip:port>    a worker's rpaserved address (repeatable; required).
                       workers in one fleet must share a -ckpt-root so a
                       failover resumes the dead worker's slices bit-for-bit
  -root <dir>          router state directory: per job, the stored submission
                       body and its route record (default mbrpa-router-data)
  -addr <ip:port>      bind address (default 127.0.0.1:8380; port 0 = ephemeral)
  -port-file <path>    write the bound address to <path> after startup
  -poll-ms N           health-poll cadence in ms (default 500)
  -probe-timeout-ms N  per-probe timeout in ms (default 2000)
  -fail-threshold N    consecutive probe failures before a worker is
                       declared dead and its jobs re-homed (default 3)
  -validate K F        exit nonzero unless file F is a valid document of kind K:
                       job, status, result, health, profile, cache-entry, worker, route-table";

fn main() -> ExitCode {
    let mut config = RouterConfig {
        addr: "127.0.0.1:8380".to_string(),
        log: Arc::new(|line| eprintln!("rparouter: {line}")),
        ..RouterConfig::default()
    };
    let mut port_file: Option<String> = None;
    cli::parse_args(USAGE, |flag, args| {
        match flag {
            "-validate" => cli::validate_and_exit(&args.value()?, &args.value()?),
            "-worker" => config.workers.push(args.value()?),
            "-root" => config.root = args.value()?.into(),
            "-addr" => config.addr = args.value()?,
            "-port-file" => port_file = Some(args.value()?),
            "-poll-ms" => config.poll_interval = Duration::from_millis(args.count()?),
            "-probe-timeout-ms" => config.probe_timeout = Duration::from_millis(args.count()?),
            "-fail-threshold" => config.fail_threshold = args.count()?,
            _ => return Err(args.unknown()),
        }
        Ok(())
    });
    if config.workers.is_empty() {
        cli::refuse(USAGE, "a router needs at least one -worker address");
    }

    // install before spawning anything so every thread inherits it
    signal::install_termination_handler();

    let n_workers = config.workers.len();
    let router = match Router::start(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot start the router: {e}");
            return ExitCode::FAILURE;
        }
    };
    cli::serve_until_drained(
        router,
        "rparouter",
        &format!(", fronting {n_workers} worker(s)"),
        "workers and their jobs keep running",
        port_file.as_deref(),
    )
}
