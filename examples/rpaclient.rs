//! `rpaclient` — a minimal command-line client for `rpaserved`.
//!
//! ```text
//! cargo run --release --example rpaclient -- submit inputs/cluster_smoke.rpa -name smoke
//! cargo run --release --example rpaclient -- wait job-000001
//! cargo run --release --example rpaclient -- result job-000001
//! ```
//!
//! Speaks through the daemon crate's own HTTP client
//! ([`mbrpa::serve::http::exchange`]). Every command prints the response
//! body (JSON for everything but `report`) to stdout and exits nonzero on any
//! non-2xx status, surfacing the server's JSON `error` member — and the
//! `Retry-After` header when one is sent (429 backpressure, 503 drains)
//! — on stderr so scripts see why a request was refused and when to
//! resubmit.

use mbrpa::cli;
use mbrpa::serve::http::{self, Reply};
use mbrpa::serve::json::{self, obj, s, u, JsonValue};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: rpaclient [-addr <ip:port>] <command> [args]
  submit <file.rpa> [-name L] [-priority 0..9]   submit a job
  status <id>       show queue state and progress
  result <id>       fetch the result document
  profile <id>      fetch the telemetry profile
  report <id>       fetch the human-readable report
  cancel <id>       request cancellation
  wait <id>         poll until the job reaches a terminal state
  list              list all jobs
  health            daemon liveness and queue occupancy
  cache             result-cache statistics
  cache-flush       drop every cached result
  shutdown          request a graceful drain
default address: 127.0.0.1:8377";

/// One HTTP exchange, under the client's fixed 30 s timeout.
fn exchange(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
    http::exchange(addr, method, path, body, Duration::from_secs(30))
}

/// Run an exchange, print the body, and translate the status to an exit
/// code.
fn run(addr: &str, method: &str, path: &str, body: Option<&str>) -> ExitCode {
    match exchange(addr, method, path, body) {
        Ok(reply) => {
            let status = reply.status;
            println!("{}", reply.body);
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                // surface the server's own diagnosis, not just the code:
                // error replies carry {"error": "..."} in the body
                let reason = json::parse(&reply.body).ok().and_then(|doc| {
                    doc.get("error")
                        .and_then(JsonValue::as_str)
                        .map(String::from)
                });
                match reason {
                    Some(reason) => eprintln!("HTTP {status}: {reason}"),
                    None => eprintln!("HTTP {status}"),
                }
                // backpressure, not failure: tell scripts when to retry
                // (any status may carry the header — 429 and 503 do)
                if let Some(seconds) = reply.header("retry-after") {
                    eprintln!("retry after {seconds} s");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn submit(addr: &str, file: &str, name: Option<&str>, priority: Option<usize>) -> ExitCode {
    let input = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut pairs = vec![("schema", s("mbrpa.job/1")), ("input", s(&input))];
    if let Some(name) = name {
        pairs.push(("name", s(name)));
    }
    if let Some(priority) = priority {
        pairs.push(("priority", u(priority)));
    }
    let body = obj(pairs).to_json();
    run(addr, "POST", "/v1/jobs", Some(&body))
}

/// Poll until `id` is terminal: every 20 ms for the first second (a
/// small job is done in tens of milliseconds), every 500 ms after. A
/// progress line is printed when it changes, not per poll.
fn wait(addr: &str, id: &str) -> ExitCode {
    let started = Instant::now();
    let mut last_line = String::new();
    loop {
        let Reply { status, body, .. } =
            match exchange(addr, "GET", &format!("/v1/jobs/{id}"), None) {
                Ok(reply) => reply,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
        if status != 200 {
            eprintln!("HTTP {status}: {body}");
            return ExitCode::FAILURE;
        }
        let doc = match json::parse(&body) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("malformed status body: {e}");
                return ExitCode::FAILURE;
            }
        };
        let state = doc
            .get("state")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string();
        match state.as_str() {
            "completed" => {
                println!("{body}");
                return ExitCode::SUCCESS;
            }
            "failed" | "cancelled" => {
                println!("{body}");
                eprintln!("job ended as {state}");
                return ExitCode::FAILURE;
            }
            _ => {
                let progress = match (
                    doc.get("completed").and_then(JsonValue::as_u64),
                    doc.get("n_omega").and_then(JsonValue::as_u64),
                ) {
                    (Some(done), Some(total)) => format!(" ({done}/{total} frequencies)"),
                    _ => String::new(),
                };
                let line = format!("{id}: {state}{progress}");
                if line != last_line {
                    eprintln!("{line}");
                    last_line = line;
                }
                let eager = started.elapsed() < Duration::from_secs(1);
                std::thread::sleep(Duration::from_millis(if eager { 20 } else { 500 }));
            }
        }
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:8377".to_string();
    let mut words: Vec<String> = Vec::new();
    let mut name: Option<String> = None;
    let mut priority: Option<usize> = None;
    cli::parse_args(USAGE, |flag, args| {
        match flag {
            "-addr" => addr = args.value()?,
            "-name" => name = Some(args.value()?),
            "-priority" => priority = Some(args.uint()?),
            word if !word.starts_with('-') => words.push(word.to_string()),
            _ => return Err(args.unknown()),
        }
        Ok(())
    });
    let Some((command, rest)) = words.split_first() else {
        cli::refuse(USAGE, "no command given")
    };
    if command != "submit" && (name.is_some() || priority.is_some()) {
        cli::refuse(USAGE, "-name and -priority are options of submit");
    }
    let arg = || match rest.first() {
        Some(arg) => arg,
        None => cli::refuse(USAGE, &format!("{command} needs an argument")),
    };
    let (method, path) = match command.as_str() {
        "submit" => return submit(&addr, arg(), name.as_deref(), priority),
        "wait" => return wait(&addr, arg()),
        "status" => ("GET", format!("/v1/jobs/{}", arg())),
        "result" | "profile" | "report" => ("GET", format!("/v1/jobs/{}/{command}", arg())),
        "cancel" => ("POST", format!("/v1/jobs/{}/cancel", arg())),
        "list" => ("GET", "/v1/jobs".to_string()),
        "health" => ("GET", "/v1/health".to_string()),
        "cache" => ("GET", "/v1/cache".to_string()),
        "cache-flush" => ("POST", "/v1/cache/flush".to_string()),
        "shutdown" => ("POST", "/v1/shutdown".to_string()),
        other => cli::refuse(USAGE, &format!("unknown command `{other}`")),
    };
    run(&addr, method, &path, None)
}
