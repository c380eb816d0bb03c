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

use mbrpa::serve::http::{self, Reply};
use mbrpa::serve::json::{self, obj, s, u, JsonValue};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!("usage: rpaclient [-addr <ip:port>] <command> [args]");
    eprintln!("  submit <file.rpa> [-name L] [-priority 0..9]   submit a job");
    eprintln!("  status <id>       show queue state and progress");
    eprintln!("  result <id>       fetch the result document");
    eprintln!("  profile <id>      fetch the telemetry profile");
    eprintln!("  report <id>       fetch the human-readable report");
    eprintln!("  cancel <id>       request cancellation");
    eprintln!("  wait <id>         poll until the job reaches a terminal state");
    eprintln!("  list              list all jobs");
    eprintln!("  health            daemon liveness and queue occupancy");
    eprintln!("  cache             result-cache statistics");
    eprintln!("  cache-flush       drop every cached result");
    eprintln!("  shutdown          request a graceful drain");
    eprintln!("default address: 127.0.0.1:8377");
    ExitCode::FAILURE
}

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

fn submit(addr: &str, args: &[String]) -> ExitCode {
    let Some(file) = args.first() else {
        eprintln!("submit needs a .rpa file");
        return usage();
    };
    let input = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut name: Option<String> = None;
    let mut priority: Option<usize> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-name" => name = it.next().cloned(),
            "-priority" => priority = it.next().and_then(|v| v.parse().ok()),
            other => {
                eprintln!("unknown submit option `{other}`");
                return usage();
            }
        }
    }
    let mut pairs = vec![("schema", s("mbrpa.job/1")), ("input", s(&input))];
    if let Some(name) = &name {
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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:8377".to_string();
    if args.first().map(String::as_str) == Some("-addr") {
        if args.len() < 2 {
            eprintln!("-addr needs an address");
            return usage();
        }
        addr = args[1].clone();
        args.drain(..2);
    }
    let Some(command) = args.first().cloned() else {
        return usage();
    };
    let rest = &args[1..];
    let id_path = |suffix: &str| -> Option<String> {
        rest.first().map(|id| format!("/v1/jobs/{id}{suffix}"))
    };
    match command.as_str() {
        "submit" => submit(&addr, rest),
        "status" => match id_path("") {
            Some(path) => run(&addr, "GET", &path, None),
            None => usage(),
        },
        "result" => match id_path("/result") {
            Some(path) => run(&addr, "GET", &path, None),
            None => usage(),
        },
        "profile" => match id_path("/profile") {
            Some(path) => run(&addr, "GET", &path, None),
            None => usage(),
        },
        "report" => match id_path("/report") {
            Some(path) => run(&addr, "GET", &path, None),
            None => usage(),
        },
        "cancel" => match id_path("/cancel") {
            Some(path) => run(&addr, "POST", &path, None),
            None => usage(),
        },
        "wait" => match rest.first() {
            Some(id) => wait(&addr, id),
            None => usage(),
        },
        "list" => run(&addr, "GET", "/v1/jobs", None),
        "health" => run(&addr, "GET", "/v1/health", None),
        "cache" => run(&addr, "GET", "/v1/cache", None),
        "cache-flush" => run(&addr, "POST", "/v1/cache/flush", None),
        "shutdown" => run(&addr, "POST", "/v1/shutdown", None),
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
