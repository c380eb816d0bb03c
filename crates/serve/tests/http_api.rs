//! Integration tests of the daemon over real sockets: submit → run →
//! result (bit-identical to a direct in-process run), deterministic
//! backpressure, cancellation, graceful shutdown, and restart recovery.

// Test code: panics are failures (DESIGN.md §9).
#![allow(clippy::unwrap_used)]

mod common;

use common::{http, scratch_root, start_on, submit_body, wait_for_state, TINY_INPUT};
use mbrpa_core::RpaSetup;
use mbrpa_serve::daemon::{lock, Daemon, DaemonConfig};
use mbrpa_serve::http::exchange;
use mbrpa_serve::job::{validate_health_doc, validate_result_doc, validate_status_doc, JobState};
use mbrpa_serve::json::{self, JsonValue};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn start(tag: &str, executors: usize, backlog: usize) -> (Daemon, SocketAddr, PathBuf) {
    common::start(
        tag,
        DaemonConfig {
            executors,
            backlog,
            ..DaemonConfig::default()
        },
    )
}

#[test]
fn lifecycle_and_bit_identical_result() {
    let (daemon, addr, root) = start("lifecycle", 1, 4);

    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(TINY_INPUT, 5)));
    assert_eq!(status, 201, "{body}");
    let doc = json::parse(&body).unwrap();
    validate_status_doc(&doc).unwrap();
    let id = doc.get("id").unwrap().as_str().unwrap().to_string();

    wait_for_state(addr, &id, "completed", Duration::from_secs(120));

    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200, "{body}");
    let result = json::parse(&body).unwrap();
    validate_result_doc(&result).unwrap();
    assert_eq!(result.get("n_d").unwrap().as_u64(), Some(125));

    // the served energy must be bit-identical to a direct in-process run
    let input = mbrpa_core::parse_rpa_input(TINY_INPUT).unwrap();
    let setup = RpaSetup::from_input(&input).unwrap();
    let reference = setup.run(&input.config).unwrap();
    assert_eq!(
        result.get("total_energy_bits").unwrap().as_str().unwrap(),
        format!("{:016x}", reference.total_energy.to_bits()),
        "served energy differs from the direct run"
    );

    // report is human-readable text
    let (status, report) = http(addr, "GET", &format!("/v1/jobs/{id}/report"), None);
    assert_eq!(status, 200);
    assert!(report.contains("RPA"), "{report}");

    // a job nobody interrupted describes itself as one run, not as the
    // last slice of a restart: nothing restored, a wall time that covers
    // every frequency's operator time, and the solve count of a direct run
    assert_eq!(result.get("n_restored").unwrap().as_u64(), Some(0));
    assert!(!report.contains("Checkpoint restart"), "{report}");
    let seconds_after = |label: &str| -> f64 {
        let line = report.lines().find(|l| l.starts_with(label)).unwrap();
        let value = line.split(':').nth(1).unwrap().trim();
        value.trim_end_matches("sec").trim().parse().unwrap()
    };
    let wall_s = result.get("wall_s").unwrap().as_f64().unwrap();
    assert!(
        wall_s + 1e-3 >= seconds_after("nu chi0 nu"),
        "wall_s {wall_s} does not cover the run: {report}"
    );
    let solves: u64 = report
        .lines()
        .skip_while(|l| !l.starts_with("Block size | Count"))
        .skip(1)
        .map_while(|l| l.split('|').nth(1)?.trim().parse::<u64>().ok())
        .sum();
    assert_eq!(
        solves,
        reference.solver_stats.block_sizes.total() as u64,
        "{report}"
    );

    // health and list know about the job
    let (status, body) = http(addr, "GET", "/v1/health", None);
    assert_eq!(status, 200);
    let health = json::parse(&body).unwrap();
    validate_health_doc(&health).unwrap();
    assert_eq!(health.get("completed").unwrap().as_u64(), Some(1));

    let (status, body) = http(addr, "GET", "/v1/jobs", None);
    assert_eq!(status, 200);
    let list = json::parse(&body).unwrap();
    let jobs = list.get("jobs").unwrap().as_arr().unwrap();
    assert!(jobs
        .iter()
        .any(|j| j.get("id").and_then(JsonValue::as_str) == Some(id.as_str())));

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn full_backlog_returns_429_with_retry_after() {
    // zero executors: nothing is ever claimed, so the backlog state is
    // fully deterministic
    let (daemon, addr, root) = start("backpressure", 0, 1);

    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(TINY_INPUT, 4)));
    assert_eq!(status, 201, "{body}");

    let reply = exchange(
        &addr.to_string(),
        "POST",
        "/v1/jobs",
        Some(&submit_body(TINY_INPUT, 9)),
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(reply.status, 429, "{}", reply.body);
    let retry_after = reply
        .header("retry-after")
        .expect("429 must carry Retry-After");
    assert!(retry_after.parse::<u64>().unwrap() >= 1);

    // the refused job left nothing behind
    let (status, body) = http(addr, "GET", "/v1/health", None);
    assert_eq!(status, 200);
    let health = json::parse(&body).unwrap();
    assert_eq!(health.get("queued").unwrap().as_u64(), Some(1));

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn queued_jobs_cancel_immediately() {
    let (daemon, addr, root) = start("cancel", 0, 4);

    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(TINY_INPUT, 4)));
    assert_eq!(status, 201, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    let (status, body) = http(addr, "POST", &format!("/v1/jobs/{id}/cancel"), None);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("state").unwrap().as_str(), Some("cancelled"));

    // no result, and cancelling again is idempotent
    let (status, _) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 409);
    let (status, _) = http(addr, "POST", &format!("/v1/jobs/{id}/cancel"), None);
    assert_eq!(status, 200);

    // unknown jobs 404
    let (status, _) = http(addr, "POST", "/v1/jobs/job-999999/cancel", None);
    assert_eq!(status, 404);

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_idle_executor_claims_a_submission_at_once() {
    let (daemon, addr, root) = start("wake", 1, 4);

    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(TINY_INPUT, 4)));
    let acked = Instant::now();
    assert_eq!(status, 201, "{body}");
    let doc = json::parse(&body).unwrap();
    let id = doc.get("id").unwrap().as_str().unwrap();

    // the submit handler notified the executor before it replied; a 50 ms
    // idle sleep left the job queued for 25 ms on average
    while lock(&daemon.shared().queue).state_of(id) == Some(JobState::Queued) {
        assert!(
            acked.elapsed() < Duration::from_millis(20),
            "still queued 20 ms after the 201"
        );
        std::thread::yield_now();
    }

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    // one executor, idle and waiting on the queue: the drain has to wake it
    let (mut daemon, addr, root) = start("shutdown", 1, 4);

    let (status, body) = http(addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 202, "{body}");
    assert!(daemon.drain_requested());

    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(TINY_INPUT, 4)));
    assert_eq!(status, 503, "{body}");

    let started = Instant::now();
    daemon.drain();
    assert!(started.elapsed() < Duration::from_secs(1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_recovers_queued_jobs_and_completes_them() {
    let root = scratch_root("recover");

    // first daemon accepts but never runs (zero executors)
    let (daemon, addr) = start_on(
        &root,
        DaemonConfig {
            executors: 0,
            backlog: 4,
            ..DaemonConfig::default()
        },
    );
    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(TINY_INPUT, 4)));
    assert_eq!(status, 201, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    drop(daemon); // drain (nothing running)

    // second daemon on the same root picks the job up and finishes it
    let (daemon, addr) = start_on(
        &root,
        DaemonConfig {
            executors: 1,
            backlog: 4,
            ..DaemonConfig::default()
        },
    );
    wait_for_state(addr, &id, "completed", Duration::from_secs(120));
    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200, "{body}");
    validate_result_doc(&json::parse(&body).unwrap()).unwrap();

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}
