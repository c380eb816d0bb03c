//! Router failover e2e: spawn two real `rpaserved` workers sharing a
//! checkpoint root, front them with a real `rparouter`, submit a job,
//! `kill -9` the worker that owns it mid-run, and assert the surviving
//! worker adopts the job and finishes it with an energy bit-identical
//! to an uninterrupted in-process run of the same input.

#![allow(clippy::unwrap_used)]

mod common;

use common::{
    doc, http, read_addr, scratch, shut_down, spawn, submit_body, tiny_input, wait_completed,
    wait_mid_run,
};
use mbrpa::prelude::*;
use mbrpa::serve::json::{require_str, require_uint, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};

fn spawn_worker(root: &Path, ckpt_root: &Path, port_file: &Path) -> Child {
    let ckpt_root = ckpt_root.to_str().unwrap();
    spawn(
        env!("CARGO_BIN_EXE_rpaserved"),
        root,
        port_file,
        &["-ckpt-root", ckpt_root, "-executors", "1"],
    )
}

fn spawn_router(root: &Path, workers: &[&str], port_file: &Path) -> Child {
    // fast detection so the test does not dawdle: two missed probes
    // 150 ms apart declare a worker dead
    let mut args = vec![
        "-poll-ms",
        "150",
        "-probe-timeout-ms",
        "500",
        "-fail-threshold",
        "2",
    ];
    for worker in workers {
        args.extend(["-worker", worker]);
    }
    spawn(env!("CARGO_BIN_EXE_rparouter"), root, port_file, &args)
}

/// The single route of a `mbrpa.route-table/1` body.
fn only_route(routes: &str) -> JsonValue {
    let table = doc(routes);
    let rows = table.get("routes").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(rows.len(), 1, "{routes}");
    rows[0].clone()
}

#[test]
fn worker_loss_hands_the_job_off_bit_for_bit() {
    let scratch = scratch("router-e2e");
    let ckpt_root: PathBuf = scratch.join("ckpt");

    // several cheap frequencies, so the kill usually lands mid-run and the
    // adopting worker has checkpoints to restore and work left to do
    let job_input = tiny_input(6, 8, 6);

    // reference: an uninterrupted in-process run of the same input
    let input = mbrpa::core::parse_rpa_input(&job_input).unwrap();
    let setup = RpaSetup::from_input(&input).unwrap();
    let reference = setup.run(&input.config).unwrap();
    let reference_bits = format!("{:016x}", reference.total_energy.to_bits());

    // two workers on one shared checkpoint root, one router in front
    let port_a = scratch.join("a.txt");
    let port_b = scratch.join("b.txt");
    let port_r = scratch.join("r.txt");
    let mut worker_a = spawn_worker(&scratch.join("store-a"), &ckpt_root, &port_a);
    let addr_a = read_addr(&port_a, &mut worker_a, "worker a");
    let mut worker_b = spawn_worker(&scratch.join("store-b"), &ckpt_root, &port_b);
    let addr_b = read_addr(&port_b, &mut worker_b, "worker b");
    let mut router = spawn_router(&scratch.join("router"), &[&addr_a, &addr_b], &port_r);
    let router_addr = read_addr(&port_r, &mut router, "rparouter");

    let submit = submit_body(&job_input);
    let (status, body) = http(&router_addr, "POST", "/v1/jobs", Some(&submit));
    assert_eq!(status, 201, "{body}");
    let rid = require_str(&doc(&body), "id").unwrap().to_string();
    assert!(
        rid.starts_with("rjob-"),
        "router must re-key the id: {body}"
    );

    // which worker owns the job? (rendezvous picks either) — the route's
    // record is on disk before the submit is acknowledged
    let record = scratch
        .join("router/jobs")
        .join(format!("{rid}.route.json"));
    let routes = std::fs::read_to_string(&record).unwrap();
    let owner = require_str(&only_route(&routes), "worker")
        .unwrap()
        .to_string();
    assert!(
        owner == addr_a || owner == addr_b,
        "route names an unknown worker: {routes}"
    );

    // wait until at least one frequency is checkpointed, so the adopter
    // has prior state to restore (a machine too fast finishes the job
    // before its owner can be killed; the bit-identity assertion below
    // still applies). Every proxied status must carry the router id.
    let finished_before_kill = !wait_mid_run(&router_addr, &rid);

    eprintln!(
        "failover path: {}",
        if finished_before_kill {
            "NOT exercised (job finished first)"
        } else {
            "exercising kill -9 on the owner"
        }
    );
    let mut killed_mid_run = false;
    if !finished_before_kill {
        // SIGKILL the owner: no drain, no checkpoint flush beyond what
        // per-frequency journaling already wrote
        let doomed = if owner == addr_a {
            &mut worker_a
        } else {
            &mut worker_b
        };
        doomed.kill().unwrap();
        doomed.wait().unwrap();
        killed_mid_run = true;

        // the router must detect the loss, hand the job to the survivor,
        // and the survivor must finish it from the shared checkpoints
        wait_completed(&router_addr, &rid);

        // the route must have moved off the dead worker and count the
        // failover
        let (status, routes) = http(&router_addr, "GET", "/v1/routes", None);
        assert_eq!(status, 200, "{routes}");
        let route = only_route(&routes);
        let now_on = require_str(&route, "worker").unwrap();
        assert_ne!(now_on, owner, "route still names the dead worker");
        let failovers = require_uint(&route, "failovers").unwrap();
        assert!(failovers >= 1, "failover not recorded: {routes}");

        let (status, health) = http(&router_addr, "GET", "/v1/health", None);
        assert_eq!(status, 200, "{health}");
        let counted = require_uint(doc(&health).get("router").unwrap(), "failovers").unwrap();
        assert!(counted >= 1, "health must report the failover: {health}");
    }

    // the adopted result must be bit-identical to the uninterrupted run
    let (status, body) = http(&router_addr, "GET", &format!("/v1/jobs/{rid}/result"), None);
    assert_eq!(status, 200, "{body}");
    let result = doc(&body);
    assert_eq!(
        require_str(&result, "total_energy_bits"),
        Ok(reference_bits.as_str()),
        "adopted energy differs from the uninterrupted run: {body}"
    );
    if killed_mid_run {
        let n_restored = require_uint(&result, "n_restored").unwrap();
        assert!(
            n_restored >= 1,
            "the adopter restored nothing from the dead worker's checkpoints: {body}"
        );
    }

    // the persisted route record must validate against its schema
    let out = Command::new(env!("CARGO_BIN_EXE_rparouter"))
        .args(["-validate", "route-table"])
        .arg(&record)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "route record invalid: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // graceful exits: router first, then the surviving worker(s)
    shut_down(&router_addr, router, "router");
    for (addr, mut worker) in [(addr_a, worker_a), (addr_b, worker_b)] {
        // not the one we killed
        if !matches!(worker.try_wait(), Ok(Some(_))) {
            shut_down(&addr, worker, "worker");
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
