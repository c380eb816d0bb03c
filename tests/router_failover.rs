//! Router failover e2e: spawn two real `rpaserved` workers sharing a
//! checkpoint root, front them with a real `rparouter`, submit a job,
//! `kill -9` the worker that owns it mid-run, and assert the surviving
//! worker adopts the job and finishes it with an energy bit-identical
//! to an uninterrupted in-process run of the same input.

#![allow(clippy::unwrap_used)]

mod common;

use common::{doc, http, read_addr, spawn, submit_body};
use mbrpa::prelude::*;
use mbrpa::serve::json::{require_str, require_uint, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Several cheap frequencies, so the kill usually lands mid-run and the
/// adopting worker has checkpoints to restore and work left to do.
const JOB_INPUT: &str = "\
N_NUCHI_EIGS: 6
N_OMEGA: 8
TOL_EIG: 1e-2
TOL_STERN_RES: 1e-2
MAXIT_FILTERING: 6
CHEB_DEGREE_RPA: 2
BOUNDARY: DIRICHLET
CELLS_Z: 1
POINTS_PER_CELL: 5
MESH: 0.69
PERTURBATION: 0.02
SYSTEM_SEED: 7
NP: 1
";

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
    let scratch = std::env::temp_dir().join(format!("mbrpa-router-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let ckpt_root: PathBuf = scratch.join("ckpt");

    // reference: an uninterrupted in-process run of the same input
    let input = mbrpa::core::parse_rpa_input(JOB_INPUT).unwrap();
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

    let submit = submit_body(JOB_INPUT);
    let (status, body) = http(&router_addr, "POST", "/v1/jobs", Some(&submit));
    assert_eq!(status, 201, "{body}");
    let rid = require_str(&doc(&body), "id").unwrap().to_string();
    assert!(
        rid.starts_with("rjob-"),
        "router must re-key the id: {body}"
    );

    // which worker owns the job? (rendezvous picks either)
    let (status, routes) = http(&router_addr, "GET", "/v1/routes", None);
    assert_eq!(status, 200, "{routes}");
    let owner = require_str(&only_route(&routes), "worker")
        .unwrap()
        .to_string();
    assert!(
        owner == addr_a || owner == addr_b,
        "route names an unknown worker: {routes}"
    );

    // wait until at least one frequency is checkpointed, so the adopter
    // has prior state to restore
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut finished_before_kill = false;
    loop {
        let (status, body) = http(&router_addr, "GET", &format!("/v1/jobs/{rid}"), None);
        assert_eq!(status, 200, "{body}");
        let status_doc = doc(&body);
        assert_eq!(
            require_str(&status_doc, "id"),
            Ok(rid.as_str()),
            "proxied status must carry the router id: {body}"
        );
        let state = require_str(&status_doc, "state").unwrap();
        if state == "completed" {
            // machine too fast: the job finished before we could kill its
            // owner; the bit-identity assertion below still applies
            finished_before_kill = true;
            break;
        }
        assert_ne!(state, "failed", "{body}");
        let completed = require_uint(&status_doc, "completed").unwrap_or(0);
        if state == "running" && completed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no progress before the kill");
        std::thread::sleep(Duration::from_millis(10));
    }

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
        let deadline = Instant::now() + Duration::from_secs(180);
        loop {
            let (status, body) = http(&router_addr, "GET", &format!("/v1/jobs/{rid}"), None);
            assert_eq!(status, 200, "{body}");
            let status_doc = doc(&body);
            let state = require_str(&status_doc, "state").unwrap();
            if state == "completed" {
                break;
            }
            assert_ne!(state, "failed", "{body}");
            assert!(Instant::now() < deadline, "adopted job never finished");
            std::thread::sleep(Duration::from_millis(100));
        }

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

    // the persisted route table must validate against its schema
    let table = scratch.join("router").join("route-table.json");
    let out = Command::new(env!("CARGO_BIN_EXE_rparouter"))
        .args(["-validate", "route-table"])
        .arg(&table)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "route table invalid: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // graceful exits: router first, then the surviving worker(s)
    let (status, _) = http(&router_addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 202);
    let exit = router.wait().unwrap();
    assert!(exit.success(), "router exited {exit}");
    for (addr, mut worker) in [(addr_a, worker_a), (addr_b, worker_b)] {
        if let Ok(Some(_)) = worker.try_wait() {
            continue; // the one we killed
        }
        let (status, _) = http(&addr, "POST", "/v1/shutdown", None);
        assert_eq!(status, 202);
        let exit = worker.wait().unwrap();
        assert!(exit.success(), "worker exited {exit}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
