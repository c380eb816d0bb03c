//! End-to-end daemon test: spawn the real `rpaserved` binary, submit a
//! job, `kill -9` the daemon mid-run, restart it on the same store, and
//! assert the job resumes from its checkpoints and finishes with an
//! energy bit-identical to an uninterrupted in-process run.

#![allow(clippy::unwrap_used)]

mod common;

use common::{doc, http, read_addr, spawn_daemon, submit_body};
use mbrpa::prelude::*;
use mbrpa::serve::json::{require_str, require_uint};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Several cheap frequencies, so a kill usually lands mid-run and the
/// resume has work left to do.
const JOB_INPUT: &str = "\
N_NUCHI_EIGS: 6
N_OMEGA: 6
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

#[test]
fn kill_dash_nine_resumes_bit_for_bit() {
    let scratch = std::env::temp_dir().join(format!("mbrpa-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let root: PathBuf = scratch.join("store");
    let port_file = scratch.join("addr.txt");

    // reference: an uninterrupted in-process run of the same input
    let input = mbrpa::core::parse_rpa_input(JOB_INPUT).unwrap();
    let setup = RpaSetup::from_input(&input).unwrap();
    let reference = setup.run(&input.config).unwrap();
    let reference_bits = format!("{:016x}", reference.total_energy.to_bits());

    // first daemon: submit, wait for per-frequency progress, kill -9
    let mut child = spawn_daemon(&root, &port_file);
    let addr = read_addr(&port_file, &mut child, "rpaserved");
    let submit = submit_body(JOB_INPUT);
    let (status, body) = http(&addr, "POST", "/v1/jobs", Some(&submit));
    assert_eq!(status, 201, "{body}");
    let id = require_str(&doc(&body), "id").unwrap().to_string();

    // wait until at least one frequency is checkpointed, so the resume
    // actually has prior state to load
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut finished_before_kill = false;
    loop {
        let (status, body) = http(&addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let status_doc = doc(&body);
        let state = require_str(&status_doc, "state").unwrap();
        if state == "completed" {
            // machine too fast: the job finished before we could kill it;
            // the bit-identity assertion below still applies
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

    let mut killed_mid_run = false;
    if !finished_before_kill {
        child.kill().unwrap(); // SIGKILL: no drain, no final state write
        child.wait().unwrap();

        // usually the store still says `running` (the crash marker); the
        // job may also have completed in the instant before the kill
        let state_file = root.join("jobs").join(&id).join("state");
        let on_disk = std::fs::read_to_string(&state_file).unwrap();
        killed_mid_run = on_disk.trim() == "running";

        // second daemon on the same store: recovery requeues and resumes
        child = spawn_daemon(&root, &port_file);
        let addr2 = read_addr(&port_file, &mut child, "rpaserved");
        let deadline = Instant::now() + Duration::from_secs(180);
        loop {
            let (status, body) = http(&addr2, "GET", &format!("/v1/jobs/{id}"), None);
            assert_eq!(status, 200, "{body}");
            let status_doc = doc(&body);
            let state = require_str(&status_doc, "state").unwrap();
            if state == "completed" {
                break;
            }
            assert_ne!(state, "failed", "{body}");
            assert!(Instant::now() < deadline, "resumed job never finished");
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    // the served result must be bit-identical to the uninterrupted run
    let addr = std::fs::read_to_string(&port_file)
        .unwrap()
        .trim()
        .to_string();
    let (status, body) = http(&addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200, "{body}");
    let result = doc(&body);
    assert_eq!(
        require_str(&result, "total_energy_bits"),
        Ok(reference_bits.as_str()),
        "resumed energy differs from the uninterrupted run: {body}"
    );
    let n_restored = require_uint(&result, "n_restored").unwrap();
    if killed_mid_run {
        assert!(n_restored >= 1, "resume restored nothing: {body}");
    }

    // graceful exit
    let (status, _) = http(&addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 202);
    let exit = child.wait().unwrap();
    assert!(exit.success(), "daemon exited {exit}");
    let _ = std::fs::remove_dir_all(&scratch);
}
