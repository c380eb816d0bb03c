//! End-to-end daemon test: spawn the real `rpaserved` binary, submit a
//! job, `kill -9` the daemon mid-run, restart it on the same store, and
//! assert the job resumes from its checkpoints and finishes with an
//! energy bit-identical to an uninterrupted in-process run.

#![allow(clippy::unwrap_used)]

mod common;

use common::{
    doc, http, read_addr, scratch, shut_down, spawn_daemon, submit_body, tiny_input,
    wait_completed, wait_mid_run,
};
use mbrpa::prelude::*;
use mbrpa::serve::json::{require_str, require_uint};
use std::path::PathBuf;

#[test]
fn kill_dash_nine_resumes_bit_for_bit() {
    let scratch = scratch("serve-e2e");
    let root: PathBuf = scratch.join("store");
    let port_file = scratch.join("addr.txt");

    // several cheap frequencies, so a kill usually lands mid-run and the
    // resume has work left to do
    let job_input = tiny_input(6, 6, 6);

    // reference: an uninterrupted in-process run of the same input
    let input = mbrpa::core::parse_rpa_input(&job_input).unwrap();
    let setup = RpaSetup::from_input(&input).unwrap();
    let reference = setup.run(&input.config).unwrap();
    let reference_bits = format!("{:016x}", reference.total_energy.to_bits());

    // first daemon: submit, wait for per-frequency progress, kill -9
    let mut child = spawn_daemon(&root, &port_file);
    let addr = read_addr(&port_file, &mut child, "rpaserved");
    let submit = submit_body(&job_input);
    let (status, body) = http(&addr, "POST", "/v1/jobs", Some(&submit));
    assert_eq!(status, 201, "{body}");
    let id = require_str(&doc(&body), "id").unwrap().to_string();

    // wait until at least one frequency is checkpointed, so the resume
    // actually has prior state to load (a machine too fast finishes the
    // job first; the bit-identity assertion below still applies)
    let finished_before_kill = !wait_mid_run(&addr, &id);

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
        wait_completed(&addr2, &id);
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

    shut_down(&addr, child, "daemon");
    let _ = std::fs::remove_dir_all(&scratch);
}
