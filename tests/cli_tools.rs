//! CLI contract tests: `-validate` exit codes of both daemons over the
//! one kind table they share, `rpacalc`'s refusal of an unknown SIMD
//! dispatch name, of another system's checkpoint and of retired flags,
//! `rpaserved`'s refusal of `-profile` over several executors, and the
//! `rpaclient` example's error
//! reporting — any non-2xx must exit nonzero and surface the server's
//! JSON `error` member (plus the Retry-After header when one is sent) on
//! stderr, not just a bare status code.

#![allow(clippy::unwrap_used)]

mod common;

use common::{read_addr, scratch, spawn, tiny_input};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A result document that satisfies every `validate_result_doc` check
/// (`total_energy_bits` is the exact bit pattern of `total_energy`).
const VALID_RESULT: &str = r#"{"schema":"mbrpa.result/1","id":"job-000001","n_d":125,"n_s":4,"n_atoms":4,"n_omega":2,"n_restored":0,"total_energy":-1.25,"total_energy_bits":"bff4000000000000","energy_per_atom":-0.3125,"wall_s":1.5}"#;

fn validate_with(binary: &str, kind: &str, path: &Path) -> Output {
    Command::new(binary)
        .args(["-validate", kind])
        .arg(path)
        .output()
        .unwrap()
}

fn validate(kind: &str, path: &Path) -> Output {
    validate_with(env!("CARGO_BIN_EXE_rpaserved"), kind, path)
}

#[test]
fn validate_mode_exit_codes_cover_every_kind() {
    let dir = scratch("cli-validate");

    let result_path = dir.join("result.json");
    std::fs::write(&result_path, VALID_RESULT).unwrap();
    assert!(validate("result", &result_path).status.success());

    // a valid cache entry embeds a valid result under a 32-hex key
    let entry_path = dir.join("entry.json");
    let entry = format!(
        r#"{{"schema":"mbrpa.cache-entry/1","fingerprint":"000102030405060708090a0b0c0d0e0f","result":{VALID_RESULT}}}"#
    );
    std::fs::write(&entry_path, entry).unwrap();
    let out = validate("cache-entry", &entry_path);
    assert!(
        out.status.success(),
        "valid cache entry rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // malformed fingerprint → nonzero
    let bad_fp = dir.join("bad_fp.json");
    std::fs::write(
        &bad_fp,
        format!(
            r#"{{"schema":"mbrpa.cache-entry/1","fingerprint":"nope","result":{VALID_RESULT}}}"#
        ),
    )
    .unwrap();
    assert!(!validate("cache-entry", &bad_fp).status.success());

    // corrupt embedded result (bits do not match the energy) → nonzero
    let bad_result = dir.join("bad_result.json");
    std::fs::write(
        &bad_result,
        r#"{"schema":"mbrpa.cache-entry/1","fingerprint":"000102030405060708090a0b0c0d0e0f","result":{"schema":"mbrpa.result/1","id":"job-000001","n_d":125,"n_s":4,"n_atoms":4,"n_omega":2,"n_restored":0,"total_energy":-1.25,"total_energy_bits":"0000000000000000","energy_per_atom":-0.3125,"wall_s":1.5}}"#,
    )
    .unwrap();
    assert!(!validate("cache-entry", &bad_result).status.success());

    // a result document is not a cache entry, and vice versa
    assert!(!validate("cache-entry", &result_path).status.success());
    assert!(!validate("result", &entry_path).status.success());

    // one kind table under both daemons: the worker takes the router's
    // documents and the router the worker's
    let route_path = dir.join("route.json");
    std::fs::write(
        &route_path,
        r#"{"schema":"mbrpa.route-table/1","next_id":2,"routes":[{"id":"rjob-000001","fingerprint":"000102030405060708090a0b0c0d0e0f","worker":"127.0.0.1:8377","worker_job":"job-000001","state":"routed","failovers":0}],"stale":[]}"#,
    )
    .unwrap();
    assert!(validate("route-table", &route_path).status.success());
    assert!(!validate("worker", &route_path).status.success());
    let router = |kind, path| validate_with(env!("CARGO_BIN_EXE_rparouter"), kind, path).status;
    assert!(router("result", &result_path).success());
    assert!(!router("result", &route_path).success());

    // unknown kinds and unreadable files → nonzero
    assert!(!validate("nonsense", &result_path).status.success());
    assert!(!validate("result", &dir.join("missing.json"))
        .status
        .success());

    // truncated JSON → nonzero
    let torn = dir.join("torn.json");
    std::fs::write(&torn, &VALID_RESULT[..VALID_RESULT.len() / 2]).unwrap();
    assert!(!validate("result", &torn).status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rpacalc_refuses_an_unknown_dispatch_before_any_ks_work() {
    // `neon` names no backend: in MBRPA_SIMD, the one selector, it is the
    // same unknown-name error as any other word, not an unavailable path
    let dir = scratch("cli-simd");
    std::fs::write(dir.join("tiny.rpa"), tiny_input(4, 2, 4)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rpacalc"))
        .args(["-name", "tiny", "-stdout"])
        .env("MBRPA_SIMD", "neon")
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let unknown = r#"unknown SIMD dispatch "neon" (expected one of auto, scalar, avx2)"#;
    assert!(stderr.contains(unknown), "{stderr}");
    // the KS stage announces the system it solved
    assert!(!stderr.contains("n_s ="), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rpacalc_resume_refuses_another_systems_checkpoint() {
    // B has A's grid but other atoms and spacing: resuming A's journal
    // would print A's energy as B's
    let dir = scratch("cli-resume");
    let a = tiny_input(4, 2, 4);
    let b = a
        .replace("SYSTEM_SEED: 7", "SYSTEM_SEED: 11")
        .replace("MESH: 0.69", "MESH: 0.75");
    assert_ne!(a, b);
    std::fs::write(dir.join("a.rpa"), a).unwrap();
    std::fs::write(dir.join("b.rpa"), b).unwrap();
    let rpacalc = |name: &str, resume: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_rpacalc"))
            .args(["-name", name, "-stdout", "-checkpoint", "ck"])
            .args(resume)
            .current_dir(&dir)
            .output()
            .unwrap()
    };
    let first = rpacalc("a", &[]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = rpacalc("b", &["-resume"]);
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(!second.status.success(), "{stderr}");
    assert!(
        stderr.contains("checkpoint belongs to a different run"),
        "{stderr}"
    );
    assert!(!stderr.contains("resumed from checkpoint"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rpacalc_has_no_orbital_file_flags() {
    for flag in ["-save-ks", "-load-ks"] {
        let out = Command::new(env!("CARGO_BIN_EXE_rpacalc"))
            .args(["-name", "tiny", flag])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{stderr}"
        );
    }
}

#[test]
fn rpaserved_refuses_a_profile_over_several_executors() {
    // the telemetry sink is process-global: two executors would blend
    // their jobs' spans, so the pair is refused before anything starts
    let dir = scratch("cli-profile");
    let out = Command::new(env!("CARGO_BIN_EXE_rpaserved"))
        .arg("-root")
        .arg(dir.join("store"))
        .args(["-addr", "127.0.0.1:0", "-profile", "-executors", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("-profile") && stderr.contains("-executors 2"),
        "{stderr}"
    );
    assert!(!dir.join("store").exists(), "nothing may start");
    let _ = std::fs::remove_dir_all(&dir);
}

fn rpaclient_path() -> PathBuf {
    // examples land next to the test binaries: <target>/<profile>/examples/
    Path::new(env!("CARGO_BIN_EXE_rpaserved"))
        .parent()
        .unwrap()
        .join("examples")
        .join("rpaclient")
}

fn rpaclient(addr: &str, args: &[&str]) -> Output {
    Command::new(rpaclient_path())
        .args(["-addr", addr])
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn rpaclient_surfaces_retry_after_on_backpressure() {
    if !rpaclient_path().is_file() {
        // examples are built by `cargo test` for the default profile;
        // skip quietly under harnesses that prune example targets
        eprintln!("skipping: {} not built", rpaclient_path().display());
        return;
    }

    let dir = scratch("cli-client");
    let input_path = dir.join("tiny.rpa");
    std::fs::write(&input_path, tiny_input(4, 2, 4)).unwrap();
    let port_file = dir.join("addr.txt");

    // zero executors + backlog 1: the second submission always 429s
    let mut child = spawn(
        env!("CARGO_BIN_EXE_rpaserved"),
        &dir.join("store"),
        &port_file,
        &["-executors", "0", "-backlog", "1"],
    );
    let addr = read_addr(&port_file, &mut child, "rpaserved");

    let input = input_path.to_str().unwrap();
    let first = rpaclient(&addr, &["submit", input, "-name", "first"]);
    assert!(
        first.status.success(),
        "first submit failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );

    let second = rpaclient(&addr, &["submit", input, "-name", "second"]);
    assert!(!second.status.success(), "backlog-full submit must fail");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("HTTP 429"), "stderr: {stderr}");
    assert!(
        stderr.contains("retry after"),
        "429 must surface Retry-After: {stderr}"
    );
    assert!(
        stderr.contains("backlog"),
        "429 must surface the server's error body, not just the code: {stderr}"
    );

    // the server's diagnosis must reach stderr for every error shape:
    // a 404 names the missing job, a 400 names what was wrong
    let missing = rpaclient(&addr, &["status", "job-999999"]);
    assert!(
        !missing.status.success(),
        "status of a missing job must fail"
    );
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert!(
        stderr.contains("HTTP 404") && stderr.contains("no such job"),
        "404 must carry the server's error member: {stderr}"
    );

    let garbled_path = dir.join("garbled.rpa");
    std::fs::write(&garbled_path, "NOT_A_KEY: banana\n").unwrap();
    let garbled = rpaclient(&addr, &["submit", garbled_path.to_str().unwrap()]);
    assert!(!garbled.status.success(), "invalid input must be refused");
    let stderr = String::from_utf8_lossy(&garbled.stderr);
    assert!(
        stderr.contains("HTTP 400") && stderr.contains("input"),
        "400 must carry the server's error member: {stderr}"
    );

    // cache subcommands ride the same client
    let stats = rpaclient(&addr, &["cache"]);
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("\"entries\""));
    let flush = rpaclient(&addr, &["cache-flush"]);
    assert!(flush.status.success());
    assert!(String::from_utf8_lossy(&flush.stdout).contains("\"flushed\""));

    let shutdown = rpaclient(&addr, &["shutdown"]);
    assert!(shutdown.status.success());
    let exit = child.wait().unwrap();
    assert!(exit.success(), "daemon exited {exit}");
    let _ = std::fs::remove_dir_all(&dir);
}
