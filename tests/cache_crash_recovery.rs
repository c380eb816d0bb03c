//! Crash-safety of the exact result cache, end to end: populate the
//! cache through the real `rpaserved` binary, `kill -9` it, vandalize
//! the cache directory the way a torn write would (truncated entry,
//! leftover `.tmp` partial), restart, and assert the daemon *never*
//! serves a false hit — it recomputes, bit-identically, and only then
//! starts hitting again.

#![allow(clippy::unwrap_used)]

mod common;

use common::{
    doc, http, read_addr, scratch, shut_down, spawn_daemon, submit_body, tiny_input, wait_completed,
};
use mbrpa::serve::json::JsonValue;
use std::path::PathBuf;

/// The same calculation rendered differently (lowercase, reordered,
/// aliases, float respellings): byte-different, fingerprint-identical.
const JOB_VARIANT: &str = "\
np: 1
system_seed: 7
perturbation: 2e-2
mesh: 0.69   # same mesh
points_per_cell: 5
cells_z: 1
boundary: dirichlet
cheb_degree_rpa: 2
maxit_filtering: 04
tol_stern_res: 0.01
tol_eig: 1e-2
n_omega: 2
n_nuchi_eigs: 4
";

fn submit(addr: &str, input: &str) -> (u16, JsonValue) {
    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(input)));
    (status, doc(&body))
}

fn result_bits(addr: &str, id: &str) -> String {
    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200, "{body}");
    doc(&body)
        .get("total_energy_bits")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

#[test]
fn torn_cache_writes_never_produce_a_false_hit() {
    let scratch = scratch("cache-crash");
    // two cheap frequencies: completes in seconds
    let job_input = tiny_input(4, 2, 4);
    let root: PathBuf = scratch.join("store");
    let port_file = scratch.join("addr.txt");
    let cache_dir = root.join("cache");

    // daemon 1: complete one job, populating the cache
    let mut child = spawn_daemon(&root, &port_file);
    let addr = read_addr(&port_file, &mut child, "rpaserved");
    let (status, doc) = submit(&addr, &job_input);
    assert_eq!(status, 201, "{}", doc.to_json());
    let id = doc.get("id").unwrap().as_str().unwrap().to_string();
    wait_completed(&addr, &id);
    let reference_bits = result_bits(&addr, &id);

    // the entry must be on disk under its canonical fingerprint
    let input = mbrpa::core::parse_rpa_input(&job_input).unwrap();
    let fingerprint = mbrpa::core::fingerprint_hex(&input);
    let entry_path = cache_dir.join(format!("{fingerprint}.json"));
    assert!(entry_path.is_file(), "missing {}", entry_path.display());

    // SIGKILL: the daemon gets no chance to clean anything up
    child.kill().unwrap();
    child.wait().unwrap();

    // simulate the crash landing mid-write: truncate the entry to half
    // its bytes and leave a partial temp file behind, exactly what a
    // torn non-atomic write sequence would produce
    let bytes = std::fs::read(&entry_path).unwrap();
    assert!(bytes.len() > 2);
    std::fs::write(&entry_path, &bytes[..bytes.len() / 2]).unwrap();
    let tmp_path = cache_dir.join(format!(".{fingerprint}.json.tmp"));
    std::fs::write(&tmp_path, &bytes[..bytes.len() / 3]).unwrap();

    // daemon 2 on the same store: the torn entry must not hit
    let mut child = spawn_daemon(&root, &port_file);
    let addr = read_addr(&port_file, &mut child, "rpaserved");
    let (status, doc) = submit(&addr, JOB_VARIANT);
    assert_eq!(
        status,
        201,
        "torn cache entry served as a hit: {}",
        doc.to_json()
    );
    assert!(
        !tmp_path.exists(),
        "startup scan left the partial temp file behind"
    );
    let id2 = doc.get("id").unwrap().as_str().unwrap().to_string();
    assert_ne!(id2, id);
    wait_completed(&addr, &id2);

    // the recomputation is bit-identical to the pre-crash run...
    assert_eq!(result_bits(&addr, &id2), reference_bits);

    // ...and repopulated the cache: a third submission now hits, again
    // with the exact same bits
    let (status, doc) = submit(&addr, &job_input);
    assert_eq!(status, 200, "{}", doc.to_json());
    assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        doc.get("fingerprint").unwrap().as_str().unwrap(),
        fingerprint
    );
    assert_eq!(
        doc.get("total_energy_bits").unwrap().as_str().unwrap(),
        reference_bits
    );

    shut_down(&addr, child, "daemon");
    let _ = std::fs::remove_dir_all(&scratch);
}
