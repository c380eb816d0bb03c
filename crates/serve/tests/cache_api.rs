//! Socket-level tests of the exact result cache: a byte-different but
//! semantically identical resubmission must be served from the cache
//! with the *exact* f64 bit pattern of the original run and no new job,
//! while flush and LRU eviction must turn subsequent submissions back
//! into misses. Everything goes over a real TCP socket, exactly as a
//! client would see it.

// Test code: panics are failures (DESIGN.md §9).
#![allow(clippy::unwrap_used)]

mod common;

use common::{http, wait_for_state, TINY_INPUT};
use mbrpa_serve::daemon::{Daemon, DaemonConfig};
use mbrpa_serve::job::{validate_result_doc, validate_status_doc};
use mbrpa_serve::json::{self, JsonValue};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// The same calculation as [`TINY_INPUT`], spelled as differently as the
/// format allows: reordered keys, lowercase, aliases (`NP` ↔
/// `NP_NUCHI_EIGS_PARAL_RPA`), float respellings (`0.02` ↔ `2e-2`),
/// leading zeros, comments, and loose whitespace. Byte-different,
/// fingerprint-identical.
const TINY_VARIANT: &str = "\
# the same cluster, rendered differently
np_nuchi_eigs_paral_rpa: 01
mesh  :   0.69
system_seed:07   # same seed
points_per_cell: 5

perturbation: 2e-2
boundary: dirichlet
cheb_degree_rpa: 2
maxit_filtering: 4
tol_stern_res: 0.01
tol_eig: 1e-2
cells_z: 1
n_omega: 2
n_nuchi_eigs: 4
";

fn start_with(tag: &str, executors: usize, config: DaemonConfig) -> (Daemon, SocketAddr, PathBuf) {
    common::start(
        tag,
        DaemonConfig {
            executors,
            backlog: 8,
            ..config
        },
    )
}

fn start(tag: &str, executors: usize) -> (Daemon, SocketAddr, PathBuf) {
    start_with(tag, executors, DaemonConfig::default())
}

fn submit_body(input: &str) -> String {
    common::submit_body(input, 5)
}

/// Submit an input that must miss the cache; returns the new job id.
fn submit_miss(addr: SocketAddr, input: &str) -> String {
    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(input)));
    assert_eq!(status, 201, "expected a cache miss (201): {body}");
    let doc = json::parse(&body).unwrap();
    validate_status_doc(&doc).unwrap();
    doc.get("id").unwrap().as_str().unwrap().to_string()
}

/// Submit an input that must hit the cache; returns the replayed result.
fn submit_hit(addr: SocketAddr, input: &str) -> JsonValue {
    let (status, body) = http(addr, "POST", "/v1/jobs", Some(&submit_body(input)));
    assert_eq!(status, 200, "expected a cache hit (200): {body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(true));
    let fp = doc.get("fingerprint").unwrap().as_str().unwrap();
    assert!(mbrpa_core::is_fingerprint_hex(fp), "bad fingerprint `{fp}`");
    // apart from the two extra members, a hit body is a result document
    validate_result_doc(&doc).unwrap();
    doc
}

fn wait_completed(addr: SocketAddr, id: &str) {
    wait_for_state(addr, id, "completed", Duration::from_secs(120));
}

fn result_bits(addr: SocketAddr, id: &str) -> String {
    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    validate_result_doc(&doc).unwrap();
    doc.get("total_energy_bits")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn cache_stat(addr: SocketAddr, key: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/v1/cache", None);
    assert_eq!(status, 200, "{body}");
    json::parse(&body)
        .unwrap()
        .get(key)
        .unwrap()
        .as_u64()
        .unwrap()
}

fn job_count(addr: SocketAddr) -> usize {
    let (status, body) = http(addr, "GET", "/v1/jobs", None);
    assert_eq!(status, 200, "{body}");
    json::parse(&body)
        .unwrap()
        .get("jobs")
        .unwrap()
        .as_arr()
        .unwrap()
        .len()
}

#[test]
fn semantically_identical_resubmission_replays_the_exact_bits() {
    let (daemon, addr, root) = start("hit", 1);

    let id = submit_miss(addr, TINY_INPUT);
    wait_completed(addr, &id);
    let bits = result_bits(addr, &id);

    // different bytes, same physics: served from the cache, no new job
    assert_ne!(TINY_INPUT, TINY_VARIANT);
    let replay = submit_hit(addr, TINY_VARIANT);
    assert_eq!(
        replay.get("total_energy_bits").unwrap().as_str().unwrap(),
        bits,
        "cache hit changed the f64 bit pattern"
    );
    assert_eq!(job_count(addr), 1, "a cache hit must not create a job");

    assert_eq!(cache_stat(addr, "entries"), 1);
    assert_eq!(cache_stat(addr, "insertions"), 1);
    assert_eq!(cache_stat(addr, "hits"), 1);
    assert_eq!(cache_stat(addr, "misses"), 1); // the first submission

    // the health document carries the same counters
    let (status, body) = http(addr, "GET", "/v1/health", None);
    assert_eq!(status, 200);
    let health = json::parse(&body).unwrap();
    let block = health.get("cache").expect("health must report the cache");
    assert_eq!(block.get("hits").unwrap().as_u64(), Some(1));

    // `BLOCK_POLICY: dynamic` sizes COCG blocks by wall clock, so its
    // energy is not a function of the fingerprinted input: served, never
    // cached, and a resubmission runs again
    let timed = format!("{TINY_INPUT}BLOCK_POLICY: dynamic\n");
    for _ in 0..2 {
        wait_completed(addr, &submit_miss(addr, &timed));
    }
    assert_eq!(cache_stat(addr, "insertions"), 1);

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn flush_turns_hits_back_into_misses() {
    let (daemon, addr, root) = start("flush", 1);

    let id = submit_miss(addr, TINY_INPUT);
    wait_completed(addr, &id);
    submit_hit(addr, TINY_VARIANT);

    let (status, body) = http(addr, "POST", "/v1/cache/flush", None);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("flushed").unwrap().as_u64(), Some(1));
    assert_eq!(cache_stat(addr, "entries"), 0);

    // the flushed entry is gone: the variant now queues a real job...
    let id2 = submit_miss(addr, TINY_VARIANT);
    wait_completed(addr, &id2);
    // ...whose completion repopulates the cache with the same bits
    let replay = submit_hit(addr, TINY_INPUT);
    assert_eq!(
        replay.get("total_energy_bits").unwrap().as_str().unwrap(),
        result_bits(addr, &id),
        "recomputation after a flush is not bit-stable"
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn lru_eviction_drops_the_coldest_entry_first() {
    // probe run: how many bytes does one cached entry cost?
    let (daemon, addr, root) = start("evict-probe", 1);
    let id = submit_miss(addr, TINY_INPUT);
    wait_completed(addr, &id);
    let entry_bytes = cache_stat(addr, "bytes");
    assert!(entry_bytes > 0);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);

    // budget for one entry (±50%), never two
    let (daemon, addr, root) = start_with(
        "evict",
        1,
        DaemonConfig {
            cache_budget: entry_bytes * 3 / 2,
            ..DaemonConfig::default()
        },
    );

    // a genuinely different calculation: three frequencies, not two
    let other_input = TINY_INPUT.replace("N_OMEGA: 2", "N_OMEGA: 3");
    let id = submit_miss(addr, TINY_INPUT);
    wait_completed(addr, &id);
    let id2 = submit_miss(addr, &other_input);
    wait_completed(addr, &id2);

    // inserting the second result pushed the first (coldest) out
    assert_eq!(cache_stat(addr, "entries"), 1);
    assert_eq!(cache_stat(addr, "evictions"), 1);
    submit_hit(addr, &other_input); // the survivor still hits
    let id3 = submit_miss(addr, TINY_INPUT); // the evicted one misses
    wait_completed(addr, &id3);

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn disabled_cache_serves_404_and_never_replays() {
    let (daemon, addr, root) = start_with(
        "disabled",
        1,
        DaemonConfig {
            cache: false,
            ..DaemonConfig::default()
        },
    );

    let (status, _) = http(addr, "GET", "/v1/cache", None);
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/v1/cache/flush", None);
    assert_eq!(status, 404);

    let id = submit_miss(addr, TINY_INPUT);
    wait_completed(addr, &id);
    // byte-identical resubmission still queues a fresh job
    let id2 = submit_miss(addr, TINY_INPUT);
    wait_completed(addr, &id2);

    // and health carries no cache block at all
    let (status, body) = http(addr, "GET", "/v1/health", None);
    assert_eq!(status, 200);
    assert!(json::parse(&body).unwrap().get("cache").is_none());

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}
