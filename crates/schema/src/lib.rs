//! mbrpa-schema: the single registry of schema-version tags, and the
//! one JSON toolkit ([`json`]) every versioned document is read and
//! written with.
//!
//! Every versioned document mbrpa writes to disk or the wire — job
//! submissions, results, cache entries, lint reports, bench reports —
//! carries a `"schema"` tag of the form `mbrpa.<name>/<version>`.
//! Writers and validators used to each embed their own copy of these
//! literals, which is exactly how silent writer/validator drift starts:
//! one side bumps its string, the other keeps accepting (or starts
//! rejecting) documents it should not.
//!
//! This crate is the one place those tags may be spelled. The
//! `schema_tag` rule in `mbrpa-lint` enforces it structurally: any
//! `mbrpa.*/N` string literal in non-test code outside this crate is a
//! lint finding. Test code is exempt so suites can deliberately forge
//! wrong-schema documents.
//!
//! Bumping a version is therefore a one-line change here plus whatever
//! migration the document actually needs — and the bump is visible to
//! every reader and writer at once.

pub mod json;

/// Job submission body accepted by `POST /v1/jobs` (`mbrpa-serve`).
pub const JOB: &str = "mbrpa.job/1";
/// Job lifecycle/status document served by `GET /v1/jobs/<id>`.
pub const JOB_STATUS: &str = "mbrpa.job-status/1";
/// Completed-run result document (also embedded in cache entries).
pub const RESULT: &str = "mbrpa.result/1";
/// Daemon health/introspection document (`GET /v1/health`).
pub const HEALTH: &str = "mbrpa.health/1";
/// Job listing envelope (`GET /v1/jobs`).
pub const JOB_LIST: &str = "mbrpa.job-list/1";
/// Content-addressed exact-result cache entry (`<root>/cache/<fp>.json`).
pub const CACHE_ENTRY: &str = "mbrpa.cache-entry/1";
/// `mbrpa-lint` findings report (`--json` output / `--validate` input).
pub const LINT_FINDINGS: &str = "mbrpa.lint-findings/1";
/// `kernels_bench` report (`BENCH_kernels.json`); v2 added `dispatch`,
/// v3 dropped the frozen-reference columns (`secs_ref`, `speedup`).
pub const KERNELS_BENCH: &str = "mbrpa.kernels-bench/3";
/// One worker's liveness/occupancy as tracked by `rparouter` (embedded
/// in the router's health document and `GET /v1/workers`).
pub const WORKER: &str = "mbrpa.worker/1";
/// The router's job-ownership table (`GET /v1/routes`, persisted as
/// `<root>/route-table.json`).
pub const ROUTE_TABLE: &str = "mbrpa.route-table/1";

/// Every registered tag, for exhaustiveness checks and tooling.
pub const ALL: [&str; 10] = [
    JOB,
    JOB_STATUS,
    RESULT,
    HEALTH,
    JOB_LIST,
    CACHE_ENTRY,
    LINT_FINDINGS,
    KERNELS_BENCH,
    WORKER,
    ROUTE_TABLE,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    /// Registered tags must all follow `mbrpa.<name>/<version>` with a
    /// lowercase dashed name and a decimal version — the exact shape the
    /// lint rule scans for, so a malformed registry entry would silently
    /// escape enforcement.
    #[test]
    fn tags_are_well_formed() {
        for tag in ALL {
            let rest = tag.strip_prefix("mbrpa.").expect("mbrpa. prefix");
            let (name, version) = rest.split_once('/').expect("name/version split");
            assert!(!name.is_empty() && !version.is_empty(), "{tag}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "tag name must be lowercase dashed: {tag}"
            );
            assert!(
                version.chars().all(|c| c.is_ascii_digit()),
                "tag version must be decimal: {tag}"
            );
        }
    }

    /// Two documents must never share a tag.
    #[test]
    fn tags_are_distinct() {
        for (i, a) in ALL.iter().enumerate() {
            for b in ALL.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
