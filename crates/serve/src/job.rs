//! Job wire schemas and their validators.
//!
//! Every body the daemon reads or writes is a schema-versioned JSON
//! document; the `schema` member names the layout so clients can detect
//! incompatible upgrades instead of misreading fields:
//!
//! * `mbrpa.job/1` — a submission: the `.rpa` input text plus queueing
//!   metadata (validated end-to-end, including a full parse of the
//!   input, **before** the job is accepted),
//! * `mbrpa.job-status/1` — queue state and per-frequency progress,
//! * `mbrpa.result/1` — the finished energy, with the exact IEEE-754
//!   bits alongside the decimal rendering so bit-for-bit comparisons
//!   survive the JSON round-trip,
//! * `mbrpa.health/1` — daemon liveness and queue occupancy,
//! * `mbrpa.cache-entry/1` — one persisted result-cache entry: the
//!   canonical 128-bit input fingerprint plus the embedded
//!   `mbrpa.result/1` it maps to (see `crate::cache`).

use crate::json::{obj, require_num, require_str, require_uint, s, u, JsonValue};
use mbrpa_core::io::{parse_rpa_input, RpaInput};
use mbrpa_core::{PartialRun, RpaResult};
use std::path::Path;

/// Schema tag of a job submission body.
pub const JOB_SCHEMA: &str = mbrpa_schema::JOB;
/// Schema tag of a status body.
pub const STATUS_SCHEMA: &str = mbrpa_schema::JOB_STATUS;
/// Schema tag of a result body.
pub const RESULT_SCHEMA: &str = mbrpa_schema::RESULT;
/// Schema tag of the health body.
pub const HEALTH_SCHEMA: &str = mbrpa_schema::HEALTH;
/// Schema tag of the job-list body.
pub const LIST_SCHEMA: &str = mbrpa_schema::JOB_LIST;
/// Schema tag of a persisted result-cache entry.
pub const CACHE_ENTRY_SCHEMA: &str = mbrpa_schema::CACHE_ENTRY;
/// Schema tag of one worker's liveness/occupancy document (router).
pub const WORKER_SCHEMA: &str = mbrpa_schema::WORKER;
/// Schema tag of the router's job-ownership table.
pub const ROUTE_TABLE_SCHEMA: &str = mbrpa_schema::ROUTE_TABLE;

/// Highest accepted priority (larger runs sooner).
pub const MAX_PRIORITY: u8 = 9;
/// Priority assigned when a submission omits the member.
pub const DEFAULT_PRIORITY: u8 = 4;
/// Largest accepted `.rpa` input text, in bytes.
pub const MAX_INPUT_BYTES: usize = 256 * 1024;

/// A validated job submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Optional human-readable label (`[A-Za-z0-9._-]{1,64}`).
    pub name: Option<String>,
    /// Queue priority, `0..=9`; higher claims first, FIFO within a level.
    pub priority: u8,
    /// The `.rpa` input text, verbatim (already known to parse).
    pub input: String,
}

impl JobSpec {
    /// Validate a parsed `mbrpa.job/1` body. Errors are client-facing
    /// messages (the daemon returns them in 400 responses).
    pub fn from_json(v: &JsonValue) -> Result<JobSpec, String> {
        let pairs = v.as_obj().ok_or("body must be a JSON object")?;
        for (key, _) in pairs {
            if !matches!(key.as_str(), "schema" | "name" | "priority" | "input") {
                return Err(format!("unknown member `{key}`"));
            }
        }
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing `schema` member")?;
        if schema != JOB_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (need `{JOB_SCHEMA}`)"
            ));
        }
        let name = match v.get("name") {
            None | Some(JsonValue::Null) => None,
            Some(n) => {
                let text = n.as_str().ok_or("`name` must be a string")?;
                if !valid_label(text) {
                    return Err("`name` must match [A-Za-z0-9._-]{1,64}".to_string());
                }
                Some(text.to_string())
            }
        };
        let priority = match v.get("priority") {
            None | Some(JsonValue::Null) => DEFAULT_PRIORITY,
            Some(p) => {
                let raw = p
                    .as_u64()
                    .filter(|&raw| raw <= u64::from(MAX_PRIORITY))
                    .ok_or_else(|| format!("`priority` must be an integer 0..={MAX_PRIORITY}"))?;
                raw as u8
            }
        };
        let input = v
            .get("input")
            .and_then(JsonValue::as_str)
            .ok_or("missing `input` member (the `.rpa` text)")?;
        if input.is_empty() {
            return Err("`input` must not be empty".to_string());
        }
        if input.len() > MAX_INPUT_BYTES {
            return Err(format!("`input` exceeds {MAX_INPUT_BYTES} bytes"));
        }
        // full parse up front: a job that cannot run is rejected at the
        // door, not discovered minutes later by an executor
        let parsed = parse_rpa_input(input).map_err(|e| format!("invalid `.rpa` input: {e}"))?;
        parsed.check()?;
        Ok(JobSpec {
            name,
            priority: priority.min(MAX_PRIORITY),
            input: input.to_string(),
        })
    }

    /// The persisted `job.json` form (same layout as the wire schema).
    pub fn to_json_value(&self) -> JsonValue {
        let mut pairs = vec![("schema", s(JOB_SCHEMA))];
        if let Some(name) = &self.name {
            pairs.push(("name", s(name)));
        }
        pairs.push(("priority", u(usize::from(self.priority))));
        pairs.push(("input", s(&self.input)));
        obj(pairs)
    }

    /// Re-parse the embedded `.rpa` text (validated at submission, so
    /// this only fails if the on-disk `job.json` was edited by hand).
    pub fn parsed(&self) -> Result<RpaInput, String> {
        parse_rpa_input(&self.input).map_err(|e| format!("invalid `.rpa` input: {e}"))
    }
}

/// `[A-Za-z0-9._-]{1,64}`, no leading dot — the same shape as job ids.
pub fn valid_label(text: &str) -> bool {
    !text.is_empty()
        && text.len() <= 64
        && !text.starts_with('.')
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Lifecycle state of a job. `Queued → Running → {Completed, Failed,
/// Cancelled}`; terminal states are absorbing. A `Running` job found on
/// disk at daemon startup was interrupted by a crash and re-enters the
/// queue (its checkpoints make the resume bit-for-bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the backlog.
    Queued,
    /// Claimed by an executor.
    Running,
    /// Finished; `result.json` is available.
    Completed,
    /// The run errored; `error.txt` holds the message.
    Failed,
    /// Cancelled by request; checkpointed state remains on disk.
    Cancelled,
}

impl JobState {
    /// Canonical lowercase name (the `state` file and JSON member).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`JobState::as_str`].
    pub fn parse(text: &str) -> Option<JobState> {
        match text.trim() {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "completed" => Some(JobState::Completed),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// True for states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Build a `mbrpa.job-status/1` body. `progress` is `(completed,
/// n_omega)` when known (running or cancelled jobs), `error` the failure
/// message for failed jobs.
pub fn status_doc(
    id: &str,
    spec: &JobSpec,
    state: JobState,
    progress: Option<(usize, usize)>,
    error: Option<&str>,
) -> JsonValue {
    let mut pairs = vec![("schema", s(STATUS_SCHEMA)), ("id", s(id))];
    match &spec.name {
        Some(name) => pairs.push(("name", s(name))),
        None => pairs.push(("name", JsonValue::Null)),
    }
    pairs.push(("priority", u(usize::from(spec.priority))));
    pairs.push(("state", s(state.as_str())));
    if let Some((completed, n_omega)) = progress {
        pairs.push(("completed", u(completed)));
        pairs.push(("n_omega", u(n_omega)));
    }
    if let Some(message) = error {
        pairs.push(("error", s(message)));
    }
    obj(pairs)
}

/// Build a `mbrpa.result/1` body from a finished run. The energy is
/// carried twice: as a decimal number for humans, and as the exact
/// IEEE-754 bit pattern (`total_energy_bits`, 16 hex digits) so clients
/// can assert bit-for-bit reproducibility across daemon restarts.
pub fn result_doc(id: &str, result: &RpaResult) -> JsonValue {
    obj(vec![
        ("schema", s(RESULT_SCHEMA)),
        ("id", s(id)),
        ("n_d", u(result.n_d)),
        ("n_s", u(result.n_s)),
        ("n_atoms", u(result.n_atoms)),
        ("n_omega", u(result.per_omega.len())),
        ("n_restored", u(result.n_restored)),
        ("total_energy", JsonValue::Num(result.total_energy)),
        (
            "total_energy_bits",
            s(&format!("{:016x}", result.total_energy.to_bits())),
        ),
        ("energy_per_atom", JsonValue::Num(result.energy_per_atom)),
        ("wall_s", JsonValue::Num(result.wall_time.as_secs_f64())),
    ])
}

/// Build the partial-progress summary stored for cancelled jobs (not a
/// result: the accumulated energy is explicitly marked partial).
pub fn partial_doc(id: &str, partial: &PartialRun) -> JsonValue {
    obj(vec![
        ("schema", s(STATUS_SCHEMA)),
        ("id", s(id)),
        ("state", s(JobState::Cancelled.as_str())),
        ("completed", u(partial.completed)),
        ("n_omega", u(partial.n_omega)),
        ("partial_energy", JsonValue::Num(partial.accumulated_energy)),
    ])
}

/// The `schema` member of `v` must be exactly `tag`.
fn require_schema(v: &JsonValue, tag: &str) -> Result<(), String> {
    match require_str(v, "schema")? {
        schema if schema == tag => Ok(()),
        schema => Err(format!("schema is `{schema}`, need `{tag}`")),
    }
}

/// Validate a `mbrpa.result/1` document, including that
/// `total_energy_bits` decodes to exactly the bits of `total_energy`.
pub fn validate_result_doc(v: &JsonValue) -> Result<(), String> {
    require_schema(v, RESULT_SCHEMA)?;
    let id = require_str(v, "id")?;
    if !valid_label(id) {
        return Err(format!("`id` `{id}` is not a valid job id"));
    }
    for key in ["n_d", "n_s", "n_atoms", "n_omega", "n_restored"] {
        require_uint(v, key)?;
    }
    if require_uint(v, "n_omega")? == 0 {
        return Err("`n_omega` must be at least 1".to_string());
    }
    let energy = require_num(v, "total_energy")?;
    if !energy.is_finite() {
        return Err("`total_energy` must be finite".to_string());
    }
    let bits_hex = require_str(v, "total_energy_bits")?;
    if bits_hex.len() != 16 {
        return Err("`total_energy_bits` must be 16 hex digits".to_string());
    }
    let bits = u64::from_str_radix(bits_hex, 16)
        .map_err(|_| "`total_energy_bits` is not hex".to_string())?;
    // exact integer comparison of the bit patterns — the decimal member
    // must round-trip to the same f64 the run produced
    if bits != energy.to_bits() {
        return Err(format!(
            "`total_energy_bits` ({bits_hex}) does not match `total_energy` bits ({:016x})",
            energy.to_bits()
        ));
    }
    require_num(v, "energy_per_atom")?;
    let wall = require_num(v, "wall_s")?;
    if !wall.is_finite() || wall < 0.0 {
        return Err("`wall_s` must be non-negative".to_string());
    }
    Ok(())
}

/// Validate a `mbrpa.cache-entry/1` document: the schema tag, a
/// canonical fingerprint, and a fully valid embedded `mbrpa.result/1`
/// (including its bit-pattern cross-check — a cache must never replay a
/// result whose stored bits disagree with its decimal rendering).
pub fn validate_cache_entry_doc(v: &JsonValue) -> Result<(), String> {
    require_schema(v, CACHE_ENTRY_SCHEMA)?;
    let fingerprint = require_str(v, "fingerprint")?;
    if !mbrpa_core::is_fingerprint_hex(fingerprint) {
        return Err(format!(
            "`fingerprint` `{fingerprint}` is not 32 lowercase hex digits"
        ));
    }
    let result = v.get("result").ok_or("missing object member `result`")?;
    validate_result_doc(result).map_err(|e| format!("embedded result: {e}"))
}

/// Validate a `mbrpa.job-status/1` document.
pub fn validate_status_doc(v: &JsonValue) -> Result<(), String> {
    require_schema(v, STATUS_SCHEMA)?;
    require_str(v, "id")?;
    let state = require_str(v, "state")?;
    if JobState::parse(state).is_none() {
        return Err(format!("unknown `state` `{state}`"));
    }
    if let Some(p) = v.get("completed") {
        p.as_u64().ok_or("`completed` must be an integer")?;
    }
    if let Some(p) = v.get("n_omega") {
        p.as_u64().ok_or("`n_omega` must be an integer")?;
    }
    Ok(())
}

/// Validate a `mbrpa.health/1` document.
pub fn validate_health_doc(v: &JsonValue) -> Result<(), String> {
    require_schema(v, HEALTH_SCHEMA)?;
    for key in ["queued", "running", "backlog_limit", "executors"] {
        require_uint(v, key)?;
    }
    let simd = require_str(v, "simd")?;
    if !["scalar", "avx2", "neon"].contains(&simd) {
        return Err(format!("unknown `simd` dispatch `{simd}`"));
    }
    // the cache block is optional (daemons may run with `-no-cache`),
    // but when present its counters must all be there
    if let Some(cache) = v.get("cache") {
        if cache.as_obj().is_none() {
            return Err("`cache` must be an object".to_string());
        }
        for key in [
            "entries",
            "bytes",
            "budget",
            "hits",
            "misses",
            "insertions",
            "evictions",
        ] {
            cache
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing integer member `cache.{key}`"))?;
        }
    }
    // the router block is optional (plain workers have none), but when
    // present its worker documents and counters must all check out
    if let Some(router) = v.get("router") {
        if router.as_obj().is_none() {
            return Err("`router` must be an object".to_string());
        }
        let workers = router
            .get("workers")
            .and_then(JsonValue::as_arr)
            .ok_or("missing array member `router.workers`")?;
        for worker in workers {
            validate_worker_doc(worker).map_err(|e| format!("router worker: {e}"))?;
        }
        for key in ["routes", "routed", "failovers", "forward_errors"] {
            router
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing integer member `router.{key}`"))?;
        }
    }
    Ok(())
}

/// Validate a `mbrpa.worker/1` document: one worker's liveness and
/// occupancy as the router tracks it.
pub fn validate_worker_doc(v: &JsonValue) -> Result<(), String> {
    require_schema(v, WORKER_SCHEMA)?;
    if require_str(v, "addr")?.is_empty() {
        return Err("`addr` must not be empty".to_string());
    }
    match v.get("alive") {
        Some(JsonValue::Bool(_)) => {}
        _ => return Err("`alive` must be a boolean".to_string()),
    }
    for key in ["queued", "running", "consecutive_failures"] {
        require_uint(v, key)?;
    }
    Ok(())
}

/// Validate a `mbrpa.route-table/1` document: the router's persisted
/// job-ownership table. Each route binds a router-assigned id to its
/// input fingerprint, the owning worker, and the worker-local job id;
/// the optional `stale` list names superseded claims the router still
/// owes a cancel (see `crate::router`).
pub fn validate_route_table_doc(v: &JsonValue) -> Result<(), String> {
    require_schema(v, ROUTE_TABLE_SCHEMA)?;
    require_uint(v, "next_id")?;
    let routes = v
        .get("routes")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array member `routes`")?;
    for route in routes {
        let id = require_str(route, "id")?;
        if !valid_label(id) {
            return Err(format!("route `id` `{id}` is not a valid job id"));
        }
        let fingerprint = require_str(route, "fingerprint")?;
        if !mbrpa_core::is_fingerprint_hex(fingerprint) {
            return Err(format!(
                "route `fingerprint` `{fingerprint}` is not 32 lowercase hex digits"
            ));
        }
        if require_str(route, "worker")?.is_empty() {
            return Err("route `worker` must not be empty".to_string());
        }
        let worker_job = require_str(route, "worker_job")?;
        if !valid_label(worker_job) {
            return Err(format!(
                "route `worker_job` `{worker_job}` is not a valid job id"
            ));
        }
        let state = require_str(route, "state")?;
        if !matches!(state, "routed" | "done") {
            return Err(format!(
                "route `state` `{state}` must be `routed` or `done`"
            ));
        }
        require_uint(route, "failovers")?;
    }
    if let Some(stale) = v.get("stale") {
        let entries = stale
            .as_arr()
            .ok_or("`stale` must be an array when present")?;
        for entry in entries {
            if require_str(entry, "worker")?.is_empty() {
                return Err("stale `worker` must not be empty".to_string());
            }
            let worker_job = require_str(entry, "worker_job")?;
            if !valid_label(worker_job) {
                return Err(format!(
                    "stale `worker_job` `{worker_job}` is not a valid job id"
                ));
            }
        }
    }
    Ok(())
}

/// Validate an `mbrpa-obs` profile document (JSON schema version 2):
/// `schema_version`, a `job` attribution (string or null), and the span
/// and counter tables.
pub fn validate_profile_doc(v: &JsonValue) -> Result<(), String> {
    let version = require_uint(v, "schema_version")?;
    if version != 2 {
        return Err(format!("profile schema_version is {version}, need 2"));
    }
    match v.get("job") {
        Some(JsonValue::Null) | Some(JsonValue::Str(_)) => {}
        _ => return Err("`job` must be a string or null".to_string()),
    }
    match v.get("dispatch") {
        Some(JsonValue::Null) | Some(JsonValue::Str(_)) => {}
        _ => return Err("`dispatch` must be a string or null".to_string()),
    }
    require_num(v, "total_wall_s")?;
    let spans = v
        .get("spans")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array member `spans`")?;
    for span in spans {
        require_str(span, "path")?;
        require_num(span, "total_s")?;
        require_uint(span, "count")?;
    }
    let counters = v
        .get("counters")
        .and_then(JsonValue::as_obj)
        .ok_or("missing object member `counters`")?;
    for (name, total) in counters {
        total
            .as_u64()
            .ok_or_else(|| format!("counter `{name}` must be an integer"))?;
    }
    Ok(())
}

/// Read the JSON file at `path` and check it against the document kind
/// named `kind` — the `-validate <kind> <file>` mode of `rpaserved` and
/// `rparouter`, and how the router loads its route records. Returns the
/// document; the error is the line to print.
pub fn validate_file(kind: &str, path: impl AsRef<Path>) -> Result<JsonValue, String> {
    let validate: fn(&JsonValue) -> Result<(), String> = match kind {
        "job" => |v| JobSpec::from_json(v).map(|_| ()),
        "status" => validate_status_doc,
        "result" => validate_result_doc,
        "health" => validate_health_doc,
        "profile" => validate_profile_doc,
        "cache-entry" => validate_cache_entry_doc,
        "worker" => validate_worker_doc,
        "route-table" => validate_route_table_doc,
        other => return Err(format!("unknown document kind `{other}`")),
    };
    let shown = path.as_ref().display();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {shown}: {e}"))?;
    let doc = crate::json::parse(&text).map_err(|e| format!("{shown}: not valid JSON: {e}"))?;
    validate(&doc).map_err(|e| format!("{shown}: invalid {kind} document: {e}"))?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const GOOD_INPUT: &str = "N_OMEGA: 3\nN_NUCHI_EIGS: 8\nPOINTS_PER_CELL: 5\n";

    fn good_body() -> String {
        let spec = JobSpec {
            name: Some("smoke".to_string()),
            priority: 7,
            input: GOOD_INPUT.to_string(),
        };
        spec.to_json_value().to_json()
    }

    #[test]
    fn job_roundtrips_through_its_own_writer() {
        let v = parse(&good_body()).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.name.as_deref(), Some("smoke"));
        assert_eq!(spec.priority, 7);
        assert_eq!(spec.input, GOOD_INPUT);
    }

    #[test]
    fn submissions_are_strictly_validated() {
        let cases = [
            (r#"{"input":"N_OMEGA: 3"}"#, "schema"),
            (r#"{"schema":"mbrpa.job/2","input":"N_OMEGA: 3"}"#, "schema"),
            (r#"{"schema":"mbrpa.job/1"}"#, "input"),
            (r#"{"schema":"mbrpa.job/1","input":""}"#, "empty"),
            (
                r#"{"schema":"mbrpa.job/1","input":"NOT_A_KEY: 1"}"#,
                "invalid `.rpa`",
            ),
            (
                r#"{"schema":"mbrpa.job/1","input":"N_OMEGA: 3","priority":12}"#,
                "priority",
            ),
            (
                r#"{"schema":"mbrpa.job/1","input":"N_OMEGA: 3","name":"../evil"}"#,
                "name",
            ),
            (
                r#"{"schema":"mbrpa.job/1","input":"N_OMEGA: 3","surprise":1}"#,
                "unknown",
            ),
        ];
        for (body, needle) in cases {
            let v = parse(body).unwrap();
            let e = JobSpec::from_json(&v).unwrap_err();
            assert!(e.contains(needle), "{body}: error `{e}` missing `{needle}`");
        }
    }

    #[test]
    fn submission_rejects_inputs_that_cannot_run() {
        // n_d = 5³ = 125, so 200 eigenpairs are impossible; without
        // `RpaInput::check` this would panic inside an executor thread
        let body = r#"{"schema":"mbrpa.job/1","input":"POINTS_PER_CELL: 5\nN_NUCHI_EIGS: 200"}"#;
        let e = JobSpec::from_json(&parse(body).unwrap()).unwrap_err();
        assert!(e.contains("N_NUCHI_EIGS"), "got `{e}`");

        let body = r#"{"schema":"mbrpa.job/1","input":"VACANCY: 9"}"#;
        let e = JobSpec::from_json(&parse(body).unwrap()).unwrap_err();
        assert!(
            e.contains("VACANCY") || e.contains("out of range"),
            "got `{e}`"
        );
    }

    #[test]
    fn default_priority_applies() {
        let v = parse(r#"{"schema":"mbrpa.job/1","input":"N_OMEGA: 3"}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.priority, DEFAULT_PRIORITY);
        assert!(spec.name.is_none());
    }

    #[test]
    fn state_names_roundtrip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(state.as_str()), Some(state));
        }
        assert!(JobState::parse("exploded").is_none());
        assert!(JobState::Completed.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn result_validator_checks_the_bit_pattern() {
        let energy = -1.234_567_890_123_4_f64;
        let doc = obj(vec![
            ("schema", s(RESULT_SCHEMA)),
            ("id", s("job-000001")),
            ("n_d", u(125)),
            ("n_s", u(16)),
            ("n_atoms", u(8)),
            ("n_omega", u(3)),
            ("n_restored", u(0)),
            ("total_energy", JsonValue::Num(energy)),
            (
                "total_energy_bits",
                s(&format!("{:016x}", energy.to_bits())),
            ),
            ("energy_per_atom", JsonValue::Num(energy / 8.0)),
            ("wall_s", JsonValue::Num(1.5)),
        ]);
        validate_result_doc(&doc).unwrap();
        // the JSON round-trip preserves the bits
        let reparsed = parse(&doc.to_json()).unwrap();
        validate_result_doc(&reparsed).unwrap();
        // a tampered decimal no longer matches the bits
        let mut pairs = doc.as_obj().unwrap().to_vec();
        for pair in pairs.iter_mut() {
            if pair.0 == "total_energy" {
                pair.1 = JsonValue::Num(energy + 1e-9);
            }
        }
        assert!(validate_result_doc(&JsonValue::Obj(pairs)).is_err());
    }

    #[test]
    fn cache_entry_validator_checks_fingerprint_and_embedded_result() {
        let energy = -0.75_f64;
        let result = obj(vec![
            ("schema", s(RESULT_SCHEMA)),
            ("id", s("job-000001")),
            ("n_d", u(125)),
            ("n_s", u(16)),
            ("n_atoms", u(8)),
            ("n_omega", u(3)),
            ("n_restored", u(0)),
            ("total_energy", JsonValue::Num(energy)),
            (
                "total_energy_bits",
                s(&format!("{:016x}", energy.to_bits())),
            ),
            ("energy_per_atom", JsonValue::Num(energy / 8.0)),
            ("wall_s", JsonValue::Num(0.5)),
        ]);
        let fp = format!("{:032x}", 0xabcd_u128);
        let entry = obj(vec![
            ("schema", s(CACHE_ENTRY_SCHEMA)),
            ("fingerprint", s(&fp)),
            ("result", result.clone()),
        ]);
        validate_cache_entry_doc(&entry).unwrap();
        validate_cache_entry_doc(&parse(&entry.to_json()).unwrap()).unwrap();

        let bad_fp = obj(vec![
            ("schema", s(CACHE_ENTRY_SCHEMA)),
            ("fingerprint", s("UPPERCASE-NOT-HEX")),
            ("result", result.clone()),
        ]);
        assert!(validate_cache_entry_doc(&bad_fp).is_err());

        // an entry whose embedded result has tampered bits must fail
        let mut pairs = result.as_obj().unwrap().to_vec();
        for pair in pairs.iter_mut() {
            if pair.0 == "total_energy" {
                pair.1 = JsonValue::Num(energy + 1e-9);
            }
        }
        let torn = obj(vec![
            ("schema", s(CACHE_ENTRY_SCHEMA)),
            ("fingerprint", s(&fp)),
            ("result", JsonValue::Obj(pairs)),
        ]);
        assert!(validate_cache_entry_doc(&torn)
            .unwrap_err()
            .contains("embedded result"));
    }

    #[test]
    fn health_validator_checks_the_optional_cache_block() {
        let doc = obj(vec![
            ("schema", s(HEALTH_SCHEMA)),
            ("queued", u(0)),
            ("running", u(0)),
            ("backlog_limit", u(16)),
            ("executors", u(1)),
            ("simd", s("scalar")),
        ]);
        validate_health_doc(&doc).unwrap();
        // a health doc without the dispatch path, or with a bogus one,
        // is rejected
        let no_simd: Vec<_> = doc
            .as_obj()
            .unwrap()
            .iter()
            .filter(|(k, _)| k != "simd")
            .cloned()
            .collect();
        assert!(validate_health_doc(&JsonValue::Obj(no_simd)).is_err());
        let bogus: Vec<_> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                if k == "simd" {
                    (k.clone(), s("sse42"))
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect();
        assert!(validate_health_doc(&JsonValue::Obj(bogus))
            .unwrap_err()
            .contains("simd"));
        let mut pairs = doc.as_obj().unwrap().to_vec();
        pairs.push((
            "cache".to_string(),
            obj(vec![
                ("entries", u(2)),
                ("bytes", u(512)),
                ("budget", u(1024)),
                ("hits", u(1)),
                ("misses", u(3)),
                ("insertions", u(2)),
                ("evictions", u(0)),
            ]),
        ));
        validate_health_doc(&JsonValue::Obj(pairs.clone())).unwrap();
        // a cache block missing a counter is rejected
        let truncated = pairs
            .iter()
            .map(|(k, v)| {
                if k == "cache" {
                    (k.clone(), obj(vec![("entries", u(2))]))
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect::<Vec<_>>();
        assert!(validate_health_doc(&JsonValue::Obj(truncated)).is_err());
    }

    #[test]
    fn profile_validator_accepts_what_obs_writes() {
        let report = mbrpa_obs::Report {
            schema_version: mbrpa_obs::SCHEMA_VERSION,
            job: Some("job-000001".to_string()),
            dispatch: None,
            total_wall_s: 1.5,
            spans: vec![mbrpa_obs::SpanEntry {
                path: "rpa/omega[0]".to_string(),
                total_s: 0.75,
                count: 1,
            }],
            counters: vec![("solver.cocg.matvecs".to_string(), 70_913)],
            series: vec![],
            traces: vec![],
        };
        let doc = parse(&report.to_json()).unwrap();
        validate_profile_doc(&doc).unwrap();
        let broken = report.to_json().replace(":70913", ":-1");
        assert!(validate_profile_doc(&parse(&broken).unwrap())
            .unwrap_err()
            .contains("solver.cocg.matvecs"));
    }

    #[test]
    fn status_doc_validates() {
        let spec = JobSpec {
            name: None,
            priority: 4,
            input: GOOD_INPUT.to_string(),
        };
        let doc = status_doc("job-000002", &spec, JobState::Running, Some((2, 8)), None);
        validate_status_doc(&doc).unwrap();
        let reparsed = parse(&doc.to_json()).unwrap();
        validate_status_doc(&reparsed).unwrap();
        assert_eq!(reparsed.get("completed").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn label_charset_is_enforced() {
        assert!(valid_label("job-000001"));
        assert!(valid_label("Si8.smoke_v2"));
        assert!(!valid_label(""));
        assert!(!valid_label(".hidden"));
        assert!(!valid_label("a/b"));
        assert!(!valid_label(&"x".repeat(65)));
    }
}
