//! HTTP API: routing and handlers over a [`ServeShared`].
//!
//! | Method & path              | Purpose                                   |
//! |----------------------------|-------------------------------------------|
//! | `POST /v1/jobs`            | submit (`mbrpa.job/1`) → 201, 400, 429, 503 |
//! | `GET /v1/jobs`             | list all jobs (`?state=` filters)         |
//! | `GET /v1/jobs/<id>`        | status (`mbrpa.job-status/1`)             |
//! | `GET /v1/jobs/<id>/result` | result (`mbrpa.result/1`) → 200, 409, 404 |
//! | `GET /v1/jobs/<id>/profile`| telemetry profile JSON, when emitted      |
//! | `GET /v1/jobs/<id>/report` | human-readable run report (text)          |
//! | `POST /v1/jobs/<id>/cancel`| cancel → 200 (done) or 202 (in flight)    |
//! | `GET /v1/health`           | liveness + queue occupancy + cache counters |
//! | `GET /v1/cache`            | result-cache statistics                   |
//! | `POST /v1/cache/flush`     | drop every cached result → 200            |
//! | `POST /v1/shutdown`        | request a graceful drain → 202            |
//!
//! Every body is JSON except the report. A full backlog answers `429`
//! with a `Retry-After` header — explicit backpressure, never a dropped
//! job.
//!
//! **Result cache.** `POST /v1/jobs` first canonicalizes the submitted
//! `.rpa` input and looks its 128-bit fingerprint up in the exact result
//! cache ([`crate::cache`]). A hit creates no job at all: the response is
//! `200` carrying the stored `mbrpa.result/1` (the *exact* `f64` bits of
//! the original run, under the original job's id) with two extra
//! members, `"cached": true` and `"fingerprint"`. A miss proceeds with
//! the normal `201` submission flow.

use crate::daemon::{lock, ServeShared};
use crate::http::{Handler, Request, Response};
use crate::job::{self, JobSpec, JobState, HEALTH_SCHEMA, LIST_SCHEMA};
use crate::json::{self, obj, s, u, JsonValue};
use crate::queue::{CancelOutcome, SubmitError};
use crate::store::{ERROR_FILE, PARTIAL_FILE, PROFILE_FILE, REPORT_FILE, RESULT_FILE};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Build the request handler the HTTP server dispatches to.
pub fn handler(shared: Arc<ServeShared>) -> Handler {
    Arc::new(move |req: &Request| route(&shared, req))
}

fn route(shared: &Arc<ServeShared>, req: &Request) -> Response {
    let segments: Vec<&str> = req
        .path
        .split('/')
        .filter(|part| !part.is_empty())
        .collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "health"]) => health(shared),
        ("POST", ["v1", "jobs"]) => submit(shared, req),
        ("GET", ["v1", "jobs"]) => list(shared, req),
        ("GET", ["v1", "jobs", id]) => status(shared, id),
        ("GET", ["v1", "jobs", id, "result"]) => result(shared, id),
        ("GET", ["v1", "jobs", id, "profile"]) => doc(shared, id, PROFILE_FILE),
        ("GET", ["v1", "jobs", id, "report"]) => report(shared, id),
        ("POST", ["v1", "jobs", id, "cancel"]) => cancel(shared, id),
        ("GET", ["v1", "cache"]) => cache_stats(shared),
        ("POST", ["v1", "cache", "flush"]) => cache_flush(shared),
        ("POST", ["v1", "shutdown"]) => shutdown(shared),
        (_, ["v1", ..]) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "unknown path (the API lives under /v1)"),
    }
}

fn health(shared: &Arc<ServeShared>) -> Response {
    let queue = lock(&shared.queue);
    let mut pairs = vec![
        ("schema", s(HEALTH_SCHEMA)),
        ("queued", u(queue.count(JobState::Queued))),
        ("running", u(queue.count(JobState::Running))),
        ("completed", u(queue.count(JobState::Completed))),
        ("failed", u(queue.count(JobState::Failed))),
        ("cancelled", u(queue.count(JobState::Cancelled))),
        ("backlog_limit", u(queue.capacity())),
        ("executors", u(shared.executors)),
        // active SIMD dispatch path — lets a client cross-check that two
        // daemons claiming bit-identical results really can be compared
        ("simd", s(mbrpa_simd::active().name())),
        (
            "draining",
            // ord: Acquire — pairs with the Release store in `begin_drain`
            JsonValue::Bool(shared.draining.load(Ordering::Acquire)),
        ),
    ];
    drop(queue);
    if let Some(block) = cache_block(shared) {
        pairs.push(("cache", block));
    }
    Response::json(200, &obj(pairs))
}

/// The `cache` member of the health body, `None` when the cache is off.
fn cache_block(shared: &Arc<ServeShared>) -> Option<JsonValue> {
    let cache = lock(shared.cache.as_ref()?);
    let counters = cache.counters();
    Some(obj(vec![
        ("entries", u(cache.len())),
        ("bytes", u(cache.total_bytes() as usize)),
        ("budget", u(cache.budget() as usize)),
        ("hits", u(counters.hits as usize)),
        ("misses", u(counters.misses as usize)),
        ("insertions", u(counters.insertions as usize)),
        ("evictions", u(counters.evictions as usize)),
        ("flushes", u(counters.flushes as usize)),
        ("corrupt_dropped", u(counters.corrupt_dropped as usize)),
    ]))
}

fn cache_stats(shared: &Arc<ServeShared>) -> Response {
    match cache_block(shared) {
        Some(block) => Response::json(200, &block),
        None => Response::error(404, "the result cache is disabled"),
    }
}

fn cache_flush(shared: &Arc<ServeShared>) -> Response {
    let Some(cache) = shared.cache.as_ref() else {
        return Response::error(404, "the result cache is disabled");
    };
    let flushed = lock(cache).flush();
    (shared.log)(&format!("result cache: flushed {flushed} cached result(s)"));
    Response::json(200, &obj(vec![("flushed", u(flushed))]))
}

fn submit(shared: &Arc<ServeShared>, req: &Request) -> Response {
    // ord: Acquire — pairs with the Release store in `begin_drain`; an
    // admission that races the drain is still rejected at claim time
    if shared.draining.load(Ordering::Acquire) {
        return Response::error(503, "daemon is draining; resubmit after restart");
    }
    let Some(text) = req.body_str() else {
        return Response::error(400, "body is not valid UTF-8");
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
    };
    let spec = match JobSpec::from_json(&value) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e),
    };

    // consult the exact result cache before touching the queue: two
    // byte-different but semantically identical inputs canonicalize to
    // the same fingerprint, and a hit replays the stored result (exact
    // f64 bits) without creating a job at all
    if let (Some(cache), Ok(input)) = (shared.cache.as_ref(), spec.parsed()) {
        let fingerprint = mbrpa_core::fingerprint_hex(&input);
        if let Some(result) = lock(cache).lookup(&fingerprint) {
            mbrpa_obs::add("serve.cache.hit", 1);
            (shared.log)(&format!("cache hit {fingerprint}"));
            if let Some(mut pairs) = result.as_obj().map(<[_]>::to_vec) {
                pairs.push(("cached".to_string(), JsonValue::Bool(true)));
                pairs.push(("fingerprint".to_string(), s(&fingerprint)));
                return Response::json(200, &JsonValue::Obj(pairs));
            }
        }
        mbrpa_obs::add("serve.cache.miss", 1);
    }

    let mut queue = lock(&shared.queue);
    if let Err(refusal) = queue.check_capacity() {
        let retry_after_s = match refusal {
            SubmitError::Full { retry_after_s } => retry_after_s,
            SubmitError::Duplicate => 1, // unreachable from check_capacity
        };
        return Response::error(429, "job backlog is full; retry later")
            .with_header("retry-after", &retry_after_s.to_string());
    }
    // allocate only after the capacity check so a refused submission
    // leaves nothing on disk
    let id = match shared.store.allocate(&spec) {
        Ok(id) => id,
        Err(e) => return Response::error(500, &format!("cannot persist the job: {e}")),
    };
    match queue.submit(&id, spec.priority) {
        Ok(()) => {
            // still under the queue lock: an executor about to wait has
            // either seen this job or is already waiting
            shared.wake.notify_one();
            Response::json(
                201,
                &job::status_doc(&id, &spec, JobState::Queued, None, None),
            )
        }
        // the store hands out fresh ids under this same lock, so neither
        // arm is reachable; answer 500 rather than panic in a handler
        Err(_) => Response::error(500, "queue refused a freshly allocated id"),
    }
}

fn list(shared: &Arc<ServeShared>, req: &Request) -> Response {
    let filter = req
        .query
        .iter()
        .find(|(k, _)| k == "state")
        .and_then(|(_, v)| JobState::parse(v));
    if filter.is_none() {
        if let Some((_, v)) = req.query.iter().find(|(k, _)| k == "state") {
            return Response::error(400, &format!("unknown state filter `{v}`"));
        }
    }
    let ids: Vec<(String, JobState)> = lock(&shared.queue)
        .entries()
        .iter()
        .filter(|e| filter.is_none_or(|f| e.state == f))
        .map(|e| (e.id.clone(), e.state))
        .collect();
    let jobs: Vec<JsonValue> = ids
        .iter()
        .filter_map(|(id, _)| status_body(shared, id))
        .collect();
    let doc = obj(vec![
        ("schema", s(LIST_SCHEMA)),
        ("jobs", JsonValue::Arr(jobs)),
    ]);
    Response::json(200, &doc)
}

fn status(shared: &Arc<ServeShared>, id: &str) -> Response {
    match status_body(shared, id) {
        Some(doc) => Response::json(200, &doc),
        None => Response::error(404, "no such job"),
    }
}

/// Assemble a `mbrpa.job-status/1` body, or `None` for unknown jobs.
fn status_body(shared: &Arc<ServeShared>, id: &str) -> Option<JsonValue> {
    let spec = shared.store.load_spec(id)?;
    // the in-memory queue is authoritative while the daemon runs; the
    // state file only matters across restarts
    let state = lock(&shared.queue)
        .state_of(id)
        .or_else(|| shared.store.read_state(id))?;
    let progress = match state {
        JobState::Running => shared.running_job(id).and_then(|run| {
            // ord: Acquire — pairs with the executor's Release stores so
            // `completed` never reads ahead of the published `n_omega`
            let n_omega = run.n_omega.load(Ordering::Acquire);
            // ord: Acquire — same pairing as `n_omega` above
            (n_omega > 0).then(|| (run.completed.load(Ordering::Acquire), n_omega))
        }),
        JobState::Cancelled => partial_progress(shared, id),
        _ => None,
    };
    let error = match state {
        JobState::Failed => shared.store.read_doc(id, ERROR_FILE),
        _ => None,
    };
    Some(job::status_doc(
        id,
        &spec,
        state,
        progress,
        error.as_deref(),
    ))
}

/// Completed/total frequencies of a cancelled job, from its stored
/// partial-progress summary.
fn partial_progress(shared: &Arc<ServeShared>, id: &str) -> Option<(usize, usize)> {
    let text = shared.store.read_doc(id, PARTIAL_FILE)?;
    let doc = json::parse(&text).ok()?;
    let completed = doc.get("completed")?.as_u64()?;
    let n_omega = doc.get("n_omega")?.as_u64()?;
    Some((completed as usize, n_omega as usize))
}

fn result(shared: &Arc<ServeShared>, id: &str) -> Response {
    match shared.store.read_doc(id, RESULT_FILE) {
        Some(text) => Response::raw_json(200, &text),
        None => match lock(&shared.queue).state_of(id) {
            Some(state) => {
                let message = if state.is_terminal() {
                    format!("job is {}; it has no result", state.as_str())
                } else {
                    format!("job is {}; no result yet", state.as_str())
                };
                Response::error(409, &message)
            }
            None => Response::error(404, "no such job"),
        },
    }
}

fn doc(shared: &Arc<ServeShared>, id: &str, file: &str) -> Response {
    match shared.store.read_doc(id, file) {
        Some(text) => Response::raw_json(200, &text),
        None => match lock(&shared.queue).state_of(id) {
            Some(_) => Response::error(404, &format!("job has no {file}")),
            None => Response::error(404, "no such job"),
        },
    }
}

fn report(shared: &Arc<ServeShared>, id: &str) -> Response {
    match shared.store.read_doc(id, REPORT_FILE) {
        Some(text) => Response::text(200, &text),
        None => match lock(&shared.queue).state_of(id) {
            Some(_) => Response::error(404, "job has no report"),
            None => Response::error(404, "no such job"),
        },
    }
}

fn cancel(shared: &Arc<ServeShared>, id: &str) -> Response {
    let mut queue = lock(&shared.queue);
    match queue.cancel(id) {
        None => Response::error(404, "no such job"),
        Some(CancelOutcome::WasQueued) => {
            if let Err(e) = shared.store.write_state(id, JobState::Cancelled) {
                (shared.log)(&format!("{id}: cannot persist cancelled state: {e}"));
            }
            drop(queue);
            cancel_reply(shared, id, 200)
        }
        Some(CancelOutcome::WasRunning) => {
            if let Some(run) = shared.running_job(id) {
                // order matters: mark the cancellation as user-initiated
                // *before* tripping the token, so the executor cannot
                // observe the token and still see a drain
                // ord: Release — pairs with the executor's Acquire load of
                // `user_cancel` after it observes the token trip
                run.user_cancel.store(true, Ordering::Release);
                run.token.cancel();
            }
            drop(queue);
            // 202: the run stops at its next frequency boundary
            cancel_reply(shared, id, 202)
        }
        Some(CancelOutcome::AlreadyTerminal) => {
            drop(queue);
            cancel_reply(shared, id, 200)
        }
    }
}

fn cancel_reply(shared: &Arc<ServeShared>, id: &str, status: u16) -> Response {
    match status_body(shared, id) {
        Some(doc) => Response::json(status, &doc),
        None => Response::error(404, "no such job"),
    }
}

fn shutdown(shared: &Arc<ServeShared>) -> Response {
    shared.begin_drain();
    Response::json(202, &obj(vec![("status", s("draining"))]))
}
