//! `serve_mix`: one `rpaserved` behind one `rparouter`, driven over loopback
//! HTTP by a closed loop of `min(2, nproc)` clients, each with one request
//! in flight. Misses (a `SYSTEM_SEED` the cache has never seen) and hits
//! (resubmissions of inputs that already completed) alternate 1:1 in an
//! order drawn from `--seed`.

use crate::http::request;
use crate::proc::{binary, Daemon};
use crate::stats::{lower_quartile, median, tail_percentile};
use crate::trace::{Recorder, SpanId};
use crate::workloads::{SplitMix64, Workload};
use crate::{host, Outcome, RunArgs};
use mbrpa_serve::job::{validate_result_doc, JOB_SCHEMA};
use mbrpa_serve::json::{self, obj, s, JsonValue};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run (spawn → healthy → drain); the last one serves the run.
const SETUPS: usize = 3;
/// Untimed misses before the measured loop: they fill lazy state in both
/// daemons and seed the set of inputs a hit can resubmit.
const WARMUP_MISSES: usize = 4;
/// Status poll cadence of a waiting client.
const POLL: Duration = Duration::from_millis(10);
/// Requests per latency probe of the traced run.
const PROBES: usize = 40;

pub struct Fleet {
    pub worker: Daemon,
    pub router: Daemon,
    pub setup_s: f64,
}

/// Spawn worker then router and wait for the first `200` from
/// `GET /v1/health` through the router.
pub fn start_fleet(scratch: &Path, tag: &str) -> Result<Fleet, String> {
    let dir = scratch.join(tag);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut w = Command::new(binary("rpaserved")?);
    w.arg("-root")
        .arg(dir.join("worker"))
        .args(["-addr", "127.0.0.1:0", "-executors", "1", "-port-file"])
        .arg(dir.join("worker.addr"));
    let worker = Daemon::spawn(w, &dir.join("worker.addr"), &dir.join("worker.log"))?;
    let mut r = Command::new(binary("rparouter")?);
    r.arg("-root")
        .arg(dir.join("router"))
        .args([
            "-addr",
            "127.0.0.1:0",
            "-worker",
            &worker.addr,
            "-port-file",
        ])
        .arg(dir.join("router.addr"));
    let router = Daemon::spawn(r, &dir.join("router.addr"), &dir.join("router.log"))?;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if matches!(request(&router.addr, "GET", "/v1/health", None), Ok(r) if r.status == 200) {
            break;
        }
        if Instant::now() > deadline {
            return Err("the router never answered GET /v1/health with 200".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(Fleet {
        worker,
        router,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

impl Fleet {
    pub fn stop(self) {
        self.router.stop();
        self.worker.stop();
    }
}

fn job_body(input: &str) -> String {
    obj(vec![("schema", s(JOB_SCHEMA)), ("input", s(input))]).to_json()
}

enum OpError {
    Rejected429,
    Other(String),
}

struct MissSample {
    total_ms: f64,
    ack_ms: f64,
    queue_wait_ms: f64,
    execute_ms: f64,
    polls: usize,
    /// The result document's own `wall_s`: compute, without the shell.
    result_wall_s: f64,
    bits: String,
}

fn bits_of(doc: &JsonValue) -> Option<String> {
    doc.get("total_energy_bits")
        .and_then(JsonValue::as_str)
        .map(String::from)
}

/// Submit a never-seen input at `addr`, poll to a terminal state, fetch the
/// result. Spans (when recording) are the client-side phases.
fn do_miss(
    addr: &str,
    input: &str,
    rec: Option<(&Recorder, SpanId)>,
) -> Result<MissSample, OpError> {
    let phase = |name: &str, start: Instant, end: Instant| {
        if let Some((rec, parent)) = rec {
            let dur = end.duration_since(start).as_secs_f64();
            rec.add(name, Some(parent), rec.at(start), dur, 1, "timed");
        }
    };
    let t0 = Instant::now();
    let reply =
        request(addr, "POST", "/v1/jobs", Some(&job_body(input))).map_err(OpError::Other)?;
    let t_ack = Instant::now();
    match reply.status {
        201 => {}
        429 => return Err(OpError::Rejected429),
        other => {
            return Err(OpError::Other(format!(
                "POST /v1/jobs answered {other}: {}",
                reply.body
            )))
        }
    }
    let id = json::parse(&reply.body)
        .ok()
        .and_then(|d| d.get("id").and_then(JsonValue::as_str).map(String::from))
        .ok_or_else(|| OpError::Other("the 201 body carries no job id".to_string()))?;
    phase("serve.submit_ack", t0, t_ack);

    let status_path = format!("/v1/jobs/{id}");
    let mut polls = 0;
    let mut t_running: Option<Instant> = None;
    let t_terminal = loop {
        let reply = request(addr, "GET", &status_path, None).map_err(OpError::Other)?;
        polls += 1;
        if reply.status != 200 {
            return Err(OpError::Other(format!(
                "GET {status_path} answered {}",
                reply.status
            )));
        }
        let state = json::parse(&reply.body)
            .ok()
            .and_then(|d| d.get("state").and_then(JsonValue::as_str).map(String::from))
            .unwrap_or_default();
        let now = Instant::now();
        if state != "queued" && t_running.is_none() {
            t_running = Some(now);
        }
        match state.as_str() {
            "completed" => break now,
            "failed" | "cancelled" => {
                return Err(OpError::Other(format!("job {id} ended {state}")))
            }
            _ => {}
        }
        if t0.elapsed() > Duration::from_secs(60) {
            return Err(OpError::Other(format!("job {id} still {state} after 60 s")));
        }
        std::thread::sleep(POLL);
    };
    let t_running = t_running.unwrap_or(t_terminal);
    phase("serve.queue_wait", t_ack, t_running);
    phase("serve.execute", t_running, t_terminal);

    let reply =
        request(addr, "GET", &format!("{status_path}/result"), None).map_err(OpError::Other)?;
    let t_end = Instant::now();
    phase("serve.result_fetch", t_terminal, t_end);
    if reply.status != 200 {
        return Err(OpError::Other(format!(
            "GET result answered {}",
            reply.status
        )));
    }
    let doc =
        json::parse(&reply.body).map_err(|e| OpError::Other(format!("result is not JSON: {e}")))?;
    validate_result_doc(&doc)
        .map_err(|e| OpError::Other(format!("invalid result document: {e}")))?;
    let ms = |a: Instant, b: Instant| 1e3 * b.duration_since(a).as_secs_f64();
    Ok(MissSample {
        total_ms: ms(t0, t_end),
        ack_ms: ms(t0, t_ack),
        queue_wait_ms: ms(t_ack, t_running),
        execute_ms: ms(t_running, t_terminal),
        polls,
        result_wall_s: doc.get("wall_s").and_then(JsonValue::as_f64).unwrap_or(0.0),
        bits: bits_of(&doc).unwrap_or_default(),
    })
}

/// Resubmit a completed input: the reply must be a `200` carrying
/// `"cached": true` and the exact bits the original miss returned.
fn do_hit(addr: &str, input: &str, expected_bits: &str) -> Result<f64, OpError> {
    let t0 = Instant::now();
    let reply =
        request(addr, "POST", "/v1/jobs", Some(&job_body(input))).map_err(OpError::Other)?;
    let ms = 1e3 * t0.elapsed().as_secs_f64();
    match reply.status {
        200 => {}
        429 => return Err(OpError::Rejected429),
        other => {
            return Err(OpError::Other(format!(
                "resubmission answered {other}, not a cached 200"
            )))
        }
    }
    let doc =
        json::parse(&reply.body).map_err(|e| OpError::Other(format!("hit is not JSON: {e}")))?;
    if doc.get("cached").and_then(JsonValue::as_bool) != Some(true) {
        return Err(OpError::Other(
            "the 200 reply is not marked cached".to_string(),
        ));
    }
    match bits_of(&doc) {
        Some(bits) if bits == expected_bits => Ok(ms),
        other => Err(OpError::Other(format!(
            "hit returned bits {other:?}, the original miss returned {expected_bits}"
        ))),
    }
}

#[derive(Default)]
struct Samples {
    misses: Vec<MissSample>,
    hit_ms: Vec<f64>,
    rejected_429: usize,
    failures: Vec<String>,
}

/// `(input text, total_energy_bits)` of every miss that has completed.
type Completed = Mutex<Vec<(String, String)>>;

struct Loop<'a> {
    workload: &'a Workload,
    args: &'a RunArgs,
    addr: &'a str,
    completed: &'a Completed,
    rec: Option<&'a Recorder>,
}

impl Loop<'_> {
    fn fresh_input(&self, serial: usize) -> String {
        // distinct per (seed, serial): a fingerprint the cache has not seen
        let system_seed = (self.args.seed % 1_000_000) * 1_000_000 + serial as u64;
        self.workload.render(
            self.workload.shape(self.args.smoke),
            system_seed,
            self.args.seed,
        )
    }

    /// Op `i` of the seed's list: ops come in pairs of one miss and one hit,
    /// the order inside pair `i / 2` drawn from the seed.
    fn is_miss(&self, i: usize) -> bool {
        let pair = (i / 2) as u64;
        let miss_first = SplitMix64::new(self.args.seed ^ pair.wrapping_mul(0xA24B_AED4_963E_E407))
            .next_u64()
            & 1
            == 1;
        i.is_multiple_of(2) == miss_first
    }

    fn run_op(&self, i: usize, samples: &Mutex<Samples>) {
        let outcome = if self.is_miss(i) {
            let input = self.fresh_input(WARMUP_MISSES + i);
            let span = self.rec.map(|r| (r, r.begin("op.miss", None)));
            let res = do_miss(self.addr, &input, span);
            if let Some((r, id)) = span {
                r.end(id);
            }
            res.map(|m| {
                self.completed
                    .lock()
                    .expect("completed list poisoned")
                    .push((input, m.bits.clone()));
                samples.lock().expect("samples poisoned").misses.push(m);
            })
        } else {
            let (input, bits) = {
                let done = self.completed.lock().expect("completed list poisoned");
                let pick = SplitMix64::new(self.args.seed.wrapping_add(i as u64)).below(done.len());
                done[pick].clone()
            };
            let span = self.rec.map(|r| r.begin("op.hit", None));
            let res = do_hit(self.addr, &input, &bits);
            if let (Some(r), Some(id)) = (self.rec, span) {
                r.end(id);
            }
            res.map(|ms| samples.lock().expect("samples poisoned").hit_ms.push(ms))
        };
        if let Err(e) = outcome {
            let mut sm = samples.lock().expect("samples poisoned");
            match e {
                OpError::Rejected429 => {
                    sm.rejected_429 += 1;
                    sm.failures.push(format!("op {i} was refused with 429"));
                }
                OpError::Other(why) => sm.failures.push(format!("op {i} failed: {why}")),
            }
        }
    }
}

fn cache_counters(worker_addr: &str) -> Result<(u64, u64), String> {
    // the router does not proxy /v1/cache; the counters live on the worker
    let reply = request(worker_addr, "GET", "/v1/cache", None)?;
    let doc = json::parse(&reply.body).map_err(|e| e.to_string())?;
    let field = |k: &str| doc.get(k).and_then(JsonValue::as_u64);
    field("hits")
        .zip(field("misses"))
        .ok_or_else(|| format!("GET /v1/cache answered {}: {}", reply.status, reply.body))
}

/// The measured run. With `rec`, client-side spans are recorded and the
/// latency probes of the traced run are taken before the loop.
pub fn run(
    workload: &Workload,
    args: &RunArgs,
    scratch: &Path,
    rec: Option<&Recorder>,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    for k in 1..SETUPS {
        let fleet = start_fleet(scratch, &format!("setup{k}"))?;
        setups.push(fleet.setup_s);
        fleet.stop();
    }
    let fleet = start_fleet(scratch, "fleet")?;
    setups.push(fleet.setup_s);
    let (router, worker) = (fleet.router.addr.clone(), fleet.worker.addr.clone());

    let completed: Completed = Mutex::new(Vec::new());
    let lp = Loop {
        workload,
        args,
        addr: &router,
        completed: &completed,
        rec,
    };
    let mut out = Outcome::default();
    let mut expect_hits = 0u64;
    for k in 0..WARMUP_MISSES {
        let input = lp.fresh_input(k);
        match do_miss(&router, &input, None) {
            Ok(m) => completed
                .lock()
                .expect("completed list poisoned")
                .push((input, m.bits)),
            Err(OpError::Rejected429) => {
                return Err("a warm-up miss was refused with 429".to_string())
            }
            Err(OpError::Other(e)) => return Err(format!("warm-up miss failed: {e}")),
        }
    }

    if let Some(rec) = rec {
        let (input, bits) = completed.lock().expect("completed list poisoned")[0].clone();
        let probe = |name: &str, f: &dyn Fn() -> Result<f64, String>| -> Result<f64, String> {
            let span = rec.begin(name, None);
            let mut ms = Vec::with_capacity(PROBES);
            for _ in 0..PROBES {
                ms.push(f()?);
            }
            rec.end(span);
            Ok(median(&ms))
        };
        let floor = probe("probe.http_floor", &|| {
            let t = Instant::now();
            let r = request(&worker, "GET", "/v1/health", None)?;
            (r.status == 200)
                .then(|| 1e3 * t.elapsed().as_secs_f64())
                .ok_or_else(|| format!("worker health answered {}", r.status))
        })?;
        let direct = probe("probe.direct_hit", &|| {
            do_hit(&worker, &input, &bits).map_err(|e| match e {
                OpError::Rejected429 => "direct hit refused with 429".to_string(),
                OpError::Other(why) => why,
            })
        })?;
        expect_hits += PROBES as u64;
        out.values.set("serve.http_floor_ms_p50", floor);
        out.values.set("serve.direct_hit_ms_p50", direct);
    }

    // closed loop: each client takes the next op index when its last reply
    // has been read; no new op starts after the window closes
    let samples = Mutex::new(Samples::default());
    let next_op = AtomicUsize::new(0);
    let clients = host::solver_threads();
    let window = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                while t0.elapsed() < window {
                    lp.run_op(next_op.fetch_add(1, Ordering::SeqCst), &samples);
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let sm = samples.into_inner().expect("samples poisoned");
    let issued = next_op.load(Ordering::SeqCst);
    let issued_misses = (0..issued).filter(|&i| lp.is_miss(i)).count() as u64;
    expect_hits += issued as u64 - issued_misses;

    let (cache_hits, cache_misses) = cache_counters(&worker)?;
    let peak = fleet.worker.peak_rss_mib().max(fleet.router.peak_rss_mib());
    fleet.stop();

    out.attempted = issued;
    out.failed = sm.failures.len();
    out.notes.extend(sm.failures.iter().cloned());
    // every miss (warm-up or timed) looked the cache up once and missed
    let expect_misses = WARMUP_MISSES as u64 + issued_misses;
    if out.failed == 0 && (cache_hits, cache_misses) != (expect_hits, expect_misses) {
        out.failed += 1;
        out.notes.push(format!(
            "worker cache counted {cache_hits} hits / {cache_misses} misses, the generator sent \
             {expect_hits} / {expect_misses}"
        ));
    }
    if sm.misses.is_empty() || sm.hit_ms.is_empty() {
        return Err(format!(
            "the window completed {} misses and {} hits; nothing to report: {}",
            sm.misses.len(),
            sm.hit_ms.len(),
            out.notes.join("; ")
        ));
    }

    let col = |f: &dyn Fn(&MissSample) -> f64| sm.misses.iter().map(f).collect::<Vec<f64>>();
    let miss_ms = col(&|m| m.total_ms);
    let done = sm.misses.len() + sm.hit_ms.len();
    if rec.is_none() {
        out.values.set("setup_s", median(&setups));
        out.values
            .set("solve_s", lower_quartile(&col(&|m| m.result_wall_s)));
        out.values.set("peak_rss_mb", peak);
        out.values.set("miss_ms_p25", lower_quartile(&miss_ms));
        out.values.set("jobs_per_s", done as f64 / wall_s);
    } else {
        let hit_p50 = median(&sm.hit_ms);
        out.values.set("hit_ms_p50", hit_p50);
        // a tail is printed only when ten samples lie beyond it; else it
        // stays unmeasured (0) and the sample counts below say why
        if let Some(p) = tail_percentile(&sm.hit_ms, 0.90) {
            out.values.set("hit_ms_p90", p);
        }
        if let Some(p) = tail_percentile(&miss_ms, 0.90) {
            out.values.set("miss_ms_p90", p);
        }
        let direct = out.values.get("serve.direct_hit_ms_p50").unwrap_or(0.0);
        out.values.set("serve.router_overhead_ms", hit_p50 - direct);
        out.values
            .set("serve.submit_ack_ms_p50", median(&col(&|m| m.ack_ms)));
        out.values.set(
            "serve.queue_wait_ms_p50",
            median(&col(&|m| m.queue_wait_ms)),
        );
        out.values
            .set("serve.execute_ms_p50", median(&col(&|m| m.execute_ms)));
        out.values.set(
            "serve.result_wall_ms_p50",
            1e3 * median(&col(&|m| m.result_wall_s)),
        );
        out.values.set(
            "serve.polls_per_miss",
            sm.misses.iter().map(|m| m.polls).sum::<usize>() as f64 / sm.misses.len() as f64,
        );
        out.values.set("serve.rejected_429", sm.rejected_429 as f64);
        out.values.set("serve.cache_hits", cache_hits as f64);
        out.values.set("serve.cache_misses", cache_misses as f64);
    }
    let n = |v: usize| JsonValue::Num(v as f64);
    out.detail("clients", n(clients));
    out.detail("loop", s("closed, one request in flight per client"));
    out.detail("miss_samples", n(sm.misses.len()));
    out.detail("hit_samples", n(sm.hit_ms.len()));
    out.detail("window_s", JsonValue::Num(wall_s));
    let nums = |v: &[f64]| JsonValue::Arr(v.iter().map(|&x| JsonValue::Num(x)).collect());
    out.detail("miss_ms", nums(&miss_ms));
    out.detail("hit_ms", nums(&sm.hit_ms));
    out.detail("result_wall_s", nums(&col(&|m| m.result_wall_s)));
    out.detail("setups", n(setups.len()));
    Ok(out)
}
