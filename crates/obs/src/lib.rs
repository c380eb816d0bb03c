//! # mbrpa-obs — telemetry for the solver stack
//!
//! An observability layer shared by the whole workspace (its only
//! dependency is the JSON writer in `mbrpa-schema`):
//!
//! * **Spans** — hierarchical scoped wall-clock timers. [`span`] returns a
//!   guard; nested guards build `/`-separated paths
//!   (`rpa/omega[3]/chebyshev/apply`) which are aggregated per path.
//! * **Counters** — named monotonically increasing totals
//!   (stencil applies, GEMM calls, matvecs, deflation events).
//! * **Series** — bounded append-only lists of scalar samples
//!   (per-orbital Sternheimer iteration counts).
//! * **Traces** — bounded sets of per-iteration histories
//!   (subspace-iteration error per frequency).
//!
//! All sinks are **thread-aware**: each thread accumulates into a
//! thread-local buffer which is merged into the global sink when the
//! thread's outermost span closes, or explicitly via [`flush_thread`]
//! (call it at the end of worker-pool closures, which never own a root
//! span). When telemetry is disabled — the default — every entry point is
//! a single relaxed atomic load and an early return, so instrumented hot
//! paths cost nothing measurable.
//!
//! [`report`] snapshots everything into a [`Report`], which serialises to
//! versioned JSON ([`Report::to_json`], schema documented in DESIGN.md)
//! and renders a human-readable summary table ([`Report::summary_table`]).
//!
//! ```
//! mbrpa_obs::reset();
//! mbrpa_obs::set_enabled(true);
//! {
//!     let _root = mbrpa_obs::span("work");
//!     let _inner = mbrpa_obs::span("kernel");
//!     mbrpa_obs::add("kernel.calls", 1);
//! }
//! let report = mbrpa_obs::report();
//! assert_eq!(report.counter("kernel.calls"), 1);
//! assert!(report.sum_leaf("kernel") <= report.sum_leaf("work"));
//! mbrpa_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]

use mbrpa_schema::json::{obj, s, JsonValue, JsonValue::Num};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Version of the JSON report layout emitted by [`Report::to_json`].
/// Bump on any backwards-incompatible change and document it in DESIGN.md.
/// v2: added the top-level `dispatch` member (active SIMD path or null)
/// and split reduction FLOPs out of `linalg.gemm_flops` into the
/// `solver.reduce.*` counters.
pub const SCHEMA_VERSION: u32 = 2;

/// Maximum samples retained per series; later samples only bump a
/// `dropped` count so unbounded loops cannot exhaust memory.
pub const SERIES_CAP: usize = 4096;

/// Maximum number of traces retained per trace name: one per frequency of
/// the largest quadrature an input may ask for (`N_OMEGA` ≤ 64), so a
/// per-frequency trace such as `subspace.si_error` is never cut short.
/// Histories past the cap are counted per name (`dropped_traces` in the
/// JSON and the summary table).
pub const TRACE_CAP: usize = 64;

/// Maximum points retained per individual trace (prefix is kept).
pub const TRACE_LEN_CAP: usize = 512;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Global>> = Mutex::new(None);
/// Active SIMD dispatch label (e.g. `"avx2"`), set once by the binary
/// after it resolves the path. Kept outside the resettable sink so a
/// [`reset`] between configuration and the run cannot lose it.
static DISPATCH: Mutex<Option<String>> = Mutex::new(None);

/// Record the active SIMD dispatch path so every subsequent [`Report`]
/// (and its JSON/`summary_table` renderings) is tagged with it. This
/// crate stays dependency-free: the resolved name is pushed in by the
/// binaries rather than queried from the SIMD layer.
pub fn set_dispatch(label: &str) {
    let mut guard = DISPATCH.lock().unwrap_or_else(|p| p.into_inner());
    *guard = Some(label.to_string());
}

/// The SIMD dispatch label recorded via [`set_dispatch`], if any.
pub fn dispatch() -> Option<String> {
    DISPATCH.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

#[derive(Default)]
struct Sink {
    spans: HashMap<String, SpanStat>,
    counters: HashMap<String, u64>,
    series: HashMap<String, Series>,
    traces: HashMap<String, TraceSet>,
}

struct Global {
    epoch: Instant,
    sink: Sink,
}

#[derive(Clone, Copy, Default)]
struct SpanStat {
    total_ns: u128,
    count: u64,
}

#[derive(Clone, Default)]
struct Series {
    values: Vec<f64>,
    dropped: u64,
}

#[derive(Clone, Default)]
struct TraceSet {
    traces: Vec<Trace>,
    dropped_traces: u64,
}

#[derive(Clone)]
struct Trace {
    label: String,
    points: Vec<f64>,
    truncated: u64,
}

#[derive(Default)]
struct Local {
    stack: Vec<String>,
    sink: Sink,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

impl Sink {
    fn merge_into(&mut self, other: &mut Sink) {
        for (path, stat) in self.spans.drain() {
            let e = other.spans.entry(path).or_default();
            e.total_ns += stat.total_ns;
            e.count += stat.count;
        }
        for (name, n) in self.counters.drain() {
            *other.counters.entry(name).or_default() += n;
        }
        for (name, mut s) in self.series.drain() {
            let e = other.series.entry(name).or_default();
            for v in s.values.drain(..) {
                if e.values.len() < SERIES_CAP {
                    e.values.push(v);
                } else {
                    e.dropped += 1;
                }
            }
            e.dropped += s.dropped;
        }
        for (name, mut set) in self.traces.drain() {
            let e = other.traces.entry(name).or_default();
            for t in set.traces.drain(..) {
                if e.traces.len() < TRACE_CAP {
                    e.traces.push(t);
                } else {
                    e.dropped_traces += 1;
                }
            }
            e.dropped_traces += set.dropped_traces;
        }
    }
}

fn with_global<R>(f: impl FnOnce(&mut Global) -> R) -> R {
    let mut guard = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    let global = guard.get_or_insert_with(|| Global {
        epoch: Instant::now(),
        sink: Sink::default(),
    });
    f(global)
}

/// Turn the telemetry sink on or off. Enabling (re)starts the wall-clock
/// epoch used for [`Report::total_wall_s`] if no data has been recorded yet.
pub fn set_enabled(on: bool) {
    if on {
        with_global(|_| ());
    }
    // ord: Relaxed — ENABLED only gates whether telemetry is recorded; the
    // data itself is published under the sink mutex
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the sink is currently enabled.
pub fn enabled() -> bool {
    // ord: Relaxed — gate flag only (see `set_enabled`); a stale read skips
    // or records one extra sample, never corrupts data
    ENABLED.load(Ordering::Relaxed)
}

/// Discard all recorded data (global and this thread's buffer) and restart
/// the wall-clock epoch. Call between independent measurement phases; other
/// threads' buffers are already empty if they ended with [`flush_thread`].
pub fn reset() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.sink = Sink::default();
        l.stack.clear();
    });
    let mut guard = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    *guard = Some(Global {
        epoch: Instant::now(),
        sink: Sink::default(),
    });
}

/// RAII guard for a scoped timer; created by [`span`]. Dropping the guard
/// records the elapsed wall time under the span's full `/`-joined path.
#[must_use = "a span measures the scope it is alive in; bind it to a variable"]
pub struct SpanGuard {
    start: Option<Instant>,
    path: Option<String>,
}

/// Open a scoped timer named `name` nested under the innermost span still
/// open on this thread. No-op (and allocation-free) when disabled.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start: None,
            path: None,
        };
    }
    let path = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let path = match l.stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        l.stack.push(path.clone());
        path
    });
    SpanGuard {
        start: Some(Instant::now()),
        path: Some(path),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(start), Some(path)) = (self.start, self.path.take()) else {
            return;
        };
        let elapsed = start.elapsed().as_nanos();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // Pop our own path even if an inner guard leaked past us.
            while let Some(top) = l.stack.pop() {
                if top == path {
                    break;
                }
            }
            let stat = l.sink.spans.entry(path).or_default();
            stat.total_ns += elapsed;
            stat.count += 1;
            if l.stack.is_empty() {
                let mut sink = std::mem::take(&mut l.sink);
                drop(l);
                with_global(|g| sink.merge_into(&mut g.sink));
            }
        });
    }
}

/// Merge this thread's buffered data into the global sink without waiting
/// for a root span to close. Call at the end of thread-pool worker
/// closures, whose threads outlive any span scope.
pub fn flush_thread() {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let mut sink = std::mem::take(&mut l.sink);
        drop(l);
        with_global(|g| sink.merge_into(&mut g.sink));
    });
}

/// Increment counter `name` by `n`.
pub fn add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        *l.sink.counters.entry(name.to_string()).or_default() += n;
    });
}

/// Append sample `value` to the bounded series `name`.
pub fn record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let s = l.sink.series.entry(name.to_string()).or_default();
        if s.values.len() < SERIES_CAP {
            s.values.push(value);
        } else {
            s.dropped += 1;
        }
    });
}

/// Record a complete per-iteration history under trace name `name` with a
/// human-readable `label` (e.g. `omega[3]`). At most [`TRACE_CAP`] traces
/// are kept per name and each keeps its first [`TRACE_LEN_CAP`] points.
pub fn record_trace(name: &str, label: &str, points: &[f64]) {
    if !enabled() {
        return;
    }
    let keep = points.len().min(TRACE_LEN_CAP);
    let trace = Trace {
        label: label.to_string(),
        points: points[..keep].to_vec(),
        truncated: (points.len() - keep) as u64,
    };
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let set = l.sink.traces.entry(name.to_string()).or_default();
        if set.traces.len() < TRACE_CAP {
            set.traces.push(trace);
        } else {
            set.dropped_traces += 1;
        }
    });
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Aggregated wall time of one span path.
#[derive(Clone, Debug)]
pub struct SpanEntry {
    /// Full `/`-joined path, e.g. `rpa/omega[3]/chebyshev/apply`.
    pub path: String,
    /// Total (inclusive) seconds spent under this path.
    pub total_s: f64,
    /// Number of times the span was entered.
    pub count: u64,
}

/// A bounded scalar series in a [`Report`].
#[derive(Clone, Debug)]
pub struct SeriesEntry {
    /// Series name, e.g. `omega[3]/sternheimer.orbital_iterations`.
    pub name: String,
    /// Retained samples (at most [`SERIES_CAP`]).
    pub values: Vec<f64>,
    /// Samples discarded after the cap was reached.
    pub dropped: u64,
}

/// One recorded per-iteration history in a [`Report`].
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// Trace name shared by related histories, e.g. `subspace.si_error`.
    pub name: String,
    /// Caller-supplied label distinguishing this history, e.g. `omega[3]`.
    pub label: String,
    /// Retained points (at most [`TRACE_LEN_CAP`], prefix of the history).
    pub points: Vec<f64>,
    /// Points beyond the cap that were discarded from this history.
    pub truncated: u64,
    /// Whole histories under `name` discarded after [`TRACE_CAP`].
    pub dropped_traces: u64,
}

/// Immutable snapshot of everything recorded since the last [`reset`].
#[derive(Clone, Debug)]
pub struct Report {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Owning job id when the snapshot was taken via [`report_tagged`]
    /// (a serving daemon attributing a profile to one queued job);
    /// `None` for untagged CLI-style runs.
    pub job: Option<String>,
    /// Active SIMD dispatch path (`"scalar"` or `"avx2"`) as
    /// recorded by [`set_dispatch`]; `None` when the binary never
    /// resolved one (library tests, embedded use).
    pub dispatch: Option<String>,
    /// Wall-clock seconds since the sink was created or [`reset`].
    pub total_wall_s: f64,
    /// Span aggregates sorted by path.
    pub spans: Vec<SpanEntry>,
    /// Counter totals sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Bounded series sorted by name.
    pub series: Vec<SeriesEntry>,
    /// Per-iteration histories sorted by name (insertion order within).
    pub traces: Vec<TraceEntry>,
}

/// Snapshot the global sink (after merging this thread's buffer) into a
/// [`Report`]. Does not clear anything; call [`reset`] for that.
pub fn report() -> Report {
    flush_thread();
    with_global(|g| {
        let mut spans: Vec<SpanEntry> = g
            .sink
            .spans
            .iter()
            .map(|(path, s)| SpanEntry {
                path: path.clone(),
                total_s: s.total_ns as f64 * 1e-9,
                count: s.count,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        let mut counters: Vec<(String, u64)> = g
            .sink
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut series: Vec<SeriesEntry> = g
            .sink
            .series
            .iter()
            .map(|(name, s)| SeriesEntry {
                name: name.clone(),
                values: s.values.clone(),
                dropped: s.dropped,
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        let mut traces: Vec<TraceEntry> = Vec::new();
        let mut names: Vec<&String> = g.sink.traces.keys().collect();
        names.sort();
        for name in names {
            let set = &g.sink.traces[name];
            for t in &set.traces {
                traces.push(TraceEntry {
                    name: name.clone(),
                    label: t.label.clone(),
                    points: t.points.clone(),
                    truncated: t.truncated,
                    dropped_traces: set.dropped_traces,
                });
            }
        }
        Report {
            schema_version: SCHEMA_VERSION,
            job: None,
            dispatch: dispatch(),
            total_wall_s: g.epoch.elapsed().as_secs_f64(),
            spans,
            counters,
            series,
            traces,
        }
    })
}

/// [`report`] with the owning job id stamped into [`Report::job`] (and
/// therefore the JSON `"job"` field), so a daemon serving many jobs can
/// attribute each emitted profile.
pub fn report_tagged(job: &str) -> Report {
    let mut r = report();
    r.job = Some(job.to_string());
    r
}

impl Report {
    /// Total seconds over every span whose **last** path segment equals
    /// `leaf` — e.g. `sum_leaf("apply")` aggregates the apply kernel across
    /// all frequencies and parents.
    // lint: allow(unreached_pub) — `fig5_kernel_breakdown` reads the profile through it
    pub fn sum_leaf(&self, leaf: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.path.rsplit('/').next() == Some(leaf))
            .map(|s| s.total_s)
            .sum()
    }

    /// Total seconds over root spans (paths without `/`). Because spans are
    /// inclusive, this is the instrumented share of [`Report::total_wall_s`].
    pub fn top_level_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .map(|s| s.total_s)
            .sum()
    }

    /// Value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Derived kernel throughput rows `(label, GF/s)` computed from the
    /// scalar-flop counters maintained by the hot kernels
    /// (`linalg.gemm_flops`, `grid.stencil_flops`, and the
    /// `solver.reduce.*` family for Gram products and vector
    /// reductions/updates) over **total wall time**: the sustained
    /// average rate each kernel family delivered across the whole run.
    /// The flop counters are global while spans cover only the
    /// instrumented call sites, so wall time is the only denominator
    /// that matches the numerator — per-span division would overstate
    /// the rate wherever a kernel runs outside its span. Counters count
    /// *real* scalar flops (complex arithmetic already expanded), so the
    /// rates are directly comparable to hardware peak; each is a lower
    /// bound on the kernel's in-kernel throughput. When a SIMD dispatch
    /// path was recorded ([`set_dispatch`]) every label carries it, so a
    /// rate is never mistaken for one measured on a different path.
    pub fn derived_rates(&self) -> Vec<(String, f64)> {
        let tag = match &self.dispatch {
            Some(d) => format!(", {d}"),
            None => String::new(),
        };
        let mut rows: Vec<(String, f64)> = Vec::new();
        let mut push = |family: &str, flops: u64| {
            if flops > 0 && self.total_wall_s > 0.0 {
                rows.push((
                    format!("{family} [avg GF/s{tag}]"),
                    flops as f64 * 1e-9 / self.total_wall_s,
                ));
            }
        };
        push("linalg.gemm", self.counter("linalg.gemm_flops"));
        push("grid.stencil", self.counter("grid.stencil_flops"));
        push(
            "solver.reduce",
            self.counter("solver.reduce.gram_flops") + self.counter("solver.reduce.vec_flops"),
        );
        rows
    }

    /// Serialise the report as versioned JSON (schema in DESIGN.md).
    /// Non-finite floats are emitted as `null`.
    pub fn to_json(&self) -> String {
        let opt_str = |v: &Option<String>| v.as_deref().map_or(JsonValue::Null, s);
        let nums = |values: &[f64]| JsonValue::Arr(values.iter().map(|&v| Num(v)).collect());
        let spans = self.spans.iter().map(|sp| {
            obj(vec![
                ("path", s(&sp.path)),
                ("total_s", Num(sp.total_s)),
                ("count", Num(sp.count as f64)),
            ])
        });
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Num(*v as f64)));
        let series = self.series.iter().map(|se| {
            obj(vec![
                ("name", s(&se.name)),
                ("dropped", Num(se.dropped as f64)),
                ("values", nums(&se.values)),
            ])
        });
        let traces = self.traces.iter().map(|t| {
            obj(vec![
                ("name", s(&t.name)),
                ("label", s(&t.label)),
                ("truncated", Num(t.truncated as f64)),
                ("points", nums(&t.points)),
            ])
        });
        let dropped = self
            .trace_names()
            .into_iter()
            .map(|(name, _, dropped)| (name.to_string(), Num(dropped as f64)));
        obj(vec![
            ("schema_version", Num(f64::from(self.schema_version))),
            ("job", opt_str(&self.job)),
            ("dispatch", opt_str(&self.dispatch)),
            ("total_wall_s", Num(self.total_wall_s)),
            ("spans", JsonValue::Arr(spans.collect())),
            ("counters", JsonValue::Obj(counters.collect())),
            ("series", JsonValue::Arr(series.collect())),
            ("traces", JsonValue::Arr(traces.collect())),
            ("dropped_traces", JsonValue::Obj(dropped.collect())),
        ])
        .to_json()
    }

    /// Every trace name with the histories kept and dropped under it, in
    /// name order.
    pub fn trace_names(&self) -> Vec<(&str, usize, u64)> {
        let mut out: Vec<(&str, usize, u64)> = Vec::new();
        for t in &self.traces {
            match out.last_mut() {
                Some(last) if last.0 == t.name => last.1 += 1,
                _ => out.push((&t.name, 1, t.dropped_traces)),
            }
        }
        out
    }

    /// Render an indented plain-text tree of spans with share-of-wall
    /// percentages and entry counts, followed by counter totals — the
    /// summary appended to `rpacalc` run reports under `-profile`.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry summary (schema v{}, wall {:.3} s, instrumented {:.1}%, simd {})\n",
            self.schema_version,
            self.total_wall_s,
            if self.total_wall_s > 0.0 {
                100.0 * self.top_level_total() / self.total_wall_s
            } else {
                0.0
            },
            self.dispatch.as_deref().unwrap_or("unresolved")
        ));
        out.push_str(&format!(
            "  {:<44} {:>12} {:>7} {:>9}\n",
            "span", "total [s]", "share", "count"
        ));
        for s in &self.spans {
            let depth = s.path.matches('/').count();
            let name = s.path.rsplit('/').next().unwrap_or(&s.path);
            let pct = if self.total_wall_s > 0.0 {
                100.0 * s.total_s / self.total_wall_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<44} {:>12.4} {:>6.1}% {:>9}\n",
                format!("{}{}", "  ".repeat(depth), name),
                s.total_s,
                pct,
                s.count
            ));
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("  {:<44} {:>12}\n", "counter", "total"));
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<44} {v:>12}\n"));
            }
        }
        let names = self.trace_names();
        if !names.is_empty() {
            out.push_str(&format!(
                "  {:<44} {:>12} {:>7}\n",
                "trace", "kept", "dropped"
            ));
            for (name, kept, dropped) in names {
                out.push_str(&format!("  {name:<44} {kept:>12} {dropped:>7}\n"));
            }
        }
        let rates = self.derived_rates();
        if !rates.is_empty() {
            out.push_str(&format!("  {:<44} {:>12}\n", "derived rate", "value"));
            for (label, gfs) in &rates {
                out.push_str(&format!("  {label:<44} {gfs:>12.3}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so every test funnels through one lock to
    // avoid cross-talk.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = exclusive();
        reset();
        set_enabled(false);
        {
            let _s = span("hidden");
            add("hidden.counter", 5);
            record("hidden.series", 1.0);
            record_trace("hidden.trace", "x", &[1.0, 2.0]);
        }
        set_enabled(true);
        let r = report();
        set_enabled(false);
        assert!(r.spans.is_empty());
        assert_eq!(r.counter("hidden.counter"), 0);
        assert!(r.series.is_empty());
        assert!(r.traces.is_empty());
    }

    #[test]
    fn nested_spans_build_paths_and_aggregate() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _root = span("outer");
            let _child = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let r = report();
        set_enabled(false);
        let outer = r.spans.iter().find(|s| s.path == "outer").unwrap();
        let inner = r.spans.iter().find(|s| s.path == "outer/inner").unwrap();
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 3);
        assert!(outer.total_s >= inner.total_s);
        assert!(r.top_level_total() > 0.0);
        assert!((r.sum_leaf("inner") - inner.total_s).abs() < 1e-12);
    }

    #[test]
    fn counters_and_series_accumulate() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        {
            let _root = span("root");
            add("plain", 2);
            add("plain", 3);
            record("flat_series", 9.0);
            record("flat_series", 11.0);
        }
        let r = report();
        set_enabled(false);
        assert_eq!(r.counter("plain"), 5);
        let f = r.series.iter().find(|s| s.name == "flat_series").unwrap();
        assert_eq!(f.values, vec![9.0, 11.0]);
    }

    #[test]
    fn worker_threads_merge_via_flush() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    add("worker.events", 10);
                    record("worker.series", 1.5);
                    flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let r = report();
        set_enabled(false);
        assert_eq!(r.counter("worker.events"), 40);
        let s = r.series.iter().find(|s| s.name == "worker.series").unwrap();
        assert_eq!(s.values.len(), 4);
    }

    #[test]
    fn series_and_traces_are_bounded() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        {
            let _root = span("bound");
            for i in 0..(SERIES_CAP + 100) {
                record("big", i as f64);
            }
            let long: Vec<f64> = (0..(TRACE_LEN_CAP + 50)).map(|i| i as f64).collect();
            for _ in 0..(TRACE_CAP + 3) {
                record_trace("many", "t", &long);
            }
        }
        let r = report();
        set_enabled(false);
        let s = r.series.iter().find(|s| s.name == "big").unwrap();
        assert_eq!(s.values.len(), SERIES_CAP);
        assert_eq!(s.dropped, 100);
        let kept: Vec<_> = r.traces.iter().filter(|t| t.name == "many").collect();
        assert_eq!(kept.len(), TRACE_CAP);
        assert_eq!(kept[0].points.len(), TRACE_LEN_CAP);
        assert_eq!(kept[0].truncated, 50);
        assert_eq!(kept[0].dropped_traces, 3);
        assert_eq!(r.trace_names(), [("many", TRACE_CAP, 3)]);
        let json = r.to_json();
        assert!(json.contains("\"dropped_traces\":{\"many\":3"), "{json}");
        let table = r.summary_table();
        let row = table.lines().find(|l| l.trim_start().starts_with("many"));
        let cells: Vec<&str> = row.expect("a trace row").split_whitespace().collect();
        assert_eq!(cells, ["many", &TRACE_CAP.to_string(), "3"]);
    }

    #[test]
    fn json_is_well_formed() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        {
            let _root = span("json");
            let _leaf = span("needs \"escaping\"\n");
            add("count", 7);
            record("series", 1e-12);
            record_trace("trace", "omega[0]", &[1.0, f64::NAN, 0.5]);
        }
        let r = report();
        set_enabled(false);
        let text = r.to_json();
        mbrpa_schema::json::parse(&text).expect("report must be valid JSON");
        assert!(text.contains("\"schema_version\":2"));
        assert!(text.contains("\"dispatch\":"));
        assert!(text.contains("null"), "NaN must serialise to null");
    }

    #[test]
    fn tagged_report_carries_the_job_id_into_json() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        {
            let _root = span("tagged");
            add("tagged.counter", 1);
        }
        let tagged = report_tagged("job-0042");
        let untagged = report();
        set_enabled(false);
        assert_eq!(tagged.job.as_deref(), Some("job-0042"));
        assert!(untagged.job.is_none());
        let json = tagged.to_json();
        mbrpa_schema::json::parse(&json).expect("report must be valid JSON");
        assert!(json.contains("\"job\":\"job-0042\""), "{json}");
        assert!(untagged.to_json().contains("\"job\":null"));
    }

    #[test]
    fn summary_table_mentions_every_span_and_counter() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        {
            let _root = span("table_root");
            let _leaf = span("table_leaf");
            add("table.counter", 3);
        }
        let r = report();
        set_enabled(false);
        let t = r.summary_table();
        assert!(t.contains("table_root"));
        assert!(t.contains("table_leaf"));
        assert!(t.contains("table.counter"));
        assert!(t.contains('%'));
    }

    #[test]
    fn dispatch_label_survives_reset_and_lands_in_reports() {
        let _g = exclusive();
        reset();
        set_dispatch("scalar");
        reset(); // a reset after configuration must not lose the label
        let r = report();
        assert_eq!(r.dispatch.as_deref(), Some("scalar"));
        assert!(r.to_json().contains("\"dispatch\":\"scalar\""));
        assert!(r.summary_table().contains("simd scalar"));
    }

    #[test]
    fn derived_rates_compute_gflops_from_counters_and_spans() {
        // synthetic report: 20e9 scalar GEMM flops over 10 s of wall time
        // → 2 GF/s sustained average; 10e9 stencil flops → 1 GF/s. Spans
        // must not affect the rates — the counters are global while spans
        // cover only instrumented call sites.
        let r = Report {
            schema_version: SCHEMA_VERSION,
            job: None,
            dispatch: Some("avx2".into()),
            total_wall_s: 10.0,
            spans: vec![
                SpanEntry {
                    path: "rayleigh_ritz/matmult".into(),
                    total_s: 0.3,
                    count: 4,
                },
                SpanEntry {
                    path: "other/matmult".into(),
                    total_s: 0.2,
                    count: 1,
                },
            ],
            counters: vec![
                ("grid.stencil_flops".into(), 10_000_000_000),
                ("linalg.gemm_flops".into(), 20_000_000_000),
                ("solver.reduce.gram_flops".into(), 3_000_000_000),
                ("solver.reduce.vec_flops".into(), 2_000_000_000),
            ],
            series: vec![],
            traces: vec![],
        };
        let rates = r.derived_rates();
        assert_eq!(rates.len(), 3);
        assert_eq!(rates[0].0, "linalg.gemm [avg GF/s, avx2]");
        assert!((rates[0].1 - 2.0).abs() < 1e-9, "gemm rate {}", rates[0].1);
        assert_eq!(rates[1].0, "grid.stencil [avg GF/s, avx2]");
        assert!(
            (rates[1].1 - 1.0).abs() < 1e-9,
            "stencil rate {}",
            rates[1].1
        );
        // the two solver.reduce.* counters fold into one family row, so
        // Gram-product flops can never inflate the GEMM rate again
        assert_eq!(rates[2].0, "solver.reduce [avg GF/s, avx2]");
        assert!(
            (rates[2].1 - 0.5).abs() < 1e-9,
            "reduce rate {}",
            rates[2].1
        );
        assert!(r.summary_table().contains("derived rate"));
        assert!(r.summary_table().contains("simd avx2"));

        // no flop counters → no derived rows, no header
        let empty = Report {
            schema_version: SCHEMA_VERSION,
            job: None,
            dispatch: None,
            total_wall_s: 1.0,
            spans: vec![],
            counters: vec![],
            series: vec![],
            traces: vec![],
        };
        assert!(empty.derived_rates().is_empty());
        assert!(!empty.summary_table().contains("derived rate"));
    }
}
