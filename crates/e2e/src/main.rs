//! `e2e_bench` — the end-to-end + per-layer benchmark.
//!
//! ```text
//! e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out doc.json]
//! e2e_bench --compare <a.json|dir> <b.json|dir> [--benchmark BENCHMARK.json]
//! e2e_bench --list
//! ```
//!
//! A timed run (`--trace 0`) drives the shipped binaries from outside and
//! prints the end-to-end metrics; a traced run (`--trace 1`) links the
//! library crates and prints the per-layer metrics. Either way the last line
//! of stdout is one JSON object `{correct, attempted, failed, metrics}` and
//! the exit code is non-zero when a check failed. See `crates/e2e/README.md`.

mod compare;
mod host;
mod http;
mod layers;
mod metrics;
mod outparse;
mod proc;
mod serve;
mod solve;
mod stats;
mod trace;
mod traced;
mod workloads;

use mbrpa_serve::json::{obj, s, JsonValue};
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Kind, Workload, DEFAULT_SEED, WORKLOADS};

/// Tag of the `--out` document. Deliberately not of the `mbrpa.<kind>/<n>`
/// shape: those tags are owned by the `crates/schema` registry.
const OUT_FORMAT: &str = "e2e-bench-v1";

pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub smoke: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    /// Ops attempted: a solve rep or a submit→result is one op.
    pub attempted: usize,
    pub failed: usize,
    /// Why ops failed, and anything a reader of the numbers must know.
    pub notes: Vec<String>,
    /// Extra members of the `--out` document (inputs, sample counts, …).
    pub extra: Vec<(String, JsonValue)>,
}

impl Outcome {
    pub fn detail(&mut self, key: &str, value: JsonValue) {
        self.extra.push((key.to_string(), value));
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
    eprintln!("                 [--smoke] [--out <doc.json>]");
    eprintln!(
        "       e2e_bench --compare <a.json|dir> <b.json|dir> [--benchmark <BENCHMARK.json>]"
    );
    eprintln!("       e2e_bench --list");
    eprintln!("workloads:");
    for w in &WORKLOADS {
        eprintln!("  {:<20} {}", w.name, w.why);
    }
    ExitCode::from(2)
}

/// `<target dir>/e2e-bench`, next to the binaries under test.
fn bench_dir() -> PathBuf {
    let bin = proc::bin_dir();
    bin.parent().unwrap_or(&bin).join("e2e-bench")
}

fn print_table(defs: &[metrics::MetricDef], values: &Values) {
    for def in defs {
        match values.get(def.name) {
            Some(v) => println!("{:<32} {:>16.6} {}", def.name, v, def.unit),
            None => println!("{:<32} {:>16} {}", def.name, "n/a", def.unit),
        }
    }
}

fn run_workload(
    workload: &'static Workload,
    args: &RunArgs,
    trace: bool,
    out_path: Option<PathBuf>,
) -> Result<ExitCode, String> {
    let base = bench_dir();
    let scratch = base.join(format!(
        "{}{}-{}",
        workload.name,
        if trace { "-trace" } else { "" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let host_doc = host::describe(&scratch);

    let run_id = format!("{}-{}-{}", workload.name, args.seed, std::process::id());
    let rec = trace::Recorder::new(run_id);
    let outcome = match (workload.kind, trace) {
        (Kind::Solve { .. }, false) => solve::run_timed(workload, args, &scratch),
        (Kind::Solve { .. }, true) => traced::run_solve(workload, args, &scratch, &rec),
        (Kind::Serve, false) => serve::run(workload, args, &scratch, None),
        (Kind::Serve, true) => traced::run_serve(workload, args, &scratch, &rec),
    };
    // scratch holds job stores, checkpoints and reports of this run only
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;

    let defs = if trace { PER_LAYER } else { END_TO_END };
    let stem = format!(
        "{}{}",
        workload.name,
        if args.smoke { ".smoke" } else { "" }
    );
    if trace {
        let spans = rec.snapshot();
        let path = base.join(format!("{stem}.trace.json"));
        std::fs::write(&path, trace::to_json(&rec.run_id, &spans).to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("self time by span name (s, calls)  [{}]", path.display());
        for (name, self_s, count) in trace::self_time_by_name(&spans).iter().take(12) {
            println!("  {name:<30} {self_s:>12.6} {count:>10}");
        }
    }
    println!(
        "{} seed {} {}{}",
        workload.name,
        args.seed,
        if trace {
            "per-layer (traced run)"
        } else {
            "end-to-end (tracing off)"
        },
        if args.smoke {
            "  [SMOKE shape: not comparable to full runs]"
        } else {
            ""
        }
    );
    print_table(defs, &outcome.values);
    println!(
        "ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }

    let metrics_doc = outcome.values.to_json(defs);
    let not_applicable: Vec<JsonValue> =
        outcome.values.missing(defs).iter().map(|n| s(n)).collect();
    let pairs = vec![
        ("format", s(OUT_FORMAT)),
        ("workload", s(workload.name)),
        ("why", s(workload.why)),
        ("seed", JsonValue::Num(args.seed as f64)),
        ("seconds", JsonValue::Num(args.seconds)),
        ("trace", JsonValue::Bool(trace)),
        ("smoke", JsonValue::Bool(args.smoke)),
        ("host", host_doc),
        ("correct", JsonValue::Bool(outcome.failed == 0)),
        ("ops_attempted", JsonValue::Num(outcome.attempted as f64)),
        ("ops_failed", JsonValue::Num(outcome.failed as f64)),
        ("metrics", metrics_doc.clone()),
        ("not_applicable", JsonValue::Arr(not_applicable)),
        (
            "notes",
            JsonValue::Arr(outcome.notes.iter().map(|n| s(n)).collect()),
        ),
        ("details", JsonValue::Obj(outcome.extra)),
    ];
    let out_path = out_path
        .unwrap_or_else(|| base.join(format!("{stem}{}.json", if trace { ".layers" } else { "" })));
    std::fs::write(&out_path, obj(pairs).to_json())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;

    // the driver's contract: last line of stdout, exactly these four keys
    let line = obj(vec![
        ("correct", JsonValue::Bool(outcome.failed == 0)),
        ("attempted", JsonValue::Num(outcome.attempted.max(1) as f64)),
        ("failed", JsonValue::Num(outcome.failed as f64)),
        ("metrics", metrics_doc),
    ]);
    println!("{}", line.to_json());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload: Option<String> = None;
    let mut run = RunArgs {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        smoke: false,
    };
    let mut trace = false;
    let mut out_path: Option<PathBuf> = None;
    let mut compare: Option<(PathBuf, PathBuf)> = None;
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| eprintln!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => match value("a workload name") {
                Ok(v) => workload = Some(v),
                Err(()) => return usage(),
            },
            "--seed" => match value("an unsigned integer").map(|v| v.parse::<u64>()) {
                Ok(Ok(v)) => run.seed = v,
                _ => {
                    eprintln!("--seed needs an unsigned integer");
                    return usage();
                }
            },
            "--seconds" => match value("a positive number").map(|v| v.parse::<f64>()) {
                Ok(Ok(v)) if v > 0.0 && v.is_finite() => run.seconds = v,
                _ => {
                    eprintln!("--seconds needs a positive number");
                    return usage();
                }
            },
            // `--trace 0|1` (the driver's form) or a bare `--trace`
            "--trace" => {
                trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => match value("a path") {
                Ok(v) => out_path = Some(PathBuf::from(v)),
                Err(()) => return usage(),
            },
            "--benchmark" => match value("a path") {
                Ok(v) => benchmark = PathBuf::from(v),
                Err(()) => return usage(),
            },
            "--compare" => match (value("two paths"), it.next()) {
                (Ok(a), Some(b)) => compare = Some((PathBuf::from(a), PathBuf::from(b))),
                _ => {
                    eprintln!("--compare needs two documents or directories");
                    return usage();
                }
            },
            "--list" => {
                for w in &WORKLOADS {
                    println!("{}", w.name);
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    if let Some((a, b)) = compare {
        return match compare::run(Path::new(&a), Path::new(&b), &benchmark) {
            Ok(code) => ExitCode::from(code),
            Err(e) => {
                eprintln!("e2e_bench --compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(name) = workload else {
        return usage();
    };
    let Some(workload) = workloads::find(&name) else {
        eprintln!("unknown workload `{name}`");
        return usage();
    };
    if run.smoke {
        // every workload shrunk so that all of them finish within 30 s
        run.seconds = run.seconds.min(3.0);
    }
    match run_workload(workload, &run, trace, out_path) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e_bench: {}: {e}", workload.name);
            ExitCode::from(3)
        }
    }
}
