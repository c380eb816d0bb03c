//! `e2e_bench --compare <a> <b>`: do two sets of output documents agree?
//!
//! `<a>` and `<b>` are `--out` documents or directories of them; documents
//! pair up by `(workload, trace)`. The exit is non-zero when an end-to-end
//! metric differs by more than its `BENCHMARK.json` bound (either way: on
//! one commit that means the sets do not agree; across two commits the row
//! says which side is better), when `ops_failed / ops_attempted` rose, or
//! when a count that must repeat exactly differs at all.

use crate::metrics::{Better, END_TO_END, EXACT_REPEAT};
use mbrpa_serve::json::{self, JsonValue};
use std::path::{Path, PathBuf};

struct Doc {
    path: PathBuf,
    workload: String,
    trace: bool,
    smoke: bool,
    seed: u64,
    attempted: f64,
    failed: f64,
    metrics: JsonValue,
}

impl Doc {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.get("value")?.as_f64()
    }
}

fn load_doc(path: &Path) -> Result<Doc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("{}: no `{k}` member", path.display()))
    };
    let num = |k: &str| {
        field(k)?
            .as_f64()
            .ok_or_else(|| format!("`{k}` is not a number"))
    };
    let flag = |k: &str| {
        field(k)?
            .as_bool()
            .ok_or_else(|| format!("`{k}` is not a boolean"))
    };
    Ok(Doc {
        path: path.to_path_buf(),
        workload: field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?
            .to_string(),
        trace: flag("trace")?,
        smoke: flag("smoke")?,
        seed: num("seed")? as u64,
        attempted: num("ops_attempted")?,
        failed: num("ops_failed")?,
        metrics: field("metrics")?.clone(),
    })
}

fn load_set(path: &Path) -> Result<Vec<Doc>, String> {
    if !path.is_dir() {
        return Ok(vec![load_doc(path)?]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        // span dumps live next to the metric documents
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".trace.json")
        })
        .collect();
    files.sort();
    files.iter().map(|p| load_doc(p)).collect()
}

/// `(name, bound)` of the end-to-end metrics in `BENCHMARK.json`.
fn load_bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let listed = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{}: no `end_to_end` list", path.display()))?;
    listed
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(JsonValue::as_str);
            let bound = entry.get("bound").and_then(JsonValue::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "an `end_to_end` entry lacks `name` or `bound`".to_string())
        })
        .collect()
}

/// Offending rows between one pair of documents.
fn compare_pair(a: &Doc, b: &Doc, bounds: &[(String, f64)]) -> Vec<String> {
    let mut rows = Vec::new();
    let tag = format!("{}{}", a.workload, if a.trace { " (trace)" } else { "" });
    if a.smoke != b.smoke {
        rows.push(format!(
            "{tag}: a smoke run is never comparable to a full run"
        ));
        return rows;
    }
    if a.seed != b.seed {
        rows.push(format!("{tag}: seeds differ ({} vs {})", a.seed, b.seed));
        return rows;
    }
    let rate = |d: &Doc| d.failed / d.attempted.max(1.0);
    if rate(b) > rate(a) {
        rows.push(format!(
            "{tag}: ops_failed/ops_attempted rose from {}/{} to {}/{}",
            a.failed, a.attempted, b.failed, b.attempted
        ));
    }
    if a.trace {
        for name in EXACT_REPEAT {
            let (va, vb) = (a.value(name), b.value(name));
            if va != vb {
                rows.push(format!(
                    "{tag}: {name} must repeat exactly: {va:?} vs {vb:?}"
                ));
            }
        }
    } else {
        for def in END_TO_END {
            let Some(&(_, bound)) = bounds.iter().find(|(n, _)| n == def.name) else {
                rows.push(format!(
                    "{tag}: {} has no bound in BENCHMARK.json",
                    def.name
                ));
                continue;
            };
            let (Some(va), Some(vb)) = (a.value(def.name), b.value(def.name)) else {
                rows.push(format!("{tag}: {} is missing from a document", def.name));
                continue;
            };
            let change = (vb - va) / va;
            if change.abs() > bound || !change.is_finite() {
                let worse = (change > 0.0) == (def.better == Better::Lower);
                rows.push(format!(
                    "{tag}: {} {va} -> {vb} {} ({:+.1}%, bound {:.1}%, second is {})",
                    def.name,
                    def.unit,
                    100.0 * change,
                    100.0 * bound,
                    if worse { "worse" } else { "better" }
                ));
            }
        }
    }
    rows
}

/// Returns the process exit code.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<u8, String> {
    let bounds = load_bounds(benchmark)?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut rows = Vec::new();
    let mut pairs = 0;
    for da in &set_a {
        match set_b
            .iter()
            .find(|db| db.workload == da.workload && db.trace == da.trace)
        {
            Some(db) => {
                pairs += 1;
                rows.extend(compare_pair(da, db, &bounds));
            }
            None => rows.push(format!(
                "{} has no counterpart in {}",
                da.path.display(),
                b.display()
            )),
        }
    }
    for db in &set_b {
        if !set_a
            .iter()
            .any(|da| da.workload == db.workload && da.trace == db.trace)
        {
            rows.push(format!(
                "{} has no counterpart in {}",
                db.path.display(),
                a.display()
            ));
        }
    }
    if pairs == 0 {
        rows.push("no document pairs to compare".to_string());
    }
    if rows.is_empty() {
        println!("{pairs} document pair(s) agree: end-to-end metrics within their bounds, failure ratio not up, exact-repeat counts identical");
        Ok(0)
    } else {
        for row in &rows {
            println!("{row}");
        }
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(trace: bool, metrics: &[(&str, f64)], failed: f64) -> Doc {
        Doc {
            path: PathBuf::from("x.json"),
            workload: "si8_solve".to_string(),
            trace,
            smoke: false,
            seed: 2024,
            attempted: 4.0,
            failed,
            metrics: JsonValue::Obj(
                metrics
                    .iter()
                    .map(|(n, v)| {
                        (
                            n.to_string(),
                            json::obj(vec![("value", JsonValue::Num(*v))]),
                        )
                    })
                    .collect(),
            ),
        }
    }

    fn e2e(solve_s: f64, jobs: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", 0.1),
            ("solve_s", solve_s),
            ("peak_rss_mb", 10.0),
            ("miss_ms_p25", 100.0),
            ("jobs_per_s", jobs),
        ]
    }

    #[test]
    fn bounds_failures_and_exact_counts_are_all_gates() {
        let bounds: Vec<(String, f64)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), 0.05))
            .collect();
        let base = doc(false, &e2e(4.0, 2.0), 0.0);
        assert!(compare_pair(&base, &doc(false, &e2e(4.1, 2.05), 0.0), &bounds).is_empty());
        let slow = compare_pair(&base, &doc(false, &e2e(4.4, 2.0), 0.0), &bounds);
        assert!(slow.len() == 1 && slow[0].contains("solve_s") && slow[0].contains("worse"));
        // higher-is-better metrics read the other way
        let fast = compare_pair(&base, &doc(false, &e2e(4.0, 2.4), 0.0), &bounds);
        assert!(fast.len() == 1 && fast[0].contains("jobs_per_s") && fast[0].contains("better"));
        let failing = compare_pair(&base, &doc(false, &e2e(4.0, 2.0), 1.0), &bounds);
        assert!(failing[0].contains("rose"));

        let counts = |m: f64| doc(true, &[("solver.matvecs", m), ("solver.solves", 8.0)], 0.0);
        assert!(compare_pair(&counts(100.0), &counts(100.0), &bounds).is_empty());
        assert!(compare_pair(&counts(100.0), &counts(101.0), &bounds)[0].contains("solver.matvecs"));
        let mut smoke = counts(100.0);
        smoke.smoke = true;
        assert!(compare_pair(&counts(100.0), &smoke, &bounds)[0].contains("smoke"));
    }
}
