//! Timed solve workloads: `rpacalc` as a child process, the way the paper's
//! artifact is run. Nothing here links the solver; results come back through
//! the `.out` report only.

use crate::outparse::{parse_out, OutReport};
use crate::proc::{binary, run_child, ChildRun};
use crate::stats::{lower_quartile, max, median};
use crate::workloads::{reference_energy, Kind, Workload, DEFAULT_SEED, ENERGY_RTOL};
use crate::{host, Outcome, RunArgs};
use mbrpa_serve::json::{s, JsonValue};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

pub struct RpacalcRun {
    pub child: ChildRun,
    /// The parsed `<name>.out`, or why there is none.
    pub report: Result<OutReport, String>,
}

/// One `rpacalc -name <name> -threads <threads> [...]` in `dir`, which must
/// hold `<name>.rpa`. A checkpoint directory is emptied first so every rep
/// starts a fresh journal.
pub fn run_rpacalc(
    dir: &Path,
    name: &str,
    threads: usize,
    checkpoint: Option<&Path>,
    profile: Option<&Path>,
) -> Result<RpacalcRun, String> {
    let out_path = dir.join(format!("{name}.out"));
    let _ = std::fs::remove_file(&out_path);
    let mut cmd = Command::new(binary("rpacalc")?);
    cmd.current_dir(dir)
        .args(["-name", name, "-threads", &threads.to_string()]);
    if let Some(ck) = checkpoint {
        let _ = std::fs::remove_dir_all(ck);
        cmd.arg("-checkpoint")
            .arg(ck)
            .args(["-checkpoint-every", "1"]);
    }
    if let Some(p) = profile {
        cmd.arg("-profile").arg(p);
    }
    let child = run_child(&mut cmd, &dir.join(format!("{name}.stderr")))?;
    let report = if child.success {
        std::fs::read_to_string(&out_path)
            .map_err(|e| format!("no report {}: {e}", out_path.display()))
            .and_then(|text| parse_out(&text))
    } else {
        Err("rpacalc exited with a failure status".to_string())
    };
    Ok(RpacalcRun { child, report })
}

/// Threads a solve workload runs with.
pub fn threads_of(kind: Kind) -> usize {
    match kind {
        Kind::Solve {
            single_thread: true,
            ..
        } => 1,
        _ => host::solver_threads(),
    }
}

/// Judge a set of reps of one input: returns the number of failed reps and
/// appends the reasons to `notes`.
pub fn judge_reps(
    workload: &Workload,
    args: &RunArgs,
    reps: &[RpacalcRun],
    notes: &mut Vec<String>,
) -> usize {
    let reference = (args.seed == DEFAULT_SEED)
        .then(|| reference_energy(workload.name, args.smoke))
        .flatten();
    let first_text = reps
        .iter()
        .find_map(|r| r.report.as_ref().ok().map(|o| o.energy_text.clone()));
    let mut failed = 0;
    for (k, rep) in reps.iter().enumerate() {
        let verdict: Result<(), String> = match &rep.report {
            Err(e) => Err(e.clone()),
            Ok(out) => {
                if let Some(reference) = reference {
                    // pinned seed: the energy and full convergence are both required
                    let rel = ((out.energy - reference) / reference).abs();
                    if rel > ENERGY_RTOL {
                        Err(format!(
                            "energy {} is {rel:.2e} (relative) from the pinned {reference:e}",
                            out.energy_text
                        ))
                    } else if out.unconverged > 0 {
                        Err(format!("{} frequencies did not converge", out.unconverged))
                    } else {
                        Ok(())
                    }
                } else if Some(&out.energy_text) != first_text.as_ref() {
                    Err(format!(
                        "energy {} disagrees with the first rep's {}",
                        out.energy_text,
                        first_text.as_deref().unwrap_or("?")
                    ))
                } else {
                    if out.unconverged > 0 && k == 0 {
                        notes.push(format!(
                            "{} frequencies did not converge on seed {} (not pinned, not a failure)",
                            out.unconverged, args.seed
                        ));
                    }
                    Ok(())
                }
            }
        };
        if let Err(why) = verdict {
            failed += 1;
            notes.push(format!("rep {k} failed: {why}"));
        }
    }
    failed
}

pub fn run_timed(workload: &Workload, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    let Kind::Solve { checkpoint, .. } = workload.kind else {
        unreachable!("solve::run_timed is only called for solve workloads");
    };
    let threads = threads_of(workload.kind);
    let input = workload.render(workload.shape(args.smoke), args.seed, args.seed);
    std::fs::write(scratch.join("input.rpa"), &input).map_err(|e| e.to_string())?;
    let ckpt_dir = scratch.join("ckpt");

    // two reps at least (they must agree); normally the window holds 4–5
    const MIN_REPS: usize = 2;
    let started = Instant::now();
    let mut reps: Vec<RpacalcRun> = Vec::new();
    loop {
        let rep = run_rpacalc(
            scratch,
            "input",
            threads,
            checkpoint.then_some(ckpt_dir.as_path()),
            None,
        )?;
        reps.push(rep);
        let walls: Vec<f64> = reps.iter().map(|r| r.child.wall_s).collect();
        // stop when one more rep of typical length would overrun the window
        let next_end = started.elapsed().as_secs_f64() + median(&walls);
        if reps.len() >= MIN_REPS && next_end > args.seconds {
            break;
        }
    }

    let mut out = Outcome::default();
    out.attempted = reps.len();
    out.failed = judge_reps(workload, args, &reps, &mut out.notes);

    let walls: Vec<f64> = reps.iter().map(|r| r.child.wall_s).collect();
    let solved: Vec<(f64, f64)> = reps
        .iter()
        .filter_map(|r| r.report.as_ref().ok().map(|o| (r.child.wall_s, o.solve_s)))
        .collect();
    if solved.is_empty() {
        return Err(format!(
            "no rep produced a report: {}",
            out.notes.join("; ")
        ));
    }
    let solve: Vec<f64> = solved.iter().map(|&(_, s)| s).collect();
    let setup: Vec<f64> = solved.iter().map(|&(w, s)| w - s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.child.peak_rss_mib).collect();
    out.values.set("setup_s", median(&setup));
    out.values.set("solve_s", lower_quartile(&solve));
    out.values.set("peak_rss_mb", max(&rss));
    out.values.set("miss_ms_p25", 1e3 * lower_quartile(&walls));
    out.values
        .set("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());

    out.detail("reps", JsonValue::Num(reps.len() as f64));
    out.detail("threads", JsonValue::Num(threads as f64));
    let nums = |v: &[f64]| JsonValue::Arr(v.iter().map(|&x| JsonValue::Num(x)).collect());
    out.detail("rep_wall_s", nums(&walls));
    out.detail("rep_solve_s", nums(&solve));
    out.detail("input", s(&input));
    if let Some(Ok(first)) = reps.first().map(|r| r.report.as_ref()) {
        out.detail("energy", s(&first.energy_text));
        let rounds: usize = first.filter_rounds.iter().sum();
        out.detail("filter_rounds", JsonValue::Num(rounds as f64));
    }
    Ok(out)
}
