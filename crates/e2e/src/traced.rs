//! `--trace 1`: the per-layer run of each workload. Separate from, and never
//! mixed into, the timed numbers.

use crate::layers::{trace_pipeline, PipelineOptions};
use crate::solve::{judge_reps, run_rpacalc, threads_of, RpacalcRun};
use crate::trace::Recorder;
use crate::workloads::{reference_energy, Kind, Workload, DEFAULT_SEED, ENERGY_RTOL};
use crate::{host, serve, Outcome, RunArgs};
use std::path::Path;

fn size_pool(threads: usize) -> Result<(), String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("cannot size the thread pool: {e}"))
}

fn solve_s(rep: &RpacalcRun) -> Option<f64> {
    rep.report.as_ref().ok().map(|r| r.solve_s)
}

pub fn run_solve(
    workload: &Workload,
    args: &RunArgs,
    scratch: &Path,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let Kind::Solve {
        checkpoint,
        scaling_probes,
        ..
    } = workload.kind
    else {
        unreachable!("traced::run_solve is only called for solve workloads");
    };
    let threads = threads_of(workload.kind);
    size_pool(threads)?;
    let input = workload.render(workload.shape(args.smoke), args.seed, args.seed);
    std::fs::write(scratch.join("input.rpa"), &input).map_err(|e| e.to_string())?;

    let mut out = Outcome::default();
    let report = trace_pipeline(
        &input,
        &PipelineOptions {
            checkpoint,
            scratch,
        },
        rec,
        &mut out.values,
    )?;
    out.notes.extend(report.notes);
    out.extra.extend(report.extra);
    out.attempted = 1;
    if args.seed == DEFAULT_SEED {
        if let Some(reference) = reference_energy(workload.name, args.smoke) {
            let rel = ((report.energy - reference) / reference).abs();
            if rel > ENERGY_RTOL {
                out.failed += 1;
                out.notes.push(format!(
                    "in-process energy {:e} is {rel:.2e} (relative) from the pinned {reference:e}",
                    report.energy
                ));
            }
        }
    }

    // child reps: the untraced twin of core.run, and the comparisons that
    // need a second configuration of the same input
    let ckpt_dir = scratch.join("ckpt");
    let child = |threads: usize, ckpt: bool, profile: bool| {
        run_rpacalc(
            scratch,
            "input",
            threads,
            ckpt.then_some(ckpt_dir.as_path()),
            profile.then(|| scratch.join("profile.json")).as_deref(),
        )
    };
    let plain = child(threads, checkpoint, false)?;
    let without_ckpt = checkpoint
        .then(|| child(threads, false, false))
        .transpose()?;
    let one_thread = scaling_probes
        .then(|| child(1, checkpoint, false))
        .transpose()?;
    let profiled = scaling_probes
        .then(|| child(threads, checkpoint, true))
        .transpose()?;
    if let Some(base) = solve_s(&plain) {
        out.values
            .set("bench.trace_overhead_frac", (report.run_s - base) / base);
        if let Some(without) = without_ckpt.as_ref().and_then(solve_s) {
            out.values
                .set("core.ckpt_overhead_frac", (base - without) / without);
        }
        if let Some(one) = one_thread.as_ref().and_then(solve_s) {
            out.values
                .set("core.thread_eff", one / (threads as f64 * base));
        }
        if let Some(profiled) = profiled.as_ref().and_then(solve_s) {
            out.values
                .set("obs.on_overhead_frac", (profiled - base) / base);
        }
    }
    let reps: Vec<RpacalcRun> = [Some(plain), without_ckpt, one_thread, profiled]
        .into_iter()
        .flatten()
        .collect();
    out.attempted += reps.len();
    out.failed += judge_reps(workload, args, &reps, &mut out.notes);
    Ok(out)
}

pub fn run_serve(
    workload: &Workload,
    args: &RunArgs,
    scratch: &Path,
    rec: &Recorder,
) -> Result<Outcome, String> {
    size_pool(host::solver_threads())?;
    // the solver-side layers at the tiny job's own shapes (what an executor
    // slice computes), then the client-side phases over HTTP
    let input = workload.render(workload.shape(args.smoke), args.seed, args.seed);
    let mut values = crate::metrics::Values::default();
    let report = trace_pipeline(
        &input,
        &PipelineOptions {
            checkpoint: true,
            scratch,
        },
        rec,
        &mut values,
    )?;
    let mut out = serve::run(workload, args, scratch, Some(rec))?;
    out.values.fill_from(values);
    out.notes.extend(report.notes);
    out.extra.extend(report.extra);
    Ok(out)
}
