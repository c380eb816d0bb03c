//! `rpacalc` — the command-line driver, mirroring the paper's artifact
//! usage:
//!
//! ```text
//! rpacalc -name Si8            # reads Si8.rpa, writes Si8.out
//! rpacalc -name tests/Si16     # paths are allowed
//! rpacalc -name Si8 -stdout    # print the report instead of writing it
//! ```
//!
//! The input format is documented in [`mbrpa::core::io`]; a sample lives
//! in `inputs/Si8.rpa`.

use mbrpa::ckpt::CheckpointStore;
use mbrpa::core::{
    io as rpaio, report, CancelToken, PartialRun, ResumableOutcome, ResumePolicy, RpaConfig,
    RpaSetup, RunOptions,
};
use mbrpa::serve::signal;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: rpacalc -name <basename> [-stdout] [-threads N]");
    eprintln!("               [-checkpoint <dir>] [-resume] [-checkpoint-every K]");
    eprintln!("               [-profile <out.json>]");
    eprintln!("  reads <basename>.rpa and writes <basename>.out");
    eprintln!("  -checkpoint <dir>    journal per-frequency state into <dir> (two-slot)");
    eprintln!("  -resume              continue from the newest valid snapshot in <dir>");
    eprintln!("  -checkpoint-every K  snapshot every K-th frequency (default 1)");
    eprintln!("  -profile <out.json>  enable telemetry: write a versioned JSON report of");
    eprintln!("                       span timings, counters, and per-frequency residual");
    eprintln!("                       traces, and append a summary table to the run report");
    eprintln!("  MBRPA_SIMD=auto|scalar|avx2 in the environment picks the SIMD dispatch");
    eprintln!("  path (default auto); every path is bit-identical");
    ExitCode::FAILURE
}

/// Write the telemetry JSON to `path`, and append the human-readable
/// summary table to `doc` when the run report is still being assembled.
fn emit_profile(path: &str, doc: Option<&mut String>) -> bool {
    let report = mbrpa_obs::report();
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("cannot write profile {path}: {e}");
        return false;
    }
    eprintln!(
        "wrote profile {path} ({} spans, {} counters, instrumented {:.1}% of wall)",
        report.spans.len(),
        report.counters.len(),
        if report.total_wall_s > 0.0 {
            100.0 * report.top_level_total() / report.total_wall_s
        } else {
            0.0
        }
    );
    if let Some(doc) = doc {
        doc.push('\n');
        doc.push_str(&report.summary_table());
    }
    true
}

/// Write the partial report of an interrupted run (to `<name>.out` or
/// stdout) and exit with the conventional interrupted status (130).
fn finish_partial(
    name: &str,
    to_stdout: bool,
    config: &RpaConfig,
    partial: &PartialRun,
    setup: &RpaSetup,
    profile_path: Option<&str>,
) -> ExitCode {
    let mut doc = report::partial_report(
        config,
        partial,
        setup.crystal.n_grid(),
        setup.crystal.n_occupied(),
        setup.crystal.atoms.len(),
        &report::projector_note(&setup.ham),
    );
    if let Some(p) = profile_path {
        if !emit_profile(p, Some(&mut doc)) {
            return ExitCode::FAILURE;
        }
    }
    if to_stdout {
        print!("{doc}");
    } else {
        let out_path = format!("{name}.out");
        if let Err(e) = std::fs::write(&out_path, &doc) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote partial report to {out_path}");
    }
    ExitCode::from(130)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut name: Option<String> = None;
    let mut to_stdout = false;
    let mut threads: Option<usize> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut checkpoint_every: usize = 1;
    let mut profile_path: Option<String> = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-name" | "--name" => name = it.next().cloned(),
            "-stdout" | "--stdout" => to_stdout = true,
            "-threads" | "--threads" => {
                let Some(v) = it.next() else {
                    eprintln!("-threads needs a value");
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(t) if t >= 1 => threads = Some(t),
                    Ok(_) => {
                        eprintln!("-threads must be at least 1");
                        return ExitCode::FAILURE;
                    }
                    Err(_) => {
                        eprintln!("cannot parse `-threads {v}`: expected a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-checkpoint" | "--checkpoint" => {
                let Some(dir) = it.next() else {
                    eprintln!("-checkpoint needs a directory");
                    return usage();
                };
                checkpoint_dir = Some(dir.clone());
            }
            "-resume" | "--resume" => resume = true,
            "-profile" | "--profile" => {
                let Some(p) = it.next() else {
                    eprintln!("-profile needs an output path");
                    return usage();
                };
                profile_path = Some(p.clone());
            }
            "-checkpoint-every" | "--checkpoint-every" => {
                let Some(v) = it.next() else {
                    eprintln!("-checkpoint-every needs a value");
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(k) if k >= 1 => checkpoint_every = k,
                    _ => {
                        eprintln!(
                            "cannot parse `-checkpoint-every {v}`: expected a positive integer"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-h" | "--help" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let Some(name) = name else { return usage() };
    if resume && checkpoint_dir.is_none() {
        eprintln!("-resume requires -checkpoint <dir>");
        return ExitCode::FAILURE;
    }
    if let Err(e) = mbrpa::init_runtime(threads) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if profile_path.is_some() {
        mbrpa_obs::reset();
        mbrpa_obs::set_enabled(true);
    }

    let input_path = format!("{name}.rpa");
    let text = match std::fs::read_to_string(&input_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let input = match rpaio::parse_rpa_input(&text) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = input.check() {
        eprintln!("{input_path}: {e}");
        return ExitCode::from(2);
    }
    for key in &input.ignored_keys {
        eprintln!("note: ignoring artifact key `{key}` (not needed by this formulation)");
    }

    // KS stage: dense for small grids, CheFSI beyond
    let mut setup_span = Some(mbrpa_obs::span("setup"));
    let setup = match RpaSetup::from_input(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("KS stage failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "system {}: n_d = {}, n_s = {}",
        setup.crystal.label,
        setup.crystal.n_grid(),
        setup.crystal.n_occupied()
    );
    drop(setup_span.take());

    // Ctrl-C / SIGTERM cancel cooperatively: the run stops at its next
    // frequency boundary, checkpoints (when -checkpoint is active), and
    // a partial report is written instead of discarding the work
    let cancel = CancelToken::new();
    let _watcher = signal::watch(cancel.clone());

    let mut store = match &checkpoint_dir {
        Some(dir) => match CheckpointStore::open(Path::new(dir)) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot open checkpoint directory {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let policy = ResumePolicy {
        every: checkpoint_every,
        resume,
        stop_after: None,
    };
    let mut rpa_span = Some(mbrpa_obs::span("rpa"));
    let outcome = setup.run_with(
        &input.config,
        RunOptions {
            checkpoint: store.as_mut().map(|s| (s, &policy)),
            cancel: Some(&cancel),
            on_frequency: None,
        },
    );
    let result = match outcome {
        Ok(ResumableOutcome::Complete(r)) => {
            if r.n_restored > 0 {
                eprintln!(
                    "resumed from checkpoint: {} of {} frequencies restored",
                    r.n_restored,
                    r.per_omega.len()
                );
            }
            *r
        }
        Ok(ResumableOutcome::Checkpointed { .. }) => unreachable!("the policy sets no stop_after"),
        Ok(ResumableOutcome::Cancelled(partial)) => {
            let done = format!(
                "interrupted: {} of {} frequencies done",
                partial.completed, partial.n_omega
            );
            match &checkpoint_dir {
                Some(dir) => {
                    eprintln!("{done}; state checkpointed in {dir}");
                    eprintln!("rerun with -checkpoint {dir} -resume to finish bit-for-bit");
                }
                None => {
                    eprintln!("{done} (no -checkpoint directory, so the run cannot be resumed)")
                }
            }
            drop(rpa_span.take());
            return finish_partial(
                &name,
                to_stdout,
                &input.config,
                &partial,
                &setup,
                profile_path.as_deref(),
            );
        }
        Err(e) => {
            eprintln!("RPA stage failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    drop(rpa_span.take());

    let mut doc = {
        let _report_span = mbrpa_obs::span("report");
        report::full_report(&input.config, &result)
    };
    if let Some(p) = &profile_path {
        if !emit_profile(p, Some(&mut doc)) {
            return ExitCode::FAILURE;
        }
    }
    if to_stdout {
        print!("{doc}");
    } else {
        let out_path = format!("{name}.out");
        if let Err(e) = std::fs::write(&out_path, &doc) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out_path}");
    }
    eprintln!(
        "Total RPA correlation energy: {:.5E} Ha ({:.5E} Ha/atom) in {:.3} s",
        result.total_energy,
        result.energy_per_atom,
        result.wall_time.as_secs_f64()
    );
    ExitCode::SUCCESS
}
