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
use mbrpa::cli;
use mbrpa::core::{
    io as rpaio, report, CancelToken, ResumableOutcome, ResumePolicy, RpaSetup, RunOptions,
};
use mbrpa::serve::signal;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage: rpacalc -name <basename> [-stdout] [-threads N]
               [-checkpoint <dir>] [-resume] [-checkpoint-every K]
               [-profile <out.json>]
  reads <basename>.rpa and writes <basename>.out
  -checkpoint <dir>    journal per-frequency state into <dir> (two-slot)
  -resume              continue from the newest valid snapshot in <dir>
  -checkpoint-every K  snapshot every K-th frequency (default 1)
  -profile <out.json>  enable telemetry: write a versioned JSON report of
                       span timings, counters, and per-frequency residual
                       traces, and append a summary table to the run report
  MBRPA_SIMD=auto|scalar|avx2 in the environment picks the SIMD dispatch
  path (default auto); every path is bit-identical";

/// Append the telemetry summary table to `doc` and the JSON report to
/// `profile_path` when one was asked for, then write `doc` to `<name>.out`
/// (announced as `wrote {what}<name>.out`) or to stdout.
fn deliver(
    mut doc: String,
    name: &str,
    to_stdout: bool,
    profile_path: Option<&str>,
    what: &str,
) -> bool {
    if let Some(path) = profile_path {
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
        doc.push('\n');
        doc.push_str(&report.summary_table());
    }
    if to_stdout {
        print!("{doc}");
        return true;
    }
    let out_path = format!("{name}.out");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        return false;
    }
    eprintln!("wrote {what}{out_path}");
    true
}

fn main() -> ExitCode {
    let mut name: Option<String> = None;
    let mut to_stdout = false;
    let mut threads: Option<usize> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut checkpoint_every: usize = 1;
    let mut profile_path: Option<String> = None;
    cli::parse_args(USAGE, |flag, args| {
        match flag {
            "-name" => name = Some(args.value()?),
            "-stdout" => to_stdout = true,
            "-threads" => threads = Some(args.count()?),
            "-checkpoint" => checkpoint_dir = Some(args.value()?),
            "-resume" => resume = true,
            "-profile" => profile_path = Some(args.value()?),
            "-checkpoint-every" => checkpoint_every = args.count()?,
            _ => return Err(args.unknown()),
        }
        Ok(())
    });
    let Some(name) = name else {
        cli::refuse(USAGE, "-name <basename> is required")
    };
    if resume && checkpoint_dir.is_none() {
        cli::refuse(USAGE, "-resume requires -checkpoint <dir>");
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
            let doc = report::partial_report(
                &input.config,
                &partial,
                setup.crystal.n_grid(),
                setup.crystal.n_occupied(),
                setup.crystal.atoms.len(),
                &report::projector_note(&setup.ham),
            );
            let profile = profile_path.as_deref();
            if !deliver(doc, &name, to_stdout, profile, "partial report to ") {
                return ExitCode::FAILURE;
            }
            return ExitCode::from(130);
        }
        Err(e) => {
            eprintln!("RPA stage failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    drop(rpa_span.take());

    let doc = {
        let _report_span = mbrpa_obs::span("report");
        report::full_report(&input.config, &result)
    };
    if !deliver(doc, &name, to_stdout, profile_path.as_deref(), "") {
        return ExitCode::FAILURE;
    }
    eprintln!(
        "Total RPA correlation energy: {:.5E} Ha ({:.5E} Ha/atom) in {:.3} s",
        result.total_energy,
        result.energy_per_atom,
        result.wall_time.as_secs_f64()
    );
    ExitCode::SUCCESS
}
