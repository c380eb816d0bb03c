//! CLI for the in-tree invariant linter.
//!
//! ```text
//! cargo run -p mbrpa-lint -- [--deny] [--json PATH] [--root PATH] [--timing]
//! cargo run -p mbrpa-lint -- --validate PATH
//! ```
//!
//! * default: scan the enclosing workspace, print the findings table,
//!   exit 0 (informational mode).
//! * `--deny`: exit 1 if there is any finding (the CI gate).
//! * `--json PATH`: additionally write the `mbrpa.lint-findings/1`
//!   JSON document to PATH.
//! * `--timing`: print the lex / structure / rules wall-time breakdown
//!   after the table (human output only; the JSON document is
//!   unchanged).
//! * `--validate PATH`: parse PATH and check it against the schema,
//!   then exit without scanning.

use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
mbrpa-lint — in-tree invariant linter for the mbrpa workspace

usage: mbrpa-lint [--deny] [--json PATH] [--root PATH] [--timing]
       mbrpa-lint --validate PATH

modes:
  (default)        scan the enclosing workspace, print the findings
                   table, exit 0 (informational)
  --deny           exit 1 if there is any finding (the CI gate)
  --json PATH      also write the {schema} JSON document
  --root PATH      scan PATH instead of the enclosing workspace
  --timing         print the lex / structure / rules wall-time
                   breakdown (human output only)
  --validate PATH  check an existing JSON document against the schema

rules (token-window):
  safety           every `unsafe` carries an adjacent // SAFETY: comment
  unwrap           no .unwrap()/.expect() in library non-test code
  float_cmp        no ==/!= against float values outside tests
  hash_iter        no HashMap/HashSet in numeric crates
  print            no println!/eprintln! in library crates
  narrow_cast      no narrowing `as` casts inside index expressions
  arch_intrinsics  std::arch/core::arch only inside crates/simd

rules (structure-aware, over the scope tree):
  atomic_ordering  non-SeqCst Ordering::* carries a // ord: rationale
  unsafe_wrapper   SIMD unsafe blocks sit behind corner-checked safe fns
  nested_par       no rayon calls nested under an already-parallel region
  lock_hold        no blocking call while a lock guard is live (serve)
  schema_tag       mbrpa.*/N literals only in the mbrpa-schema registry

rules (workspace-level, resolved after every file is read):
  unreached_pub    a library pub item is named by shipped non-test code

meta:
  unused_allow     a `// lint: allow(<rule>)` that matched no finding

Suppress a finding only with an inline justification, on the violating
line or the line above:
  // lint: allow(<rule>) — <why this is sound here>

See DESIGN.md §9 (rule policy, scope tree, structural rules).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deny = false;
    let mut timing = false;
    let mut json_path: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut validate_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--timing" => timing = true,
            "--json" => json_path = it.next().map(PathBuf::from),
            "--root" => root_arg = it.next().map(PathBuf::from),
            "--validate" => validate_path = it.next().map(PathBuf::from),
            "--help" | "-h" => {
                print!("{}", HELP.replace("{schema}", mbrpa_lint::report::SCHEMA));
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mbrpa-lint: unknown flag '{other}' (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = validate_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mbrpa-lint: read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match mbrpa_lint::report::validate(&text) {
            Ok(n) => {
                println!(
                    "{} OK: schema {}, {n} finding(s)",
                    path.display(),
                    mbrpa_lint::report::SCHEMA
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mbrpa-lint: {} INVALID: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match mbrpa_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "mbrpa-lint: no [workspace] Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let result = match mbrpa_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mbrpa-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!(
        "{}",
        mbrpa_lint::report::human_table(&result.findings, result.files_scanned)
    );

    if timing {
        let t = result.timing;
        println!(
            "timing: lex {:.1} ms, structure {:.1} ms, rules {:.1} ms \
             (one lex + one scope tree per file, shared by all rules)",
            t.lex.as_secs_f64() * 1e3,
            t.structure.as_secs_f64() * 1e3,
            t.rules.as_secs_f64() * 1e3
        );
    }

    if let Some(path) = json_path {
        let doc = mbrpa_lint::report::to_json(&result.findings, result.files_scanned);
        if let Err(e) = mbrpa_lint::report::validate(&doc) {
            eprintln!("mbrpa-lint: emitted JSON failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("mbrpa-lint: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} (schema {})",
            path.display(),
            mbrpa_lint::report::SCHEMA
        );
    }

    if deny && !result.findings.is_empty() {
        eprintln!(
            "mbrpa-lint: --deny: {} finding(s) — fix them or add justified \
             `// lint: allow(<rule>)` suppressions",
            result.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
