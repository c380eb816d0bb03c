//! # mbrpa-lint — in-tree invariant linter
//!
//! A near-zero-dependency static-analysis pass enforcing numerics,
//! determinism, concurrency, and safety invariants the compiler cannot
//! see: bitwise-reproducible reductions must not be compared with float
//! equality, hash-map iteration order must not leak into numeric
//! results, `unsafe` soundness arguments and weakened atomic orderings
//! must be written down, rayon regions must not nest, lock guards must
//! not be held across blocking calls, and schema tags come from one
//! registry.
//!
//! The pass lexes every workspace `.rs` file with a hand-rolled Rust
//! lexer ([`lexer`]) — comments, raw strings, and char-vs-lifetime
//! disambiguation included — then builds a lightweight scope tree over
//! the token stream ([`scope`]): the nesting of brace/paren/bracket
//! scopes with each scope's owning item (`fn` with its
//! `pub`/`unsafe` qualifiers, or `macro_rules!`). Token-window rules
//! and structure-aware rules ([`rules`]) share a single [`rules::Analysis`]
//! per file, so each file is lexed and parsed exactly once. Findings
//! are reported as a human table and as schema-versioned JSON
//! ([`report`], schema `mbrpa.lint-findings/1`) with a hand-rolled
//! validator so CI can round-trip the artifact.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p mbrpa-lint -- --deny
//! ```
//!
//! Suppress a finding only with an inline justification:
//!
//! ```text
//! // lint: allow(unwrap) — mutex poisoning is fatal by design here
//! let guard = LOCK.lock().expect("poisoned telemetry mutex");
//! ```
//!
//! Unused suppressions are themselves findings (`unused_allow`), so
//! stale justifications cannot accumulate. The rule catalogue and the
//! policy for adding rules, the scope-tree architecture and the
//! structural rule semantics all live in DESIGN.md §9.

#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

use rules::Finding;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Wall-clock breakdown of one workspace scan, summed over files. The
/// lex pass runs once per file and is shared by all thirteen rules;
/// `structure` covers scope-tree construction plus comment/suppression
/// indexing; `rules` is the rule engine proper.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timing {
    /// Total time lexing.
    pub lex: Duration,
    /// Total time building scope trees and comment indices.
    pub structure: Duration,
    /// Total time running the rules.
    pub rules: Duration,
}

/// Result of scanning a workspace: every finding plus the file count
/// (the JSON schema records both so an accidentally-empty scan cannot
/// masquerade as a clean one) and the phase timing breakdown.
#[derive(Debug)]
pub struct ScanResult {
    /// All findings across the workspace, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-phase wall time, summed over files (`--timing`).
    pub timing: Timing,
}

/// Scan every `.rs` file under `root` (a workspace checkout), skipping
/// `target/`, `.git/`, and the linter's own rule fixtures under
/// `crates/lint/tests/fixtures/` (those are deliberate violations).
pub fn scan_workspace(root: &Path) -> Result<ScanResult, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut timing = Timing::default();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        let rel_str = rel
            .to_str()
            .ok_or_else(|| format!("non-UTF-8 path {}", rel.display()))?
            .replace('\\', "/");
        let analysis = rules::analyze(&rel_str, &src);
        timing.lex += analysis.lex_time;
        timing.structure += analysis.structure_time;
        let t0 = std::time::Instant::now();
        findings.extend(rules::run_rules(&analysis));
        timing.rules += t0.elapsed();
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(ScanResult {
        findings,
        files_scanned: files.len(),
        timing,
    })
}

/// Collect the workspace-relative paths `scan_workspace` would lint,
/// sorted. Exposed so tests (e.g. the self-parse suite) can iterate the
/// same file set as the scanner.
pub fn workspace_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || is_fixture_dir(root, &path) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// The linter's own test fixtures are intentional rule violations and
/// must not fail the workspace scan.
fn is_fixture_dir(root: &Path, path: &Path) -> bool {
    path.strip_prefix(root)
        .map(|rel| rel == Path::new("crates/lint/tests/fixtures"))
        .unwrap_or(false)
}

/// Locate the workspace root: walk upward from `start` until a
/// directory containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
