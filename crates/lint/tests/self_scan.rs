//! Self-scan and CLI-gate tests: the workspace must be lint-clean, and
//! `--deny` must actually gate — exit 0 on the clean workspace,
//! non-zero on the deliberately-violating fixture tree. The emitted
//! JSON findings document must round-trip through `--validate`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    mbrpa_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("a [workspace] Cargo.toml above crates/lint")
}

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn workspace_is_lint_clean() {
    let res = mbrpa_lint::scan_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        res.files_scanned >= 100,
        "suspiciously few files scanned ({}) — did file collection break?",
        res.files_scanned
    );
    assert!(
        res.findings.is_empty(),
        "the workspace must stay lint-clean; fix or justify:\n{:#?}",
        res.findings
    );
}

#[test]
fn fixture_tree_is_not_scanned_as_workspace_code() {
    // The fixtures are deliberate violations; the workspace scan must
    // skip them or `workspace_is_lint_clean` could never pass.
    let res = mbrpa_lint::scan_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        res.findings.iter().all(|f| !f.file.contains("fixtures")),
        "fixture files leaked into the workspace scan"
    );
}

#[test]
fn deny_exits_zero_on_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_mbrpa-lint"))
        .arg("--deny")
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run mbrpa-lint");
    assert!(
        out.status.success(),
        "--deny must pass on the clean workspace; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn deny_exits_nonzero_on_fixture_violations() {
    let out = Command::new(env!("CARGO_BIN_EXE_mbrpa-lint"))
        .arg("--deny")
        .arg("--root")
        .arg(fixtures_root())
        .output()
        .expect("run mbrpa-lint");
    assert!(
        !out.status.success(),
        "--deny must fail on the violation fixtures"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "safety",
        "unwrap",
        "float_cmp",
        "hash_iter",
        "print",
        "narrow_cast",
        "atomic_ordering",
        "unsafe_wrapper",
        "nested_par",
        "lock_hold",
        "schema_tag",
        "unreached_pub",
    ] {
        assert!(
            stdout.contains(rule),
            "findings table should mention rule `{rule}`:\n{stdout}"
        );
    }
}

#[test]
fn emitted_json_round_trips_through_validate() {
    let json = std::env::temp_dir().join(format!(
        "mbrpa_lint_findings_test_{}.json",
        std::process::id()
    ));
    // Informational scan of the fixture tree (no --deny): exit 0 even
    // with findings, and the JSON self-validates before being written.
    let out = Command::new(env!("CARGO_BIN_EXE_mbrpa-lint"))
        .arg("--root")
        .arg(fixtures_root())
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run mbrpa-lint --json");
    assert!(
        out.status.success(),
        "informational scan must exit 0; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(env!("CARGO_BIN_EXE_mbrpa-lint"))
        .arg("--validate")
        .arg(&json)
        .output()
        .expect("run mbrpa-lint --validate");
    let _ = std::fs::remove_file(&json);
    assert!(
        out.status.success(),
        "emitted JSON must validate; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
