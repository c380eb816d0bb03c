//! Fixture-driven tests for every mbrpa-lint rule.
//!
//! Each fixture under `tests/fixtures/` (laid out as a miniature
//! workspace so path classification applies) carries four cases:
//! positive (flagged), negative (clean), suppressed (justified inline
//! suppression), and an unused suppression (flagged as
//! `unused_allow`). Expectations are per-rule finding counts, so the
//! tests are robust to fixture line drift. The workspace-level rule
//! `unreached_pub` reads a tree of its own, `tests/fixtures/unreached_pub`.

use mbrpa_lint::rules::{check_file, classify, Finding};
use std::path::Path;

fn fixture_src(rel: &str) -> String {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    std::fs::read_to_string(&disk)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", disk.display()))
}

fn run_fixture(rel: &str) -> Vec<Finding> {
    check_file(rel, &fixture_src(rel))
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

/// Assert the exact per-rule finding counts and that no other rule
/// fired at all.
fn assert_only(findings: &[Finding], expected: &[(&str, usize)]) {
    for &(rule, n) in expected {
        assert_eq!(
            count(findings, rule),
            n,
            "rule `{rule}` count mismatch; all findings: {findings:#?}"
        );
    }
    let allowed: Vec<&str> = expected.iter().map(|&(r, _)| r).collect();
    for f in findings {
        assert!(
            allowed.contains(&f.rule),
            "unexpected finding from rule `{}`: {f:#?}",
            f.rule
        );
    }
}

#[test]
fn safety_rule_cases() {
    let f = run_fixture("crates/ckpt/src/rule_safety.rs");
    assert_only(&f, &[("safety", 1), ("unused_allow", 1)]);
}

#[test]
fn unwrap_rule_cases() {
    let f = run_fixture("crates/solver/src/rule_unwrap.rs");
    assert_only(&f, &[("unwrap", 2), ("unused_allow", 1)]);
}

#[test]
fn unwrap_rule_exempts_test_files_and_flags_stale_suppressions() {
    // The same source reclassified as an integration-test file: both
    // positive unwraps are exempt, and the now-pointless suppression in
    // the `suppressed` case goes stale alongside the deliberately
    // stale one — unused-suppression detection follows classification.
    let src = fixture_src("crates/solver/src/rule_unwrap.rs");
    let f = check_file("crates/solver/tests/rule_unwrap.rs", &src);
    assert_only(&f, &[("unwrap", 0), ("unused_allow", 2)]);
}

#[test]
fn float_cmp_rule_cases() {
    let f = run_fixture("crates/linalg/src/rule_float_cmp.rs");
    assert_only(&f, &[("float_cmp", 2), ("unused_allow", 1)]);
}

#[test]
fn hash_iter_rule_cases() {
    let f = run_fixture("crates/grid/src/rule_hash_iter.rs");
    assert_only(&f, &[("hash_iter", 2), ("unused_allow", 1)]);
}

#[test]
fn hash_iter_rule_is_scoped_to_numeric_crates() {
    // The identical source inside a non-numeric crate (ckpt) is clean
    // except for the suppressions, which all go stale.
    let src = fixture_src("crates/grid/src/rule_hash_iter.rs");
    let f = check_file("crates/ckpt/src/rule_hash_iter.rs", &src);
    assert_only(&f, &[("hash_iter", 0), ("unused_allow", 2)]);
}

#[test]
fn print_rule_cases() {
    let f = run_fixture("crates/obs/src/rule_print.rs");
    assert_only(&f, &[("print", 2), ("unused_allow", 1)]);
}

#[test]
fn print_rule_exempts_the_bench_crate() {
    // stdout tables are the bench crate's CLI interface; `print` (and
    // `unwrap`) discipline deliberately does not apply there.
    let src = fixture_src("crates/obs/src/rule_print.rs");
    let f = check_file("crates/bench/src/rule_print.rs", &src);
    assert_only(&f, &[("print", 0), ("unused_allow", 2)]);
}

#[test]
fn narrow_cast_rule_cases() {
    let f = run_fixture("crates/core/src/rule_narrow_cast.rs");
    assert_only(&f, &[("narrow_cast", 1), ("unused_allow", 1)]);
}

#[test]
fn arch_intrinsics_rule_cases() {
    let f = run_fixture("crates/dft/src/rule_arch_intrinsics.rs");
    assert_only(&f, &[("arch_intrinsics", 2), ("unused_allow", 1)]);
}

#[test]
fn arch_intrinsics_rule_exempts_the_simd_crate() {
    // The identical source inside `crates/simd` is the sanctioned home
    // for intrinsics: no findings, and both suppressions go stale.
    let src = fixture_src("crates/dft/src/rule_arch_intrinsics.rs");
    let f = check_file("crates/simd/src/rule_arch_intrinsics.rs", &src);
    assert_only(&f, &[("arch_intrinsics", 0), ("unused_allow", 2)]);
}

#[test]
fn classification_matrix() {
    let lib = classify("crates/solver/src/block_cocg.rs");
    assert!(lib.is_library && lib.is_numeric && !lib.is_test_file);
    assert_eq!(lib.crate_name, "solver");

    let bin = classify("crates/bench/src/bin/kernels_bench.rs");
    assert!(!bin.is_library && !bin.is_numeric);

    let test = classify("crates/linalg/tests/proptest_gemm.rs");
    assert!(test.is_test_file && !test.is_library && !test.is_numeric);

    let root = classify("src/lib.rs");
    assert_eq!(root.crate_name, "mbrpa");
    assert!(root.is_library && !root.is_numeric);

    let lint_main = classify("crates/lint/src/main.rs");
    assert!(!lint_main.is_library, "bin targets are not library code");
}

#[test]
fn atomic_ordering_rule_cases() {
    let f = run_fixture("crates/serve/src/rule_atomic_ordering.rs");
    assert_only(&f, &[("atomic_ordering", 2), ("unused_allow", 1)]);
}

#[test]
fn unsafe_wrapper_rule_cases() {
    let f = run_fixture("crates/simd/src/rule_unsafe_wrapper.rs");
    assert_only(&f, &[("unsafe_wrapper", 2), ("unused_allow", 1)]);
}

#[test]
fn unsafe_wrapper_rule_is_scoped_to_the_simd_crate() {
    // The identical source outside `crates/simd` is out of the rule's
    // jurisdiction: no wrapper findings, both suppressions go stale.
    let src = fixture_src("crates/simd/src/rule_unsafe_wrapper.rs");
    let f = check_file("crates/dft/src/rule_unsafe_wrapper.rs", &src);
    assert_only(&f, &[("unsafe_wrapper", 0), ("unused_allow", 2)]);
}

#[test]
fn nested_par_rule_cases() {
    let f = run_fixture("crates/core/src/rule_nested_par.rs");
    assert_only(&f, &[("nested_par", 2), ("unused_allow", 1)]);
}

#[test]
fn lock_hold_rule_cases() {
    let f = run_fixture("crates/serve/src/rule_lock_hold.rs");
    assert_only(&f, &[("lock_hold", 2), ("unused_allow", 1)]);
}

#[test]
fn lock_hold_rule_is_scoped_to_serve_non_test_code() {
    // Reclassified as a serve *test* file the rule stands down (tests
    // may serialize on a lock deliberately); suppressions go stale.
    let src = fixture_src("crates/serve/src/rule_lock_hold.rs");
    let f = check_file("crates/serve/tests/rule_lock_hold.rs", &src);
    assert_only(&f, &[("lock_hold", 0), ("unused_allow", 2)]);
}

#[test]
fn schema_tag_rule_cases() {
    let f = run_fixture("crates/dft/src/rule_schema_tag.rs");
    assert_only(&f, &[("schema_tag", 2), ("unused_allow", 1)]);
}

#[test]
fn schema_tag_rule_exempts_the_registry_crate() {
    // The registry itself is the one place allowed to spell tags.
    let src = fixture_src("crates/dft/src/rule_schema_tag.rs");
    let f = check_file("crates/schema/src/rule_schema_tag.rs", &src);
    assert_only(&f, &[("schema_tag", 0), ("unused_allow", 2)]);
}

#[test]
fn unreached_pub_rule_cases() {
    // Findings: a `pub fn` called only from `#[cfg(test)]`, one called
    // only from `crates/bench` and `tests/`, and a struct reached only
    // through a `pub use`. Clean: an item named in `src/bin`, a
    // `pub(crate)` one and a reasoned allow. The allow on an item
    // `crates/solver/src` names is stale.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unreached_pub");
    let f = mbrpa_lint::scan_workspace(&root)
        .expect("scan fixture tree")
        .findings;
    assert_only(&f, &[("unreached_pub", 3), ("unused_allow", 1)]);
    for name in ["only_unit_tested", "only_benched", "OnlyReexported"] {
        assert!(
            f.iter()
                .any(|x| x.rule == "unreached_pub" && x.message.contains(&format!("`{name}`"))),
            "`{name}` must be a finding: {f:#?}"
        );
    }
}
