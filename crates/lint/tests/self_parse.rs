//! Self-parse suite: the structural parser must digest every `.rs`
//! file the workspace scan lints — fixtures included — without
//! panicking, and must report a balanced scope tree on real code (the
//! recovery path is for editor states, not for committed sources).

use mbrpa_lint::rules::analyze;
use mbrpa_lint::scope::ScopeKind;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    mbrpa_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("a [workspace] Cargo.toml above crates/lint")
}

#[test]
fn every_workspace_file_parses_balanced() {
    let root = workspace_root();
    let files = mbrpa_lint::workspace_rs_files(&root).expect("collect workspace files");
    assert!(
        files.len() >= 100,
        "suspiciously few files collected ({}) — did collection break?",
        files.len()
    );
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))
            .unwrap_or_else(|e| panic!("read {}: {e}", rel.display()));
        let rel_str = rel.to_str().expect("UTF-8 path").replace('\\', "/");
        let a = analyze(&rel_str, &src);
        assert!(
            a.tree.balanced,
            "{rel_str}: committed source must parse with balanced delimiters"
        );
        // Structural sanity on every scope the rules will walk.
        for (id, s) in a.tree.scopes.iter().enumerate() {
            assert!(
                s.open < s.close && s.close <= a.code.len(),
                "{rel_str}: scope {id} has an inverted span"
            );
            if let Some(p) = s.parent {
                let ps = &a.tree.scopes[p];
                assert!(
                    ps.open < s.open && s.close <= ps.close,
                    "{rel_str}: scope {id} escapes its parent"
                );
            }
        }
    }
}

#[test]
fn fixture_sources_parse_balanced_too() {
    // The deliberate *rule* violations in the fixtures must still be
    // syntactically well-formed — structural recovery on them would
    // mean the rule expectations test recovery behavior by accident.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let files = mbrpa_lint::workspace_rs_files(&fixtures).expect("collect fixture files");
    assert!(!files.is_empty(), "fixture tree is empty");
    for rel in files {
        let src = std::fs::read_to_string(fixtures.join(&rel))
            .unwrap_or_else(|e| panic!("read {}: {e}", rel.display()));
        let rel_str = rel.to_str().expect("UTF-8 path").replace('\\', "/");
        let a = analyze(&rel_str, &src);
        assert!(a.tree.balanced, "{rel_str}: fixture must parse balanced");
        assert!(
            a.tree.scopes.iter().any(|s| s.kind == ScopeKind::Brace),
            "{rel_str}: fixture should contain at least one brace scope"
        );
    }
}

#[test]
fn truncated_sources_recover_without_panicking() {
    // Chop a real file at arbitrary byte boundaries (always on a char
    // boundary) and re-analyze: the parser must never panic, and an
    // unterminated prefix must be reported as unbalanced, not silently
    // accepted as complete.
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("crates/lint/src/scope.rs")).expect("read source");
    let full = analyze("crates/lint/src/scope.rs", &src);
    assert!(full.tree.balanced);
    for frac in [10, 30, 50, 70, 90] {
        let mut cut = src.len() * frac / 100;
        while cut > 0 && !src.is_char_boundary(cut) {
            cut -= 1;
        }
        let a = analyze("crates/lint/src/scope.rs", &src[..cut]);
        // No assertion on `balanced` here — a lucky cut can land between
        // items — but the scope invariants must hold even on fragments.
        for s in &a.tree.scopes {
            assert!(s.open < s.close && s.close <= a.code.len());
        }
    }
}
