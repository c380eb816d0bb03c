//! Golden pinned fingerprints of the example inputs under `inputs/`.
//!
//! The canonical encoding (DESIGN.md §12) is a wire contract: cache
//! entries on disk are keyed by it, so an *accidental* change — a
//! reordered field, a different tag, a normalization tweak — would
//! silently orphan every existing cache entry, or worse, alias two
//! different calculations. These constants pin the exact 128-bit
//! fingerprint of each committed example input; if this test fails,
//! either revert the encoding change or bump
//! [`mbrpa_core::CANONICAL_VERSION`] **and** re-pin the constants here
//! (the version bump is what makes stale cache entries invalidate
//! cleanly instead of aliasing).

// Test code: panics are failures (DESIGN.md §9).
#![allow(clippy::unwrap_used)]

use mbrpa_core::io::parse_rpa_input;
use mbrpa_core::{fingerprint_hex, is_fingerprint_hex, CANONICAL_VERSION};

/// (file, pinned fingerprint) — values produced by the v2 encoding.
const GOLDEN: [(&str, &str); 3] = [
    ("Si8.rpa", "6f6f5dcccd8cadd02aa73f7443a01744"),
    ("Si7_vacancy.rpa", "0af5ca0c6601ca7f8aad331a26576125"),
    ("cluster_smoke.rpa", "5be8f3f52b2d1feedf88445221b91f55"),
];

fn input_text(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../inputs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn example_input_fingerprints_are_pinned() {
    assert_eq!(
        CANONICAL_VERSION, 2,
        "encoding version changed: re-pin the golden fingerprints below"
    );
    for (name, want) in GOLDEN {
        let input = parse_rpa_input(&input_text(name))
            .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        let got = fingerprint_hex(&input);
        assert!(is_fingerprint_hex(&got), "{name}: malformed hex `{got}`");
        assert_eq!(
            got, want,
            "{name}: fingerprint moved — the canonical encoding changed; \
             bump CANONICAL_VERSION and re-pin, or revert the change"
        );
    }
}

#[test]
fn example_fingerprints_are_pairwise_distinct() {
    // three different calculations must never share a cache key
    for (i, (name_a, fp_a)) in GOLDEN.iter().enumerate() {
        for (name_b, fp_b) in GOLDEN.iter().skip(i + 1) {
            assert_ne!(fp_a, fp_b, "{name_a} and {name_b} collide");
        }
    }
}

#[test]
fn reformatting_an_example_preserves_its_fingerprint() {
    // strip comments, lowercase keys, and reverse the line order of
    // Si8.rpa: same calculation, same pinned fingerprint
    let original = input_text("Si8.rpa");
    let reformatted: String = original
        .lines()
        .filter_map(|line| {
            let stripped = line.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                None
            } else {
                Some(format!("{}\n", stripped.to_ascii_lowercase()))
            }
        })
        .rev()
        .collect();
    assert_ne!(original, reformatted);
    let fp = fingerprint_hex(&parse_rpa_input(&reformatted).unwrap());
    assert_eq!(fp, GOLDEN[0].1);
}
