//! Property tests of the workspace's one JSON toolkit.
//!
//! The daemon's wire formats, the on-disk job store, the result cache,
//! and the obs / lint / bench reports all ride on this parser/writer
//! pair, so the properties that matter are: write→parse is the identity on every value the writer
//! can emit (including every f64 bit pattern except non-finite, every
//! Unicode string, deep nesting up to `MAX_DEPTH`), and the parser
//! never panics or accepts garbage on adversarial input.

// Test code: panics are failures (DESIGN.md §9).
#![allow(clippy::unwrap_used)]

use mbrpa_schema::json::{self, JsonValue, MAX_DEPTH};
use proptest::prelude::*;

/// Arbitrary JSON value with finite numbers only (the writer turns
/// NaN/inf into `null`, which is lossy by design and tested separately).
fn value() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        finite_num().prop_map(JsonValue::Num),
        any::<String>().prop_map(JsonValue::Str),
    ];
    leaf.prop_recursive(6, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Arr),
            proptest::collection::vec((any::<String>(), inner), 0..6).prop_map(JsonValue::Obj),
        ]
    })
}

fn finite_num() -> impl Strategy<Value = f64> {
    any::<f64>().prop_filter("finite", |v| v.is_finite())
}

proptest! {
    /// write→parse is the identity: whatever tree the daemon emits, a
    /// client (or the daemon itself, re-reading its own store) parses
    /// the same tree back.
    #[test]
    fn writer_output_reparses_to_the_same_tree(v in value()) {
        let text = v.to_json();
        let again = json::parse(&text)
            .unwrap_or_else(|e| panic!("writer emitted unparseable JSON: {e}\n{text}"));
        prop_assert_eq!(&again, &v, "round trip changed the tree: {}", text);
    }

    /// Every finite f64 survives write→parse with its exact bit pattern
    /// — the property the bit-identical result cache depends on. `-0.0`
    /// is the interesting case: it must come back as `-0.0`, not `0.0`.
    #[test]
    fn finite_numbers_roundtrip_bit_exactly(v in finite_num()) {
        let text = JsonValue::Num(v).to_json();
        let back = json::parse(&text).unwrap().as_f64().unwrap();
        prop_assert_eq!(
            back.to_bits(),
            v.to_bits(),
            "{} reparsed as {} ({:016x} != {:016x})",
            v, back, back.to_bits(), v.to_bits()
        );
    }

    /// Strings with any scalar values — escapes, control characters,
    /// astral-plane characters — survive write→parse unchanged.
    #[test]
    fn strings_roundtrip_exactly(text in any::<String>()) {
        let encoded = JsonValue::Str(text.clone()).to_json();
        let back = json::parse(&encoded).unwrap();
        prop_assert_eq!(back.as_str(), Some(text.as_str()));
    }

    /// The parser must never panic, whatever bytes arrive on the socket
    /// — reject with an error, or accept and then re-serialize cleanly.
    #[test]
    fn parser_never_panics_on_arbitrary_input(text in any::<String>()) {
        if let Ok(v) = json::parse(&text) {
            // anything accepted must also survive a round trip
            let again = json::parse(&v.to_json()).unwrap();
            prop_assert_eq!(again, v);
        }
    }

    /// Same, below the `&str` boundary: whatever bytes arrive (decoded
    /// the way every caller does before parsing), the parser returns —
    /// and nesting past `MAX_DEPTH` is refused at the bracket that
    /// crosses it, so the bytes after it are never descended into.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        depth in (MAX_DEPTH + 2)..4096usize,
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = json::parse(&text) {
            prop_assert_eq!(json::parse(&v.to_json()).unwrap(), v);
        }
        // an unclosed bracket run followed by those bytes: the error
        // must point at the first too-deep bracket, not past it
        let hostile = "[".repeat(depth) + &text;
        let err = json::parse(&hostile).unwrap_err();
        prop_assert_eq!(err.offset, MAX_DEPTH + 1, "{}", err);
    }

    /// Insertion order of object members is part of the contract (the
    /// store relies on byte-deterministic output): parse preserves it,
    /// and write emits it back in the same order.
    #[test]
    fn object_member_order_is_stable(
        keys in proptest::collection::vec("[a-z]{1,8}", 1..8),
    ) {
        let pairs: Vec<(String, JsonValue)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (format!("{k}{i}"), json::u(i)))
            .collect();
        let v = JsonValue::Obj(pairs.clone());
        let parsed = json::parse(&v.to_json()).unwrap();
        let got: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        prop_assert_eq!(got, want);
    }

    /// Nesting is bounded (stack-exhaustion guard): the deepest
    /// accepted document has `MAX_DEPTH + 1` brackets (the innermost
    /// value parses at depth `MAX_DEPTH`), and every deeper one is
    /// rejected with an error, never a crash.
    #[test]
    fn depth_limit_is_a_sharp_boundary(extra in 1usize..8) {
        let ok = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        prop_assert!(json::parse(&ok).is_ok());
        let n = MAX_DEPTH + 1 + extra;
        let deep = "[".repeat(n) + &"]".repeat(n);
        prop_assert!(json::parse(&deep).is_err());
    }

    /// Truncating a valid document at any byte boundary must produce a
    /// parse error (or, rarely, a shorter valid document — e.g. `42`
    /// truncated to `4`), never a panic or a hang.
    #[test]
    fn truncation_is_rejected_or_still_valid(v in value(), frac in 0.0f64..1.0) {
        let text = v.to_json();
        let cut = (text.len() as f64 * frac) as usize;
        if let Some(prefix) = text.get(..cut) {
            let _ = json::parse(prefix); // must simply not panic
        }
    }
}

/// The accept/reject documents the private lint and bench parsers were
/// unit-tested with before this toolkit replaced them, plus the shapes
/// their writers emitted (exponent-form numbers, a trailing newline).
#[test]
fn documents_of_the_replaced_parsers_keep_their_verdicts() {
    let accepted = [
        "{}",
        "{\"schema\":\"mbrpa.lint-findings/1\",\"files_scanned\":12,\"total\":1,\
         \"counts\":{\"unwrap\":1},\"findings\":[{\"file\":\"crates/x/src/lib.rs\",\
         \"line\":3,\"rule\":\"unwrap\",\"message\":\"bad \\\"quote\\\" and\\nnewline\"}]}\n",
        "{\"schema\":\"mbrpa.kernels-bench/2\",\"dispatch\":\"avx2\",\"threads\":1,\
         \"smoke\":false,\"cases\":[{\"name\":\"gemm_nn_f64\",\"shape\":\"m=4096 k=32 n=32\",\
         \"secs_new\":1.25e-3,\"secs_ref\":2.5e-3,\"speedup\":2e0,\"gflops\":6.7e0}]}\n",
        "{\"schema_version\":2,\"job\":null,\"total_wall_s\":1e-12,\"points\":[1e0,null,5e-1]}",
        " [ 1 , 2 ] ",
    ];
    for text in accepted {
        let v = json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(json::parse(&v.to_json()).unwrap(), v, "{text}");
    }
    let finding = json::parse(accepted[1]).unwrap();
    let message = finding.get("findings").unwrap().as_arr().unwrap()[0]
        .get("message")
        .unwrap();
    assert_eq!(message.as_str(), Some("bad \"quote\" and\nnewline"));
    let case = json::parse(accepted[2]).unwrap();
    let secs = case.get("cases").unwrap().as_arr().unwrap()[0]
        .get("secs_new")
        .unwrap();
    assert_eq!(secs.as_f64(), Some(1.25e-3));

    for text in [
        "not json",
        "{} x",
        "{\"a\":1}}",
        "[1,]",
        "{\"a\" 1}",
        "\"\\q\"",
        "\"\\u12",
        "\"open",
        "tru",
        // the replaced parsers let these three through; the strict one
        // (RFC 8259) must not
        "+1",
        "\"\\ud800\"",
        "\"raw\ncontrol\"",
    ] {
        assert!(json::parse(text).is_err(), "{text:?} should be rejected");
    }
}
