//! Reporting: human-readable findings table, schema-versioned JSON
//! emission, and the validator for the emitted JSON, both on the shared
//! `mbrpa_schema::json` toolkit (so CI can round-trip the artifact).

use crate::rules::{Finding, RULE_IDS};
use mbrpa_schema::json::{self, obj, require_str, require_uint, s, u, JsonValue};

/// Schema identifier written into every findings document. Bump on any
/// backwards-incompatible change and document it in DESIGN.md §9.
/// Drawn from the registry crate, like every other tag (`schema_tag`).
pub const SCHEMA: &str = mbrpa_schema::LINT_FINDINGS;

/// Render findings as an aligned human-readable table; empty findings
/// produce a one-line all-clear. Returned as a `String` so the library
/// itself never writes to stdout (rule `print` applies to us too).
pub fn human_table(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    if findings.is_empty() {
        out.push_str(&format!(
            "mbrpa-lint: {files_scanned} files scanned, 0 findings\n"
        ));
        return out;
    }
    let loc: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}", f.file, f.line))
        .collect();
    let wloc = loc.iter().map(String::len).max().unwrap_or(8).max(8);
    let wrule = findings
        .iter()
        .map(|f| f.rule.len())
        .max()
        .unwrap_or(4)
        .max(4);
    out.push_str(&format!(
        "{:<wloc$}  {:<wrule$}  message\n",
        "location", "rule"
    ));
    out.push_str(&format!(
        "{}  {}  {}\n",
        "-".repeat(wloc),
        "-".repeat(wrule),
        "-".repeat(7)
    ));
    for (f, l) in findings.iter().zip(&loc) {
        out.push_str(&format!("{l:<wloc$}  {:<wrule$}  {}\n", f.rule, f.message));
    }
    out.push_str(&format!(
        "\nmbrpa-lint: {files_scanned} files scanned, {} finding(s)\n",
        findings.len()
    ));
    out
}

/// Serialise findings to the `mbrpa.lint-findings/1` JSON document.
pub fn to_json(findings: &[Finding], files_scanned: usize) -> String {
    let counts = RULE_IDS
        .iter()
        .map(|&rule| (rule, u(findings.iter().filter(|f| f.rule == rule).count())))
        .collect();
    let rows = findings
        .iter()
        .map(|f| {
            obj(vec![
                ("file", s(&f.file)),
                ("line", u(f.line as usize)),
                ("rule", s(f.rule)),
                ("message", s(&f.message)),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("schema", s(SCHEMA)),
        ("files_scanned", u(files_scanned)),
        ("total", u(findings.len())),
        ("counts", obj(counts)),
        ("findings", JsonValue::Arr(rows)),
    ]);
    doc.to_json() + "\n"
}

/// Validate `text` against the `mbrpa.lint-findings/1` schema. Returns
/// the number of findings in the document.
pub fn validate(text: &str) -> Result<usize, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let schema = require_str(&root, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema '{schema}', expected '{SCHEMA}'"));
    }
    if require_uint(&root, "files_scanned")? < 1 {
        return Err("'files_scanned' must be >= 1".into());
    }
    let total = require_uint(&root, "total")?;
    let counts = root.get("counts").ok_or("missing object member `counts`")?;
    let mut count_sum = 0u64;
    for rule in RULE_IDS {
        count_sum += require_uint(counts, rule).map_err(|e| format!("counts: {e}"))?;
    }
    let findings = root
        .get("findings")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array member `findings`")?;
    if findings.len() as u64 != total || count_sum != total {
        return Err(format!(
            "inconsistent totals: total={total}, findings={}, counts sum={count_sum}",
            findings.len()
        ));
    }
    for (i, f) in findings.iter().enumerate() {
        let check = || -> Result<(), String> {
            require_str(f, "file")?;
            require_str(f, "message")?;
            let rule = require_str(f, "rule")?;
            if !RULE_IDS.contains(&rule) {
                return Err(format!("unknown rule '{rule}'"));
            }
            if require_uint(f, "line")? < 1 {
                return Err("'line' must be a positive integer".into());
            }
            Ok(())
        };
        check().map_err(|e| format!("finding {i}: {e}"))?;
    }
    Ok(findings.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            rule: "unwrap",
            message: "bad \"quote\" and\nnewline".into(),
        }]
    }

    #[test]
    fn json_round_trips_through_validator() {
        let doc = to_json(&sample(), 12);
        assert_eq!(validate(&doc), Ok(1));
        let empty = to_json(&[], 12);
        assert_eq!(validate(&empty), Ok(0));
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        let doc = to_json(&sample(), 12);
        assert!(validate(&doc.replace("lint-findings/1", "lint-findings/9")).is_err());
        // Inconsistent total.
        assert!(validate(&doc.replace("\"total\":1", "\"total\":2")).is_err());
        // Trailing garbage.
        assert!(validate(&format!("{doc} x")).is_err());
    }

    #[test]
    fn human_table_mentions_every_finding() {
        let t = human_table(&sample(), 12);
        assert!(t.contains("crates/x/src/lib.rs:3"));
        assert!(t.contains("unwrap"));
        assert!(human_table(&[], 3).contains("0 findings"));
    }
}
