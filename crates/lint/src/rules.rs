//! Rule engine: walks a lexed token stream — and, for the structural
//! rules, the scope tree built over it ([`crate::scope`]) — and emits
//! findings.
//!
//! Thirteen rules enforce invariants the compiler cannot see (rule ids
//! are the strings used in `// lint: allow(<rule>)` suppressions):
//!
//! | id                | invariant                                               |
//! |-------------------|---------------------------------------------------------|
//! | `safety`          | every `unsafe` carries an adjacent `// SAFETY:` comment  |
//! | `unwrap`          | no `.unwrap()`/`.expect()` in library non-test code      |
//! | `float_cmp`       | no `==`/`!=` against float literals outside tests        |
//! | `hash_iter`       | no `HashMap`/`HashSet` in numeric crates                 |
//! | `print`           | no `println!`/`eprintln!` in library crates              |
//! | `narrow_cast`     | no narrowing `as` casts inside index expressions         |
//! | `arch_intrinsics` | `std::arch`/`core::arch` only inside `crates/simd`       |
//! | `atomic_ordering` | non-`SeqCst` `Ordering::*` carries a `// ord:` rationale |
//! | `unsafe_wrapper`  | SIMD `unsafe` blocks sit behind corner-checked safe fns  |
//! | `nested_par`      | no rayon calls nested under an already-parallel region   |
//! | `lock_hold`       | no blocking call while a lock guard is live (`serve`)    |
//! | `schema_tag`      | `mbrpa.*/N` literals only in the `mbrpa-schema` registry |
//! | `unreached_pub`   | a library `pub` item is named by shipped non-test code   |
//! | `unused_allow`    | (meta) a suppression that matched no finding             |
//!
//! Suppressions: `// lint: allow(<rule>) — <justification>` on the same
//! line as the violation or on the line directly above it. Every
//! suppression must actually suppress something, otherwise the engine
//! reports `unused_allow` — stale justifications are themselves a lie
//! about the code and are treated as findings.
//!
//! Each file is lexed and structurally parsed exactly once
//! ([`analyze`]); every rule shares that [`Analysis`]. [`check_file`]
//! is the analyze-then-run convenience used by tests and one-shot
//! callers. `unreached_pub` alone needs every file: [`Reachability`]
//! gathers its inputs from each [`Analysis`] in the same pass and
//! resolves them once the last file is read.

use crate::lexer::{lex, TokKind, Token};
use crate::scope::{Owner, ScopeKind, ScopeTree};
use std::time::{Duration, Instant};

/// One rule violation (or unused suppression) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id (`safety`, `unwrap`, …, `unused_allow`).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// All rule ids, in reporting order. `unused_allow` is the meta-rule
/// for suppressions that matched nothing.
pub const RULE_IDS: [&str; 14] = [
    "safety",
    "unwrap",
    "float_cmp",
    "hash_iter",
    "print",
    "narrow_cast",
    "arch_intrinsics",
    "atomic_ordering",
    "unsafe_wrapper",
    "nested_par",
    "lock_hold",
    "schema_tag",
    "unreached_pub",
    "unused_allow",
];

/// The one crate allowed to touch `std::arch`/`core::arch` directly
/// (rule `arch_intrinsics`): every intrinsic lives behind its safe,
/// dispatch-checked API so bit-identity across paths stays auditable
/// in a single place. Rule `unsafe_wrapper` polices the wrappers
/// themselves in the same crate.
pub const ARCH_CRATE: &str = "simd";

/// The crate holding the shared registry of `mbrpa.*/N` schema tags
/// (rule `schema_tag`): the only non-test code allowed to spell one.
pub const SCHEMA_CRATE: &str = "schema";

/// The crate running jobs on a shared executor pool, where holding a
/// mutex across a blocking call stalls every worker (rule `lock_hold`).
pub const SERVE_CRATE: &str = "serve";

/// Crates whose results are numeric and must not depend on hash-map
/// iteration order (rule `hash_iter`).
pub const NUMERIC_CRATES: [&str; 6] = ["simd", "linalg", "grid", "solver", "core", "dft"];

/// Crates held to library discipline (rules `unwrap` and `print`):
/// errors propagate, output goes through `mbrpa-obs`. The `bench`
/// crate is deliberately absent — its panics and stdout tables are its
/// CLI interface, not incidental behaviour.
pub const LIBRARY_CRATES: [&str; 12] = [
    "simd", "linalg", "grid", "solver", "core", "dft", "ckpt", "obs", "lint", "serve", "schema",
    "mbrpa",
];

/// How a file participates in the rule set, derived from its
/// workspace-relative path by [`classify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Short crate name (`linalg`, `bench`, `mbrpa` for the root crate).
    pub crate_name: String,
    /// Library-crate source (not a test, bench, example, or bin target).
    pub is_library: bool,
    /// Source inside a crate listed in [`NUMERIC_CRATES`].
    pub is_numeric: bool,
    /// Whole file is test/bench/example code.
    pub is_test_file: bool,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        "mbrpa".to_string()
    };
    let is_test_file = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"));
    let in_src = parts.contains(&"src");
    let is_bin_target = parts.contains(&"bin") || rel_path.ends_with("src/main.rs");
    let is_library =
        LIBRARY_CRATES.contains(&crate_name.as_str()) && in_src && !is_bin_target && !is_test_file;
    let is_numeric = NUMERIC_CRATES.contains(&crate_name.as_str()) && in_src && !is_test_file;
    FileClass {
        crate_name,
        is_library,
        is_numeric,
        is_test_file,
    }
}

/// An inline suppression comment and whether any finding consumed it.
#[derive(Clone)]
struct Suppression {
    line: u32,
    rule: String,
    /// Lines this suppression covers: its own line and the next line
    /// containing code (so it can sit above the violating statement).
    covered: [u32; 2],
    used: bool,
}

/// Everything derived from one file exactly once and shared by every
/// rule: the comment-free code view, the scope tree, the test lines,
/// suppression comments, and marker-comment line sets. Build with
/// [`analyze`], run the rules with [`run_rules`].
pub struct Analysis {
    /// Workspace-relative path (forward slashes) the file was read as.
    pub rel_path: String,
    /// Path-derived rule participation.
    pub class: FileClass,
    /// The code view every rule walks: the file's tokens without its
    /// comments, in order.
    pub code: Vec<Token>,
    /// Scope tree over the code view (indices are code-view positions).
    pub tree: ScopeTree,
    /// `test_line[l]`: line `l` lies in a `#[cfg(test)]` / `#[test]` item.
    test_line: Vec<bool>,
    suppressions: Vec<Suppression>,
    safety_lines: Vec<u32>,
    ord_lines: Vec<u32>,
    comment_only: Vec<u32>,
    /// Wall time spent lexing this file.
    pub lex_time: Duration,
    /// Wall time spent building the scope tree and comment indices.
    pub structure_time: Duration,
}

/// Lex and structurally parse one file. `rel_path` is
/// workspace-relative with `/` separators; `src` is the file contents.
pub fn analyze(rel_path: &str, src: &str) -> Analysis {
    let class = classify(rel_path);
    let t0 = Instant::now();
    let tokens = lex(src);
    let lex_time = t0.elapsed();

    let t1 = Instant::now();
    let suppressions = collect_suppressions(&tokens);
    let safety_lines = marker_comment_lines(&tokens, "SAFETY:", false);
    let ord_lines = marker_comment_lines(&tokens, "ord:", true);
    let comment_only = comment_only_lines(&tokens);
    let code: Vec<Token> = tokens
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let tree = ScopeTree::build(&code);
    let test_line = test_line_mask(&code, class.is_test_file);
    let structure_time = t1.elapsed();

    Analysis {
        rel_path: rel_path.to_string(),
        class,
        code,
        tree,
        test_line,
        suppressions,
        safety_lines,
        ord_lines,
        comment_only,
        lex_time,
        structure_time,
    }
}

impl Analysis {
    /// True if `line` is test code: the file is a test target, or the
    /// line lies in a `#[cfg(test)]` / `#[test]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.class.is_test_file || self.test_line.get(line as usize) == Some(&true)
    }
}

/// Scan one file: analyze then run every rule. Convenience wrapper for
/// tests and one-shot callers; `scan_workspace` keeps the [`Analysis`]
/// to aggregate timing.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Finding> {
    run_rules(&analyze(rel_path, src))
}

/// Run every rule over a prebuilt [`Analysis`] and return the findings.
pub fn run_rules(a: &Analysis) -> Vec<Finding> {
    let class = &a.class;
    let code = &a.code;
    let mut suppressions = a.suppressions.clone();

    let mut findings = Vec::new();
    let mut emit = |line: u32, rule: &'static str, message: String| {
        for s in suppressions.iter_mut() {
            if s.rule == rule && s.covered.contains(&line) {
                s.used = true;
                return;
            }
        }
        findings.push(Finding {
            file: a.rel_path.to_string(),
            line,
            rule,
            message,
        });
    };

    // Bracket depth for `narrow_cast`: depth of `[` … `]` nesting,
    // excluding attribute brackets (`#[…]` / `#![…]`).
    let mut index_depth: usize = 0;
    let mut attr_depth_at: Option<usize> = None;

    for (i, tok) in code.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|j| code.get(j));
        let next = code.get(i + 1);
        let next2 = code.get(i + 2);

        match (tok.kind, tok.text.as_str()) {
            (TokKind::Punct, "[") => {
                // `#[…]` and `#![…]` open attribute brackets, not indexing.
                let prev2 = i.checked_sub(2).and_then(|j| code.get(j));
                let after_hash = matches!(prev, Some(p) if p.text == "#")
                    || (matches!(prev, Some(p) if p.text == "!")
                        && matches!(prev2, Some(p2) if p2.text == "#"));
                index_depth += 1;
                if after_hash && attr_depth_at.is_none() {
                    attr_depth_at = Some(index_depth);
                }
            }
            (TokKind::Punct, "]") => {
                if attr_depth_at == Some(index_depth) {
                    attr_depth_at = None;
                }
                index_depth = index_depth.saturating_sub(1);
            }
            // R1: unsafe without adjacent SAFETY comment. Applies
            // everywhere, tests included — soundness arguments are not
            // optional in test code.
            (TokKind::Ident, "unsafe") => {
                let documented = a.safety_lines.contains(&tok.line)
                    || covered_by_marker_above(tok.line, &a.safety_lines, &a.comment_only);
                if !documented {
                    emit(
                        tok.line,
                        "safety",
                        "`unsafe` without an adjacent `// SAFETY:` comment; state the \
                         soundness argument on the line above"
                            .to_string(),
                    );
                }
            }
            // R2: unwrap/expect in library non-test code.
            (TokKind::Ident, "unwrap" | "expect")
                if class.is_library
                    && !a.is_test_line(tok.line)
                    && matches!(prev, Some(p) if p.text == ".")
                    && matches!(next, Some(n) if n.text == "(") =>
            {
                emit(
                    tok.line,
                    "unwrap",
                    format!(
                        "`.{}()` in library code: propagate the error, or justify with \
                         `// lint: allow(unwrap) — <why it cannot fail>`",
                        tok.text
                    ),
                );
            }
            // R3: float equality outside tests.
            (TokKind::Punct, "==" | "!=") if !a.is_test_line(tok.line) => {
                let float_side = matches!(prev, Some(p) if p.kind == TokKind::Float)
                    || matches!(next, Some(n) if n.kind == TokKind::Float)
                    || is_float_path(next, next2);
                if float_side {
                    emit(
                        tok.line,
                        "float_cmp",
                        "float equality: compare against an explicit tolerance, or \
                         guard a structural zero with `exactly_zero`"
                            .to_string(),
                    );
                }
            }
            // R4: hash collections in numeric crates.
            (TokKind::Ident, "HashMap" | "HashSet")
                if class.is_numeric && !a.is_test_line(tok.line) =>
            {
                emit(
                    tok.line,
                    "hash_iter",
                    format!(
                        "`{}` in a numeric crate: iteration order can leak into \
                         results; use `BTreeMap`/`BTreeSet` or justify with \
                         `// lint: allow(hash_iter) — <why order never escapes>`",
                        tok.text
                    ),
                );
            }
            // R5: direct stdout/stderr in library crates.
            (TokKind::Ident, "println" | "eprintln" | "print" | "eprint")
                if class.is_library
                    && !a.is_test_line(tok.line)
                    && matches!(next, Some(n) if n.text == "!")
                    // `writeln!(f, …)`-style callees and method names
                    // (`w.print!`…) don't exist; but guard against
                    // `obs::print` paths by requiring no leading `::`.
                    && !matches!(prev, Some(p) if p.text == "::" || p.text == ".") =>
            {
                emit(
                    tok.line,
                    "print",
                    format!(
                        "`{}!` in a library crate: route diagnostics through \
                         `mbrpa-obs` or return them to the caller",
                        tok.text
                    ),
                );
            }
            // R6: narrowing `as` casts inside index expressions.
            (TokKind::Ident, "as")
                if index_depth > 0
                    && attr_depth_at.is_none()
                    && !a.is_test_line(tok.line)
                    && matches!(
                        next,
                        Some(n) if matches!(
                            n.text.as_str(),
                            "u8" | "u16" | "u32" | "i8" | "i16" | "i32"
                        )
                    ) =>
            {
                emit(
                    tok.line,
                    "narrow_cast",
                    format!(
                        "narrowing `as {}` inside an index expression can silently \
                         truncate; index with `usize` and convert with `try_from`",
                        next.map(|n| n.text.as_str()).unwrap_or("_")
                    ),
                );
            }
            // R7: raw CPU intrinsics outside the dedicated SIMD crate.
            // `crates/simd` is the single audited home for `std::arch` /
            // `core::arch`: its scalar oracle defines the canonical
            // result bit-for-bit, so intrinsics sprinkled anywhere else
            // would silently fork the numerics.
            (TokKind::Ident, "std" | "core")
                if class.crate_name != ARCH_CRATE
                    && matches!(next, Some(n) if n.text == "::")
                    && matches!(next2, Some(n2) if n2.text == "arch") =>
            {
                emit(
                    tok.line,
                    "arch_intrinsics",
                    format!(
                        "`{}::arch` outside `crates/simd`: route through the \
                         `mbrpa-simd` dispatch API so every intrinsic keeps a \
                         bit-identical scalar twin",
                        tok.text
                    ),
                );
            }
            _ => {}
        }
    }

    // Structural rules (R8–R12): need the scope tree, not just the
    // token window. See DESIGN.md §9 for the per-rule semantics.
    rule_atomic_ordering(a, &mut emit);
    rule_unsafe_wrapper(a, &mut emit);
    rule_nested_par(a, &mut emit);
    rule_lock_hold(a, &mut emit);
    rule_schema_tag(a, &mut emit);

    for s in &suppressions {
        // `unreached_pub` allows are settled workspace-wide, by
        // [`Reachability::resolve`].
        if !s.used && s.rule != UNREACHED_PUB {
            findings.push(Finding {
                file: a.rel_path.to_string(),
                line: s.line,
                rule: "unused_allow",
                message: format!(
                    "suppression `lint: allow({})` matched no finding; remove it",
                    s.rule
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------
// R8: atomic_ordering
// ---------------------------------------------------------------------

/// Non-`SeqCst` memory orderings that must carry a `// ord:` rationale.
/// `SeqCst` is exempt: it is the conservative default, so demanding a
/// justification would punish the safe choice. `cmp::Ordering` variants
/// (`Less`/`Equal`/`Greater`) never collide with this list.
const RELAXED_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// Every weakened `Ordering::*` use must carry an adjacent `// ord:`
/// justification, mirroring the SAFETY-comment discipline: the comment
/// names the pairing (which store a load observes, or why no pairing is
/// needed) so an auditor can check the protocol without re-deriving it.
/// Applies everywhere, tests included — a racy test is still a race.
fn rule_atomic_ordering(a: &Analysis, emit: &mut dyn FnMut(u32, &'static str, String)) {
    let code = &a.code;
    let mut seen_lines: Vec<u32> = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident || tok.text != "Ordering" {
            continue;
        }
        if !matches!(code.get(i + 1), Some(n) if n.text == "::") {
            continue;
        }
        let Some(variant) = code
            .get(i + 2)
            .filter(|v| RELAXED_ORDERINGS.contains(&v.text.as_str()))
        else {
            continue;
        };
        // One finding (and one justification) per line: paired
        // `compare_exchange(…, Relaxed, Relaxed)` orderings share it.
        if seen_lines.contains(&tok.line) {
            continue;
        }
        seen_lines.push(tok.line);
        let justified = a.ord_lines.contains(&tok.line)
            || covered_by_marker_above(tok.line, &a.ord_lines, &a.comment_only);
        if !justified {
            emit(
                tok.line,
                "atomic_ordering",
                format!(
                    "`Ordering::{}` without an adjacent `// ord:` comment; state \
                     which access it pairs with (or why none is needed) on the \
                     same line or the line above",
                    variant.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// R9: unsafe_wrapper
// ---------------------------------------------------------------------

/// Release-mode-effective precondition checks. `debug_assert!` is
/// deliberately absent: it compiles out of release builds, so it cannot
/// carry a soundness obligation.
const CHECK_MACROS: [&str; 4] = ["assert", "assert_eq", "assert_ne", "panic"];

/// In `crates/simd`, every `unsafe` block must sit inside a *safe*
/// function that proves the preconditions first (the two-corner-check
/// pattern of DESIGN.md §8), and `unsafe fn` entry points must not be
/// fully public — callers go through the checked safe wrappers.
/// `unsafe fn` bodies and `macro_rules!` bodies are exempt (their
/// obligations transfer to callers / expansion sites), and the `safety`
/// rule still demands a SAFETY comment everywhere.
fn rule_unsafe_wrapper(a: &Analysis, emit: &mut dyn FnMut(u32, &'static str, String)) {
    if a.class.crate_name != ARCH_CRATE {
        return;
    }
    let code = &a.code;
    // (a) Fully-public unsafe fn: the crate's API surface must be the
    // checked safe wrappers, not the raw kernels.
    for s in &a.tree.scopes {
        if let Owner::Fn {
            name,
            line,
            is_unsafe: true,
            is_pub: true,
        } = &s.owner
        {
            if !a.is_test_line(*line) {
                emit(
                    *line,
                    "unsafe_wrapper",
                    format!(
                        "fully-public `unsafe fn {name}` in the SIMD crate: export a \
                         safe wrapper that proves the bounds/alignment preconditions \
                         and keep the unsafe entry point `pub(crate)`"
                    ),
                );
            }
        }
    }
    // (b) `unsafe` blocks inside safe functions must be preceded by a
    // release-effective check in the same function body.
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident || tok.text != "unsafe" {
            continue;
        }
        if !matches!(code.get(i + 1), Some(n) if n.text == "{") {
            continue;
        }
        if a.is_test_line(tok.line) {
            continue;
        }
        let Some(sid) = a.tree.scope_of[i] else {
            continue; // top-level `static … = unsafe { … }`: no wrapper to check
        };
        if a.tree.inside_macro_rules(sid) {
            continue;
        }
        let Some(fid) = a.tree.enclosing_fn(sid) else {
            emit(
                tok.line,
                "unsafe_wrapper",
                "`unsafe` block outside any function body in the SIMD crate: move \
                 it behind a bounds-checked safe wrapper"
                    .to_string(),
            );
            continue;
        };
        if matches!(
            a.tree.scopes[fid].owner,
            Owner::Fn {
                is_unsafe: true,
                ..
            }
        ) {
            continue; // obligations transfer to the (checked) caller
        }
        let fn_open = a.tree.scopes[fid].open;
        let checked = (fn_open + 1..i).any(|j| {
            code[j].kind == TokKind::Ident
                && CHECK_MACROS.contains(&code[j].text.as_str())
                && matches!(code.get(j + 1), Some(n) if n.text == "!")
        });
        if !checked {
            emit(
                tok.line,
                "unsafe_wrapper",
                "`unsafe` block in a safe SIMD function with no preceding \
                 `assert!`-family check: prove the bounds/alignment preconditions \
                 first (two-corner-check pattern, DESIGN.md §8)"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// R10: nested_par
// ---------------------------------------------------------------------

/// Rayon entry points that spawn work on the shared pool.
const PAR_METHODS: [&str; 9] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
    "par_extend",
    "par_sort",
    "par_sort_unstable",
];

/// True if code index `i` is a rayon parallel call: `.par_iter()`-style
/// method or `rayon::scope(`/`rayon::join(`.
fn is_par_call(code: &[Token], i: usize) -> bool {
    let t = &code[i];
    if t.kind != TokKind::Ident {
        return false;
    }
    let prev = |k: usize| i.checked_sub(k).map(|j| code[j].text.as_str());
    let next_is_paren = matches!(code.get(i + 1), Some(n) if n.text == "(");
    if PAR_METHODS.contains(&t.text.as_str()) {
        return prev(1) == Some(".") && next_is_paren;
    }
    (t.text == "scope" || t.text == "join")
        && prev(1) == Some("::")
        && prev(2) == Some("rayon")
        && next_is_paren
}

/// True if code index `i` is a call of the `outer_scope` RAII guard
/// (`crates/linalg/src/par.rs`) — excluding its own definition.
fn is_outer_guard(code: &[Token], i: usize) -> bool {
    let t = &code[i];
    t.kind == TokKind::Ident
        && t.text == "outer_scope"
        && matches!(code.get(i + 1), Some(n) if n.text == "(")
        && i.checked_sub(1).map(|j| code[j].text.as_str()) != Some("fn")
}

/// Rayon calls syntactically nested under an already-parallel region —
/// the exact bug class the PR-3 `outer_scope` accounting exists to
/// prevent. Two triggers, walking the scope chain up to the enclosing
/// function:
///
/// * a live `outer_scope(…)` guard bound earlier in a strict-ancestor
///   scope (RAII: it stays live to the end of that scope), or
/// * the call sits inside an argument closure of another rayon call
///   (same statement, a brace crossed on the way up — so the sanctioned
///   `a.par_iter().zip(b.into_par_iter())` stays clean, since zip's
///   argument crosses only parens).
///
/// The innermost scope of the call itself is never scanned: binding the
/// guard and immediately going parallel *in the same scope* is the
/// sanctioned "this is the outer region" idiom (`core::chi0`).
fn rule_nested_par(a: &Analysis, emit: &mut dyn FnMut(u32, &'static str, String)) {
    let code = &a.code;
    'calls: for i in 0..code.len() {
        if !is_par_call(code, i) {
            continue;
        }
        let mut cur = a.tree.scope_of[i];
        let mut crossed_brace = false;
        while let Some(cid) = cur {
            let sc = &a.tree.scopes[cid];
            if sc.owner != Owner::Other {
                break; // reached the enclosing fn (or macro_rules) body
            }
            let Some(pid) = sc.parent else { break };
            let parent_open = a.tree.scopes[pid].open;
            // (a) live guard earlier in the ancestor region.
            if crossed_brace || sc.kind == ScopeKind::Brace {
                for j in (parent_open + 1)..sc.open {
                    if a.tree.scope_of[j] == Some(pid) && is_outer_guard(code, j) {
                        emit(
                            code[i].line,
                            "nested_par",
                            format!(
                                "rayon `{}` under a live `outer_scope` guard (bound at \
                                 line {}): this region is already the outer parallel \
                                 level; size inner work with `inner_slots()` or justify \
                                 with `// lint: allow(nested_par) — <why>`",
                                code[i].text, code[j].line
                            ),
                        );
                        continue 'calls;
                    }
                }
            }
            // (b) inside an argument closure of another rayon call:
            // scan back through the same statement only.
            if crossed_brace && sc.kind == ScopeKind::Paren {
                let mut j = sc.open;
                while j > parent_open + 1 {
                    j -= 1;
                    if a.tree.scope_of[j] != Some(pid) {
                        continue;
                    }
                    let txt = code[j].text.as_str();
                    if matches!(txt, ";" | "=>" | "{" | "}") {
                        break; // statement boundary
                    }
                    if is_par_call(code, j) {
                        emit(
                            code[i].line,
                            "nested_par",
                            format!(
                                "rayon `{}` nested inside the `{}` call at line {}: \
                                 nested pool use oversubscribes the shared executors; \
                                 restructure or justify with \
                                 `// lint: allow(nested_par) — <why>`",
                                code[i].text, code[j].text, code[j].line
                            ),
                        );
                        continue 'calls;
                    }
                }
            }
            crossed_brace |= sc.kind == ScopeKind::Brace;
            cur = Some(pid);
        }
    }
}

// ---------------------------------------------------------------------
// R11: lock_hold
// ---------------------------------------------------------------------

/// Calls that can block the thread regardless of argument shape.
const BLOCKING_CALLS: [&str; 10] = [
    "sleep",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "connect",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "write_all",
];

/// Calls that only count as blocking with an empty argument list — so
/// `channel.recv()` and `handle.join()` match but `PathBuf::join(p)`
/// does not.
const BLOCKING_CALLS_NO_ARGS: [&str; 3] = ["recv", "join", "accept"];

/// True if code index `i` is a potentially-blocking call site.
fn is_blocking_call(code: &[Token], i: usize) -> bool {
    let t = &code[i];
    if t.kind != TokKind::Ident {
        return false;
    }
    let called_prev = i
        .checked_sub(1)
        .map(|j| matches!(code[j].text.as_str(), "." | "::"))
        .unwrap_or(false);
    if !called_prev || !matches!(code.get(i + 1), Some(n) if n.text == "(") {
        return false;
    }
    if BLOCKING_CALLS.contains(&t.text.as_str()) {
        return true;
    }
    BLOCKING_CALLS_NO_ARGS.contains(&t.text.as_str())
        && matches!(code.get(i + 2), Some(n) if n.text == ")")
}

/// True if code index `i` acquires a lock guard: the `lock(&mutex)`
/// poisoning-tolerant helper (`crates/serve`), a `.lock()` method, or
/// an argument-free `.read()`/`.write()` (RwLock).
fn is_lock_acquire(code: &[Token], i: usize) -> bool {
    let t = &code[i];
    if t.kind != TokKind::Ident || !matches!(code.get(i + 1), Some(n) if n.text == "(") {
        return false;
    }
    let prev = i.checked_sub(1).map(|j| code[j].text.as_str());
    match t.text.as_str() {
        "lock" => prev != Some("fn"), // exclude the helper's definition
        "read" | "write" => {
            prev == Some(".") && matches!(code.get(i + 2), Some(n) if n.text == ")")
        }
        _ => false,
    }
}

/// A lock guard bound in a scope that also performs a blocking
/// channel/IO call stalls every worker sharing that mutex — on the
/// serve executor pool that is a deadlock-adjacent outage, not a perf
/// bug. Flags guards that are *retained* (`let g = lock(…);`,
/// `let Ok(g) = rx.lock() else …;`) when a blocking call follows in the
/// same scope, and scrutinee temporaries (`match lock(…).x() { … }`,
/// `for x in lock(…).iter() { … }`, `while let`/`if let`) whose guard
/// lives across the body. Temporaries consumed in one statement
/// (`lock(&q).claim()`) are fine and not flagged.
fn rule_lock_hold(a: &Analysis, emit: &mut dyn FnMut(u32, &'static str, String)) {
    if a.class.crate_name != SERVE_CRATE || a.class.is_test_file {
        return;
    }
    let code = &a.code;
    for (sid, s) in a.tree.scopes.iter().enumerate() {
        if s.kind != ScopeKind::Brace {
            continue;
        }
        let direct: Vec<usize> = (s.open + 1..s.close.min(a.tree.scope_of.len()))
            .filter(|&j| a.tree.scope_of[j] == Some(sid))
            .collect();
        let mut d = 0;
        while d < direct.len() {
            let i = direct[d];
            let kw = code[i].text.as_str();
            let is_kw_ident = code[i].kind == TokKind::Ident;
            // `match`/`for` headers always extend scrutinee temporaries
            // across the body; `while`/`if` only in their `let` form.
            let header_kw = is_kw_ident
                && (matches!(kw, "match" | "for")
                    || (matches!(kw, "while" | "if")
                        && matches!(direct.get(d + 1), Some(&n) if code[n].text == "let")));
            if header_kw {
                d = check_header_guard(a, &direct, d, emit);
                continue;
            }
            if is_kw_ident && kw == "let" {
                d = check_let_guard(a, &direct, d, s.close, emit);
                continue;
            }
            d += 1;
        }
    }
}

/// Handle `match`/`for`/`while let`/`if let` at `direct[d]`: if the
/// header acquires a guard, the scrutinee temporary lives across the
/// body block — scan it for blocking calls. Returns the next `direct`
/// position to resume from.
fn check_header_guard(
    a: &Analysis,
    direct: &[usize],
    d: usize,
    emit: &mut dyn FnMut(u32, &'static str, String),
) -> usize {
    let code = &a.code;
    let mut acquire: Option<usize> = None;
    let mut q = d + 1;
    while q < direct.len() {
        let j = direct[q];
        if code[j].text == "{" {
            // Body block found.
            if let (Some(acq), Some(body)) = (acquire, a.tree.opened_at(j)) {
                if !a.is_test_line(code[acq].line) {
                    scan_blocking_range(
                        code,
                        a.tree.scopes[body].open + 1,
                        a.tree.scopes[body].close,
                        code[acq].line,
                        emit,
                    );
                }
            }
            return q + 1;
        }
        if matches!(code[j].text.as_str(), ";" | "=>") {
            return q + 1; // malformed/braceless — bail out of the header
        }
        if acquire.is_none() && is_lock_acquire(code, j) {
            acquire = Some(j);
        }
        q += 1;
    }
    direct.len()
}

/// Handle a `let` statement at `direct[d]`: if it binds a lock guard
/// that is retained (not consumed by a further method chain), the guard
/// lives to the end of the enclosing scope — scan the rest of the scope
/// for blocking calls. Returns the next `direct` position.
fn check_let_guard(
    a: &Analysis,
    direct: &[usize],
    d: usize,
    scope_close: usize,
    emit: &mut dyn FnMut(u32, &'static str, String),
) -> usize {
    let code = &a.code;
    // Find the statement's end (`;` at this level) and the acquisition.
    let mut acquire: Option<usize> = None;
    let mut retained = false;
    let mut q = d + 1;
    while q < direct.len() {
        let j = direct[q];
        let txt = code[j].text.as_str();
        if txt == ";" {
            break;
        }
        if txt == "{" {
            // `let x = if c { … }` / let-else block: skip over it by
            // resuming after the block (its contents are not direct).
            q += 1;
            continue;
        }
        if acquire.is_none() && is_lock_acquire(code, j) {
            acquire = Some(j);
            // Retention: after the call's `)`, only `.unwrap()` /
            // `.expect(…)` / `.unwrap_or_else(…)` chains keep the guard;
            // any other continuation consumes it as a temporary.
            let mut r = q + 2; // skip ident and `(` (the `)` is not direct)
            loop {
                let dot = direct.get(r).map(|&x| code[x].text.as_str());
                let meth = direct.get(r + 1).map(|&x| code[x].text.as_str());
                if dot == Some(".") && matches!(meth, Some("unwrap" | "expect" | "unwrap_or_else"))
                {
                    r += 3; // `.`, method ident, `(` — `)` is not direct
                    continue;
                }
                retained = !matches!(dot, Some("."));
                break;
            }
        }
        q += 1;
    }
    let stmt_end = direct.get(q).copied().unwrap_or(scope_close);
    if let Some(acq) = acquire {
        if retained && !a.is_test_line(code[acq].line) {
            scan_blocking_range(code, stmt_end + 1, scope_close, code[acq].line, emit);
        }
    }
    q + 1
}

/// Emit at most one `lock_hold` finding for the first blocking call in
/// `[start, end)` (code-view indices, nested scopes included).
fn scan_blocking_range(
    code: &[Token],
    start: usize,
    end: usize,
    guard_line: u32,
    emit: &mut dyn FnMut(u32, &'static str, String),
) {
    for k in start..end.min(code.len()) {
        if is_blocking_call(code, k) {
            emit(
                code[k].line,
                "lock_hold",
                format!(
                    "`.{}()` can block while the lock guard acquired at line {} is \
                     still live; drop the guard first (narrow the scope) or justify \
                     with `// lint: allow(lock_hold) — <why>`",
                    code[k].text, guard_line
                ),
            );
            return;
        }
    }
}

// ---------------------------------------------------------------------
// R12: schema_tag
// ---------------------------------------------------------------------

/// `mbrpa.*/N` schema tags may only be spelled inside the
/// `mbrpa-schema` registry crate; everyone else references the
/// constants, so a writer and its validator cannot drift apart. Test
/// code is exempt — suites deliberately forge wrong-schema documents.
fn rule_schema_tag(a: &Analysis, emit: &mut dyn FnMut(u32, &'static str, String)) {
    if a.class.crate_name == SCHEMA_CRATE {
        return;
    }
    for tok in &a.code {
        if tok.kind != TokKind::Str || a.is_test_line(tok.line) {
            continue;
        }
        if contains_schema_tag(&tok.text) {
            emit(
                tok.line,
                "schema_tag",
                "schema tag literal outside the `mbrpa-schema` registry: reference \
                 the `mbrpa_schema::*` constant so writers and validators cannot \
                 drift"
                    .to_string(),
            );
        }
    }
}

/// True if `s` contains a `mbrpa.<name>/<digits>` schema tag, where
/// `<name>` is lowercase `[a-z0-9-]+`.
fn contains_schema_tag(s: &str) -> bool {
    for (pos, _) in s.match_indices("mbrpa.") {
        let rest = &s[pos + "mbrpa.".len()..];
        let name_len = rest
            .bytes()
            .take_while(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'-')
            .count();
        if name_len == 0 {
            continue;
        }
        let mut tail = rest[name_len..].bytes();
        if tail.next() == Some(b'/') && tail.next().is_some_and(|b| b.is_ascii_digit()) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// R13: unreached_pub (workspace-level)
// ---------------------------------------------------------------------

const UNREACHED_PUB: &str = "unreached_pub";

/// Keywords whose next identifier is the name of the item they define.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Workspace-level state of rule `unreached_pub`: a `pub` item in the
/// non-test `src` of a [`LIBRARY_CRATES`] member other than the lint and
/// root crates, whose name shipped code — those sources plus the root
/// `src/` with the binaries — never spells outside item definitions and
/// `pub use` re-exports. Callers in benches, examples, tests and
/// `#[cfg(test)]` do not count. Matching is by name, so a shared name can
/// only hide a finding, never invent one. `scan_workspace` feeds every
/// file's [`Analysis`] to [`add`] inside its one pass and calls
/// [`resolve`] after the last.
///
/// [`add`]: Reachability::add
/// [`resolve`]: Reachability::resolve
#[derive(Default)]
pub struct Reachability {
    /// `(file, line, name)` of each checked `pub` item.
    items: Vec<(String, u32, String)>,
    /// `(file, suppression)` of each `allow(unreached_pub)`.
    allows: Vec<(String, Suppression)>,
    /// Every identifier shipped non-test code uses.
    reached: std::collections::HashSet<String>,
}

impl Reachability {
    /// Take one file's `pub` items, `allow(unreached_pub)` comments and,
    /// if it ships, the names it uses.
    pub fn add(&mut self, a: &Analysis) {
        let file = &a.rel_path;
        for s in a.suppressions.iter().filter(|s| s.rule == UNREACHED_PUB) {
            self.allows.push((file.clone(), s.clone()));
        }
        let in_crate_src =
            a.class.is_library && !matches!(a.class.crate_name.as_str(), "lint" | "mbrpa");
        if a.class.is_test_file || !(in_crate_src || file.starts_with("src/")) {
            return;
        }
        let code = &a.code;
        let text = |j: usize| code.get(j).map_or("", |t| t.text.as_str());
        let mut in_pub_use = false;
        for (i, t) in code.iter().enumerate() {
            if in_pub_use {
                in_pub_use = t.text != ";";
                continue;
            }
            if t.kind != TokKind::Ident || a.is_test_line(t.line) {
                continue;
            }
            let prev = i.checked_sub(1).map_or("", text);
            let defined = ITEM_KEYWORDS.contains(&prev)
                || (prev == "mut" && i.checked_sub(2).map_or("", text) == "static");
            match t.text.as_str() {
                // `pub use` and `pub(crate) use` re-export; they call nothing.
                "use" => in_pub_use = matches!(prev, "pub" | ")"),
                "pub" if in_crate_src && text(i + 1) != "(" => {
                    let mut j = i + 1;
                    while matches!(text(j), "unsafe" | "async" | "extern")
                        || (text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe"))
                        || code.get(j).is_some_and(|t| t.kind == TokKind::Str)
                    {
                        j += 1;
                    }
                    if ITEM_KEYWORDS.contains(&text(j)) {
                        j += usize::from(text(j + 1) == "mut");
                        if let Some(name) = code.get(j + 1).filter(|n| n.kind == TokKind::Ident) {
                            self.items.push((file.clone(), t.line, name.text.clone()));
                        }
                    }
                }
                _ if !defined && !self.reached.contains(&t.text) => {
                    self.reached.insert(t.text.clone());
                }
                _ => {}
            }
        }
    }

    /// Report every unreached item no allow covers, and every
    /// `allow(unreached_pub)` that covers no unreached item.
    pub fn resolve(mut self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for (file, line, name) in &self.items {
            if self.reached.contains(name) {
                continue;
            }
            let covers =
                |(f, s): &&mut (String, Suppression)| f == file && s.covered.contains(line);
            match self.allows.iter_mut().find(covers) {
                Some((_, s)) => s.used = true,
                None => findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: UNREACHED_PUB,
                    message: format!(
                        "`pub` item `{name}` is named by no shipped non-test code: \
                         delete it, move it under `#[cfg(test)]` or beside its caller, \
                         or keep it with `// lint: allow(unreached_pub) — <reason>`"
                    ),
                }),
            }
        }
        for (file, s) in self.allows.iter().filter(|(_, s)| !s.used) {
            findings.push(Finding {
                file: file.clone(),
                line: s.line,
                rule: "unused_allow",
                message: format!(
                    "suppression `lint: allow({UNREACHED_PUB})` matched no finding; remove it"
                ),
            });
        }
        findings
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// True if the tokens after `==`/`!=` spell a float-typed constant path
/// like `f64::NAN` or `f32::EPSILON`.
fn is_float_path(next: Option<&Token>, next2: Option<&Token>) -> bool {
    matches!(next, Some(n) if n.text == "f64" || n.text == "f32")
        && matches!(next2, Some(n2) if n2.text == "::")
}

/// Lines whose comments contain `marker`. With `boundary`, the marker
/// must be preceded by whitespace, `/`, or `(` — so `ord:` does not
/// match inside words like `record:`.
fn marker_comment_lines(tokens: &[Token], marker: &str, boundary: bool) -> Vec<u32> {
    tokens
        .iter()
        .filter(|t| {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                return false;
            }
            t.text.match_indices(marker).any(|(idx, _)| {
                if !boundary {
                    return true;
                }
                idx == 0
                    || matches!(
                        t.text.as_bytes()[idx - 1],
                        b' ' | b'\t' | b'/' | b'(' | b'*'
                    )
            })
        })
        .map(|t| t.line)
        .collect()
}

/// Lines containing a comment but no code token (candidates for the
/// comment run scanned upward from an `unsafe` or an `Ordering::*`).
fn comment_only_lines(tokens: &[Token]) -> Vec<u32> {
    let mut comment = std::collections::BTreeSet::new();
    let mut code = std::collections::BTreeSet::new();
    for t in tokens {
        match t.kind {
            TokKind::LineComment | TokKind::BlockComment => {
                comment.insert(t.line);
            }
            _ => {
                code.insert(t.line);
            }
        }
    }
    comment.difference(&code).copied().collect()
}

/// Scan upward from the line above `line` through a contiguous run of
/// comment-only lines; true if any of them carries the marker.
fn covered_by_marker_above(line: u32, marker_lines: &[u32], comment_only: &[u32]) -> bool {
    let mut l = line.saturating_sub(1);
    while l > 0 && comment_only.contains(&l) {
        if marker_lines.contains(&l) {
            return true;
        }
        l -= 1;
    }
    false
}

/// Collect `// lint: allow(<rule>)` suppressions with their coverage.
fn collect_suppressions(tokens: &[Token]) -> Vec<Suppression> {
    let code_lines: Vec<u32> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|t| t.line)
        .collect();
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // Doc comments only *talk about* suppressions; `// lint: allow`
        // must be a plain comment to take effect.
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let Some(idx) = t.text.find("lint: allow(") else {
            continue;
        };
        let rest = &t.text[idx + "lint: allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        let rule = rest[..end].trim().to_string();
        let next_code_line = code_lines
            .iter()
            .copied()
            .filter(|&l| l > t.line)
            .min()
            .unwrap_or(t.line);
        out.push(Suppression {
            line: t.line,
            rule,
            covered: [t.line, next_code_line],
            used: false,
        });
    }
    out
}

/// `mask[l]`: line `l` belongs to a `#[cfg(test)]` module or a `#[test]`
/// function. Reconstructed from the code view by brace matching;
/// `#[cfg(not(test))]` and friends are ignored.
fn test_line_mask(code: &[Token], whole_file_is_test: bool) -> Vec<bool> {
    if whole_file_is_test {
        return Vec::new(); // `Analysis::is_test_line` short-circuits on it
    }
    let mut mask = vec![false; code.last().map_or(0, |t| t.line as usize + 1)];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].text == "#" && code.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            // Collect attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr_tokens: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                match code[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    s => attr_tokens.push(s),
                }
                j += 1;
            }
            let is_test_attr = attr_tokens.contains(&"test")
                && !attr_tokens.contains(&"not")
                && (attr_tokens.first() == Some(&"cfg") || attr_tokens == ["test"]);
            if is_test_attr {
                let start_line = code[i].line;
                // Skip any further attributes, then find the item body.
                let mut k = j;
                while k < code.len()
                    && code[k].text == "#"
                    && code.get(k + 1).map(|t| t.text.as_str()) == Some("[")
                {
                    let mut d = 1usize;
                    k += 2;
                    while k < code.len() && d > 0 {
                        match code[k].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // Find `{` opening the body or `;` ending a braceless item.
                let mut end_line = start_line;
                while k < code.len() {
                    match code[k].text.as_str() {
                        ";" => {
                            end_line = code[k].line;
                            break;
                        }
                        "{" => {
                            let mut d = 1usize;
                            k += 1;
                            while k < code.len() && d > 0 {
                                match code[k].text.as_str() {
                                    "{" => d += 1,
                                    "}" => d -= 1,
                                    _ => {}
                                }
                                if d > 0 {
                                    k += 1;
                                }
                            }
                            end_line = code.get(k).map(|t| t.line).unwrap_or(start_line);
                            break;
                        }
                        _ => k += 1,
                    }
                }
                mask[start_line as usize..=end_line as usize].fill(true);
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}
