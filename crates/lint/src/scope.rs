//! Structural parser: a scope tree over the lexed token stream.
//!
//! The token-stream rules of PR 4 are deliberately flat — they look at
//! a token and a couple of neighbours. The concurrency and unsafety
//! rules added in the static-analysis v2 pass (DESIGN.md §9) need more:
//! *which function owns this `unsafe` block*, *is this `par_iter` call
//! nested under a region that already holds the rayon pool*, *does the
//! scope that binds this lock guard also perform blocking IO*. This
//! module reconstructs exactly that much structure — nested
//! brace/paren/bracket scopes with per-scope item headers — and nothing
//! more. It is not a Rust AST: no expressions, no types, no name
//! resolution. It never fails; on mismatched delimiters it recovers by
//! closing scopes and records the fact in [`ScopeTree::balanced`], so a
//! half-edited file degrades to weaker analysis instead of a panic.
//!
//! Input is the *code view* of a file: the lexed tokens with comments
//! filtered out, exactly as the rule engine sees them. All indices in
//! this module refer to positions in that slice.
//!
//! ## How owners are classified
//!
//! The parser keeps one *header buffer* per nesting level: the code
//! tokens seen at that level since the last statement boundary (`;`,
//! `=>`, or a closed brace). When a `{` opens, its header buffer is
//! what syntactically introduced the block — `fn name(..) -> T`,
//! `macro_rules! name`, `match x`, `|args|` — and is classified into an
//! [`Owner`]. Paren and bracket closers do *not* clear the buffer, so a
//! multi-line signature like `fn f(\n  a: usize,\n) -> T {` still
//! classifies as a function.

use crate::lexer::{TokKind, Token};

/// Delimiter family of a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// `{` … `}` — blocks, bodies, struct literals.
    Brace,
    /// `(` … `)` — call/tuple/grouping parens.
    Paren,
    /// `[` … `]` — indexing, arrays, attributes.
    Bracket,
}

/// What syntactically introduced a brace scope (paren/bracket scopes
/// are always [`Owner::Other`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Owner {
    /// A function body: `fn name(..) { … }`.
    Fn {
        /// Function name (empty for pathological headers).
        name: String,
        /// Source line of the `fn` keyword.
        line: u32,
        /// Header contains `unsafe` before `fn`.
        is_unsafe: bool,
        /// Header contains an unrestricted `pub` (not `pub(crate)`/`pub(super)`).
        is_pub: bool,
    },
    /// A `macro_rules!` definition body (token soup, exempt from
    /// structural rules — the *expansions* are checked at their call
    /// sites' enclosing functions).
    MacroRules,
    /// Anything else: `impl`/`mod`/`match`/closure/plain block.
    Other,
}

/// One scope: a matched (or recovered) delimiter pair.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Delimiter family.
    pub kind: ScopeKind,
    /// Header classification (meaningful for braces).
    pub owner: Owner,
    /// Enclosing scope, if any.
    pub parent: Option<usize>,
    /// Code-view index of the opening delimiter.
    pub open: usize,
    /// Code-view index of the closing delimiter; `code.len()` when the
    /// scope was force-closed at end of input (recovery).
    pub close: usize,
}

/// The scope tree of one file's code view.
#[derive(Debug)]
pub struct ScopeTree {
    /// All scopes, in order of their opening delimiter (so the vector
    /// is sorted by [`Scope::open`]).
    pub scopes: Vec<Scope>,
    /// Innermost scope containing each code token (`None` = top level).
    /// Delimiter tokens belong to the scope that was innermost *before*
    /// they took effect: an opener to the parent scope, a closer to the
    /// scope it closes.
    pub scope_of: Vec<Option<usize>>,
    /// False if recovery kicked in: a mismatched or stray closing
    /// delimiter, or scopes still open at end of input. Every file that
    /// the Rust compiler accepts parses balanced (the self-parse test
    /// pins this for the whole workspace).
    pub balanced: bool,
}

impl ScopeTree {
    /// Build the tree from a code view (comment tokens filtered out).
    pub fn build(code: &[&Token]) -> ScopeTree {
        let mut scopes: Vec<Scope> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        // headers[stack.len()] = header buffer of the current level.
        let mut headers: Vec<Vec<usize>> = vec![Vec::new()];
        let mut scope_of: Vec<Option<usize>> = vec![None; code.len()];
        let mut balanced = true;

        for (i, tok) in code.iter().enumerate() {
            scope_of[i] = stack.last().copied();
            if tok.kind != TokKind::Punct {
                if let Some(h) = headers.last_mut() {
                    h.push(i);
                }
                continue;
            }
            match tok.text.as_str() {
                "{" | "(" | "[" => {
                    let kind = match tok.text.as_str() {
                        "{" => ScopeKind::Brace,
                        "(" => ScopeKind::Paren,
                        _ => ScopeKind::Bracket,
                    };
                    let owner = if kind == ScopeKind::Brace {
                        let o = headers
                            .last()
                            .map(|h| classify_owner(code, h))
                            .unwrap_or(Owner::Other);
                        // The brace consumes its header: whatever
                        // follows the matching `}` starts a new
                        // statement at this level.
                        if let Some(h) = headers.last_mut() {
                            h.clear();
                        }
                        o
                    } else {
                        Owner::Other
                    };
                    scopes.push(Scope {
                        kind,
                        owner,
                        parent: stack.last().copied(),
                        open: i,
                        close: code.len(),
                    });
                    stack.push(scopes.len() - 1);
                    headers.push(Vec::new());
                }
                "}" | ")" | "]" => {
                    let want = match tok.text.as_str() {
                        "}" => ScopeKind::Brace,
                        ")" => ScopeKind::Paren,
                        _ => ScopeKind::Bracket,
                    };
                    if stack.iter().any(|&s| scopes[s].kind == want) {
                        // Close intervening mismatched scopes (recovery),
                        // then the matching one.
                        while let Some(id) = stack.pop() {
                            headers.pop();
                            scopes[id].close = i;
                            if scopes[id].kind == want {
                                break;
                            }
                            balanced = false;
                        }
                    } else {
                        // Stray closer: ignore it entirely.
                        balanced = false;
                    }
                    if want == ScopeKind::Brace {
                        // `fn f() { … }` is a complete item: clear the
                        // resumed level's buffer. `)`/`]` instead keep
                        // the statement going (`lock(&m).recv()`).
                        if let Some(h) = headers.last_mut() {
                            h.clear();
                        }
                    }
                }
                ";" | "=>" => {
                    if let Some(h) = headers.last_mut() {
                        h.clear();
                    }
                }
                _ => {
                    if let Some(h) = headers.last_mut() {
                        h.push(i);
                    }
                }
            }
        }
        if !stack.is_empty() {
            balanced = false;
        }

        ScopeTree {
            scopes,
            scope_of,
            balanced,
        }
    }

    /// Innermost function-body scope at or above `id` (inclusive),
    /// stopping — and returning `None` — at a `macro_rules!` body.
    pub fn enclosing_fn(&self, id: usize) -> Option<usize> {
        let mut cur = Some(id);
        while let Some(c) = cur {
            match self.scopes[c].owner {
                Owner::Fn { .. } => return Some(c),
                Owner::MacroRules => return None,
                Owner::Other => cur = self.scopes[c].parent,
            }
        }
        None
    }

    /// True if `id` or any ancestor is a `macro_rules!` body.
    pub fn inside_macro_rules(&self, id: usize) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if self.scopes[c].owner == Owner::MacroRules {
                return true;
            }
            cur = self.scopes[c].parent;
        }
        false
    }

    /// The scope opened by the delimiter at code index `open`, if any.
    /// `scopes` is sorted by `open`, so this is a binary search.
    pub fn opened_at(&self, open: usize) -> Option<usize> {
        self.scopes.binary_search_by_key(&open, |s| s.open).ok()
    }
}

/// Classify a brace's header buffer (code-view indices of the tokens
/// between the previous statement boundary and the `{`).
fn classify_owner(code: &[&Token], header: &[usize]) -> Owner {
    let mut fn_pos: Option<usize> = None;
    for (h, &idx) in header.iter().enumerate() {
        let t = code[idx];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "fn" {
            fn_pos = Some(h);
            break;
        }
        if t.text == "macro_rules" {
            return Owner::MacroRules;
        }
    }
    let Some(p) = fn_pos else {
        return Owner::Other;
    };
    let fn_line = code[header[p]].line;
    let name = header
        .get(p + 1)
        .map(|&idx| code[idx])
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let mut is_unsafe = false;
    let mut is_pub = false;
    for &idx in &header[..p] {
        let t = code[idx];
        if t.text == "unsafe" {
            is_unsafe = true;
        }
        if t.text == "pub" {
            // `pub(crate)` / `pub(super)` restrict visibility; the
            // restriction parens follow immediately in the raw stream.
            is_pub = code.get(idx + 1).map(|n| n.text != "(").unwrap_or(true);
        }
    }
    Owner::Fn {
        name,
        line: fn_line,
        is_unsafe,
        is_pub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> (Vec<Token>, ScopeTree) {
        let tokens = lex(src);
        let code: Vec<&Token> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let tree = ScopeTree::build(&code);
        (tokens.clone(), tree)
    }

    #[test]
    fn classifies_fn_with_multiline_signature() {
        let (_, t) = tree("pub unsafe fn axpy(\n    n: usize,\n) -> usize {\n    n\n}\n");
        let fns: Vec<&Scope> = t
            .scopes
            .iter()
            .filter(|s| matches!(s.owner, Owner::Fn { .. }))
            .collect();
        assert_eq!(fns.len(), 1);
        match &fns[0].owner {
            Owner::Fn {
                name,
                is_unsafe,
                is_pub,
                ..
            } => {
                assert_eq!(name, "axpy");
                assert!(*is_unsafe);
                assert!(*is_pub);
            }
            other => panic!("unexpected owner {other:?}"),
        }
        assert!(t.balanced);
    }

    #[test]
    fn pub_crate_is_not_fully_public() {
        let (_, t) = tree("pub(crate) unsafe fn inner() {}\n");
        let owner = t
            .scopes
            .iter()
            .find_map(|s| match &s.owner {
                Owner::Fn { is_pub, .. } => Some(*is_pub),
                _ => None,
            })
            .expect("fn scope");
        assert!(!owner);
    }

    #[test]
    fn macro_rules_body_is_marked() {
        let (_, t) = tree("macro_rules! m {\n    ($x:expr) => {{ $x }};\n}\n");
        assert!(t.scopes.iter().any(|s| s.owner == Owner::MacroRules));
        assert!(t.balanced);
    }

    #[test]
    fn nesting_and_scope_of() {
        let (_, t) = tree("fn f() { g(|| { h(); }); }\n");
        assert!(t.balanced);
        // Every scope's parent chain terminates and closers match kinds.
        for s in &t.scopes {
            assert!(s.close > s.open);
        }
        // The innermost brace (closure body) has a paren parent whose
        // parent is the fn body.
        let closure = t
            .scopes
            .iter()
            .filter(|s| s.kind == ScopeKind::Brace)
            .max_by_key(|s| s.open)
            .expect("closure body");
        let paren = closure.parent.expect("call parens");
        assert_eq!(t.scopes[paren].kind, ScopeKind::Paren);
        let fnbody = t.scopes[paren].parent.expect("fn body");
        assert!(matches!(t.scopes[fnbody].owner, Owner::Fn { .. }));
    }

    #[test]
    fn recovery_on_mismatched_delimiters_never_panics() {
        for src in ["fn f() { (]\n", "}}}", "fn f( {", "fn f() { [ ) }", "{ ( ["] {
            let (_, t) = tree(src);
            assert!(!t.balanced, "{src:?} should be flagged unbalanced");
        }
    }

    #[test]
    fn match_arm_blocks_are_other() {
        let (_, t) = tree("fn f(x: u8) -> u8 { match x { 0 => { 1 } _ => 2, } }\n");
        let arm_owners: Vec<&Owner> = t
            .scopes
            .iter()
            .filter(|s| s.kind == ScopeKind::Brace)
            .map(|s| &s.owner)
            .collect();
        // fn body is Fn, match body and arm block are Other.
        assert_eq!(
            arm_owners
                .iter()
                .filter(|o| matches!(o, Owner::Fn { .. }))
                .count(),
            1
        );
        assert!(t.balanced);
    }
}
