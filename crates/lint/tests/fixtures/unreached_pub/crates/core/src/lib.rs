// Fixture: rule `unreached_pub`, one file of a miniature workspace read by
// mbrpa-lint's own tests; never compiled and excluded from the workspace scan.

/// Finding: only its own `#[cfg(test)]` module calls it.
pub fn only_unit_tested() {}

/// Finding: only `crates/bench` and `tests/` call it.
pub fn only_benched() {}

/// Finding: reached only through a `pub use` re-export.
pub struct OnlyReexported;

/// Clean: `src/bin/tool.rs` calls it.
pub fn shipped() {}

/// Clean: restricted visibility is not checked.
pub(crate) fn crate_only() {}

// lint: allow(unreached_pub) — fixture: referee of a test
pub fn kept() {}

// lint: allow(unreached_pub) — stale: crates/solver/src/lib.rs names it
pub const REACHED: usize = 1;

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::only_unit_tested();
        super::crate_only();
        super::kept();
    }
}
