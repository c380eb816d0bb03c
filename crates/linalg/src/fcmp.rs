//! Deliberate floating-point comparisons.
//!
//! The invariant linter (`mbrpa-lint`, rule `float_cmp`) and clippy's
//! `float_cmp` both forbid raw `==`/`!=` on floats in non-test code:
//! in this codebase a float equality is almost always a tolerance bug
//! (solver residuals, quadrature weights, Ritz values), and the caller
//! writes its tolerance out. The one comparison that *is* legitimate
//! gets a named, documented entry point here, so every call site states
//! intent instead of repeating a suspicious-looking operator:
//! [`exactly_zero`], the bitwise zero test for structural guards — a
//! zero right-hand side, a zero pivot, a zero eigenvalue of the discrete
//! Laplacian. These are *exact* cases produced by construction (memset,
//! deflation, pseudo-inverse of a singular mode), not approximate ones,
//! and a tolerance would be wrong.

/// True iff `x` is (positive or negative) floating-point zero.
///
/// Use only for *structural* zeros — values that are exactly zero by
/// construction (zero-filled buffers, deflated pivots, the null-space
/// eigenvalue of a projected operator) — never for "small enough"
/// checks; those want an explicit tolerance.
#[inline(always)]
#[allow(clippy::float_cmp)]
pub fn exactly_zero(x: f64) -> bool {
    // lint: allow(float_cmp) — bitwise exact-zero test is this helper's purpose
    x == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_zero_is_bitwise() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(f64::MIN_POSITIVE));
        assert!(!exactly_zero(1e-300));
        assert!(!exactly_zero(f64::NAN));
    }
}
