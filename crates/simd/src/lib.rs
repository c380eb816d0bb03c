//! Runtime-dispatched SIMD primitives for the hot mbrpa kernels.
//!
//! This crate is the only place in the workspace allowed to touch
//! `core::arch` intrinsics (enforced by the mbrpa-lint `arch_intrinsics`
//! rule). It exposes a *safe* slice-level API — scaled copies, fused
//! axpy variants, Chebyshev shift/scale updates, complex axpy and scale,
//! lane-split dot products and norms, BLIS-style GEMM microkernels,
//! Gram tiles, the pack-free thin-block kernels of block COCG, and the
//! three pieces of `H·v` (halo fill, stencil sweep, sparse or dense
//! projector term) — and picks the fastest available backend at runtime:
//!
//! | path     | arch     | selected when                                  |
//! |----------|----------|------------------------------------------------|
//! | `avx2`   | x86_64   | `avx2` **and** `fma` detected via CPUID        |
//! | `scalar` | any      | fallback, and forced via `MBRPA_SIMD=scalar`   |
//!
//! Every other target (aarch64 included) runs the scalar twins.
//!
//! **Bit-identity guarantee.** Every backend produces *bitwise
//! identical* results for every primitive, on every input. The scalar
//! implementation in [`scalar`] is the canonical semantics: elementwise
//! ops pin each rounding (plain `*`/`+` or `f64::mul_add` exactly where
//! backends use hardware FMA), and reductions use the fixed lane-split
//! accumulation described in [`lanes`], with the final lane fold shared
//! between all paths. Checkpoint resume, the golden pinned-energy test,
//! and the daemon's content-addressed result cache therefore stay exact
//! no matter which path runs — and CI forces each path to prove it.
//!
//! The active path resolves once, lazily, from (in priority order) a
//! programmatic [`force`] (the `-simd` CLI flag), the `MBRPA_SIMD`
//! environment variable (`auto`, `scalar`, `avx2`), and CPU
//! detection. Requesting a path the CPU cannot run fails loudly rather
//! than silently degrading.

// Test code asserts exact float equality on purpose: bit-identity
// across dispatch paths is this crate's contract.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod lanes;
mod scalar;
mod sparse;

#[cfg(target_arch = "x86_64")]
mod avx2;

pub use lanes::{C64_LANES, F64_LANES, GRAM_C64_LANES, GRAM_F64_LANES, THIN_MAX};
pub use sparse::{DenseRows, SparseRows};

use std::sync::atomic::{AtomicU8, Ordering};

/// A SIMD dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Portable scalar fallback (the canonical semantics).
    Scalar,
    /// AVX2 + FMA on x86_64.
    Avx2,
}

impl Dispatch {
    /// Stable lowercase name, as accepted by `MBRPA_SIMD` and shown in
    /// profile reports and the daemon health document.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Avx2 => "avx2",
        }
    }

    /// Parse an `MBRPA_SIMD` / `-simd` value. `Ok(None)` means `auto`
    /// (pick the best available path); unknown names are an error whose
    /// message is the one list of accepted names.
    pub fn parse(s: &str) -> Result<Option<Dispatch>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(None),
            "scalar" => Ok(Some(Dispatch::Scalar)),
            "avx2" => Ok(Some(Dispatch::Avx2)),
            other => Err(format!(
                "unknown SIMD dispatch {other:?} (expected one of auto, scalar, avx2)"
            )),
        }
    }

    fn code(self) -> u8 {
        match self {
            Dispatch::Scalar => 1,
            Dispatch::Avx2 => 2,
        }
    }

    fn from_code(c: u8) -> Option<Dispatch> {
        match c {
            1 => Some(Dispatch::Scalar),
            2 => Some(Dispatch::Avx2),
            _ => None,
        }
    }
}

/// Dispatch paths this CPU can run, best first.
pub fn available() -> &'static [Dispatch] {
    #[cfg(target_arch = "x86_64")]
    {
        // std caches CPUID: each check is one atomic load, so every
        // `*_on` call can afford it
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return &[Dispatch::Avx2, Dispatch::Scalar];
        }
        &[Dispatch::Scalar]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[Dispatch::Scalar]
    }
}

/// 0 = unresolved; otherwise `Dispatch::code()`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn resolve_from_env() -> Result<Dispatch, String> {
    let req = match std::env::var("MBRPA_SIMD") {
        Ok(v) => Dispatch::parse(&v).map_err(|e| format!("MBRPA_SIMD: {e}"))?,
        Err(_) => None,
    };
    match req {
        None => Ok(available()[0]),
        Some(d) if available().contains(&d) => Ok(d),
        Some(d) => Err(format!(
            "MBRPA_SIMD requests {:?} but this CPU only supports {:?}",
            d.name(),
            available().iter().map(|a| a.name()).collect::<Vec<_>>()
        )),
    }
}

/// The active dispatch path, resolving it on first use from [`force`],
/// then `MBRPA_SIMD`, then CPU detection.
///
/// # Panics
/// Panics if `MBRPA_SIMD` names an unknown or unavailable path — a
/// deliberate loud failure so a mis-forced CI run can never silently
/// fall back. Binaries call [`init_from_env`] early to turn the same
/// condition into a clean error message instead.
pub fn active() -> Dispatch {
    // ord: Relaxed — ACTIVE carries a self-contained code; no other data is
    // published through it, so visibility ordering cannot change the result
    if let Some(d) = Dispatch::from_code(ACTIVE.load(Ordering::Relaxed)) {
        return d;
    }
    // lint: allow(unwrap) — invalid MBRPA_SIMD must abort, not degrade;
    // documented in the function contract above.
    let d = resolve_from_env().expect("invalid MBRPA_SIMD");
    // A concurrent first caller may have won the race; every candidate
    // writes a value derived from the same env + CPUID state, so either
    // outcome is the same dispatch.
    // ord: Relaxed — value is self-contained (see load above); the CAS only arbitrates ties
    let _ = ACTIVE.compare_exchange(0, d.code(), Ordering::Relaxed, Ordering::Relaxed);
    // lint: allow(unwrap) — the slot now holds a valid nonzero code.
    // ord: Relaxed — re-read of the self-contained code
    Dispatch::from_code(ACTIVE.load(Ordering::Relaxed)).expect("dispatch slot corrupted")
}

/// Resolve the dispatch path from `MBRPA_SIMD` + CPU detection without
/// panicking, locking it in on success. Binaries call this during
/// startup so configuration errors surface as clean diagnostics.
pub fn init_from_env() -> Result<Dispatch, String> {
    let d = resolve_from_env()?;
    // ord: Relaxed — self-contained dispatch code (see `active`); CAS only arbitrates ties
    let _ = ACTIVE.compare_exchange(0, d.code(), Ordering::Relaxed, Ordering::Relaxed);
    // lint: allow(unwrap) — the slot now holds a valid nonzero code.
    // ord: Relaxed — re-read of the self-contained code
    Ok(Dispatch::from_code(ACTIVE.load(Ordering::Relaxed)).expect("dispatch slot corrupted"))
}

/// Force a specific path (`Some`) or best-available (`None`), as the
/// `-simd` CLI flag does. Fails if the path is unavailable on this CPU
/// or a *different* path has already been locked in by first use.
pub fn force(req: Option<Dispatch>) -> Result<Dispatch, String> {
    let d = match req {
        None => available()[0],
        Some(d) if available().contains(&d) => d,
        Some(d) => {
            return Err(format!(
                "SIMD dispatch {:?} is not available on this CPU (supported: {:?})",
                d.name(),
                available().iter().map(|a| a.name()).collect::<Vec<_>>()
            ))
        }
    };
    // ord: Relaxed — self-contained dispatch code (see `active`); CAS only arbitrates ties
    match ACTIVE.compare_exchange(0, d.code(), Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => Ok(d),
        Err(prev) if prev == d.code() => Ok(d),
        Err(prev) => Err(format!(
            "SIMD dispatch already resolved to {:?}; cannot re-force to {:?}",
            Dispatch::from_code(prev).map(Dispatch::name).unwrap_or("?"),
            d.name()
        )),
    }
}

// ---------------------------------------------------------------------------
// Dispatched API
//
// Each primitive has an `*_on` form taking an explicit path (hoist
// `active()` out of per-line loops; also how the bitwise-identity
// proptests drive every path) and a convenience form using `active()`.
// Passing a path that is not in `available()` is safe: it falls back to
// the scalar canonical semantics, which are bit-identical by contract.
// ---------------------------------------------------------------------------

macro_rules! dispatch_on {
    ($d:expr, $name:ident ( $($arg:expr),* )) => {
        match $d {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the guard checks that CPUID reports both `avx2` and
            // `fma`, the features every `avx2::` kernel is compiled for.
            Dispatch::Avx2 if available().contains(&Dispatch::Avx2) => unsafe {
                avx2::$name($($arg),*)
            },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// `o[i] += c · x[i]` (fused) on the given path.
#[inline]
pub fn axpy_on(d: Dispatch, c: f64, x: &[f64], o: &mut [f64]) {
    dispatch_on!(d, axpy(c, x, o))
}

/// `o[i] += c · x[i]` (fused) on the active path.
#[inline]
pub fn axpy(c: f64, x: &[f64], o: &mut [f64]) {
    axpy_on(active(), c, x, o)
}

/// `x *= c` on the given path.
#[inline]
pub fn scal_on(d: Dispatch, c: f64, x: &mut [f64]) {
    dispatch_on!(d, scal(c, x))
}

/// `x *= c` on the active path.
#[inline]
pub fn scal(c: f64, x: &mut [f64]) {
    scal_on(active(), c, x)
}

/// Chebyshev recurrence step `v[i] = s · (v[i] − c · x[i])` on the given
/// path.
#[inline]
pub fn shift_scale_on(d: Dispatch, s: f64, c: f64, x: &[f64], v: &mut [f64]) {
    dispatch_on!(d, shift_scale(s, c, x, v))
}

/// Chebyshev three-term step
/// `w[i] = s · (w[i] − c · y[i]) − t · xprev[i]` on the given path.
#[inline]
#[allow(clippy::many_single_char_names)]
pub fn shift_scale_sub_on(
    d: Dispatch,
    s: f64,
    c: f64,
    t: f64,
    y: &[f64],
    xprev: &[f64],
    w: &mut [f64],
) {
    dispatch_on!(d, shift_scale_sub(s, c, t, y, xprev, w))
}

/// Uniform-offset stencil sweep over a halo'd source volume, on the
/// given path. Output row `rix` (slab `rix / rows_per_slab`, row
/// `rix % rows_per_slab` within it) reads from `src` starting at
/// `origin + slab·slab_stride + row·row_stride`, and each of its
/// `row_len` components is
/// `Σ_t terms[t].0 · src[row_base + i + terms[t].1]`, accumulated in
/// `terms` order — a multiply for the first term and one FMA for every
/// further term — so each output element is one independent rounding
/// chain and all paths are bit-identical by construction. The caller
/// provides the halo: `src` must answer every `(weight, signed offset)`
/// term at every point (wrapped copies for periodic boundaries, zeros
/// for Dirichlet — a `w·0` FMA contributes exactly nothing), which is
/// what makes the sweep completely free of boundary branches.
///
/// `o.len()` must be a whole number of slabs of `rows_per_slab` rows of
/// `row_len` components; the call panics if any term offset could
/// escape `src` at the extreme corners (which bounds every interior
/// index, all strides being non-negative).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn stencil_rows_on(
    d: Dispatch,
    terms: &[(f64, isize)],
    src: &[f64],
    origin: usize,
    row_stride: usize,
    slab_stride: usize,
    rows_per_slab: usize,
    row_len: usize,
    o: &mut [f64],
) {
    assert!(!terms.is_empty(), "at least one stencil term");
    if o.is_empty() {
        return;
    }
    assert!(row_len > 0 && rows_per_slab > 0, "degenerate row shape");
    assert_eq!(
        o.len() % (rows_per_slab * row_len),
        0,
        "out is not whole slabs"
    );
    let nrows = o.len() / row_len;
    let nslabs = nrows / rows_per_slab;
    let min_off = terms.iter().map(|t| t.1).min().unwrap_or(0);
    let max_off = terms.iter().map(|t| t.1).max().unwrap_or(0);
    // Corner bounds in u128/i128 so adversarially large strides cannot
    // wrap the check while the kernel's pointer arithmetic wraps too.
    let last = origin as u128
        + (nslabs as u128 - 1) * slab_stride as u128
        + (rows_per_slab as u128 - 1) * row_stride as u128
        + (row_len as u128 - 1);
    assert!(
        origin as i128 + min_off as i128 >= 0,
        "term offset underruns src"
    );
    assert!(
        (last as i128 + max_off as i128) < src.len() as i128,
        "term offset overruns src"
    );
    dispatch_on!(
        d,
        stencil_rows(
            terms,
            src,
            origin,
            row_stride,
            slab_stride,
            rows_per_slab,
            row_len,
            o
        )
    )
}

/// Complex `y += (ar + i·ai) · x` on interleaved `[re, im, …]` slices,
/// on the given path.
#[inline]
pub fn axpy_c64_on(d: Dispatch, ar: f64, ai: f64, x: &[f64], y: &mut [f64]) {
    dispatch_on!(d, axpy_c64(ar, ai, x, y))
}

/// Complex `y += (ar + i·ai) · x` on interleaved slices, active path.
#[inline]
pub fn axpy_c64(ar: f64, ai: f64, x: &[f64], y: &mut [f64]) {
    axpy_c64_on(active(), ar, ai, x, y)
}

/// Complex `x *= (ar + i·ai)` on an interleaved slice, on the given path.
#[inline]
pub fn scal_c64_on(d: Dispatch, ar: f64, ai: f64, x: &mut [f64]) {
    dispatch_on!(d, scal_c64(ar, ai, x))
}

/// Complex `x *= (ar + i·ai)` on an interleaved slice, active path.
#[inline]
pub fn scal_c64(ar: f64, ai: f64, x: &mut [f64]) {
    scal_c64_on(active(), ar, ai, x)
}

/// Real dot `Σ x[i]·y[i]` with the canonical 8-lane split, given path.
#[inline]
pub fn dot_on(d: Dispatch, x: &[f64], y: &[f64]) -> f64 {
    dispatch_on!(d, dot(x, y))
}

/// Real dot `Σ x[i]·y[i]` on the active path.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    dot_on(active(), x, y)
}

/// Squared Euclidean norm `Σ x[i]²` (componentwise — pass interleaved
/// complex data directly), given path.
#[inline]
pub fn nrm2_sq_on(d: Dispatch, x: &[f64]) -> f64 {
    dispatch_on!(d, nrm2_sq(x))
}

/// Squared Euclidean norm `Σ x[i]²` on the active path.
#[inline]
pub fn nrm2_sq(x: &[f64]) -> f64 {
    nrm2_sq_on(active(), x)
}

/// Unconjugated complex dot `xᵀy` on interleaved slices, given path.
/// Returns `(re, im)`.
#[inline]
pub fn dot_t_c64_on(d: Dispatch, x: &[f64], y: &[f64]) -> (f64, f64) {
    dispatch_on!(d, dot_t_c64(x, y))
}

/// Unconjugated complex dot `xᵀy` on the active path.
#[inline]
pub fn dot_t_c64(x: &[f64], y: &[f64]) -> (f64, f64) {
    dot_t_c64_on(active(), x, y)
}

/// 8×4 f64 GEMM microkernel: `acc[8j + i] += Σ_p ap[8p + i] · bp[4p + j]`
/// over packed panels, on the given path. `acc` is column-major
/// (column `j` at `acc[8j..8j + 8]`) and carries across k-blocks.
#[inline]
pub fn gemm_f64_8x4_on(d: Dispatch, k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 32]) {
    dispatch_on!(d, gemm_f64_8x4(k, ap, bp, acc))
}

/// 4×4 split-complex GEMM microkernel on packed split panels
/// (`[re×4 | im×4]` per depth step in both `ap` and `bp`), on the given
/// path. Column `j` of `acc` holds `[re×4 | im×4]` at `acc[8j..8j + 8]`.
/// Complex products are realized as real FMAs:
/// `re += ar·br − ai·bi`, `im += ar·bi + ai·br`, one rounding each.
#[inline]
pub fn gemm_c64_4x4_on(d: Dispatch, k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 32]) {
    dispatch_on!(d, gemm_c64_4x4(k, ap, bp, acc))
}

/// 2×4 real Gram tile: `out[2j + i] = a_iᵀ b_j` with the canonical
/// 4-lane depth split, on the given path.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gram2x4_f64_on(
    d: Dispatch,
    a0: &[f64],
    a1: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
    out: &mut [f64; 8],
) {
    dispatch_on!(d, gram2x4_f64(a0, a1, b0, b1, b2, b3, out))
}

/// 2×2 complex Gram tile on interleaved columns: `out` holds the four
/// complex results `(i, j)` at `out[2·(2j + i)..][..2]`, computing the
/// unconjugated `a_iᵀ b_j` with the canonical 2-complex-lane depth split,
/// on the given path.
#[inline]
pub fn gram2_c64_on(
    d: Dispatch,
    a0: &[f64],
    a1: &[f64],
    b0: &[f64],
    b1: &[f64],
    out: &mut [f64; 8],
) {
    dispatch_on!(d, gram2_c64(a0, a1, b0, b1, out))
}

// ---------------------------------------------------------------------------
// Thin-block kernels: `rows × s` complex blocks (column-major, interleaved
// `[re, im, …]`, columns `rows` apart) against `s × s` coefficients held in
// registers, `s ≤ THIN_MAX`. They are what block COCG costs per iteration
// besides the operator, at the block sizes every solve runs at.
// ---------------------------------------------------------------------------

/// Panic unless `x` is a `rows × cols` interleaved complex block.
#[inline]
fn assert_block(what: &str, x: &[f64], rows: usize, cols: usize) {
    assert_eq!(
        Some(x.len()),
        rows.checked_mul(2 * cols),
        "{what} is not a {rows}×{cols} complex block"
    );
}

#[inline]
fn assert_thin(what: &str, s: usize) {
    assert!(
        (1..=THIN_MAX).contains(&s),
        "{what} = {s} is outside the thin-block range 1..={THIN_MAX}"
    );
}

/// Pack-free thin Gram `out = AᵀB` (unconjugated, the COCG bilinear
/// form) on the given path: `a` is `rows × k`, `b` is `rows × n`, `out`
/// is `k × n`, `1 ≤ k, n ≤ THIN_MAX`; `out` is overwritten and never
/// read. Same lane layout as [`cocg_update_c64_on`] (row `i` in complex
/// lane `i mod 2`), so `thin_gram(W, W)` equals the `rho` that kernel
/// returns bit for bit.
#[inline]
pub fn thin_gram_c64_on(
    d: Dispatch,
    rows: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    assert_thin("k", k);
    assert_thin("n", n);
    assert_block("a", a, rows, k);
    assert_block("b", b, rows, n);
    assert_block("out", out, k, n);
    dispatch_on!(d, thin_gram_c64(rows, k, n, a, b, out))
}

/// Pack-free thin Gram `out = AᵀB` on the active path.
#[inline]
pub fn thin_gram_c64(rows: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    thin_gram_c64_on(active(), rows, k, n, a, b, out)
}

/// Lines 9–11 of block COCG (Alg. 3) in one sweep over the rows, on the
/// given path: `X += P·α`, `W −= U·α`, and on the way out the
/// complex-symmetric Gram `rho = WᵀW` of the updated residual (`s × s`,
/// exactly symmetric) together with `w_sq[j] = ‖w_j‖²`. All four blocks
/// are `rows × s`, `alpha` and `rho` are `s × s`, `1 ≤ s ≤ THIN_MAX`.
/// The reductions use two complex lanes (row `i` in lane `i mod 2`) and
/// the shared lane folds, so every path returns the same bits.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn cocg_update_c64_on(
    d: Dispatch,
    rows: usize,
    s: usize,
    p: &[f64],
    u: &[f64],
    alpha: &[f64],
    x: &mut [f64],
    w: &mut [f64],
    rho: &mut [f64],
    w_sq: &mut [f64],
) {
    assert_thin("s", s);
    assert_block("p", p, rows, s);
    assert_block("u", u, rows, s);
    assert_block("x", x, rows, s);
    assert_block("w", w, rows, s);
    assert_block("alpha", alpha, s, s);
    assert_block("rho", rho, s, s);
    assert_eq!(w_sq.len(), s, "one squared norm per column");
    dispatch_on!(d, cocg_update_c64(rows, s, p, u, alpha, x, w, rho, w_sq))
}

/// Fused block COCG update on the active path.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn cocg_update_c64(
    rows: usize,
    s: usize,
    p: &[f64],
    u: &[f64],
    alpha: &[f64],
    x: &mut [f64],
    w: &mut [f64],
    rho: &mut [f64],
    w_sq: &mut [f64],
) {
    cocg_update_c64_on(active(), rows, s, p, u, alpha, x, w, rho, w_sq)
}

/// Line 5 of block COCG in place, on the given path: `P ← Z + P·β` with
/// `z`, `p` `rows × s` and `beta` `s × s`, `1 ≤ s ≤ THIN_MAX`. Every
/// `p_l` of a row is read before any is written.
#[inline]
pub fn cocg_direction_c64_on(
    d: Dispatch,
    rows: usize,
    s: usize,
    z: &[f64],
    beta: &[f64],
    p: &mut [f64],
) {
    assert_thin("s", s);
    assert_block("z", z, rows, s);
    assert_block("p", p, rows, s);
    assert_block("beta", beta, s, s);
    dispatch_on!(d, cocg_direction_c64(rows, s, z, beta, p))
}

/// In-place direction update `P ← Z + P·β` on the active path.
#[inline]
pub fn cocg_direction_c64(rows: usize, s: usize, z: &[f64], beta: &[f64], p: &mut [f64]) {
    cocg_direction_c64_on(active(), rows, s, z, beta, p)
}

// ---------------------------------------------------------------------------
// The two pieces of `H·v` around the stencil sweep that are not dense
// streams: filling the halo'd volume row by row, and the non-local
// projector term over a [`SparseRows`] whose indices were checked when it
// was built, or over its [`DenseRows`] form where most entries are stored.
// ---------------------------------------------------------------------------

/// The halo fill of the stencil, on the given path:
/// `dst[to..to + len] = src[from..from + len]` for every `(to, from)` of
/// `rows`, in list order, and with `wrap > 0` each row's periodic images
/// beside it — its last `wrap` components into `dst[to − wrap..to]`, its
/// first `wrap` into `dst[to + len..to + len + wrap]`. An apply fills
/// hundreds of rows of a few dozen components: the vector path moves each
/// through registers, where a `memcpy` call per row costs more than the
/// bytes it moves.
///
/// # Panics
/// If `wrap > len` or a row or its images leave `src` or `dst`.
#[inline]
pub fn copy_rows_on(
    d: Dispatch,
    len: usize,
    wrap: usize,
    rows: &[(usize, usize)],
    src: &[f64],
    dst: &mut [f64],
) {
    assert!(wrap <= len, "a row of {len} cannot wrap {wrap} components");
    dispatch_on!(d, copy_rows(len, wrap, rows, src, dst))
}

/// The sparse rank-one sum `y += Σ_r γ_r p_r (p_rᵀx)` over the rows `p_r` of
/// `rows`, on the given path — the non-local term `𝒳Γ𝒳ᵀ` of the Hamiltonian
/// with one projector per row. `x` and `y` hold `rows.cols()` elements of
/// `cs` real components (`1`: `f64`; `2`: interleaved complex), `gamma` one
/// strength per row.
///
/// Every path does the arithmetic of the plain loops, a plain multiply and
/// a plain add per entry: each dot `p_rᵀx` is one chain from zero in stored
/// (ascending column) order, `c_r = γ_r·(p_rᵀx)`, then `y[i] += c_r·p_r[i]`
/// with the rows taken in ascending order. The dots do not depend on one
/// another, so the vector path advances two of them side by side; which
/// ones share a pass changes no bit.
#[inline]
pub fn sparse_projector_add_on(
    d: Dispatch,
    cs: usize,
    rows: &SparseRows,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    assert!(
        cs == 1 || cs == 2,
        "{cs} components per element (1 = real, 2 = interleaved complex)"
    );
    assert_eq!(gamma.len(), rows.rows(), "one strength per row");
    assert_eq!(x.len(), cs * rows.cols(), "x is not one element per column");
    assert_eq!(y.len(), cs * rows.cols(), "y is not one element per column");
    dispatch_on!(d, sparse_projector_add(cs, rows, gamma, x, y))
}

/// [`sparse_projector_add_on`] over the dense form of the rows, with the
/// same arguments and the same bits on every input (inside a NaN, whose
/// sign and payload Rust leaves unspecified, only NaN-ness is kept):
/// `y += Σ_r γ_r p_r (p_rᵀx)`.
///
/// The dots take one pass over the columns with rows × components as
/// lanes, each dot still one chain from `+0` in ascending column order;
/// the update takes one pass with the columns as lanes, each element still
/// taking its rows in ascending order. The terms of absent entries are
/// `±0`, which change nothing for finite data except `+0` added to a `−0`
/// element and `∞·0` in a dot: a non-finite dot is redone over the row's
/// entries, and a vector of elements holding `−0` or NaN (or every
/// vector, when a coefficient is not finite) adds each row's term only
/// where the row has an entry. Rows go in groups of eight, a pass over `x`
/// and one over `y` each.
#[inline]
pub fn dense_projector_add_on(
    d: Dispatch,
    cs: usize,
    rows: &DenseRows,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    assert!(
        cs == 1 || cs == 2,
        "{cs} components per element (1 = real, 2 = interleaved complex)"
    );
    assert_eq!(gamma.len(), rows.rows(), "one strength per row");
    assert_eq!(x.len(), cs * rows.cols(), "x is not one element per column");
    assert_eq!(y.len(), cs * rows.cols(), "y is not one element per column");
    dispatch_on!(d, dense_projector_add(cs, rows, gamma, x, y))
}

// ---------------------------------------------------------------------------
// The paired real Lanczos step of mbrpa-solver's real-arithmetic
// Sternheimer solve. Two right-hand sides share every vector: component
// `2i` belongs to the one in the `re` slots, `2i + 1` to the one in the `im`
// slots, and a coefficient `k: [f64; 2]` is `k[0]` for the first and `k[1]`
// for the second. One step is the operator apply `y = R·v` and these two
// passes; the arithmetic of the two slots never mixes.
// ---------------------------------------------------------------------------

/// First pass of a paired Lanczos step, on the given path: `y` holds
/// `R·v` on entry and `u = s·y − c·v_prev` on exit; returns `Σ v·u` per
/// slot. With `v = β_k q_k`, `v_prev = β_{k−1} q_{k−1}`, `s = 1/β_k` and
/// `c = β_k/β_{k−1}` that is `u = R q_k − β_k q_{k−1}` and `β_k α_k`.
#[inline]
pub fn lanczos_pair_project_on(
    d: Dispatch,
    s: [f64; 2],
    c: [f64; 2],
    v_prev: &[f64],
    v: &[f64],
    y: &mut [f64],
) -> [f64; 2] {
    assert_eq!(y.len() % 2, 0, "two slots per element");
    assert_eq!(v_prev.len(), y.len(), "v_prev and y differ in length");
    assert_eq!(v.len(), y.len(), "v and y differ in length");
    dispatch_on!(d, lanczos_pair_project(s, c, v_prev, v, y))
}

/// First pass of a paired Lanczos step on the active path.
#[inline]
pub fn lanczos_pair_project(
    s: [f64; 2],
    c: [f64; 2],
    v_prev: &[f64],
    v: &[f64],
    y: &mut [f64],
) -> [f64; 2] {
    lanczos_pair_project_on(active(), s, c, v_prev, v, y)
}

/// Per-slot coefficients of [`lanczos_pair_advance_on`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PairStep {
    /// `α_k/β_k`: `u ← u − a·v` is the next unnormalised Lanczos vector.
    pub a: [f64; 2],
    /// `Re`, `Im` of `1/(δ_k β_k)`, the weight of `v` in the new direction.
    pub t_re: [f64; 2],
    /// See [`PairStep::t_re`].
    pub t_im: [f64; 2],
    /// `Re`, `Im` of `β_k/δ_k`, the weight of the old direction.
    pub g_re: [f64; 2],
    /// See [`PairStep::g_re`].
    pub g_im: [f64; 2],
    /// `Re`, `Im` of `ζ_k`, the step along the new direction.
    pub z_re: [f64; 2],
    /// See [`PairStep::z_re`].
    pub z_im: [f64; 2],
}

/// Second pass of a paired Lanczos step, on the given path, everything
/// that needs `α_k` in one sweep: `u ← u − a·v` (returned: its squared
/// norm per slot, `β²_{k+1}`), the complex direction
/// `d ← t·v − g·d` held as `d_re`, `d_im`, and `x += Re(ζ·d)`.
#[inline]
pub fn lanczos_pair_advance_on(
    d: Dispatch,
    k: &PairStep,
    v: &[f64],
    u: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    x: &mut [f64],
) -> [f64; 2] {
    assert_eq!(u.len() % 2, 0, "two slots per element");
    for (what, len) in [
        ("v", v.len()),
        ("d_re", d_re.len()),
        ("d_im", d_im.len()),
        ("x", x.len()),
    ] {
        assert_eq!(len, u.len(), "{what} and u differ in length");
    }
    dispatch_on!(d, lanczos_pair_advance(k, v, u, d_re, d_im, x))
}

/// Second pass of a paired Lanczos step on the active path.
#[inline]
pub fn lanczos_pair_advance(
    k: &PairStep,
    v: &[f64],
    u: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    x: &mut [f64],
) -> [f64; 2] {
    lanczos_pair_advance_on(active(), k, v, u, d_re, d_im, x)
}

// ---------------------------------------------------------------------------
// The three sweeps of a block Lanczos step on pair-packed real blocks, the
// `s ≥ 2` Sternheimer solve of mbrpa-solver. A block of `s` real columns
// of `rows` entries is `⌈s/2⌉` interleaved vectors of `rows` complex
// entries (`2·rows` f64 each, one after another): column `c` sits in slot
// `c mod 2` of vector `c / 2`, so one complex apply of a real operator
// serves two columns. Coefficient matrices are `s × s`, column-major, and
// read as zero past `s`: for odd `s` the idle slot takes zero weights and
// gives its inputs none. Every output entry is one chain of `mul_add`s in
// a fixed order, Gram entries sum two row lanes (row `i` in lane `i mod
// 2`), and the AVX2 path holds two rows of a vector per register, so every
// path returns the same bits.
// ---------------------------------------------------------------------------

/// Panic unless `x` is a pair-packed block of `s` columns of `rows` rows.
#[inline]
fn assert_pair_block(what: &str, x: &[f64], rows: usize, s: usize) {
    assert_eq!(
        Some(x.len()),
        rows.checked_mul(2 * s.div_ceil(2)),
        "{what} is not a pair-packed {rows}×{s} block"
    );
}

#[inline]
fn assert_square(what: &str, c: &[f64], s: usize) {
    assert_eq!(c.len(), s * s, "{what} is not {s}×{s}");
}

/// First sweep of a block Lanczos step, on the given path:
/// `y ← y − v_prev·c` and `alpha = vᵀy` (`s × s`). With `y = R·V_k`,
/// `v_prev = V_{k−1}` and `c = β_kᵀ` that is `U = R V_k − V_{k−1}β_kᵀ` and
/// `α_k = V_kᵀU`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn block_lanczos_project_on(
    d: Dispatch,
    rows: usize,
    s: usize,
    c: &[f64],
    v_prev: &[f64],
    v: &[f64],
    y: &mut [f64],
    alpha: &mut [f64],
) {
    assert!(s >= 1, "an empty block");
    assert_square("c", c, s);
    assert_square("alpha", alpha, s);
    for (what, x) in [("v_prev", v_prev), ("v", v), ("y", &*y)] {
        assert_pair_block(what, x, rows, s);
    }
    dispatch_on!(d, block_update_gram(rows, s, c, v_prev, Some(v), y, alpha))
}

/// First sweep of a block Lanczos step on the active path.
#[inline]
pub fn block_lanczos_project(
    rows: usize,
    s: usize,
    c: &[f64],
    v_prev: &[f64],
    v: &[f64],
    y: &mut [f64],
    alpha: &mut [f64],
) {
    block_lanczos_project_on(active(), rows, s, c, v_prev, v, y, alpha)
}

/// Second sweep of a block Lanczos step, on the given path:
/// `u ← u − v·alpha` and `gram = uᵀu` (`s × s`, exactly symmetric): the
/// residual block orthogonalised against `V_k` and the Gram matrix its
/// Cholesky QR factors.
#[inline]
pub fn block_lanczos_orthogonalize_on(
    d: Dispatch,
    rows: usize,
    s: usize,
    alpha: &[f64],
    v: &[f64],
    u: &mut [f64],
    gram: &mut [f64],
) {
    assert!(s >= 1, "an empty block");
    assert_square("alpha", alpha, s);
    assert_square("gram", gram, s);
    assert_pair_block("v", v, rows, s);
    assert_pair_block("u", u, rows, s);
    dispatch_on!(d, block_update_gram(rows, s, alpha, v, None, u, gram))
}

/// Second sweep of a block Lanczos step on the active path.
#[inline]
pub fn block_lanczos_orthogonalize(
    rows: usize,
    s: usize,
    alpha: &[f64],
    v: &[f64],
    u: &mut [f64],
    gram: &mut [f64],
) {
    block_lanczos_orthogonalize_on(active(), rows, s, alpha, v, u, gram)
}

/// The `s × s` coefficients of [`block_lanczos_advance_on`], each
/// column-major.
#[derive(Clone, Copy, Debug)]
pub struct BlockStep<'a> {
    /// `β_{k+1}⁻¹`: `v_next = u·b_inv`.
    pub b_inv: &'a [f64],
    /// `Re`, `Im` of `Δ_k⁻¹`, the weight of `V_k` in the new direction.
    pub e_re: &'a [f64],
    /// See [`BlockStep::e_re`].
    pub e_im: &'a [f64],
    /// `Re`, `Im` of `β_kᵀΔ_k⁻¹`, the weight of the old direction.
    pub g_re: &'a [f64],
    /// See [`BlockStep::g_re`].
    pub g_im: &'a [f64],
    /// `Re`, `Im` of `Z_k`, the step along the new direction.
    pub z_re: &'a [f64],
    /// See [`BlockStep::z_re`].
    pub z_im: &'a [f64],
}

/// Third sweep of a block Lanczos step, on the given path, everything that
/// needs `Δ_k⁻¹` and `β_{k+1}` in one pass: `v_next = u·b_inv`, the complex
/// direction `D_k = (V_k − D_{k−1}β_kᵀ)Δ_k⁻¹` as
/// `dn_re = v·e_re − d_re·g_re + d_im·g_im` and
/// `dn_im = v·e_im − d_re·g_im − d_im·g_re`, and `x += Re(D_k·Z_k)`
/// `= dn_re·z_re − dn_im·z_im`. All blocks are pair-packed `rows × s`;
/// the outputs are not the inputs.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn block_lanczos_advance_on(
    d: Dispatch,
    rows: usize,
    s: usize,
    k: &BlockStep<'_>,
    u: &[f64],
    v: &[f64],
    d_re: &[f64],
    d_im: &[f64],
    v_next: &mut [f64],
    dn_re: &mut [f64],
    dn_im: &mut [f64],
    x: &mut [f64],
) {
    assert!(s >= 1, "an empty block");
    for (what, c) in [
        ("b_inv", k.b_inv),
        ("e_re", k.e_re),
        ("e_im", k.e_im),
        ("g_re", k.g_re),
        ("g_im", k.g_im),
        ("z_re", k.z_re),
        ("z_im", k.z_im),
    ] {
        assert_square(what, c, s);
    }
    for (what, b) in [
        ("u", u),
        ("v", v),
        ("d_re", d_re),
        ("d_im", d_im),
        ("v_next", &*v_next),
        ("dn_re", &*dn_re),
        ("dn_im", &*dn_im),
        ("x", &*x),
    ] {
        assert_pair_block(what, b, rows, s);
    }
    dispatch_on!(
        d,
        block_advance(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x)
    )
}

/// Third sweep of a block Lanczos step on the active path.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn block_lanczos_advance(
    rows: usize,
    s: usize,
    k: &BlockStep<'_>,
    u: &[f64],
    v: &[f64],
    d_re: &[f64],
    d_im: &[f64],
    v_next: &mut [f64],
    dn_re: &mut [f64],
    dn_im: &mut [f64],
    x: &mut [f64],
) {
    block_lanczos_advance_on(
        active(),
        rows,
        s,
        k,
        u,
        v,
        d_re,
        d_im,
        v_next,
        dn_re,
        dn_im,
        x,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn dispatch_parse_accepts_known_names() {
        assert_eq!(Dispatch::parse("auto").unwrap(), None);
        assert_eq!(Dispatch::parse("").unwrap(), None);
        assert_eq!(Dispatch::parse("Scalar").unwrap(), Some(Dispatch::Scalar));
        assert_eq!(Dispatch::parse("AVX2").unwrap(), Some(Dispatch::Avx2));
        for bad in ["neon", "sse9"] {
            let e = Dispatch::parse(bad).unwrap_err();
            assert!(e.contains(&format!("{bad:?}")), "{e}");
            assert!(e.contains("auto, scalar, avx2)"), "{e}");
        }
    }

    #[test]
    fn available_always_offers_scalar_last() {
        let avail = available();
        assert!(!avail.is_empty());
        assert_eq!(*avail.last().unwrap(), Dispatch::Scalar);
    }

    #[test]
    fn dot_matches_naive_sum_closely() {
        let x = pseudo_random(1003, 1);
        let y = pseudo_random(1003, 2);
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        for &d in available() {
            let got = dot_on(d, &x, &y);
            assert!((got - naive).abs() < 1e-10, "{d:?}: {got} vs {naive}");
        }
    }

    #[test]
    fn nrm2_sq_is_nonnegative_and_exact_on_units() {
        let mut x = vec![0.0; 17];
        x[3] = -3.0;
        x[11] = 4.0;
        for &d in available() {
            assert_eq!(nrm2_sq_on(d, &x), 25.0, "{d:?}");
        }
    }

    #[test]
    fn complex_dots_match_reference() {
        // x = [i, 2], y = [i, 1 + i]: xᵀy = 1 + 2i.
        let x = [0.0, 1.0, 2.0, 0.0];
        let y = [0.0, 1.0, 1.0, 1.0];
        for &d in available() {
            assert_eq!(dot_t_c64_on(d, &x, &y), (1.0, 2.0), "{d:?}");
        }
    }

    #[test]
    fn elementwise_primitives_compute_expected_values() {
        for &d in available() {
            let x = [1.0, -2.0, 3.0];
            let mut o = [2.0, -4.0, 6.0];
            axpy_on(d, 0.5, &x, &mut o);
            assert_eq!(o, [2.5, -5.0, 7.5]);
            scal_on(d, 2.0, &mut o);
            assert_eq!(o, [5.0, -10.0, 15.0]);
            let mut v = [10.0, 20.0];
            shift_scale_on(d, 2.0, 3.0, &[1.0, 2.0], &mut v);
            assert_eq!(v, [14.0, 28.0]); // 2·(v − 3x)
            let mut w = [1.0, 1.0];
            shift_scale_sub_on(d, 1.0, 0.0, 1.0, &[0.0, 0.0], &[5.0, 7.0], &mut w);
            assert_eq!(w, [-4.0, -6.0]); // w − xprev
        }
    }

    #[test]
    fn stencil_rows_matches_naive_sum() {
        // 2 slabs × 3 rows × 11 components out of a halo'd source with a
        // one-row/one-slab halo on each side, radius-2 in-row offsets.
        let (nslab, nrow, n) = (2, 3, 11);
        let r = 2;
        let row = n + 2 * r; // 15
        let slab = row * (nrow + 2); // one halo row each side
        let src = pseudo_random(slab * (nslab + 2), 31);
        let origin = slab + row + r;
        let terms: Vec<(f64, isize)> = vec![
            (-1.5, 0),
            (0.25, 1),
            (0.25, -1),
            (-0.0625, 2),
            (-0.0625, -2),
            (0.5, row as isize),
            (0.5, -(row as isize)),
            (0.125, slab as isize),
        ];
        let naive: Vec<f64> = (0..nslab * nrow * n)
            .map(|e| {
                let (k, rest) = (e / (nrow * n), e % (nrow * n));
                let (j, i) = (rest / n, rest % n);
                let p = (origin + k * slab + j * row + i) as isize;
                terms
                    .iter()
                    .map(|&(w, off)| w * src[(p + off) as usize])
                    .sum()
            })
            .collect();
        for &d in available() {
            let mut o = vec![0.0; nslab * nrow * n];
            stencil_rows_on(d, &terms, &src, origin, row, slab, nrow, n, &mut o);
            for (g, e) in o.iter().zip(naive.iter()) {
                assert!((g - e).abs() < 1e-12, "{d:?}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn complex_elementwise_matches_complex_arithmetic() {
        // (1 + 2i) · (3 − i) = 5 + 5i
        for &d in available() {
            let x = [3.0, -1.0];
            let mut y = [0.0, 0.0];
            axpy_c64_on(d, 1.0, 2.0, &x, &mut y);
            assert_eq!(y, [5.0, 5.0]);
            let mut z = [3.0, -1.0];
            scal_c64_on(d, 1.0, 2.0, &mut z);
            assert_eq!(z, [5.0, 5.0]);
        }
    }

    #[test]
    fn gemm_f64_kernel_matches_naive_tile() {
        let k = 37;
        let ap = pseudo_random(8 * k, 3);
        let bp = pseudo_random(4 * k, 4);
        let mut naive = [0.0_f64; 32];
        for p in 0..k {
            for j in 0..4 {
                for i in 0..8 {
                    naive[8 * j + i] += ap[8 * p + i] * bp[4 * p + j];
                }
            }
        }
        for &d in available() {
            let mut acc = [0.0_f64; 32];
            gemm_f64_8x4_on(d, k, &ap, &bp, &mut acc);
            for (g, n) in acc.iter().zip(naive.iter()) {
                assert!((g - n).abs() < 1e-12, "{d:?}");
            }
        }
    }

    #[test]
    fn gemm_c64_kernel_matches_naive_complex_tile() {
        let k = 19;
        let ap = pseudo_random(8 * k, 5);
        let bp = pseudo_random(8 * k, 6);
        let mut naive = [0.0_f64; 32];
        for p in 0..k {
            for j in 0..4 {
                let (br, bi) = (bp[8 * p + j], bp[8 * p + 4 + j]);
                for i in 0..4 {
                    let (ar, ai) = (ap[8 * p + i], ap[8 * p + 4 + i]);
                    naive[8 * j + i] += ar * br - ai * bi;
                    naive[8 * j + 4 + i] += ar * bi + ai * br;
                }
            }
        }
        for &d in available() {
            let mut acc = [0.0_f64; 32];
            gemm_c64_4x4_on(d, k, &ap, &bp, &mut acc);
            for (g, n) in acc.iter().zip(naive.iter()) {
                assert!((g - n).abs() < 1e-12, "{d:?}");
            }
        }
    }

    #[test]
    fn gram_tiles_match_dot_products() {
        let k = 53;
        let cols: Vec<Vec<f64>> = (0..6).map(|s| pseudo_random(k, 10 + s)).collect();
        for &d in available() {
            let mut out = [0.0_f64; 8];
            gram2x4_f64_on(
                d, &cols[0], &cols[1], &cols[2], &cols[3], &cols[4], &cols[5], &mut out,
            );
            for j in 0..4 {
                for i in 0..2 {
                    let naive: f64 = cols[i].iter().zip(&cols[2 + j]).map(|(a, b)| a * b).sum();
                    assert!((out[2 * j + i] - naive).abs() < 1e-11, "{d:?}");
                }
            }
        }
        // Complex tile, k must be even in f64 length.
        let zcols: Vec<Vec<f64>> = (0..4).map(|s| pseudo_random(2 * k + 2, 20 + s)).collect();
        for &d in available() {
            let mut out = [0.0_f64; 8];
            gram2_c64_on(d, &zcols[0], &zcols[1], &zcols[2], &zcols[3], &mut out);
            for j in 0..2 {
                for i in 0..2 {
                    let (mut re, mut im) = (0.0_f64, 0.0_f64);
                    for (xc, yc) in zcols[i].chunks_exact(2).zip(zcols[2 + j].chunks_exact(2)) {
                        re += xc[0] * yc[0] - xc[1] * yc[1];
                        im += xc[0] * yc[1] + xc[1] * yc[0];
                    }
                    let idx = 2 * (2 * j + i);
                    assert!((out[idx] - re).abs() < 1e-11, "{d:?}");
                    assert!((out[idx + 1] - im).abs() < 1e-11, "{d:?}");
                }
            }
        }
    }
}
