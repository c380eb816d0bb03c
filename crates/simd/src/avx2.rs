//! AVX2+FMA backend (x86_64).
//!
//! Every function here reproduces the canonical semantics of
//! [`crate::scalar`] bit-for-bit: elementwise ops use one
//! `_mm256_fmadd_pd`/`_mm256_fnmadd_pd` per `f64::mul_add` in the
//! oracle (and plain `_mm256_mul_pd` per plain `*`), and reductions
//! realize the canonical lane layout as register lanes, handle the
//! remainder with the oracle's own scalar formula on the extracted lane
//! state, and finish with the shared folds in [`crate::lanes`].
//!
//! All functions are `unsafe` because of `#[target_feature]`: callers
//! (the dispatch layer in `lib.rs`) must have verified `avx2` and `fma`
//! support at runtime.

#![allow(unsafe_op_in_unsafe_fn)]
// The register-blocked kernels index several register arrays with one
// const-generic-bounded loop variable; an iterator over one of them would
// hide that.
#![allow(clippy::needless_range_loop)]

use crate::lanes;
use crate::scalar::{dense_coefficients, exact_add, DENSE_GROUP};
use crate::sparse::{DenseRows, SparseRows};
use core::arch::x86_64::{
    __m128d, __m256d, __m256i, _mm256_add_pd, _mm256_blend_pd, _mm256_blendv_pd,
    _mm256_broadcast_pd, _mm256_broadcast_sd, _mm256_castpd_si256, _mm256_castsi256_pd,
    _mm256_cmp_pd, _mm256_cmpeq_epi64, _mm256_fmadd_pd, _mm256_fnmadd_pd, _mm256_loadu_pd,
    _mm256_maskload_pd, _mm256_maskstore_pd, _mm256_movedup_pd, _mm256_movemask_pd, _mm256_mul_pd,
    _mm256_permute4x64_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_set_pd, _mm256_setr_epi64x,
    _mm256_setr_pd, _mm256_setzero_pd, _mm256_setzero_si256, _mm256_storeu_pd, _mm256_unpackhi_pd,
    _mm256_unpacklo_pd, _mm_add_pd, _mm_load_sd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd,
    _mm_setzero_pd, _mm_store_sd, _mm_storeu_pd, _CMP_EQ_UQ, _CMP_LT_OQ, _CMP_NEQ_UQ,
};

/// Swap the two f64s within each 128-bit pair: `[a, b, c, d] → [b, a, d, c]`.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
unsafe fn swap_pairs(v: __m256d) -> __m256d {
    _mm256_permute_pd::<0b0101>(v)
}

// ---------------------------------------------------------------------------
// Elementwise, real coefficients
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn axpy(c: f64, x: &[f64], o: &mut [f64]) {
    debug_assert_eq!(x.len(), o.len());
    let n = o.len();
    let n4 = n - n % 4;
    let vc = _mm256_set1_pd(c);
    let (xp, op) = (x.as_ptr(), o.as_mut_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n and both slices have length n.
        let ov = _mm256_loadu_pd(op.add(i));
        let xv = _mm256_loadu_pd(xp.add(i));
        _mm256_storeu_pd(op.add(i), _mm256_fmadd_pd(vc, xv, ov));
        i += 4;
    }
    for r in n4..n {
        o[r] = c.mul_add(x[r], o[r]);
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn scal(c: f64, x: &mut [f64]) {
    let n = x.len();
    let n4 = n - n % 4;
    let vc = _mm256_set1_pd(c);
    let xp = x.as_mut_ptr();
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n.
        _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(vc, _mm256_loadu_pd(xp.add(i))));
        i += 4;
    }
    for xr in &mut x[n4..] {
        *xr *= c;
    }
}

/// Lanes `0..live` of a masked load or store enabled, `live` in `0..=4`.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — reached from kernels carrying the same
// features only. Register-only.
unsafe fn lane_mask(live: usize) -> __m256i {
    _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LT_OQ>(
        _mm256_set_pd(3.0, 2.0, 1.0, 0.0),
        _mm256_set1_pd(live as f64),
    ))
}

/// One row of `4·NV` components moved through registers, the last vector
/// through `mask` when `MASKED`: every load before any store, no loop and
/// no call.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — reached from `copy_rows` only. The
// caller guarantees `s` readable and `d` writable over the row's live
// lanes.
unsafe fn copy_block<const NV: usize, const MASKED: bool>(
    s: *const f64,
    d: *mut f64,
    mask: __m256i,
) {
    let mut regs = [_mm256_setzero_pd(); NV];
    for v in 0..NV {
        regs[v] = if MASKED && v == NV - 1 {
            _mm256_maskload_pd(s.add(4 * v), mask)
        } else {
            _mm256_loadu_pd(s.add(4 * v))
        };
    }
    for v in 0..NV {
        if MASKED && v == NV - 1 {
            _mm256_maskstore_pd(d.add(4 * v), mask, regs[v]);
        } else {
            _mm256_storeu_pd(d.add(4 * v), regs[v]);
        }
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. The wrapper checks `wrap ≤ len`; every row is checked against both
// slices right before it is moved (the assert in the loop), which bounds
// every access.
pub(crate) unsafe fn copy_rows(
    len: usize,
    wrap: usize,
    rows: &[(usize, usize)],
    src: &[f64],
    dst: &mut [f64],
) {
    if len == 0 || wrap > 4 {
        return crate::scalar::copy_rows(len, wrap, rows, src, dst);
    }
    // the last position a row may start at on either side, if any
    let last_from = src.len().checked_sub(len);
    let last_to = dst.len().checked_sub(len).and_then(|n| n.checked_sub(wrap));
    let vecs = len.div_ceil(4);
    let masked = !len.is_multiple_of(4);
    let mask = lane_mask(len - 4 * (vecs - 1));
    let wrap_mask = lane_mask(wrap);
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    // A row of up to eight vectors is all register moves, one
    // instantiation per vector count chosen once per call; a longer one is
    // what `memcpy` is good at.
    macro_rules! sweep {
        ($row:expr) => {
            for &(to, from) in rows {
                assert!(
                    Some(from) <= last_from && wrap <= to && Some(to) <= last_to,
                    "a halo row leaves its slice"
                );
                // SAFETY: from + len ≤ src.len() and
                // wrap ≤ to ≤ dst.len() − len − wrap (just asserted),
                // wrap ≤ len (wrapper): the row, the `wrap` components
                // before it and the `wrap` after it lie inside `dst`, the
                // row and both its ends inside `src`; `src` is shared and
                // `dst` exclusive, so they cannot overlap.
                let (s, d) = (sp.add(from), dp.add(to));
                $row(s, d);
                if wrap > 0 {
                    let (tail, head) = (
                        _mm256_maskload_pd(s.add(len - wrap), wrap_mask),
                        _mm256_maskload_pd(s, wrap_mask),
                    );
                    _mm256_maskstore_pd(d.sub(wrap), wrap_mask, tail);
                    _mm256_maskstore_pd(d.add(len), wrap_mask, head);
                }
            }
        };
    }
    macro_rules! block {
        ($nv:literal) => {
            if masked {
                sweep!(|s, d| copy_block::<$nv, true>(s, d, mask))
            } else {
                sweep!(|s, d| copy_block::<$nv, false>(s, d, mask))
            }
        };
    }
    match vecs {
        1 => block!(1),
        2 => block!(2),
        3 => block!(3),
        4 => block!(4),
        5 => block!(5),
        6 => block!(6),
        7 => block!(7),
        8 => block!(8),
        _ => sweep!(|s, d| core::ptr::copy_nonoverlapping(s, d, len)),
    }
}

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. The wrapper checks the extreme indices (`origin + min offset` and
// `last row end + max offset`) against `src`; every index the sweep forms
// is an affine combination with non-negative coefficients, so it lies
// between those corners and all raw loads/stores stay in bounds.
pub(crate) unsafe fn stencil_rows(
    terms: &[(f64, isize)],
    src: &[f64],
    origin: usize,
    row_stride: usize,
    slab_stride: usize,
    rows_per_slab: usize,
    row_len: usize,
    o: &mut [f64],
) {
    let n = row_len;
    let sp = src.as_ptr();
    let op = o.as_mut_ptr();
    let nrows = o.len() / n;
    // Statically-unrolled register blocks: each output element sits in one
    // lane of one named accumulator register for its whole term chain, so
    // the chains interleave (hiding FMA latency) and each per-term
    // coefficient broadcast is shared by the whole block. A dynamic vector
    // count would spill the accumulator array to the stack on every term,
    // hence one instantiation per count. What the 16-wide blocks of a row
    // leave over runs as ONE block of ⌈rem/4⌉ ≤ 4 accumulators whose last
    // vector, if partial, is masked — disabled lanes load as zero, compute
    // garbage, and are never stored — so a short row is one set of
    // interleaved chains, not a cascade of narrower, latency-bound ones.
    // Every row leaves the same remainder, so its block and mask are chosen
    // once per call.
    let rem = n % 16;
    let rem_vecs = rem.div_ceil(4);
    let mask = lane_mask(rem - 4 * rem_vecs.saturating_sub(1));
    macro_rules! sweep {
        ($rem_block:expr) => {{
            let mut slab_base = origin;
            let mut row_in_slab = 0usize;
            let mut base = origin;
            for rix in 0..nrows {
                // SAFETY: base is in bounds (see function-level argument).
                let rp = sp.add(base);
                let orow = op.add(rix * n);
                let mut i = 0usize;
                while i + 16 <= n {
                    // SAFETY: i + 16 <= n; base + off is corner-bounded
                    // (above).
                    stencil_block::<4, false>(terms, rp.add(i), orow.add(i), mask);
                    i += 16;
                }
                // SAFETY: the block's live lanes are exactly i..n; base +
                // off is corner-bounded (above).
                $rem_block(rp.add(i), orow.add(i));
                row_in_slab += 1;
                if row_in_slab == rows_per_slab {
                    row_in_slab = 0;
                    slab_base += slab_stride;
                    base = slab_base;
                } else {
                    base += row_stride;
                }
            }
        }};
    }
    macro_rules! rem_block {
        ($nv:literal) => {
            if !rem.is_multiple_of(4) {
                sweep!(|rp, orow| stencil_block::<$nv, true>(terms, rp, orow, mask))
            } else {
                sweep!(|rp, orow| stencil_block::<$nv, false>(terms, rp, orow, mask))
            }
        };
    }
    match rem_vecs {
        0 => sweep!(|_, _| ()),
        1 => rem_block!(1),
        2 => rem_block!(2),
        3 => rem_block!(3),
        _ => rem_block!(4),
    }
}

/// `NV` adjacent output vectors of one stencil row, all terms accumulated
/// in registers: `orow[l] = Σ_t terms[t].0 · rp[l + terms[t].1]` for the
/// block's lanes `l`. With `MASKED` the last vector loads and stores
/// through `mask` only.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — reached from `stencil_rows` only, which
// carries the same features. The caller guarantees `rp + l + off` readable
// and `orow + l` writable for every term offset and every live lane `l` of
// the block (`4·NV` lanes, or up to the last set lane of `mask` in the
// last vector when `MASKED`).
unsafe fn stencil_block<const NV: usize, const MASKED: bool>(
    terms: &[(f64, isize)],
    rp: *const f64,
    orow: *mut f64,
    mask: __m256i,
) {
    // vector `v` of the block at `tp`: through the mask if it is the
    // masked last one
    let load = |tp: *const f64, v: usize| {
        if MASKED && v == NV - 1 {
            _mm256_maskload_pd(tp.add(4 * v), mask)
        } else {
            _mm256_loadu_pd(tp.add(4 * v))
        }
    };
    // a multiply opens each chain, one FMA per further term
    let (w0, off0) = terms[0];
    let vw0 = _mm256_set1_pd(w0);
    let mut acc = [_mm256_setzero_pd(); NV];
    for v in 0..NV {
        acc[v] = _mm256_mul_pd(vw0, load(rp.offset(off0), v));
    }
    for &(w, off) in &terms[1..] {
        let vw = _mm256_set1_pd(w);
        let tp = rp.offset(off);
        for v in 0..NV {
            acc[v] = _mm256_fmadd_pd(vw, load(tp, v), acc[v]);
        }
    }
    for v in 0..NV {
        if MASKED && v == NV - 1 {
            _mm256_maskstore_pd(orow.add(4 * v), mask, acc[v]);
        } else {
            _mm256_storeu_pd(orow.add(4 * v), acc[v]);
        }
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn shift_scale(s: f64, c: f64, x: &[f64], v: &mut [f64]) {
    debug_assert_eq!(x.len(), v.len());
    let n = v.len();
    let n4 = n - n % 4;
    let vs = _mm256_set1_pd(s);
    let vc = _mm256_set1_pd(c);
    let (xp, vp) = (x.as_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n and both slices have length n.
        let vv = _mm256_loadu_pd(vp.add(i));
        let xv = _mm256_loadu_pd(xp.add(i));
        _mm256_storeu_pd(vp.add(i), _mm256_mul_pd(vs, _mm256_fnmadd_pd(vc, xv, vv)));
        i += 4;
    }
    for r in n4..n {
        v[r] = s * (-c).mul_add(x[r], v[r]);
    }
}

#[allow(clippy::many_single_char_names)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn shift_scale_sub(
    s: f64,
    c: f64,
    t: f64,
    y: &[f64],
    xprev: &[f64],
    w: &mut [f64],
) {
    debug_assert_eq!(y.len(), w.len());
    debug_assert_eq!(xprev.len(), w.len());
    let n = w.len();
    let n4 = n - n % 4;
    let vs = _mm256_set1_pd(s);
    let vc = _mm256_set1_pd(c);
    let vt = _mm256_set1_pd(t);
    let (yp, xp, wp) = (y.as_ptr(), xprev.as_ptr(), w.as_mut_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n and all three slices have length n.
        let wv = _mm256_loadu_pd(wp.add(i));
        let yv = _mm256_loadu_pd(yp.add(i));
        let xv = _mm256_loadu_pd(xp.add(i));
        let inner = _mm256_mul_pd(vs, _mm256_fnmadd_pd(vc, yv, wv));
        _mm256_storeu_pd(wp.add(i), _mm256_fnmadd_pd(vt, xv, inner));
        i += 4;
    }
    for r in n4..n {
        w[r] = (-t).mul_add(xprev[r], s * (-c).mul_add(y[r], w[r]));
    }
}

// ---------------------------------------------------------------------------
// The sparse rank-one sum `y += Σ_r γ_r p_r (p_rᵀx)` over the rows `p_r` of
// a `SparseRows`, on dense vectors of `CS` components per element
//
// An element is held in one `__m128d`: both lanes for interleaved complex
// data (`CS = 2`), the low lane over a zero high lane for real data
// (`CS = 1`). Packed multiplies and adds then round each live lane exactly
// as the scalar twin's plain `*` and `+` do.
// ---------------------------------------------------------------------------

/// Element `i` of a dense vector of `CS`-component elements.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — reached from `sparse_projector_add_cs`
// only, which carries the same features. The caller guarantees `p` points
// at a vector of more than `i` elements.
unsafe fn elem_load<const CS: usize>(p: *const f64, i: usize) -> __m128d {
    if CS == 1 {
        _mm_load_sd(p.add(i))
    } else {
        _mm_loadu_pd(p.add(2 * i))
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — see `sparse_projector_add`.
unsafe fn sparse_projector_add_cs<const CS: usize>(
    rows: &SparseRows,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let (ptr, idx, val) = rows.parts();
    let (ip, vp, xp, yp) = (idx.as_ptr(), val.as_ptr(), x.as_ptr(), y.as_mut_ptr());
    // SAFETY (all three closures): `k` is an entry of `idx`/`val` — every
    // call site takes it from a span `ptr[r]..ptr[r + 1]`; `SparseRows`
    // bounds every stored index by `rows.cols()`, and the wrapper checked
    // that `x` and `y` hold that many elements.
    let entry = |k: usize| (*ip.add(k) as usize, _mm_set1_pd(*vp.add(k)));
    // one more term of a dot: `acc + x[idx_k]·val_k`
    let dot_term = |acc: __m128d, k: usize| {
        let (i, p) = entry(k);
        _mm_add_pd(acc, _mm_mul_pd(elem_load::<CS>(xp, i), p))
    };
    // `y += c·p_r` over the entries `span` of one row
    let update = |c: __m128d, span: core::ops::Range<usize>| {
        for k in span {
            let (i, p) = entry(k);
            let sum = _mm_add_pd(elem_load::<CS>(yp, i), _mm_mul_pd(c, p));
            if CS == 1 {
                _mm_store_sd(yp.add(i), sum);
            } else {
                _mm_storeu_pd(yp.add(2 * i), sum);
            }
        }
    };
    // Two rows at a time (an odd last one beside an empty span). A dot is
    // one chain of dependent adds, so a row alone runs at the latency of
    // an add per entry; two independent chains side by side run at the
    // throughput of the loads. Which rows share a pass changes no row's own
    // sequence of adds.
    let nrows = rows.rows();
    let span = |r: usize| {
        if r < nrows {
            ptr[r] as usize..ptr[r + 1] as usize
        } else {
            0..0
        }
    };
    for r in (0..nrows).step_by(2) {
        let (a, b) = (span(r), span(r + 1));
        let shared = a.len().min(b.len());
        let (mut dot_a, mut dot_b) = (_mm_setzero_pd(), _mm_setzero_pd());
        for k in 0..shared {
            dot_a = dot_term(dot_a, a.start + k);
            dot_b = dot_term(dot_b, b.start + k);
        }
        for k in a.start + shared..a.end {
            dot_a = dot_term(dot_a, k);
        }
        for k in b.start + shared..b.end {
            dot_b = dot_term(dot_b, k);
        }
        // `y += γ_r (p_rᵀx) p_r`, one row after the other: rows may share
        // columns, and the order in which their terms reach such an
        // element of `y` is part of its bits. `gamma` holds one strength
        // per row (wrapper); an empty `b` past the last row updates
        // nothing.
        update(_mm_mul_pd(dot_a, _mm_set1_pd(gamma[r])), a);
        if !b.is_empty() {
            update(_mm_mul_pd(dot_b, _mm_set1_pd(gamma[r + 1])), b);
        }
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. The wrapper checks `cs ∈ {1, 2}`, `gamma.len() = rows.rows()` and
// `x.len() = y.len() = cs·rows.cols()`; `SparseRows` checked every stored
// index against `rows.cols()` when it was built.
pub(crate) unsafe fn sparse_projector_add(
    cs: usize,
    rows: &SparseRows,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    if cs == 1 {
        sparse_projector_add_cs::<1>(rows, gamma, x, y)
    } else {
        sparse_projector_add_cs::<2>(rows, gamma, x, y)
    }
}

// ---------------------------------------------------------------------------
// The same sum over a `DenseRows`, which keeps the sparse kernel's bits for
// the reasons `scalar::dense_projector_add` gives
//
// A group of up to `DENSE_GROUP` rows is `NP` row pairs. The dots run over
// the columns with rows × components as lanes, one register per pair and
// each lane one chain from `+0` in ascending column order. The update runs
// with the columns as lanes, each element taking the group's rows in
// ascending order; a vector holding `−0` or NaN adds only the terms of
// stored entries (a blend on `p ≠ 0`), as does every vector of a group with
// a non-finite coefficient.
// ---------------------------------------------------------------------------

/// True when a lane of `v` is `−0` or a NaN (`scalar::needs_exact`): one
/// compare finds the lanes that are zero or NaN, which are rare, and only
/// then a second one tells `+0` (bits all clear) from the others.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — reached from `dense_group` only, which
// carries the same features. Register operations only.
unsafe fn needs_exact(v: __m256d) -> bool {
    let zero_or_nan = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_UQ>(v, _mm256_setzero_pd()));
    zero_or_nan != 0 && {
        let bits = _mm256_castpd_si256(v);
        let plus_zero = _mm256_cmpeq_epi64(bits, _mm256_setzero_si256());
        zero_or_nan & !_mm256_movemask_pd(_mm256_castsi256_pd(plus_zero)) != 0
    }
}

/// One group of `NP` row pairs from row `g0` (even): dots, coefficients,
/// update.
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — see `dense_projector_add`, which also
// guarantees that the group's pairs lie inside the table.
unsafe fn dense_group<const CS: usize, const NP: usize>(
    m: &DenseRows,
    g0: usize,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let cols = m.cols();
    let nr = (m.rows() - g0).min(2 * NP);
    // pair `q` of the group: `2·cols` values, two rows interleaved
    // SAFETY (every access through `pairs`, `xp` and `y`'s pointers
    // below): pair `g0/2 + q` lies in the table (caller), and each read of
    // a pair stays inside its `2·cols` values — the dots read `2j..2j + 2`
    // for `j < cols`, the update `2j..2j + 4` while `j + 2 ≤ cols` or
    // `2j..2j + 8` while `j + 4 ≤ cols`. `x` and `y` hold `CS·cols` values
    // (wrapper); the update loads and stores `y[CS·j..CS·j + 4]` under the
    // same loop bounds.
    let pairs: [*const f64; NP] =
        core::array::from_fn(|q| m.table().as_ptr().add(cols * g0 + 2 * cols * q));
    let xp = x.as_ptr();
    let mut c = [[0.0_f64; 2]; DENSE_GROUP];
    if CS == 2 {
        // lanes `[a re, b re, a im, b im]` for the pair's rows `a`, `b`
        let mut acc = [_mm256_setzero_pd(); NP];
        for j in 0..cols {
            let xv = _mm256_blend_pd::<0b1100>(
                _mm256_broadcast_sd(&*xp.add(2 * j)),
                _mm256_broadcast_sd(&*xp.add(2 * j + 1)),
            );
            for q in 0..NP {
                let pv = _mm256_broadcast_pd(&*(pairs[q].add(2 * j) as *const __m128d));
                acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(pv, xv));
            }
        }
        for q in 0..NP {
            let mut d = [0.0_f64; 4];
            _mm256_storeu_pd(d.as_mut_ptr(), acc[q]);
            c[2 * q] = [d[0], d[2]];
            c[2 * q + 1] = [d[1], d[3]];
        }
    } else {
        // lanes `[a, b]`
        let mut acc = [_mm_setzero_pd(); NP];
        for j in 0..cols {
            let xv = _mm_set1_pd(*xp.add(j));
            for q in 0..NP {
                acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(_mm_loadu_pd(pairs[q].add(2 * j)), xv));
            }
        }
        for q in 0..NP {
            let mut d = [0.0_f64; 2];
            _mm_storeu_pd(d.as_mut_ptr(), acc[q]);
            c[2 * q][0] = d[0];
            c[2 * q + 1][0] = d[1];
        }
    }
    // an odd group's last pair holds a row of zeros: its coefficient is 0,
    // so its terms are `+0` and change no element the vector body updates
    c[nr..].fill([0.0; 2]);
    let finite = dense_coefficients(CS, m, g0, nr, gamma, x, &mut c);
    // `y + c·p` in every lane, or — for a vector holding `−0` or NaN, and
    // for every vector when a coefficient is not finite — only in the lanes
    // where `p` holds an entry: the sparse update, lane by lane
    let sum = |y: __m256d, c: __m256d, p: __m256d| _mm256_add_pd(y, _mm256_mul_pd(c, p));
    let masked = |y: __m256d, c: __m256d, p: __m256d| {
        let stored = _mm256_cmp_pd::<_CMP_NEQ_UQ>(p, _mm256_setzero_pd());
        _mm256_blendv_pd(y, sum(y, c, p), stored)
    };
    let mut j = 0;
    if CS == 2 {
        let cv: [__m256d; DENSE_GROUP] =
            core::array::from_fn(|r| _mm256_setr_pd(c[r][0], c[r][1], c[r][0], c[r][1]));
        // rows `a`, `b` of pair `q` at columns `j`, `j + 1`, each spread
        // over both components: `[p_j, p_j, p_j+1, p_j+1]`
        let rows = |q: usize, j: usize| {
            let pv = _mm256_loadu_pd(pairs[q].add(2 * j));
            (
                _mm256_permute_pd::<0b0000>(pv),
                _mm256_permute_pd::<0b1111>(pv),
            )
        };
        // two columns `j`, `j + 1` a step: `[re, im, re, im]`
        while j + 2 <= cols {
            let mut yv = _mm256_loadu_pd(y.as_ptr().add(2 * j));
            if finite && !needs_exact(yv) {
                for q in 0..NP {
                    let (a, b) = rows(q, j);
                    yv = sum(sum(yv, cv[2 * q], a), cv[2 * q + 1], b);
                }
            } else {
                for q in 0..NP {
                    let (a, b) = rows(q, j);
                    yv = masked(masked(yv, cv[2 * q], a), cv[2 * q + 1], b);
                }
            }
            _mm256_storeu_pd(y.as_mut_ptr().add(2 * j), yv);
            j += 2;
        }
    } else {
        let cv: [__m256d; DENSE_GROUP] = core::array::from_fn(|r| _mm256_set1_pd(c[r][0]));
        // rows `a`, `b` of pair `q` at four columns from `j`, in the order
        // `j, j + 2, j + 1, j + 3` that unpacking two pair loads yields
        let rows = |q: usize, j: usize| {
            let lo = _mm256_loadu_pd(pairs[q].add(2 * j));
            let hi = _mm256_loadu_pd(pairs[q].add(2 * j + 4));
            (_mm256_unpacklo_pd(lo, hi), _mm256_unpackhi_pd(lo, hi))
        };
        const SWAP_MIDDLE: i32 = 0b11_01_10_00;
        while j + 4 <= cols {
            let y0 = _mm256_loadu_pd(y.as_ptr().add(j));
            let mut yv = _mm256_permute4x64_pd::<SWAP_MIDDLE>(y0);
            if finite && !needs_exact(y0) {
                for q in 0..NP {
                    let (a, b) = rows(q, j);
                    yv = sum(sum(yv, cv[2 * q], a), cv[2 * q + 1], b);
                }
            } else {
                for q in 0..NP {
                    let (a, b) = rows(q, j);
                    yv = masked(masked(yv, cv[2 * q], a), cv[2 * q + 1], b);
                }
            }
            _mm256_storeu_pd(
                y.as_mut_ptr().add(j),
                _mm256_permute4x64_pd::<SWAP_MIDDLE>(yv),
            );
            j += 4;
        }
    }
    // the last columns, one element at a time over the entries
    for j in j..cols {
        for k in 0..CS {
            y[CS * j + k] = exact_add(m, g0, nr, &c, k, j, y[CS * j + k]);
        }
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. The wrapper checks `cs ∈ {1, 2}`, `gamma.len() = m.rows()` and
// `x.len() = y.len() = cs·m.cols()`; `DenseRows` holds `2·cols` values
// for each of its `⌈rows/2⌉` pairs, and a group from row `g0` reads the
// pairs `g0/2 .. ⌈(g0 + nr)/2⌉` only.
pub(crate) unsafe fn dense_projector_add(
    cs: usize,
    m: &DenseRows,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    for g0 in (0..m.rows()).step_by(DENSE_GROUP) {
        let pairs = (m.rows() - g0).min(DENSE_GROUP).div_ceil(2);
        match (cs, pairs) {
            (1, 1) => dense_group::<1, 1>(m, g0, gamma, x, y),
            (1, 2) => dense_group::<1, 2>(m, g0, gamma, x, y),
            (1, 3) => dense_group::<1, 3>(m, g0, gamma, x, y),
            (1, _) => dense_group::<1, 4>(m, g0, gamma, x, y),
            (_, 1) => dense_group::<2, 1>(m, g0, gamma, x, y),
            (_, 2) => dense_group::<2, 2>(m, g0, gamma, x, y),
            (_, 3) => dense_group::<2, 3>(m, g0, gamma, x, y),
            _ => dense_group::<2, 4>(m, g0, gamma, x, y),
        }
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let n8 = n - n % lanes::F64_LANES;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 8 <= n and both slices have length n.
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(xp.add(i + 4)),
            _mm256_loadu_pd(yp.add(i + 4)),
            acc1,
        );
        i += 8;
    }
    let mut state = [0.0_f64; lanes::F64_LANES];
    // SAFETY: `state` has room for both 4-lane stores.
    _mm256_storeu_pd(state.as_mut_ptr(), acc0);
    _mm256_storeu_pd(state.as_mut_ptr().add(4), acc1);
    for r in n8..n {
        let l = r % lanes::F64_LANES;
        state[l] = x[r].mul_add(y[r], state[l]);
    }
    lanes::fold(&state)
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn nrm2_sq(x: &[f64]) -> f64 {
    let n = x.len();
    let n8 = n - n % lanes::F64_LANES;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 8 <= n.
        let v0 = _mm256_loadu_pd(xp.add(i));
        let v1 = _mm256_loadu_pd(xp.add(i + 4));
        acc0 = _mm256_fmadd_pd(v0, v0, acc0);
        acc1 = _mm256_fmadd_pd(v1, v1, acc1);
        i += 8;
    }
    let mut state = [0.0_f64; lanes::F64_LANES];
    // SAFETY: `state` has room for both 4-lane stores.
    _mm256_storeu_pd(state.as_mut_ptr(), acc0);
    _mm256_storeu_pd(state.as_mut_ptr().add(4), acc1);
    for (r, &xr) in x.iter().enumerate().skip(n8) {
        let l = r % lanes::F64_LANES;
        state[l] = xr.mul_add(xr, state[l]);
    }
    lanes::fold(&state)
}

// ---------------------------------------------------------------------------
// GEMM microkernel
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn gemm_f64_8x4(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 32]) {
    debug_assert!(ap.len() >= 8 * k);
    debug_assert!(bp.len() >= 4 * k);
    let accp = acc.as_mut_ptr();
    // SAFETY: `acc` is exactly 32 f64s; offsets 0..28 stay in bounds.
    let mut c00 = _mm256_loadu_pd(accp);
    let mut c01 = _mm256_loadu_pd(accp.add(4));
    let mut c10 = _mm256_loadu_pd(accp.add(8));
    let mut c11 = _mm256_loadu_pd(accp.add(12));
    let mut c20 = _mm256_loadu_pd(accp.add(16));
    let mut c21 = _mm256_loadu_pd(accp.add(20));
    let mut c30 = _mm256_loadu_pd(accp.add(24));
    let mut c31 = _mm256_loadu_pd(accp.add(28));
    let app = ap.as_ptr();
    let bpp = bp.as_ptr();
    for p in 0..k {
        // SAFETY: panel bounds checked by the debug_asserts above; the
        // packing layer always provides full 8-tall / 4-wide panels.
        let a0 = _mm256_loadu_pd(app.add(8 * p));
        let a1 = _mm256_loadu_pd(app.add(8 * p + 4));
        let b0 = _mm256_broadcast_sd(&*bpp.add(4 * p));
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a1, b0, c01);
        let b1 = _mm256_broadcast_sd(&*bpp.add(4 * p + 1));
        c10 = _mm256_fmadd_pd(a0, b1, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        let b2 = _mm256_broadcast_sd(&*bpp.add(4 * p + 2));
        c20 = _mm256_fmadd_pd(a0, b2, c20);
        c21 = _mm256_fmadd_pd(a1, b2, c21);
        let b3 = _mm256_broadcast_sd(&*bpp.add(4 * p + 3));
        c30 = _mm256_fmadd_pd(a0, b3, c30);
        c31 = _mm256_fmadd_pd(a1, b3, c31);
    }
    // SAFETY: same bounds as the loads above.
    _mm256_storeu_pd(accp, c00);
    _mm256_storeu_pd(accp.add(4), c01);
    _mm256_storeu_pd(accp.add(8), c10);
    _mm256_storeu_pd(accp.add(12), c11);
    _mm256_storeu_pd(accp.add(16), c20);
    _mm256_storeu_pd(accp.add(20), c21);
    _mm256_storeu_pd(accp.add(24), c30);
    _mm256_storeu_pd(accp.add(28), c31);
}

// ---------------------------------------------------------------------------
// Gram tile
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn gram2x4_f64(
    a0: &[f64],
    a1: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
    out: &mut [f64; 8],
) {
    let k = a0.len();
    debug_assert!(
        a1.len() == k && b0.len() == k && b1.len() == k && b2.len() == k && b3.len() == k
    );
    let k4 = k - k % lanes::GRAM_F64_LANES;
    let mut s = [_mm256_setzero_pd(); 8];
    let ap = [a0.as_ptr(), a1.as_ptr()];
    let bp = [b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr()];
    let mut p = 0;
    while p < k4 {
        // SAFETY: p + 4 <= k and every slice has length k.
        let av0 = _mm256_loadu_pd(ap[0].add(p));
        let av1 = _mm256_loadu_pd(ap[1].add(p));
        for j in 0..4 {
            let bv = _mm256_loadu_pd(bp[j].add(p));
            s[2 * j] = _mm256_fmadd_pd(av0, bv, s[2 * j]);
            s[2 * j + 1] = _mm256_fmadd_pd(av1, bv, s[2 * j + 1]);
        }
        p += 4;
    }
    let mut state = [[0.0_f64; lanes::GRAM_F64_LANES]; 8];
    for (arr, acc) in state.iter_mut().zip(s.iter()) {
        // SAFETY: each lane array holds exactly 4 f64s.
        _mm256_storeu_pd(arr.as_mut_ptr(), *acc);
    }
    let a = [a0, a1];
    let b = [b0, b1, b2, b3];
    for r in k4..k {
        let l = r % lanes::GRAM_F64_LANES;
        for j in 0..4 {
            let bv = b[j][r];
            for i in 0..2 {
                let st = &mut state[2 * j + i][l];
                *st = a[i][r].mul_add(bv, *st);
            }
        }
    }
    for (o, arr) in out.iter_mut().zip(state.iter()) {
        *o = lanes::fold(arr);
    }
}

// ---------------------------------------------------------------------------
// Paired real Lanczos step
// ---------------------------------------------------------------------------

/// `[k[0], k[1], k[0], k[1]]`: one coefficient per slot of two interleaved
/// pairs.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; no memory access.
unsafe fn pair_coef(k: [f64; 2]) -> __m256d {
    _mm256_set_pd(k[1], k[0], k[1], k[0])
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. The safe wrapper checked that `v_prev`, `v` and `y` have one length;
// every raw access below is at `p..p + 4` with `p + 8 <= len` or
// `p + 4 <= len`.
pub(crate) unsafe fn lanczos_pair_project(
    s: [f64; 2],
    c: [f64; 2],
    v_prev: &[f64],
    v: &[f64],
    y: &mut [f64],
) -> [f64; 2] {
    let len = y.len();
    let (sv, cv) = (pair_coef(s), pair_coef(c));
    let (mut acc0, mut acc1) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    let (pp, vp, yp) = (v_prev.as_ptr(), v.as_ptr(), y.as_mut_ptr());
    let whole = len - len % lanes::PAIR_LANES;
    let mut p = 0;
    while p < whole {
        // SAFETY: p + 8 <= len (see the function contract).
        let u0 = _mm256_fnmadd_pd(
            cv,
            _mm256_loadu_pd(pp.add(p)),
            _mm256_mul_pd(_mm256_loadu_pd(yp.add(p)), sv),
        );
        let u1 = _mm256_fnmadd_pd(
            cv,
            _mm256_loadu_pd(pp.add(p + 4)),
            _mm256_mul_pd(_mm256_loadu_pd(yp.add(p + 4)), sv),
        );
        _mm256_storeu_pd(yp.add(p), u0);
        _mm256_storeu_pd(yp.add(p + 4), u1);
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(vp.add(p)), u0, acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(vp.add(p + 4)), u1, acc1);
        p += lanes::PAIR_LANES;
    }
    let mut state = [0.0_f64; lanes::PAIR_LANES];
    // SAFETY: `state` holds exactly 8 f64s.
    _mm256_storeu_pd(state.as_mut_ptr(), acc0);
    _mm256_storeu_pd(state.as_mut_ptr().add(4), acc1);
    crate::scalar::lanczos_pair_project_span(whole..len, s, c, v_prev, v, y, &mut state);
    lanes::fold_pair(&state)
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. The safe wrapper checked that all five vectors have one length;
// every raw access below is at `p..p + 4` with `p + 4 <= len`.
pub(crate) unsafe fn lanczos_pair_advance(
    k: &crate::PairStep,
    v: &[f64],
    u: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    x: &mut [f64],
) -> [f64; 2] {
    let len = u.len();
    let (a, t_re, t_im) = (pair_coef(k.a), pair_coef(k.t_re), pair_coef(k.t_im));
    let (g_re, g_im) = (pair_coef(k.g_re), pair_coef(k.g_im));
    let (z_re, z_im) = (pair_coef(k.z_re), pair_coef(k.z_im));
    let mut acc = [_mm256_setzero_pd(); 2];
    let vp = v.as_ptr();
    let (up, rp, ip, xp) = (
        u.as_mut_ptr(),
        d_re.as_mut_ptr(),
        d_im.as_mut_ptr(),
        x.as_mut_ptr(),
    );
    let whole = len - len % lanes::PAIR_LANES;
    let mut p = 0;
    while p < whole {
        for h in 0..2 {
            // SAFETY: p + 4·h + 4 <= len (see the function contract).
            let o = p + 4 * h;
            let vv = _mm256_loadu_pd(vp.add(o));
            let next = _mm256_fnmadd_pd(a, vv, _mm256_loadu_pd(up.add(o)));
            _mm256_storeu_pd(up.add(o), next);
            acc[h] = _mm256_fmadd_pd(next, next, acc[h]);
            let (dr, di) = (_mm256_loadu_pd(rp.add(o)), _mm256_loadu_pd(ip.add(o)));
            let nr = _mm256_fnmadd_pd(g_re, dr, _mm256_fmadd_pd(g_im, di, _mm256_mul_pd(t_re, vv)));
            let ni = _mm256_fnmadd_pd(
                g_re,
                di,
                _mm256_fnmadd_pd(g_im, dr, _mm256_mul_pd(t_im, vv)),
            );
            _mm256_storeu_pd(rp.add(o), nr);
            _mm256_storeu_pd(ip.add(o), ni);
            let xv = _mm256_loadu_pd(xp.add(o));
            _mm256_storeu_pd(
                xp.add(o),
                _mm256_fnmadd_pd(z_im, ni, _mm256_fmadd_pd(z_re, nr, xv)),
            );
        }
        p += lanes::PAIR_LANES;
    }
    let mut state = [0.0_f64; lanes::PAIR_LANES];
    // SAFETY: `state` holds exactly 8 f64s.
    _mm256_storeu_pd(state.as_mut_ptr(), acc[0]);
    _mm256_storeu_pd(state.as_mut_ptr().add(4), acc[1]);
    crate::scalar::lanczos_pair_advance_span(whole..len, k, v, u, d_re, d_im, x, &mut state);
    lanes::fold_pair(&state)
}

// ---------------------------------------------------------------------------
// Block Lanczos on pair-packed real blocks
// ---------------------------------------------------------------------------

/// Broadcast coefficients of an `s × s` matrix padded to `2M` columns:
/// `[q][j][h]` is `[c(l, 2j), c(l, 2j + 1)]` twice with `l = 2q + h`, the
/// weight of input column `l` in the two columns of output vector `j`.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; only the kernels below call it. All memory access goes
// through safe slices.
unsafe fn pair_coefs<const M: usize>(s: usize, c: &[f64]) -> [[[__m256d; 2]; M]; M] {
    let mut out = [[[_mm256_setzero_pd(); 2]; M]; M];
    for q in 0..M {
        for j in 0..M {
            for h in 0..2 {
                let l = 2 * q + h;
                let a = crate::scalar::pad_coef(s, c, l, 2 * j);
                let b = crate::scalar::pad_coef(s, c, l, 2 * j + 1);
                out[q][j][h] = _mm256_setr_pd(a, b, a, b);
            }
        }
    }
    out
}

/// Slot 0 and slot 1 of both rows of a pair vector, each copied across
/// its row: `[a, b, c, d] → [a, a, c, c], [b, b, d, d]`.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; register-only.
unsafe fn dup_slots(x: __m256d) -> [__m256d; 2] {
    [_mm256_movedup_pd(x), _mm256_permute_pd::<0b1111>(x)]
}

/// Both slots of vector `q` of a pair-packed block at rows `i`, `i + 1`,
/// each copied across its row.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support and that `2·(q·rows + i) + 4` is within the block behind `p`.
unsafe fn load_dup(p: *const f64, rows: usize, q: usize, i: usize) -> [__m256d; 2] {
    dup_slots(_mm256_loadu_pd(p.add(2 * (q * rows + i))))
}

/// The two rows at `p`, or where `HALF` the lone row there (the other
/// lanes zero, their memory not touched).
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support and that `p..p + 4` (`HALF`: `p..p + 2`) is readable.
unsafe fn load_rows<const HALF: bool>(p: *const f64) -> __m256d {
    if HALF {
        _mm256_maskload_pd(p, _mm256_setr_epi64x(-1, -1, 0, 0))
    } else {
        _mm256_loadu_pd(p)
    }
}

/// Store the two rows of `v` at `p`, or where `HALF` the first alone.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support and that `p..p + 4` (`HALF`: `p..p + 2`) is writable.
unsafe fn store_rows<const HALF: bool>(p: *mut f64, v: __m256d) {
    if HALF {
        _mm256_maskstore_pd(p, _mm256_setr_epi64x(-1, -1, 0, 0), v);
    } else {
        _mm256_storeu_pd(p, v);
    }
}

/// [`load_dup`] through [`load_rows`].
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — as [`load_rows`] at
// `p + 2·(q·rows + i)`.
unsafe fn load_dup_rows<const HALF: bool>(
    p: *const f64,
    rows: usize,
    q: usize,
    i: usize,
) -> [__m256d; 2] {
    dup_slots(load_rows::<HALF>(p.add(2 * (q * rows + i))))
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support. The safe wrapper checked that `x`, `y` and `left` hold `M`
// vectors of `2·rows` f64 and `c`, `out` `s × s` with `2M − 1 ≤ s ≤ 2M`;
// every raw access below is at `2·(q·rows + i)..+4` with `q < M` and
// `i + 2 <= rows`.
unsafe fn block_update_gram_m<const M: usize, const SYM: bool>(
    rows: usize,
    s: usize,
    c: &[f64],
    x: &[f64],
    left: Option<&[f64]>,
    y: &mut [f64],
    out: &mut [f64],
) {
    let cc = pair_coefs::<M>(s, c);
    let z = _mm256_setzero_pd();
    let mut gp = [[z; M]; M];
    let mut gq = [[z; M]; M];
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let lp = left.map_or(yp as *const f64, |l| l.as_ptr());
    let even = rows - rows % 2;
    let mut i = 0;
    while i < even {
        let mut xd = [[z; 2]; M];
        for q in 0..M {
            // SAFETY: q < M and i + 2 <= rows (see the function contract).
            xd[q] = load_dup(xp, rows, q, i);
        }
        let mut yv = [z; M];
        for j in 0..M {
            let o = 2 * (j * rows + i);
            // SAFETY: j < M and i + 2 <= rows.
            let mut acc = _mm256_loadu_pd(yp.add(o));
            for q in 0..M {
                for h in 0..2 {
                    acc = _mm256_fnmadd_pd(cc[q][j][h], xd[q][h], acc);
                }
            }
            _mm256_storeu_pd(yp.add(o), acc);
            yv[j] = acc;
        }
        let mut lv = yv;
        if !SYM {
            for p in 0..M {
                // SAFETY: p < M and i + 2 <= rows.
                lv[p] = _mm256_loadu_pd(lp.add(2 * (p * rows + i)));
            }
        }
        for q in 0..M {
            let ys = swap_pairs(yv[q]);
            for p in 0..if SYM { q + 1 } else { M } {
                gp[p][q] = _mm256_fmadd_pd(lv[p], yv[q], gp[p][q]);
                gq[p][q] = _mm256_fmadd_pd(lv[p], ys, gq[p][q]);
            }
        }
        i += 2;
    }
    if even < rows {
        crate::scalar::block_sub_row(rows, s, even, c, x, y);
    }
    let y: &[f64] = y;
    for q in 0..M {
        for p in 0..if SYM { q + 1 } else { M } {
            let mut st = [[0.0_f64; 4]; 2];
            // SAFETY: each lane array holds exactly 4 f64s.
            _mm256_storeu_pd(st[0].as_mut_ptr(), gp[p][q]);
            _mm256_storeu_pd(st[1].as_mut_ptr(), gq[p][q]);
            if even < rows {
                // rows is odd, so the last row index is even: row lane 0
                crate::scalar::block_gram_row(rows, even, 0, p, q, left.unwrap_or(y), y, &mut st);
            }
            lanes::finish_block_pair(s, p, q, SYM, &st, out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. Slice lengths are checked by the safe wrappers and restated at
// `block_update_gram_m`.
pub(crate) unsafe fn block_update_gram(
    rows: usize,
    s: usize,
    c: &[f64],
    x: &[f64],
    left: Option<&[f64]>,
    y: &mut [f64],
    out: &mut [f64],
) {
    match (s.div_ceil(2), left.is_none()) {
        (1, false) => block_update_gram_m::<1, false>(rows, s, c, x, left, y, out),
        (2, false) => block_update_gram_m::<2, false>(rows, s, c, x, left, y, out),
        (3, false) => block_update_gram_m::<3, false>(rows, s, c, x, left, y, out),
        (4, false) => block_update_gram_m::<4, false>(rows, s, c, x, left, y, out),
        (5, false) => block_update_gram_m::<5, false>(rows, s, c, x, left, y, out),
        (1, true) => block_update_gram_m::<1, true>(rows, s, c, x, left, y, out),
        (2, true) => block_update_gram_m::<2, true>(rows, s, c, x, left, y, out),
        (3, true) => block_update_gram_m::<3, true>(rows, s, c, x, left, y, out),
        (4, true) => block_update_gram_m::<4, true>(rows, s, c, x, left, y, out),
        (5, true) => block_update_gram_m::<5, true>(rows, s, c, x, left, y, out),
        _ => block_update_gram_wide(rows, s, c, x, left, y, out),
    }
}

/// The packed coefficients of one advance sweep ([`pair_coefs`] of each
/// matrix of a [`crate::BlockStep`]).
struct AdvanceCoefs<const M: usize> {
    cb: [[[__m256d; 2]; M]; M],
    cer: [[[__m256d; 2]; M]; M],
    cei: [[[__m256d; 2]; M]; M],
    cgr: [[[__m256d; 2]; M]; M],
    cgi: [[[__m256d; 2]; M]; M],
    czr: [[[__m256d; 2]; M]; M],
    czi: [[[__m256d; 2]; M]; M],
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support. The safe wrapper checked that every block holds `M` vectors
// of `2·rows` f64 and every coefficient matrix `s × s` with
// `2M − 1 ≤ s ≤ 2M`; every raw access below is at `2·(q·rows + i)..+4`
// with `q < M` and `i + 2 <= rows`.
unsafe fn block_advance_m<const M: usize, const R: usize>(
    rows: usize,
    s: usize,
    k: &crate::BlockStep<'_>,
    u: &[f64],
    v: &[f64],
    d_re: &[f64],
    d_im: &[f64],
    v_next: &mut [f64],
    dn_re: &mut [f64],
    dn_im: &mut [f64],
    x: &mut [f64],
) {
    let c = AdvanceCoefs::<M> {
        cb: pair_coefs::<M>(s, k.b_inv),
        cer: pair_coefs::<M>(s, k.e_re),
        cei: pair_coefs::<M>(s, k.e_im),
        cgr: pair_coefs::<M>(s, k.g_re),
        cgi: pair_coefs::<M>(s, k.g_im),
        czr: pair_coefs::<M>(s, k.z_re),
        czi: pair_coefs::<M>(s, k.z_im),
    };
    let inp = [u.as_ptr(), v.as_ptr(), d_re.as_ptr(), d_im.as_ptr()];
    let out = [
        v_next.as_mut_ptr(),
        dn_re.as_mut_ptr(),
        dn_im.as_mut_ptr(),
        x.as_mut_ptr(),
    ];
    let even = rows - rows % 2;
    let mut i = 0;
    while i + 2 * R <= even {
        // SAFETY: i + 2R <= rows (the loop bound), blocks as above.
        block_advance_steps::<M, R, false>(rows, i, &c, inp, out);
        i += 2 * R;
    }
    // the two-row steps left over, one at a time, then the odd row alone:
    // every lane is its own chain, so a masked half step is the scalar
    // twin's row
    while i < even {
        // SAFETY: i + 2 <= rows (the loop bound), blocks as above.
        block_advance_steps::<M, 1, false>(rows, i, &c, inp, out);
        i += 2;
    }
    if even < rows {
        // SAFETY: even + 1 = rows, blocks as above.
        block_advance_steps::<M, 1, true>(rows, even, &c, inp, out);
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support, that every block behind `inp` (`u`, `v`, `d_re`, `d_im`) and
// `out` (`v_next`, `dn_re`, `dn_im`, `x`) holds `M` vectors of
// `2·rows` f64, that `i + 2R <= rows` (`HALF`: `R = 1` and `i + 1 =
// rows`, the lone last row), and that the outputs are not the inputs;
// every raw access below is at `2·(q·rows + i + 2r)..+4` (`HALF`: `..+2`,
// the rest masked off) with `q < M` and `r < R`.
unsafe fn block_advance_steps<const M: usize, const R: usize, const HALF: bool>(
    rows: usize,
    i: usize,
    c: &AdvanceCoefs<M>,
    inp: [*const f64; 4],
    out: [*mut f64; 4],
) {
    // `R` two-row steps at a time, input blocks outermost: the output
    // chains of the `R` steps are independent and interleave, the `3MR`
    // accumulators stay in registers, and each coefficient is one memory
    // operand; every output is still one chain over its products in the
    // scalar twin's order, whatever `R` is
    let AdvanceCoefs {
        cb,
        cer,
        cei,
        cgr,
        cgi,
        czr,
        czi,
    } = c;
    let [up, vp, rp, ip] = inp;
    let [np, nrp, nip, xp] = out;
    let z = _mm256_setzero_pd();
    let (mut a, mut re, mut im) = ([[z; M]; R], [[z; M]; R], [[z; M]; R]);
    for q in 0..M {
        for r in 0..R {
            // SAFETY: q < M and i + 2r + 2 <= rows (see the function
            // contract and the loop bound).
            let ud = load_dup_rows::<HALF>(up, rows, q, i + 2 * r);
            for j in 0..M {
                for h in 0..2 {
                    a[r][j] = _mm256_fmadd_pd(cb[q][j][h], ud[h], a[r][j]);
                }
            }
        }
    }
    for q in 0..M {
        for r in 0..R {
            // SAFETY: as above.
            let vd = load_dup_rows::<HALF>(vp, rows, q, i + 2 * r);
            for j in 0..M {
                for h in 0..2 {
                    re[r][j] = _mm256_fmadd_pd(cer[q][j][h], vd[h], re[r][j]);
                    im[r][j] = _mm256_fmadd_pd(cei[q][j][h], vd[h], im[r][j]);
                }
            }
        }
    }
    for q in 0..M {
        for r in 0..R {
            // SAFETY: as above.
            let rd = load_dup_rows::<HALF>(rp, rows, q, i + 2 * r);
            for j in 0..M {
                for h in 0..2 {
                    re[r][j] = _mm256_fnmadd_pd(cgr[q][j][h], rd[h], re[r][j]);
                    im[r][j] = _mm256_fnmadd_pd(cgi[q][j][h], rd[h], im[r][j]);
                }
            }
        }
    }
    for q in 0..M {
        for r in 0..R {
            // SAFETY: as above.
            let id = load_dup_rows::<HALF>(ip, rows, q, i + 2 * r);
            for j in 0..M {
                for h in 0..2 {
                    re[r][j] = _mm256_fmadd_pd(cgi[q][j][h], id[h], re[r][j]);
                    im[r][j] = _mm256_fnmadd_pd(cgr[q][j][h], id[h], im[r][j]);
                }
            }
        }
    }
    let mut xv = [[z; M]; R];
    for r in 0..R {
        for j in 0..M {
            let o = 2 * (j * rows + i + 2 * r);
            // SAFETY: j < M and i + 2r + 2 <= rows.
            store_rows::<HALF>(np.add(o), a[r][j]);
            store_rows::<HALF>(nrp.add(o), re[r][j]);
            store_rows::<HALF>(nip.add(o), im[r][j]);
            xv[r][j] = load_rows::<HALF>(xp.add(o));
        }
    }
    for q in 0..M {
        for r in 0..R {
            let rd = dup_slots(re[r][q]);
            for j in 0..M {
                for h in 0..2 {
                    xv[r][j] = _mm256_fmadd_pd(czr[q][j][h], rd[h], xv[r][j]);
                }
            }
        }
    }
    for q in 0..M {
        for r in 0..R {
            let id = dup_slots(im[r][q]);
            for j in 0..M {
                for h in 0..2 {
                    xv[r][j] = _mm256_fnmadd_pd(czi[q][j][h], id[h], xv[r][j]);
                }
            }
        }
    }
    for r in 0..R {
        for j in 0..M {
            // SAFETY: j < M and i + 2r + 2 <= rows.
            store_rows::<HALF>(xp.add(2 * (j * rows + i + 2 * r)), xv[r][j]);
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. Slice lengths are checked by the safe wrapper and restated at
// `block_advance_m`.
pub(crate) unsafe fn block_advance(
    rows: usize,
    s: usize,
    k: &crate::BlockStep<'_>,
    u: &[f64],
    v: &[f64],
    d_re: &[f64],
    d_im: &[f64],
    v_next: &mut [f64],
    dn_re: &mut [f64],
    dn_im: &mut [f64],
    x: &mut [f64],
) {
    match s.div_ceil(2) {
        1 => block_advance_m::<1, 4>(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x),
        2 => block_advance_m::<2, 2>(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x),
        3 => block_advance_m::<3, 1>(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x),
        4 => block_advance_m::<4, 1>(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x),
        5 => block_advance_m::<5, 1>(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x),
        _ => block_advance_wide(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x),
    }
}

// Wider blocks (`⌈s/2⌉ > 5`), whose coefficients and Gram state do not
// fit in registers: every sweep is cut into passes over the rows, each on
// a register-sized tile. An update tile takes up to two output vectors
// and two input vectors, and each output entry's chain runs over the
// input tiles in column order, the partial sum parked in the output
// between passes (a store and a load are exact), so every entry is the
// scalar twin's chain. A Gram tile holds up to two-by-two pairs, each
// pair's row-lane state the same as in `block_update_gram_m`.

/// One chain of a wide pass: coefficient matrix, whether its terms are
/// subtracted, and the block it adds into.
type Chain<'a> = (&'a [f64], bool, *mut f64);

/// One pass of a wide sweep over the two-row steps: for output vectors
/// `j0..j0 + J` and input vectors `q0..q0 + Q` of `inp`, chain `k` adds
/// `±c_k(l, j)·inp_l` over the tile's columns `l` in order to its block.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support and that `inp` and every chain's block hold `⌈s/2⌉ > q0 + Q − 1`
// and `> j0 + J − 1` vectors of `2·rows` f64, the blocks not overlapping
// `inp`; every raw access is at `2·(q·rows + i)..+4` with `i + 2 <= rows`.
unsafe fn wide_chain_tile<const Q: usize, const J: usize, const K: usize>(
    rows: usize,
    s: usize,
    chains: &[Chain<'_>; K],
    inp: *const f64,
    q0: usize,
    j0: usize,
) {
    let z = _mm256_setzero_pd();
    let mut cc = [[[[z; 2]; J]; Q]; K];
    for (ck, &(m, neg, _)) in cc.iter_mut().zip(chains) {
        for (qq, cq) in ck.iter_mut().enumerate() {
            for (jj, cj) in cq.iter_mut().enumerate() {
                for (h, ch) in cj.iter_mut().enumerate() {
                    let l = 2 * (q0 + qq) + h;
                    let coef = |j: usize| {
                        let c = crate::scalar::pad_coef(s, m, l, j);
                        if neg {
                            -c
                        } else {
                            c
                        }
                    };
                    let (a, b) = (coef(2 * (j0 + jj)), coef(2 * (j0 + jj) + 1));
                    *ch = _mm256_setr_pd(a, b, a, b);
                }
            }
        }
    }
    let even = rows - rows % 2;
    let mut i = 0;
    while i < even {
        let mut xd = [[z; 2]; Q];
        for (qq, d) in xd.iter_mut().enumerate() {
            // SAFETY: q0 + qq < ⌈s/2⌉ and i + 2 <= rows (function contract).
            *d = load_dup(inp, rows, q0 + qq, i);
        }
        for (ck, &(_, _, out)) in cc.iter().zip(chains) {
            for (jj, _) in ck[0].iter().enumerate() {
                // SAFETY: j0 + jj < ⌈s/2⌉ and i + 2 <= rows.
                let o = out.add(2 * ((j0 + jj) * rows + i));
                let mut acc = _mm256_loadu_pd(o);
                for (cq, d) in ck.iter().zip(&xd) {
                    for h in 0..2 {
                        acc = _mm256_fmadd_pd(cq[jj][h], d[h], acc);
                    }
                }
                _mm256_storeu_pd(o, acc);
            }
        }
        i += 2;
    }
}

/// Every pass of one wide update: the chains over all of `inp`, output
/// tiles of two vectors, input tiles of two in column order.
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — as `wide_chain_tile`, for every tile
// of the `⌈s/2⌉` vectors.
unsafe fn wide_chains<const K: usize>(
    rows: usize,
    s: usize,
    chains: &[Chain<'_>; K],
    inp: *const f64,
) {
    let m = s.div_ceil(2);
    for j0 in (0..m).step_by(2) {
        let two_out = j0 + 2 <= m;
        for q0 in (0..m).step_by(2) {
            match (q0 + 2 <= m, two_out) {
                (true, true) => wide_chain_tile::<2, 2, K>(rows, s, chains, inp, q0, j0),
                (true, false) => wide_chain_tile::<2, 1, K>(rows, s, chains, inp, q0, j0),
                (false, true) => wide_chain_tile::<1, 2, K>(rows, s, chains, inp, q0, j0),
                (false, false) => wide_chain_tile::<1, 1, K>(rows, s, chains, inp, q0, j0),
            }
        }
    }
}

/// The Gram pairs `(p0.., q0..)` of a `P × Q` tile of `leftᵀy`, finished
/// into `out` (with `sym`, only those with `p ≤ q`).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support and that `y` and `left` hold `⌈s/2⌉ > p0 + P − 1, q0 + Q − 1`
// vectors of `2·rows` f64; every raw access is at `2·(q·rows + i)..+4`
// with `i + 2 <= rows`.
unsafe fn wide_gram_tile<const P: usize, const Q: usize>(
    rows: usize,
    s: usize,
    left: Option<&[f64]>,
    y: &[f64],
    p0: usize,
    q0: usize,
    out: &mut [f64],
) {
    let z = _mm256_setzero_pd();
    let (mut gp, mut gq) = ([[z; Q]; P], [[z; Q]; P]);
    let lm = left.unwrap_or(y);
    let (lp, yp) = (lm.as_ptr(), y.as_ptr());
    let even = rows - rows % 2;
    let mut i = 0;
    while i < even {
        let (mut yv, mut ys) = ([z; Q], [z; Q]);
        for qq in 0..Q {
            // SAFETY: q0 + qq < ⌈s/2⌉ and i + 2 <= rows (function contract).
            yv[qq] = _mm256_loadu_pd(yp.add(2 * ((q0 + qq) * rows + i)));
            ys[qq] = swap_pairs(yv[qq]);
        }
        for pp in 0..P {
            // SAFETY: p0 + pp < ⌈s/2⌉ and i + 2 <= rows.
            let lv = _mm256_loadu_pd(lp.add(2 * ((p0 + pp) * rows + i)));
            for qq in 0..Q {
                gp[pp][qq] = _mm256_fmadd_pd(lv, yv[qq], gp[pp][qq]);
                gq[pp][qq] = _mm256_fmadd_pd(lv, ys[qq], gq[pp][qq]);
            }
        }
        i += 2;
    }
    let sym = left.is_none();
    for pp in 0..P {
        for qq in 0..Q {
            let (p, q) = (p0 + pp, q0 + qq);
            if sym && p > q {
                continue;
            }
            let mut st = [[0.0_f64; 4]; 2];
            // SAFETY: each lane array holds exactly 4 f64s.
            _mm256_storeu_pd(st[0].as_mut_ptr(), gp[pp][qq]);
            _mm256_storeu_pd(st[1].as_mut_ptr(), gq[pp][qq]);
            if even < rows {
                // rows is odd, so the last row index is even: row lane 0
                crate::scalar::block_gram_row(rows, even, 0, p, q, lm, y, &mut st);
            }
            lanes::finish_block_pair(s, p, q, sym, &st, out);
        }
    }
}

/// [`block_update_gram`] for `⌈s/2⌉ > 5`: the update's passes, the odd
/// row, then the Gram tiles (with `left = None` the tiles on or above the
/// diagonal).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; the safe wrapper checked that `x`, `y` and `left` hold
// `⌈s/2⌉` vectors of `2·rows` f64 and `c`, `out` are `s × s`.
unsafe fn block_update_gram_wide(
    rows: usize,
    s: usize,
    c: &[f64],
    x: &[f64],
    left: Option<&[f64]>,
    y: &mut [f64],
    out: &mut [f64],
) {
    wide_chains::<1>(rows, s, &[(c, true, y.as_mut_ptr())], x.as_ptr());
    if rows % 2 == 1 {
        crate::scalar::block_sub_row(rows, s, rows - 1, c, x, y);
    }
    let y: &[f64] = y;
    let m = s.div_ceil(2);
    for q0 in (0..m).step_by(2) {
        let two_q = q0 + 2 <= m;
        let p_end = if left.is_some() { m } else { q0 + 1 };
        for p0 in (0..p_end).step_by(2) {
            match (p0 + 2 <= m, two_q) {
                (true, true) => wide_gram_tile::<2, 2>(rows, s, left, y, p0, q0, out),
                (true, false) => wide_gram_tile::<2, 1>(rows, s, left, y, p0, q0, out),
                (false, true) => wide_gram_tile::<1, 2>(rows, s, left, y, p0, q0, out),
                (false, false) => wide_gram_tile::<1, 1>(rows, s, left, y, p0, q0, out),
            }
        }
    }
}

/// [`block_advance`] for `⌈s/2⌉ > 5`: each output chain's segments in the
/// scalar twin's order, one pass set per segment (`v_next` from `u`;
/// `dn_re`, `dn_im` from `v`, then `d_re`, then `d_im`; `x` from `dn_re`,
/// then `dn_im`), then the odd row.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; the safe wrapper checked that every block holds `⌈s/2⌉`
// vectors of `2·rows` f64, every coefficient matrix is `s × s` and the
// outputs are not the inputs.
unsafe fn block_advance_wide(
    rows: usize,
    s: usize,
    k: &crate::BlockStep<'_>,
    u: &[f64],
    v: &[f64],
    d_re: &[f64],
    d_im: &[f64],
    v_next: &mut [f64],
    dn_re: &mut [f64],
    dn_im: &mut [f64],
    x: &mut [f64],
) {
    // the chains that start from `+0`
    for b in [&mut *v_next, &mut *dn_re, &mut *dn_im] {
        b.fill(0.0);
    }
    let (np, nrp, nip) = (v_next.as_mut_ptr(), dn_re.as_mut_ptr(), dn_im.as_mut_ptr());
    wide_chains::<1>(rows, s, &[(k.b_inv, false, np)], u.as_ptr());
    wide_chains::<2>(
        rows,
        s,
        &[(k.e_re, false, nrp), (k.e_im, false, nip)],
        v.as_ptr(),
    );
    wide_chains::<2>(
        rows,
        s,
        &[(k.g_re, true, nrp), (k.g_im, true, nip)],
        d_re.as_ptr(),
    );
    wide_chains::<2>(
        rows,
        s,
        &[(k.g_im, false, nrp), (k.g_re, true, nip)],
        d_im.as_ptr(),
    );
    let xp = x.as_mut_ptr();
    wide_chains::<1>(rows, s, &[(k.z_re, false, xp)], nrp);
    wide_chains::<1>(rows, s, &[(k.z_im, true, xp)], nip);
    if rows % 2 == 1 {
        crate::scalar::block_advance_row(
            rows,
            s,
            rows - 1,
            k,
            u,
            v,
            d_re,
            d_im,
            v_next,
            dn_re,
            dn_im,
            x,
        );
    }
}
