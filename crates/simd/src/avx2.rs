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
// The thin-block kernels index several register arrays with one
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
    _mm256_permute4x64_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_set_pd, _mm256_setr_pd,
    _mm256_setzero_pd, _mm256_setzero_si256, _mm256_storeu_pd, _mm256_unpackhi_pd,
    _mm256_unpacklo_pd, _mm_add_pd, _mm_load_sd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd,
    _mm_setzero_pd, _mm_store_sd, _mm_storeu_pd, _CMP_EQ_UQ, _CMP_LT_OQ, _CMP_NEQ_UQ,
};

/// Swap re/im within each complex pair: `[a, b, c, d] → [b, a, d, c]`.
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
// Elementwise, complex coefficients on interleaved data
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn axpy_c64(ar: f64, ai: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len() % 2, 0);
    let n = y.len();
    let n4 = n - n % 4;
    let var = _mm256_set1_pd(ar);
    // Memory order [-ai, ai, -ai, ai] (set_pd lists high→low lanes).
    let vas = _mm256_set_pd(ai, -ai, ai, -ai);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n and both slices have length n.
        let xv = _mm256_loadu_pd(xp.add(i));
        let yv = _mm256_loadu_pd(yp.add(i));
        let t = _mm256_fmadd_pd(var, xv, yv);
        _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(vas, swap_pairs(xv), t));
        i += 4;
    }
    if n4 < n {
        let (xr, xi) = (x[n4], x[n4 + 1]);
        y[n4] = (-ai).mul_add(xi, ar.mul_add(xr, y[n4]));
        y[n4 + 1] = ai.mul_add(xr, ar.mul_add(xi, y[n4 + 1]));
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn scal_c64(ar: f64, ai: f64, x: &mut [f64]) {
    debug_assert_eq!(x.len() % 2, 0);
    let n = x.len();
    let n4 = n - n % 4;
    let var = _mm256_set1_pd(ar);
    let vas = _mm256_set_pd(ai, -ai, ai, -ai);
    let xp = x.as_mut_ptr();
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n.
        let xv = _mm256_loadu_pd(xp.add(i));
        let prod = _mm256_fmadd_pd(vas, swap_pairs(xv), _mm256_mul_pd(var, xv));
        _mm256_storeu_pd(xp.add(i), prod);
        i += 4;
    }
    if n4 < n {
        let (xr, xi) = (x[n4], x[n4 + 1]);
        x[n4] = (-ai).mul_add(xi, ar * xr);
        x[n4 + 1] = ai.mul_add(xr, ar * xi);
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

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
unsafe fn dot_c64_states(
    x: &[f64],
    y: &[f64],
) -> ([f64; 2 * lanes::C64_LANES], [f64; 2 * lanes::C64_LANES]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len() % 2, 0);
    let n = x.len();
    let n8 = n - n % (2 * lanes::C64_LANES);
    let mut p0 = _mm256_setzero_pd();
    let mut p1 = _mm256_setzero_pd();
    let mut q0 = _mm256_setzero_pd();
    let mut q1 = _mm256_setzero_pd();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 8 <= n and both slices have length n.
        let xv0 = _mm256_loadu_pd(xp.add(i));
        let yv0 = _mm256_loadu_pd(yp.add(i));
        p0 = _mm256_fmadd_pd(xv0, yv0, p0);
        q0 = _mm256_fmadd_pd(xv0, swap_pairs(yv0), q0);
        let xv1 = _mm256_loadu_pd(xp.add(i + 4));
        let yv1 = _mm256_loadu_pd(yp.add(i + 4));
        p1 = _mm256_fmadd_pd(xv1, yv1, p1);
        q1 = _mm256_fmadd_pd(xv1, swap_pairs(yv1), q1);
        i += 8;
    }
    let mut p = [0.0_f64; 2 * lanes::C64_LANES];
    let mut q = [0.0_f64; 2 * lanes::C64_LANES];
    // SAFETY: `p`/`q` each have room for both 4-lane stores.
    _mm256_storeu_pd(p.as_mut_ptr(), p0);
    _mm256_storeu_pd(p.as_mut_ptr().add(4), p1);
    _mm256_storeu_pd(q.as_mut_ptr(), q0);
    _mm256_storeu_pd(q.as_mut_ptr().add(4), q1);
    let mut j = n8 / 2;
    while j < n / 2 {
        let l = 2 * (j % lanes::C64_LANES);
        let (xr, xi) = (x[2 * j], x[2 * j + 1]);
        let (yr, yi) = (y[2 * j], y[2 * j + 1]);
        p[l] = xr.mul_add(yr, p[l]);
        p[l + 1] = xi.mul_add(yi, p[l + 1]);
        q[l] = xr.mul_add(yi, q[l]);
        q[l + 1] = xi.mul_add(yr, q[l + 1]);
        j += 1;
    }
    (p, q)
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn dot_t_c64(x: &[f64], y: &[f64]) -> (f64, f64) {
    let (p, q) = dot_c64_states(x, y);
    lanes::combine_t(&p, &q)
}

// ---------------------------------------------------------------------------
// GEMM microkernels
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

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn gemm_c64_4x4(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 32]) {
    debug_assert!(ap.len() >= 8 * k);
    debug_assert!(bp.len() >= 8 * k);
    let accp = acc.as_mut_ptr();
    // SAFETY: `acc` is exactly 32 f64s; column j lives at 8j (re) / 8j+4 (im).
    let mut cr0 = _mm256_loadu_pd(accp);
    let mut ci0 = _mm256_loadu_pd(accp.add(4));
    let mut cr1 = _mm256_loadu_pd(accp.add(8));
    let mut ci1 = _mm256_loadu_pd(accp.add(12));
    let mut cr2 = _mm256_loadu_pd(accp.add(16));
    let mut ci2 = _mm256_loadu_pd(accp.add(20));
    let mut cr3 = _mm256_loadu_pd(accp.add(24));
    let mut ci3 = _mm256_loadu_pd(accp.add(28));
    let app = ap.as_ptr();
    let bpp = bp.as_ptr();
    for p in 0..k {
        // SAFETY: split panels hold [re×4 | im×4] per depth step; bounds
        // follow from the debug_asserts above.
        let arv = _mm256_loadu_pd(app.add(8 * p));
        let aiv = _mm256_loadu_pd(app.add(8 * p + 4));
        let br0 = _mm256_broadcast_sd(&*bpp.add(8 * p));
        let bi0 = _mm256_broadcast_sd(&*bpp.add(8 * p + 4));
        cr0 = _mm256_fnmadd_pd(aiv, bi0, _mm256_fmadd_pd(arv, br0, cr0));
        ci0 = _mm256_fmadd_pd(aiv, br0, _mm256_fmadd_pd(arv, bi0, ci0));
        let br1 = _mm256_broadcast_sd(&*bpp.add(8 * p + 1));
        let bi1 = _mm256_broadcast_sd(&*bpp.add(8 * p + 5));
        cr1 = _mm256_fnmadd_pd(aiv, bi1, _mm256_fmadd_pd(arv, br1, cr1));
        ci1 = _mm256_fmadd_pd(aiv, br1, _mm256_fmadd_pd(arv, bi1, ci1));
        let br2 = _mm256_broadcast_sd(&*bpp.add(8 * p + 2));
        let bi2 = _mm256_broadcast_sd(&*bpp.add(8 * p + 6));
        cr2 = _mm256_fnmadd_pd(aiv, bi2, _mm256_fmadd_pd(arv, br2, cr2));
        ci2 = _mm256_fmadd_pd(aiv, br2, _mm256_fmadd_pd(arv, bi2, ci2));
        let br3 = _mm256_broadcast_sd(&*bpp.add(8 * p + 3));
        let bi3 = _mm256_broadcast_sd(&*bpp.add(8 * p + 7));
        cr3 = _mm256_fnmadd_pd(aiv, bi3, _mm256_fmadd_pd(arv, br3, cr3));
        ci3 = _mm256_fmadd_pd(aiv, br3, _mm256_fmadd_pd(arv, bi3, ci3));
    }
    // SAFETY: same bounds as the loads above.
    _mm256_storeu_pd(accp, cr0);
    _mm256_storeu_pd(accp.add(4), ci0);
    _mm256_storeu_pd(accp.add(8), cr1);
    _mm256_storeu_pd(accp.add(12), ci1);
    _mm256_storeu_pd(accp.add(16), cr2);
    _mm256_storeu_pd(accp.add(20), ci2);
    _mm256_storeu_pd(accp.add(24), cr3);
    _mm256_storeu_pd(accp.add(28), ci3);
}

// ---------------------------------------------------------------------------
// Gram tiles
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

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn gram2_c64(a0: &[f64], a1: &[f64], b0: &[f64], b1: &[f64], out: &mut [f64; 8]) {
    let n = a0.len();
    debug_assert_eq!(n % 2, 0);
    debug_assert!(a1.len() == n && b0.len() == n && b1.len() == n);
    let kc = n / 2;
    let kc2 = kc - kc % lanes::GRAM_C64_LANES;
    let mut pv = [_mm256_setzero_pd(); 4];
    let mut qv = [_mm256_setzero_pd(); 4];
    let ap = [a0.as_ptr(), a1.as_ptr()];
    let bp = [b0.as_ptr(), b1.as_ptr()];
    let mut pc = 0;
    while pc < kc2 {
        let f = 2 * pc;
        // SAFETY: f + 4 <= n and every slice has length n.
        let av0 = _mm256_loadu_pd(ap[0].add(f));
        let av1 = _mm256_loadu_pd(ap[1].add(f));
        for j in 0..2 {
            let bv = _mm256_loadu_pd(bp[j].add(f));
            let bs = swap_pairs(bv);
            pv[2 * j] = _mm256_fmadd_pd(av0, bv, pv[2 * j]);
            qv[2 * j] = _mm256_fmadd_pd(av0, bs, qv[2 * j]);
            pv[2 * j + 1] = _mm256_fmadd_pd(av1, bv, pv[2 * j + 1]);
            qv[2 * j + 1] = _mm256_fmadd_pd(av1, bs, qv[2 * j + 1]);
        }
        pc += lanes::GRAM_C64_LANES;
    }
    let mut ps = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; 4];
    let mut qs = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; 4];
    for idx in 0..4 {
        // SAFETY: each lane array holds exactly 4 f64s.
        _mm256_storeu_pd(ps[idx].as_mut_ptr(), pv[idx]);
        _mm256_storeu_pd(qs[idx].as_mut_ptr(), qv[idx]);
    }
    let a = [a0, a1];
    let b = [b0, b1];
    for r in kc2..kc {
        let l = 2 * (r % lanes::GRAM_C64_LANES);
        for j in 0..2 {
            let (yr, yi) = (b[j][2 * r], b[j][2 * r + 1]);
            for i in 0..2 {
                let (xr, xi) = (a[i][2 * r], a[i][2 * r + 1]);
                let s = &mut ps[2 * j + i];
                s[l] = xr.mul_add(yr, s[l]);
                s[l + 1] = xi.mul_add(yi, s[l + 1]);
                let t = &mut qs[2 * j + i];
                t[l] = xr.mul_add(yi, t[l]);
                t[l + 1] = xi.mul_add(yr, t[l + 1]);
            }
        }
    }
    for idx in 0..4 {
        let (re, im) = lanes::combine_t(&ps[idx], &qs[idx]);
        out[2 * idx] = re;
        out[2 * idx + 1] = im;
    }
}

// ---------------------------------------------------------------------------
// Thin-block kernels: n×s complex blocks against s×s coefficients, s ≤ 4
//
// Two complex rows per vector. Per row pair every operand column is
// loaded once, all loads precede the first store (so stores to one column
// never sit in front of loads from another column at the same offset
// modulo 4 KiB), and the coefficients stay in broadcast registers. The
// extents are const generics so the `l`/`j` loops unroll into straight
// FMA chains; an odd last row runs the oracle's own row function.
// ---------------------------------------------------------------------------

type Coef = [[__m256d; lanes::THIN_MAX]; lanes::THIN_MAX];

/// Broadcast forms of a `k × n` complex coefficient block (column-major,
/// interleaved): `re[j][l]` holds `Re b_lj` in every lane, `im[j][l]`
/// holds `[−Im, Im, −Im, Im]`, the multiplier of the pair-swapped operand.
#[inline]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; only the kernels below call it. All memory access goes
// through safe slices.
unsafe fn thin_coef(k: usize, n: usize, b: &[f64]) -> (Coef, Coef) {
    let z = _mm256_setzero_pd();
    let mut re = [[z; lanes::THIN_MAX]; lanes::THIN_MAX];
    let mut im = re;
    for j in 0..n {
        for l in 0..k {
            let (br, bi) = (b[2 * (l + k * j)], b[2 * (l + k * j) + 1]);
            re[j][l] = _mm256_set1_pd(br);
            im[j][l] = _mm256_set_pd(bi, -bi, bi, -bi);
        }
    }
    (re, im)
}

/// Expand to a `match (k, n)` over the sixteen thin shapes, calling the
/// const-generic kernel of each with the parenthesised `$args` and
/// `$fallback` for anything else.
macro_rules! by_thin_shape {
    ($k:expr, $n:expr, $kernel:ident $args:tt, $fallback:expr) => {
        by_thin_shape!(@arms $k, $n, $kernel $args, $fallback,
            (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (4, 4))
    };
    (@arms $k:expr, $n:expr, $kernel:ident $args:tt, $fallback:expr,
     $(($kk:literal, $nn:literal)),*) => {
        match ($k, $n) {
            $(($kk, $nn) => $kernel::<$kk, $nn> $args,)*
            _ => $fallback,
        }
    };
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support. The safe wrapper checked `a.len() == 2·rows·K` and
// `b.len() == 2·rows·N`; every raw access below is at
// `2·(col·rows + r)..+4` with `col` below the block's width and
// `r + 2 <= rows`.
unsafe fn thin_gram_kn<const K: usize, const N: usize>(
    rows: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let z = _mm256_setzero_pd();
    let mut gp = [[z; K]; N];
    let mut gq = [[z; K]; N];
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let even = rows - rows % 2;
    let mut r = 0;
    while r < even {
        let mut av = [z; K];
        for i in 0..K {
            // SAFETY: i < K and r + 2 <= rows (see the function contract).
            av[i] = _mm256_loadu_pd(ap.add(2 * (i * rows + r)));
        }
        for j in 0..N {
            // SAFETY: j < N and r + 2 <= rows.
            let bv = _mm256_loadu_pd(bp.add(2 * (j * rows + r)));
            let bs = swap_pairs(bv);
            for i in 0..K {
                gp[j][i] = _mm256_fmadd_pd(av[i], bv, gp[j][i]);
                gq[j][i] = _mm256_fmadd_pd(av[i], bs, gq[j][i]);
            }
        }
        r += 2;
    }
    let mut ps = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; lanes::THIN_PAIRS];
    let mut qs = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; lanes::THIN_PAIRS];
    for j in 0..N {
        for i in 0..K {
            // SAFETY: each lane array holds exactly 4 f64s.
            _mm256_storeu_pd(ps[lanes::thin_pair(i, j)].as_mut_ptr(), gp[j][i]);
            _mm256_storeu_pd(qs[lanes::thin_pair(i, j)].as_mut_ptr(), gq[j][i]);
        }
    }
    if even < rows {
        // rows is odd, so the last row index is even: complex lane 0
        crate::scalar::thin_gram_row(rows, K, N, even, 0, a, b, &mut ps, &mut qs);
    }
    lanes::finish_thin_gram(K, N, &ps, &qs, out);
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. Slice lengths are checked by the safe wrapper and restated at
// `thin_gram_kn`.
pub(crate) unsafe fn thin_gram_c64(
    rows: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    by_thin_shape!(
        k,
        n,
        thin_gram_kn(rows, a, b, out),
        crate::scalar::thin_gram_c64(rows, k, n, a, b, out)
    )
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support. The safe wrapper checked that `p`, `u`, `x` and `w` all have
// length `2·rows·S` and `alpha` has `2·S·S`; every raw access below is at
// `2·(col·rows + i)..+4` with `col < S` and `i + 2 <= rows`.
unsafe fn cocg_update_s<const S: usize>(
    rows: usize,
    p: &[f64],
    u: &[f64],
    alpha: &[f64],
    x: &mut [f64],
    w: &mut [f64],
    rho: &mut [f64],
    w_sq: &mut [f64],
) {
    let (are, aim) = thin_coef(S, S, alpha);
    let z = _mm256_setzero_pd();
    let mut gp = [z; lanes::THIN_PAIRS];
    let mut gq = [z; lanes::THIN_PAIRS];
    let (pp, up, xp, wp) = (p.as_ptr(), u.as_ptr(), x.as_mut_ptr(), w.as_mut_ptr());
    let even = rows - rows % 2;
    let mut i = 0;
    while i < even {
        let (mut pv, mut pw, mut uv, mut uw) = ([z; S], [z; S], [z; S], [z; S]);
        let (mut xv, mut wv) = ([z; S], [z; S]);
        for l in 0..S {
            // SAFETY: l < S and i + 2 <= rows (see the function contract).
            let o = 2 * (l * rows + i);
            pv[l] = _mm256_loadu_pd(pp.add(o));
            pw[l] = swap_pairs(pv[l]);
            uv[l] = _mm256_loadu_pd(up.add(o));
            uw[l] = swap_pairs(uv[l]);
            xv[l] = _mm256_loadu_pd(xp.add(o));
            wv[l] = _mm256_loadu_pd(wp.add(o));
        }
        for j in 0..S {
            for l in 0..S {
                xv[j] = _mm256_fmadd_pd(aim[j][l], pw[l], _mm256_fmadd_pd(are[j][l], pv[l], xv[j]));
                wv[j] =
                    _mm256_fnmadd_pd(aim[j][l], uw[l], _mm256_fnmadd_pd(are[j][l], uv[l], wv[j]));
            }
        }
        for j in 0..S {
            // SAFETY: j < S and i + 2 <= rows.
            let o = 2 * (j * rows + i);
            _mm256_storeu_pd(xp.add(o), xv[j]);
            _mm256_storeu_pd(wp.add(o), wv[j]);
        }
        for j in 0..S {
            let ws = swap_pairs(wv[j]);
            for ii in 0..=j {
                let idx = lanes::thin_pair(ii, j);
                gp[idx] = _mm256_fmadd_pd(wv[ii], wv[j], gp[idx]);
                gq[idx] = _mm256_fmadd_pd(wv[ii], ws, gq[idx]);
            }
        }
        i += 2;
    }
    let mut ps = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; lanes::THIN_PAIRS];
    let mut qs = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; lanes::THIN_PAIRS];
    for idx in 0..lanes::THIN_PAIRS {
        // SAFETY: each lane array holds exactly 4 f64s.
        _mm256_storeu_pd(ps[idx].as_mut_ptr(), gp[idx]);
        _mm256_storeu_pd(qs[idx].as_mut_ptr(), gq[idx]);
    }
    if even < rows {
        // rows is odd, so the last row index is even: complex lane 0
        crate::scalar::cocg_update_row(rows, S, even, 0, p, u, alpha, x, w, &mut ps, &mut qs);
    }
    lanes::finish_cocg_gram(S, &ps, &qs, rho, w_sq);
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. Slice lengths are checked by the safe wrapper and restated at
// `cocg_update_s`.
pub(crate) unsafe fn cocg_update_c64(
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
    match s {
        1 => cocg_update_s::<1>(rows, p, u, alpha, x, w, rho, w_sq),
        2 => cocg_update_s::<2>(rows, p, u, alpha, x, w, rho, w_sq),
        3 => cocg_update_s::<3>(rows, p, u, alpha, x, w, rho, w_sq),
        4 => cocg_update_s::<4>(rows, p, u, alpha, x, w, rho, w_sq),
        _ => crate::scalar::cocg_update_c64(rows, s, p, u, alpha, x, w, rho, w_sq),
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support. The safe wrapper checked that `z` and `p` have length
// `2·rows·S` and `beta` has `2·S·S`; every raw access below is at
// `2·(col·rows + i)..+4` with `col < S` and `i + 2 <= rows`.
unsafe fn cocg_direction_s<const S: usize>(rows: usize, z: &[f64], beta: &[f64], p: &mut [f64]) {
    let (bre, bim) = thin_coef(S, S, beta);
    let zero = _mm256_setzero_pd();
    let (zp, pp) = (z.as_ptr(), p.as_mut_ptr());
    let even = rows - rows % 2;
    let mut i = 0;
    while i < even {
        let (mut pv, mut pw, mut acc) = ([zero; S], [zero; S], [zero; S]);
        for l in 0..S {
            // SAFETY: l < S and i + 2 <= rows (see the function contract).
            let o = 2 * (l * rows + i);
            pv[l] = _mm256_loadu_pd(pp.add(o));
            pw[l] = swap_pairs(pv[l]);
            acc[l] = _mm256_loadu_pd(zp.add(o));
        }
        for j in 0..S {
            for l in 0..S {
                acc[j] =
                    _mm256_fmadd_pd(bim[j][l], pw[l], _mm256_fmadd_pd(bre[j][l], pv[l], acc[j]));
            }
        }
        for j in 0..S {
            // SAFETY: j < S and i + 2 <= rows.
            _mm256_storeu_pd(pp.add(2 * (j * rows + i)), acc[j]);
        }
        i += 2;
    }
    if even < rows {
        crate::scalar::cocg_direction_row(rows, S, even, z, beta, p);
    }
}

#[target_feature(enable = "avx2,fma")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee AVX2+FMA
// support; `dispatch_on!` only routes here when `available()` reported
// it. Slice lengths are checked by the safe wrapper and restated at
// `cocg_direction_s`.
pub(crate) unsafe fn cocg_direction_c64(
    rows: usize,
    s: usize,
    z: &[f64],
    beta: &[f64],
    p: &mut [f64],
) {
    match s {
        1 => cocg_direction_s::<1>(rows, z, beta, p),
        2 => cocg_direction_s::<2>(rows, z, beta, p),
        3 => cocg_direction_s::<3>(rows, z, beta, p),
        4 => cocg_direction_s::<4>(rows, z, beta, p),
        _ => crate::scalar::cocg_direction_c64(rows, s, z, beta, p),
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
        _ => crate::scalar::block_update_gram(rows, s, c, x, left, y, out),
    }
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
    let cb = pair_coefs::<M>(s, k.b_inv);
    let (cer, cei) = (pair_coefs::<M>(s, k.e_re), pair_coefs::<M>(s, k.e_im));
    let (cgr, cgi) = (pair_coefs::<M>(s, k.g_re), pair_coefs::<M>(s, k.g_im));
    let (czr, czi) = (pair_coefs::<M>(s, k.z_re), pair_coefs::<M>(s, k.z_im));
    let z = _mm256_setzero_pd();
    let (up, vp, rp, ip) = (u.as_ptr(), v.as_ptr(), d_re.as_ptr(), d_im.as_ptr());
    let (np, nrp, nip, xp) = (
        v_next.as_mut_ptr(),
        dn_re.as_mut_ptr(),
        dn_im.as_mut_ptr(),
        x.as_mut_ptr(),
    );
    let even = rows - rows % 2;
    let mut i = 0;
    // `R` two-row steps at a time, input blocks outermost: the output
    // chains of the `R` steps are independent and interleave, the `3MR`
    // accumulators stay in registers, and each coefficient is one memory
    // operand; every output is still one chain over its products in the
    // scalar twin's order
    while i + 2 * R <= even {
        let (mut a, mut re, mut im) = ([[z; M]; R], [[z; M]; R], [[z; M]; R]);
        for q in 0..M {
            for r in 0..R {
                // SAFETY: q < M and i + 2r + 2 <= rows (see the function
                // contract and the loop bound).
                let ud = load_dup(up, rows, q, i + 2 * r);
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
                let vd = load_dup(vp, rows, q, i + 2 * r);
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
                let rd = load_dup(rp, rows, q, i + 2 * r);
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
                let id = load_dup(ip, rows, q, i + 2 * r);
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
                _mm256_storeu_pd(np.add(o), a[r][j]);
                _mm256_storeu_pd(nrp.add(o), re[r][j]);
                _mm256_storeu_pd(nip.add(o), im[r][j]);
                xv[r][j] = _mm256_loadu_pd(xp.add(o));
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
                _mm256_storeu_pd(xp.add(2 * (j * rows + i + 2 * r)), xv[r][j]);
            }
        }
        i += 2 * R;
    }
    // the two-row steps left over, then the odd row
    while i < even {
        crate::scalar::block_advance_row(rows, s, i, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x);
        crate::scalar::block_advance_row(
            rows,
            s,
            i + 1,
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
        i += 2;
    }
    if even < rows {
        crate::scalar::block_advance_row(
            rows, s, even, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x,
        );
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
        _ => crate::scalar::block_advance(rows, s, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x),
    }
}
