//! NEON backend (aarch64).
//!
//! Mirrors the canonical semantics of [`crate::scalar`] bit-for-bit with
//! 2-wide f64 vectors: `vfmaq_f64`/`vfmsq_f64` realize every
//! `f64::mul_add` in the oracle (NEON f64 FMA is a single rounding), and
//! reductions keep the canonical 8-lane (real) / 4-complex-lane layout
//! as groups of four / two registers, finishing with the shared folds in
//! [`crate::lanes`]. NEON is a baseline feature of aarch64, so dispatch
//! always offers it there; functions stay `unsafe` for symmetry with the
//! AVX2 backend and because of the raw-pointer loads.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::lanes;
use core::arch::aarch64::{
    float64x2_t, vdupq_n_f64, vextq_f64, vfmaq_f64, vfmsq_f64, vld1q_f64, vmulq_f64, vst1q_f64,
};

/// Swap re/im within the complex pair held by one register.
#[inline]
#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
unsafe fn swap_pair(v: float64x2_t) -> float64x2_t {
    vextq_f64::<1>(v, v)
}

// ---------------------------------------------------------------------------
// Elementwise, real coefficients
// ---------------------------------------------------------------------------

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn axpy(c: f64, x: &[f64], o: &mut [f64]) {
    debug_assert_eq!(x.len(), o.len());
    let n = o.len();
    let n2 = n - n % 2;
    let vc = vdupq_n_f64(c);
    let (xp, op) = (x.as_ptr(), o.as_mut_ptr());
    let mut i = 0;
    while i < n2 {
        // SAFETY: i + 2 <= n and both slices have length n.
        let ov = vld1q_f64(op.add(i));
        vst1q_f64(op.add(i), vfmaq_f64(ov, vc, vld1q_f64(xp.add(i))));
        i += 2;
    }
    for r in n2..n {
        o[r] = c.mul_add(x[r], o[r]);
    }
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
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
    let (w0, off0) = terms[0];
    let rest = &terms[1..];
    let vw0 = vdupq_n_f64(w0);
    let sp = src.as_ptr();
    let op = o.as_mut_ptr();
    let nrows = o.len() / n;
    let mut slab_base = origin;
    let mut row_in_slab = 0usize;
    let mut base = origin;
    for rix in 0..nrows {
        // SAFETY: base is in bounds (see function-level argument).
        let rp = sp.add(base);
        let orow = op.add(rix * n);
        // Blocks of four 2-lane accumulators: the four FMA chains
        // interleave (hiding FMA latency) and each per-term coefficient
        // broadcast is shared by all four vectors. The < 8 remainder runs
        // 2-wide, then at most one element scalar — `mul_add` is the same
        // fused operation per lane, so the chain stays bit-identical.
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n and base + off is corner-bounded.
            let tp = rp.offset(off0).add(i);
            let mut acc = [
                vmulq_f64(vw0, vld1q_f64(tp)),
                vmulq_f64(vw0, vld1q_f64(tp.add(2))),
                vmulq_f64(vw0, vld1q_f64(tp.add(4))),
                vmulq_f64(vw0, vld1q_f64(tp.add(6))),
            ];
            for &(w, off) in rest {
                let vw = vdupq_n_f64(w);
                let tp = rp.offset(off).add(i);
                for (v, a) in acc.iter_mut().enumerate() {
                    *a = vfmaq_f64(*a, vw, vld1q_f64(tp.add(2 * v)));
                }
            }
            for (v, a) in acc.iter().enumerate() {
                vst1q_f64(orow.add(i + 2 * v), *a);
            }
            i += 8;
        }
        while i + 2 <= n {
            // SAFETY: i + 2 <= n and base + off is corner-bounded.
            let mut a = vmulq_f64(vw0, vld1q_f64(rp.offset(off0).add(i)));
            for &(w, off) in rest {
                a = vfmaq_f64(a, vdupq_n_f64(w), vld1q_f64(rp.offset(off).add(i)));
            }
            vst1q_f64(orow.add(i), a);
            i += 2;
        }
        if i < n {
            let p = (base + i) as isize;
            // SAFETY: the final element's indices are corner-bounded.
            let mut acc = w0 * *sp.offset(p + off0);
            for &(w, off) in rest {
                acc = w.mul_add(*sp.offset(p + off), acc);
            }
            *orow.add(i) = acc;
        }
        row_in_slab += 1;
        if row_in_slab == rows_per_slab {
            row_in_slab = 0;
            slab_base += slab_stride;
            base = slab_base;
        } else {
            base += row_stride;
        }
    }
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn scal(c: f64, x: &mut [f64]) {
    let n = x.len();
    let n2 = n - n % 2;
    let vc = vdupq_n_f64(c);
    let xp = x.as_mut_ptr();
    let mut i = 0;
    while i < n2 {
        // SAFETY: i + 2 <= n.
        vst1q_f64(xp.add(i), vmulq_f64(vc, vld1q_f64(xp.add(i))));
        i += 2;
    }
    for r in n2..n {
        x[r] *= c;
    }
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn axpby(a: f64, b: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = y.len();
    let n2 = n - n % 2;
    let va = vdupq_n_f64(a);
    let vb = vdupq_n_f64(b);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n2 {
        // SAFETY: i + 2 <= n and both slices have length n.
        let by = vmulq_f64(vb, vld1q_f64(yp.add(i)));
        vst1q_f64(yp.add(i), vfmaq_f64(by, va, vld1q_f64(xp.add(i))));
        i += 2;
    }
    for r in n2..n {
        y[r] = a.mul_add(x[r], b * y[r]);
    }
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn shift_scale(s: f64, c: f64, x: &[f64], v: &mut [f64]) {
    debug_assert_eq!(x.len(), v.len());
    let n = v.len();
    let n2 = n - n % 2;
    let vs = vdupq_n_f64(s);
    let vc = vdupq_n_f64(c);
    let (xp, vp) = (x.as_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i < n2 {
        // SAFETY: i + 2 <= n and both slices have length n.
        let vv = vld1q_f64(vp.add(i));
        let xv = vld1q_f64(xp.add(i));
        vst1q_f64(vp.add(i), vmulq_f64(vs, vfmsq_f64(vv, vc, xv)));
        i += 2;
    }
    for r in n2..n {
        v[r] = s * (-c).mul_add(x[r], v[r]);
    }
}

#[allow(clippy::many_single_char_names)]
#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
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
    let n2 = n - n % 2;
    let vs = vdupq_n_f64(s);
    let vc = vdupq_n_f64(c);
    let vt = vdupq_n_f64(t);
    let (yp, xp, wp) = (y.as_ptr(), xprev.as_ptr(), w.as_mut_ptr());
    let mut i = 0;
    while i < n2 {
        // SAFETY: i + 2 <= n and all three slices have length n.
        let wv = vld1q_f64(wp.add(i));
        let yv = vld1q_f64(yp.add(i));
        let xv = vld1q_f64(xp.add(i));
        let inner = vmulq_f64(vs, vfmsq_f64(wv, vc, yv));
        vst1q_f64(wp.add(i), vfmsq_f64(inner, vt, xv));
        i += 2;
    }
    for r in n2..n {
        w[r] = (-t).mul_add(xprev[r], s * (-c).mul_add(y[r], w[r]));
    }
}

// ---------------------------------------------------------------------------
// Elementwise, complex coefficients on interleaved data
// ---------------------------------------------------------------------------

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
unsafe fn signed_pair(v: f64) -> float64x2_t {
    let arr = [-v, v];
    // SAFETY: `arr` holds exactly 2 f64s.
    vld1q_f64(arr.as_ptr())
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn axpy_c64(ar: f64, ai: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len() % 2, 0);
    let n = y.len();
    let var = vdupq_n_f64(ar);
    let vas = signed_pair(ai);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n {
        // SAFETY: i + 2 <= n (n is even) and both slices have length n.
        let xv = vld1q_f64(xp.add(i));
        let yv = vld1q_f64(yp.add(i));
        let t = vfmaq_f64(yv, var, xv);
        vst1q_f64(yp.add(i), vfmaq_f64(t, vas, swap_pair(xv)));
        i += 2;
    }
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn axpby_c64(ar: f64, ai: f64, br: f64, bi: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len() % 2, 0);
    let n = y.len();
    let var = vdupq_n_f64(ar);
    let vas = signed_pair(ai);
    let vbr = vdupq_n_f64(br);
    let vbs = signed_pair(bi);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n {
        // SAFETY: i + 2 <= n (n is even) and both slices have length n.
        let xv = vld1q_f64(xp.add(i));
        let yv = vld1q_f64(yp.add(i));
        let ax = vfmaq_f64(vmulq_f64(var, xv), vas, swap_pair(xv));
        let t = vfmaq_f64(ax, vbs, swap_pair(yv));
        vst1q_f64(yp.add(i), vfmaq_f64(t, vbr, yv));
        i += 2;
    }
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn scal_c64(ar: f64, ai: f64, x: &mut [f64]) {
    debug_assert_eq!(x.len() % 2, 0);
    let n = x.len();
    let var = vdupq_n_f64(ar);
    let vas = signed_pair(ai);
    let xp = x.as_mut_ptr();
    let mut i = 0;
    while i < n {
        // SAFETY: i + 2 <= n (n is even).
        let xv = vld1q_f64(xp.add(i));
        vst1q_f64(xp.add(i), vfmaq_f64(vmulq_f64(var, xv), vas, swap_pair(xv)));
        i += 2;
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let n8 = n - n % lanes::F64_LANES;
    let mut acc = [vdupq_n_f64(0.0); 4];
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut i = 0;
    while i < n8 {
        for (h, a) in acc.iter_mut().enumerate() {
            // SAFETY: i + 8 <= n and both slices have length n.
            *a = vfmaq_f64(
                *a,
                vld1q_f64(xp.add(i + 2 * h)),
                vld1q_f64(yp.add(i + 2 * h)),
            );
        }
        i += 8;
    }
    let mut state = [0.0_f64; lanes::F64_LANES];
    for (h, a) in acc.iter().enumerate() {
        // SAFETY: `state` has room for all four 2-lane stores.
        vst1q_f64(state.as_mut_ptr().add(2 * h), *a);
    }
    for r in n8..n {
        let l = r % lanes::F64_LANES;
        state[l] = x[r].mul_add(y[r], state[l]);
    }
    lanes::fold(&state)
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn nrm2_sq(x: &[f64]) -> f64 {
    let n = x.len();
    let n8 = n - n % lanes::F64_LANES;
    let mut acc = [vdupq_n_f64(0.0); 4];
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n8 {
        for (h, a) in acc.iter_mut().enumerate() {
            // SAFETY: i + 8 <= n.
            let v = vld1q_f64(xp.add(i + 2 * h));
            *a = vfmaq_f64(*a, v, v);
        }
        i += 8;
    }
    let mut state = [0.0_f64; lanes::F64_LANES];
    for (h, a) in acc.iter().enumerate() {
        // SAFETY: `state` has room for all four 2-lane stores.
        vst1q_f64(state.as_mut_ptr().add(2 * h), *a);
    }
    for r in n8..n {
        let l = r % lanes::F64_LANES;
        state[l] = x[r].mul_add(x[r], state[l]);
    }
    lanes::fold(&state)
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
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
    let mut pv = [vdupq_n_f64(0.0); 4];
    let mut qv = [vdupq_n_f64(0.0); 4];
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut i = 0;
    while i < n8 {
        for h in 0..4 {
            // SAFETY: i + 8 <= n and both slices have length n.
            let xv = vld1q_f64(xp.add(i + 2 * h));
            let yv = vld1q_f64(yp.add(i + 2 * h));
            pv[h] = vfmaq_f64(pv[h], xv, yv);
            qv[h] = vfmaq_f64(qv[h], xv, swap_pair(yv));
        }
        i += 8;
    }
    let mut p = [0.0_f64; 2 * lanes::C64_LANES];
    let mut q = [0.0_f64; 2 * lanes::C64_LANES];
    for h in 0..4 {
        // SAFETY: `p`/`q` have room for all four 2-lane stores.
        vst1q_f64(p.as_mut_ptr().add(2 * h), pv[h]);
        vst1q_f64(q.as_mut_ptr().add(2 * h), qv[h]);
    }
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

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn dot_t_c64(x: &[f64], y: &[f64]) -> (f64, f64) {
    let (p, q) = dot_c64_states(x, y);
    lanes::combine_t(&p, &q)
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn dot_h_c64(x: &[f64], y: &[f64]) -> (f64, f64) {
    let (p, q) = dot_c64_states(x, y);
    lanes::combine_h(&p, &q)
}

// ---------------------------------------------------------------------------
// GEMM microkernels
// ---------------------------------------------------------------------------

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn gemm_f64_8x4(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 32]) {
    debug_assert!(ap.len() >= 8 * k);
    debug_assert!(bp.len() >= 4 * k);
    let accp = acc.as_mut_ptr();
    let mut c = [vdupq_n_f64(0.0); 16];
    for (h, cv) in c.iter_mut().enumerate() {
        // SAFETY: `acc` is exactly 32 f64s.
        *cv = vld1q_f64(accp.add(2 * h));
    }
    let app = ap.as_ptr();
    let bpp = bp.as_ptr();
    for p in 0..k {
        let mut a = [vdupq_n_f64(0.0); 4];
        for (h, av) in a.iter_mut().enumerate() {
            // SAFETY: panel bounds checked by the debug_asserts above.
            *av = vld1q_f64(app.add(8 * p + 2 * h));
        }
        for j in 0..4 {
            // SAFETY: 4 * p + j < 4 * k <= bp.len().
            let bj = vdupq_n_f64(*bpp.add(4 * p + j));
            for h in 0..4 {
                c[4 * j + h] = vfmaq_f64(c[4 * j + h], a[h], bj);
            }
        }
    }
    for (h, cv) in c.iter().enumerate() {
        // SAFETY: same bounds as the loads above.
        vst1q_f64(accp.add(2 * h), *cv);
    }
}

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn gemm_c64_4x4(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 32]) {
    debug_assert!(ap.len() >= 8 * k);
    debug_assert!(bp.len() >= 8 * k);
    let accp = acc.as_mut_ptr();
    let mut c = [vdupq_n_f64(0.0); 16];
    for (h, cv) in c.iter_mut().enumerate() {
        // SAFETY: `acc` is exactly 32 f64s.
        *cv = vld1q_f64(accp.add(2 * h));
    }
    let app = ap.as_ptr();
    let bpp = bp.as_ptr();
    for p in 0..k {
        // SAFETY: split panels hold [re×4 | im×4] per depth step.
        let ar0 = vld1q_f64(app.add(8 * p));
        let ar1 = vld1q_f64(app.add(8 * p + 2));
        let ai0 = vld1q_f64(app.add(8 * p + 4));
        let ai1 = vld1q_f64(app.add(8 * p + 6));
        for j in 0..4 {
            // SAFETY: 8 * p + 4 + j < 8 * k <= bp.len().
            let brj = vdupq_n_f64(*bpp.add(8 * p + j));
            let bij = vdupq_n_f64(*bpp.add(8 * p + 4 + j));
            // Column j: c[4j..4j+2] = re halves, c[4j+2..4j+4] = im halves.
            c[4 * j] = vfmsq_f64(vfmaq_f64(c[4 * j], ar0, brj), ai0, bij);
            c[4 * j + 1] = vfmsq_f64(vfmaq_f64(c[4 * j + 1], ar1, brj), ai1, bij);
            c[4 * j + 2] = vfmaq_f64(vfmaq_f64(c[4 * j + 2], ar0, bij), ai0, brj);
            c[4 * j + 3] = vfmaq_f64(vfmaq_f64(c[4 * j + 3], ar1, bij), ai1, brj);
        }
    }
    for (h, cv) in c.iter().enumerate() {
        // SAFETY: same bounds as the loads above.
        vst1q_f64(accp.add(2 * h), *cv);
    }
}

// ---------------------------------------------------------------------------
// Gram tiles
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
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
    // Pair (i, j): registers s[2 * (2 * j + i)] (lanes 0–1) and + 1 (lanes 2–3).
    let mut s = [vdupq_n_f64(0.0); 16];
    let ap = [a0.as_ptr(), a1.as_ptr()];
    let bp = [b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr()];
    let mut p = 0;
    while p < k4 {
        // SAFETY: p + 4 <= k and every slice has length k.
        let av = [
            vld1q_f64(ap[0].add(p)),
            vld1q_f64(ap[0].add(p + 2)),
            vld1q_f64(ap[1].add(p)),
            vld1q_f64(ap[1].add(p + 2)),
        ];
        for j in 0..4 {
            let bv0 = vld1q_f64(bp[j].add(p));
            let bv1 = vld1q_f64(bp[j].add(p + 2));
            for i in 0..2 {
                let base = 2 * (2 * j + i);
                s[base] = vfmaq_f64(s[base], av[2 * i], bv0);
                s[base + 1] = vfmaq_f64(s[base + 1], av[2 * i + 1], bv1);
            }
        }
        p += 4;
    }
    let mut state = [[0.0_f64; lanes::GRAM_F64_LANES]; 8];
    for (idx, arr) in state.iter_mut().enumerate() {
        // SAFETY: each lane array holds exactly 4 f64s.
        vst1q_f64(arr.as_mut_ptr(), s[2 * idx]);
        vst1q_f64(arr.as_mut_ptr().add(2), s[2 * idx + 1]);
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

#[target_feature(enable = "neon")]
// SAFETY: `#[target_feature]` fn — the caller must guarantee NEON
// support; `dispatch_on!` only routes here when `available()` reported
// it. All memory access goes through safe slices.
pub(crate) unsafe fn gram2_c64(
    conj: bool,
    a0: &[f64],
    a1: &[f64],
    b0: &[f64],
    b1: &[f64],
    out: &mut [f64; 8],
) {
    let n = a0.len();
    debug_assert_eq!(n % 2, 0);
    debug_assert!(a1.len() == n && b0.len() == n && b1.len() == n);
    let kc = n / 2;
    let kc2 = kc - kc % lanes::GRAM_C64_LANES;
    // Pair (i, j): registers [2 * (2 * j + i)] (complex lane 0) and + 1 (lane 1).
    let mut pv = [vdupq_n_f64(0.0); 8];
    let mut qv = [vdupq_n_f64(0.0); 8];
    let ap = [a0.as_ptr(), a1.as_ptr()];
    let bp = [b0.as_ptr(), b1.as_ptr()];
    let mut pc = 0;
    while pc < kc2 {
        let f = 2 * pc;
        // SAFETY: f + 4 <= n and every slice has length n.
        let av = [
            vld1q_f64(ap[0].add(f)),
            vld1q_f64(ap[0].add(f + 2)),
            vld1q_f64(ap[1].add(f)),
            vld1q_f64(ap[1].add(f + 2)),
        ];
        for j in 0..2 {
            let bv0 = vld1q_f64(bp[j].add(f));
            let bv1 = vld1q_f64(bp[j].add(f + 2));
            let bs0 = swap_pair(bv0);
            let bs1 = swap_pair(bv1);
            for i in 0..2 {
                let base = 2 * (2 * j + i);
                pv[base] = vfmaq_f64(pv[base], av[2 * i], bv0);
                pv[base + 1] = vfmaq_f64(pv[base + 1], av[2 * i + 1], bv1);
                qv[base] = vfmaq_f64(qv[base], av[2 * i], bs0);
                qv[base + 1] = vfmaq_f64(qv[base + 1], av[2 * i + 1], bs1);
            }
        }
        pc += lanes::GRAM_C64_LANES;
    }
    let mut ps = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; 4];
    let mut qs = [[0.0_f64; 2 * lanes::GRAM_C64_LANES]; 4];
    for idx in 0..4 {
        // SAFETY: each lane array holds exactly 4 f64s.
        vst1q_f64(ps[idx].as_mut_ptr(), pv[2 * idx]);
        vst1q_f64(ps[idx].as_mut_ptr().add(2), pv[2 * idx + 1]);
        vst1q_f64(qs[idx].as_mut_ptr(), qv[2 * idx]);
        vst1q_f64(qs[idx].as_mut_ptr().add(2), qv[2 * idx + 1]);
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
        let (re, im) = if conj {
            lanes::combine_h(&ps[idx], &qs[idx])
        } else {
            lanes::combine_t(&ps[idx], &qs[idx])
        };
        out[2 * idx] = re;
        out[2 * idx + 1] = im;
    }
}
