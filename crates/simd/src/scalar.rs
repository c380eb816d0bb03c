//! Canonical scalar implementations — the semantic definition of every
//! primitive in this crate.
//!
//! This module is the oracle: whatever bits these functions produce are
//! *the* correct answer, and every vector backend must reproduce them
//! exactly. Two rules make that possible:
//!
//! 1. **Elementwise ops** use the same per-element formula the vector
//!    backends use — in particular [`f64::mul_add`] wherever a backend
//!    issues a hardware FMA, and plain `*`/`+` where it does not. A
//!    vector lane applies exactly one rounding per operation to exactly
//!    the operands the scalar formula names, so equal formulas ⇒ equal
//!    bits, lane by lane.
//! 2. **Reductions** accumulate into the fixed lane layout described in
//!    [`crate::lanes`] (element `i` → lane `i mod LANES`, one FMA chain
//!    per lane, shared final fold), which both paths realize literally.
//!
//! Complex data is interleaved `[re, im, re, im, …]` f64 slices. The GEMM
//! microkernel and the Gram tile are real-only: complex products live as
//! plain chains in `mbrpa-linalg`, beside the one solver that calls them.

use crate::lanes;
use crate::sparse::{DenseRows, SparseRows};

// ---------------------------------------------------------------------------
// Elementwise, real coefficients (componentwise-safe for complex data)
// ---------------------------------------------------------------------------

pub(crate) fn axpy(c: f64, x: &[f64], o: &mut [f64]) {
    debug_assert_eq!(x.len(), o.len());
    for (oi, &xi) in o.iter_mut().zip(x) {
        *oi = c.mul_add(xi, *oi);
    }
}

pub(crate) fn scal(c: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= c;
    }
}

pub(crate) fn shift_scale(s: f64, c: f64, x: &[f64], v: &mut [f64]) {
    debug_assert_eq!(x.len(), v.len());
    for (vi, &xi) in v.iter_mut().zip(x) {
        *vi = s * (-c).mul_add(xi, *vi);
    }
}

#[allow(clippy::many_single_char_names)]
pub(crate) fn shift_scale_sub(s: f64, c: f64, t: f64, y: &[f64], xprev: &[f64], w: &mut [f64]) {
    debug_assert_eq!(y.len(), w.len());
    debug_assert_eq!(xprev.len(), w.len());
    for ((wi, &yi), &xi) in w.iter_mut().zip(y).zip(xprev) {
        *wi = (-t).mul_add(xi, s * (-c).mul_add(yi, *wi));
    }
}

/// `dst[to..to + len] = src[from..from + len]` for every `(to, from)` of
/// `rows`, each followed by its periodic images: the row's last `wrap`
/// components before `to`, its first `wrap` after `to + len`.
pub(crate) fn copy_rows(
    len: usize,
    wrap: usize,
    rows: &[(usize, usize)],
    src: &[f64],
    dst: &mut [f64],
) {
    for &(to, from) in rows {
        let row = &src[from..from + len];
        dst[to..to + len].copy_from_slice(row);
        dst[to - wrap..to].copy_from_slice(&row[len - wrap..]);
        dst[to + len..to + len + wrap].copy_from_slice(&row[..wrap]);
    }
}

/// Uniform-offset stencil sweep over a halo'd source volume: row `rix`
/// (slab `rix / rows_per_slab`, row-in-slab `rix % rows_per_slab`) starts
/// at `origin + slab·slab_stride + row·row_stride` in `src`, and each of
/// its `row_len` output components is
///
/// ```text
/// o[rix·row_len + i] = Σ_t  terms[t].0 · src[row_base + i + terms[t].1]
/// ```
///
/// accumulated **in `terms` order** — a multiply for the first term and
/// one FMA per further term — so every output element is an independent
/// rounding chain and vector backends are bit-identical lane by lane.
/// Because the source carries its halo (wrapped or zeroed by the caller),
/// the same signed offsets apply at every point and there is no boundary
/// special-casing anywhere in the sweep.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stencil_rows(
    terms: &[(f64, isize)],
    src: &[f64],
    origin: usize,
    row_stride: usize,
    slab_stride: usize,
    rows_per_slab: usize,
    row_len: usize,
    o: &mut [f64],
) {
    let (w0, off0) = terms[0];
    let rest = &terms[1..];
    for (rix, orow) in o.chunks_exact_mut(row_len).enumerate() {
        let base =
            origin + (rix / rows_per_slab) * slab_stride + (rix % rows_per_slab) * row_stride;
        for (i, oi) in orow.iter_mut().enumerate() {
            let p = (base + i) as isize;
            let mut acc = w0 * src[(p + off0) as usize];
            for &(w, off) in rest {
                acc = w.mul_add(src[(p + off) as usize], acc);
            }
            *oi = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse rows against dense vectors of `cs` components per element
// ---------------------------------------------------------------------------

/// `y += Σ_r γ_r p_r (p_rᵀx)` over the rows `p_r` of `rows`, row after row
/// and per component: the dot is one chain from zero in stored order, then
/// `c = γ_r·dot`, then `y[i] += c·p_r[i]` over the same entries — a plain
/// multiply and a plain add per entry throughout. The dots are independent
/// of one another (and of `y`), so a backend may interleave them; the
/// additions into `y` happen in row order.
pub(crate) fn sparse_projector_add(
    cs: usize,
    rows: &SparseRows,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    for (r, &g) in gamma.iter().enumerate() {
        let (idx, val) = rows.row(r);
        let mut c = [0.0_f64; 2];
        for (&i, &p) in idx.iter().zip(val) {
            for k in 0..cs {
                c[k] += x[cs * i as usize + k] * p;
            }
        }
        c.iter_mut().for_each(|c| *c *= g);
        for (&i, &p) in idx.iter().zip(val) {
            for k in 0..cs {
                y[cs * i as usize + k] += c[k] * p;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The same sum over the dense form of the rows
// ---------------------------------------------------------------------------

/// Rows per pass of the dense projector kernel: a group's dots take one
/// pass over `x`, then its update one pass over `y`. A later group's rows
/// reach every element of `y` after an earlier group's, so each element
/// still takes its terms in ascending row order.
pub(crate) const DENSE_GROUP: usize = 8;

/// `y += Σ_r γ_r p_r (p_rᵀx)` over a [`DenseRows`]: the sum
/// [`sparse_projector_add`] takes over the rows it was built from, bit for
/// bit, on every input (but for the sign and payload of a NaN, which Rust
/// leaves unspecified).
///
/// A dense dot takes every column, so it is the sparse chain with a term
/// `x_j·0 = ±0` wherever the row holds no entry. A chain from `+0` never
/// holds `−0`, and adding `±0` to anything but `−0` changes no bit; only a
/// non-finite `x_j` at an absent entry (`∞·0 = NaN`) tells the two apart,
/// and then the dot is not finite, so every non-finite dot is redone over
/// the row's entries ([`dense_coefficients`]). The update likewise adds
/// `c_r·0 = ±0` to the elements outside row `r`. That changes no bit
/// unless the element is `−0` (`−0 + +0 = +0`) or a signalling NaN, or
/// `c_r` is not finite: elements holding `−0` or NaN ([`needs_exact`]),
/// and every element of a group with a non-finite coefficient, take the
/// entries only ([`exact_add`]).
pub(crate) fn dense_projector_add(
    cs: usize,
    m: &DenseRows,
    gamma: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let cols = m.cols();
    for g0 in (0..m.rows()).step_by(DENSE_GROUP) {
        let nr = (m.rows() - g0).min(DENSE_GROUP);
        // the group's row pairs, `[a_j, b_j]` at `2j`
        let pairs = m.table()[cols * g0..]
            .chunks_exact(2 * cols)
            .take(nr.div_ceil(2));
        let mut c = [[0.0_f64; 2]; DENSE_GROUP];
        for j in 0..cols {
            for (q, t) in pairs.clone().enumerate() {
                for k in 0..cs {
                    c[2 * q][k] += x[cs * j + k] * t[2 * j];
                    c[2 * q + 1][k] += x[cs * j + k] * t[2 * j + 1];
                }
            }
        }
        // an odd group's last pair holds a row of zeros: its coefficient
        // is 0, so its terms are `+0`
        c[nr..].fill([0.0; 2]);
        let finite = dense_coefficients(cs, m, g0, nr, gamma, x, &mut c);
        for j in 0..cols {
            for k in 0..cs {
                let v = y[cs * j + k];
                y[cs * j + k] = if finite && !needs_exact(v) {
                    pairs.clone().enumerate().fold(v, |acc, (q, t)| {
                        (acc + c[2 * q][k] * t[2 * j]) + c[2 * q + 1][k] * t[2 * j + 1]
                    })
                } else {
                    exact_add(m, g0, nr, &c, k, j, v)
                };
            }
        }
    }
}

/// Turn the dense dots `c[r][k]` of rows `g0..g0 + nr` into the
/// coefficients `γ_r·(p_rᵀx)`, first redoing every non-finite dot over its
/// row's entries alone (the sparse chain); true when every coefficient is
/// finite.
pub(crate) fn dense_coefficients(
    cs: usize,
    m: &DenseRows,
    g0: usize,
    nr: usize,
    gamma: &[f64],
    x: &[f64],
    c: &mut [[f64; 2]; DENSE_GROUP],
) -> bool {
    let mut finite = true;
    for (r, cr) in c.iter_mut().enumerate().take(nr) {
        for (k, ck) in cr.iter_mut().enumerate().take(cs) {
            if !ck.is_finite() {
                *ck = (0..m.cols())
                    .filter_map(|j| Some((j, m.stored(g0 + r, j)?)))
                    .fold(0.0, |acc, (j, p)| acc + x[cs * j + k] * p);
            }
            *ck *= gamma[g0 + r];
            finite &= ck.is_finite();
        }
    }
    finite
}

/// An element of `y` that a `±0` term can change: `−0` or a NaN. (A `+0`
/// stays `+0` under any zero term, and a sum from it is never `−0`.)
#[inline]
pub(crate) fn needs_exact(v: f64) -> bool {
    v.is_nan() || v.to_bits() == (-0.0_f64).to_bits()
}

/// `v + Σ_r c[r][k]·p_{g0+r}[j]` over the rows `r < nr` that hold an entry
/// at column `j`, in ascending row order: one element's sparse update.
pub(crate) fn exact_add(
    m: &DenseRows,
    g0: usize,
    nr: usize,
    c: &[[f64; 2]; DENSE_GROUP],
    k: usize,
    j: usize,
    v: f64,
) -> f64 {
    (0..nr)
        .filter_map(|r| Some((r, m.stored(g0 + r, j)?)))
        .fold(v, |acc, (r, p)| acc + c[r][k] * p)
}

// ---------------------------------------------------------------------------
// Elementwise, complex coefficients on interleaved data
// ---------------------------------------------------------------------------

pub(crate) fn axpy_c64(ar: f64, ai: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yp, xp) in y.chunks_exact_mut(2).zip(x.chunks_exact(2)) {
        let (xr, xi) = (xp[0], xp[1]);
        yp[0] = (-ai).mul_add(xi, ar.mul_add(xr, yp[0]));
        yp[1] = ai.mul_add(xr, ar.mul_add(xi, yp[1]));
    }
}

pub(crate) fn scal_c64(ar: f64, ai: f64, x: &mut [f64]) {
    for xp in x.chunks_exact_mut(2) {
        let (xr, xi) = (xp[0], xp[1]);
        xp[0] = (-ai).mul_add(xi, ar * xr);
        xp[1] = ai.mul_add(xr, ar * xi);
    }
}

// ---------------------------------------------------------------------------
// Reductions (canonical lane layout, shared fold)
// ---------------------------------------------------------------------------

pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut state = [0.0_f64; lanes::F64_LANES];
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        let l = i % lanes::F64_LANES;
        state[l] = a.mul_add(b, state[l]);
    }
    lanes::fold(&state)
}

pub(crate) fn nrm2_sq(x: &[f64]) -> f64 {
    let mut state = [0.0_f64; lanes::F64_LANES];
    for (i, &a) in x.iter().enumerate() {
        let l = i % lanes::F64_LANES;
        state[l] = a.mul_add(a, state[l]);
    }
    lanes::fold(&state)
}

/// Accumulate the shared p/q component-product lane states of a complex
/// dot (see [`lanes::combine_t`] for the layout).
fn dot_c64_states(
    x: &[f64],
    y: &[f64],
) -> ([f64; 2 * lanes::C64_LANES], [f64; 2 * lanes::C64_LANES]) {
    debug_assert_eq!(x.len(), y.len());
    let mut p = [0.0_f64; 2 * lanes::C64_LANES];
    let mut q = [0.0_f64; 2 * lanes::C64_LANES];
    for (j, (xc, yc)) in x.chunks_exact(2).zip(y.chunks_exact(2)).enumerate() {
        let l = 2 * (j % lanes::C64_LANES);
        p[l] = xc[0].mul_add(yc[0], p[l]);
        p[l + 1] = xc[1].mul_add(yc[1], p[l + 1]);
        q[l] = xc[0].mul_add(yc[1], q[l]);
        q[l + 1] = xc[1].mul_add(yc[0], q[l + 1]);
    }
    (p, q)
}

pub(crate) fn dot_t_c64(x: &[f64], y: &[f64]) -> (f64, f64) {
    let (p, q) = dot_c64_states(x, y);
    lanes::combine_t(&p, &q)
}

// ---------------------------------------------------------------------------
// GEMM microkernel on packed panels
// ---------------------------------------------------------------------------

pub(crate) fn gemm_f64_8x4(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 32]) {
    debug_assert!(ap.len() >= 8 * k);
    debug_assert!(bp.len() >= 4 * k);
    for p in 0..k {
        let a = &ap[8 * p..8 * p + 8];
        let b = &bp[4 * p..4 * p + 4];
        for j in 0..4 {
            let bj = b[j];
            for i in 0..8 {
                acc[8 * j + i] = a[i].mul_add(bj, acc[8 * j + i]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Gram tile (shared-stream column block of AᵀB)
// ---------------------------------------------------------------------------

pub(crate) fn gram2x4_f64(
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
    let a = [a0, a1];
    let b = [b0, b1, b2, b3];
    // Pair (i, j) accumulates in state[2 * j + i].
    let mut state = [[0.0_f64; lanes::GRAM_F64_LANES]; 8];
    for p in 0..k {
        let l = p % lanes::GRAM_F64_LANES;
        for j in 0..4 {
            let bv = b[j][p];
            for i in 0..2 {
                let s = &mut state[2 * j + i][l];
                *s = a[i][p].mul_add(bv, *s);
            }
        }
    }
    for (o, s) in out.iter_mut().zip(state.iter()) {
        *o = lanes::fold(s);
    }
}

// ---------------------------------------------------------------------------
// Paired real Lanczos step: two right-hand sides in the re/im slots of one
// interleaved vector, coefficient `k[p % 2]` for component `p`
// ---------------------------------------------------------------------------

/// Components `span` of [`lanczos_pair_project`], sums into `state`.
pub(crate) fn lanczos_pair_project_span(
    span: core::ops::Range<usize>,
    s: [f64; 2],
    c: [f64; 2],
    v_prev: &[f64],
    v: &[f64],
    y: &mut [f64],
    state: &mut [f64; lanes::PAIR_LANES],
) {
    for p in span {
        let u = (-c[p % 2]).mul_add(v_prev[p], y[p] * s[p % 2]);
        y[p] = u;
        let acc = &mut state[p % lanes::PAIR_LANES];
        *acc = v[p].mul_add(u, *acc);
    }
}

pub(crate) fn lanczos_pair_project(
    s: [f64; 2],
    c: [f64; 2],
    v_prev: &[f64],
    v: &[f64],
    y: &mut [f64],
) -> [f64; 2] {
    let mut state = [0.0; lanes::PAIR_LANES];
    lanczos_pair_project_span(0..y.len(), s, c, v_prev, v, y, &mut state);
    lanes::fold_pair(&state)
}

/// Components `span` of [`lanczos_pair_advance`], sums into `state`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lanczos_pair_advance_span(
    span: core::ops::Range<usize>,
    k: &crate::PairStep,
    v: &[f64],
    u: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    x: &mut [f64],
    state: &mut [f64; lanes::PAIR_LANES],
) {
    for p in span {
        let l = p % 2;
        let next = (-k.a[l]).mul_add(v[p], u[p]);
        u[p] = next;
        let acc = &mut state[p % lanes::PAIR_LANES];
        *acc = next.mul_add(next, *acc);
        let (dr, di) = (d_re[p], d_im[p]);
        let nr = (-k.g_re[l]).mul_add(dr, k.g_im[l].mul_add(di, k.t_re[l] * v[p]));
        let ni = (-k.g_re[l]).mul_add(di, (-k.g_im[l]).mul_add(dr, k.t_im[l] * v[p]));
        d_re[p] = nr;
        d_im[p] = ni;
        x[p] = (-k.z_im[l]).mul_add(ni, k.z_re[l].mul_add(nr, x[p]));
    }
}

pub(crate) fn lanczos_pair_advance(
    k: &crate::PairStep,
    v: &[f64],
    u: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    x: &mut [f64],
) -> [f64; 2] {
    let mut state = [0.0; lanes::PAIR_LANES];
    lanczos_pair_advance_span(0..u.len(), k, v, u, d_re, d_im, x, &mut state);
    lanes::fold_pair(&state)
}

// ---------------------------------------------------------------------------
// Block Lanczos on pair-packed real blocks: `s` real columns in `⌈s/2⌉`
// interleaved vectors, column `c` in slot `c mod 2` of vector `c / 2`, and
// `s × s` coefficients padded with zeros to the even width `2⌈s/2⌉`
// ---------------------------------------------------------------------------

/// Entry `(l, j)` of the column-major `s × s` matrix `c`, zero outside it.
#[inline(always)]
pub(crate) fn pad_coef(s: usize, c: &[f64], l: usize, j: usize) -> f64 {
    if l < s && j < s {
        c[l + s * j]
    } else {
        0.0
    }
}

/// Index of row `i` of column `c` in a pair-packed block of `rows` rows.
#[inline(always)]
fn pidx(rows: usize, i: usize, c: usize) -> usize {
    2 * ((c / 2) * rows + i) + c % 2
}

/// Row `i` of `y −= x·c`: each entry one chain over the padded columns of
/// `x` in order.
pub(crate) fn block_sub_row(rows: usize, s: usize, i: usize, c: &[f64], x: &[f64], y: &mut [f64]) {
    let w = 2 * s.div_ceil(2);
    for j in 0..w {
        let mut acc = y[pidx(rows, i, j)];
        for l in 0..w {
            acc = (-pad_coef(s, c, l, j)).mul_add(x[pidx(rows, i, l)], acc);
        }
        y[pidx(rows, i, j)] = acc;
    }
}

/// Row `i`'s products into row lane `r` of the state of pair `(p, q)` of
/// `leftᵀ y`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_gram_row(
    rows: usize,
    i: usize,
    r: usize,
    p: usize,
    q: usize,
    left: &[f64],
    y: &[f64],
    st: &mut lanes::BlockPairState,
) {
    for sigma in 0..2 {
        let a = left[pidx(rows, i, 2 * p + sigma)];
        let lane = 2 * r + sigma;
        st[0][lane] = a.mul_add(y[pidx(rows, i, 2 * q + sigma)], st[0][lane]);
        st[1][lane] = a.mul_add(y[pidx(rows, i, 2 * q + 1 - sigma)], st[1][lane]);
    }
}

/// `y −= x·c`, then `out = leftᵀy` (`left = None`: `yᵀy`, exactly
/// symmetric).
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_update_gram(
    rows: usize,
    s: usize,
    c: &[f64],
    x: &[f64],
    left: Option<&[f64]>,
    y: &mut [f64],
    out: &mut [f64],
) {
    for i in 0..rows {
        block_sub_row(rows, s, i, c, x, y);
    }
    let y: &[f64] = y;
    let m = s.div_ceil(2);
    for q in 0..m {
        for p in 0..if left.is_some() { m } else { q + 1 } {
            let mut st = [[0.0; 4]; 2];
            for i in 0..rows {
                block_gram_row(rows, i, i % 2, p, q, left.unwrap_or(y), y, &mut st);
            }
            lanes::finish_block_pair(s, p, q, left.is_none(), &st, out);
        }
    }
}

/// Row `i` of [`crate::block_lanczos_advance_on`]: every output entry is
/// one chain from `+0` (or from `x`) over the padded columns, the terms of
/// each product in column order and the products in the order written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_advance_row(
    rows: usize,
    s: usize,
    i: usize,
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
    let w = 2 * s.div_ceil(2);
    let c = |m: &[f64], l: usize, j: usize| pad_coef(s, m, l, j);
    for j in 0..w {
        let (mut a, mut re, mut im) = (0.0_f64, 0.0_f64, 0.0_f64);
        for l in 0..w {
            a = c(k.b_inv, l, j).mul_add(u[pidx(rows, i, l)], a);
        }
        for l in 0..w {
            re = c(k.e_re, l, j).mul_add(v[pidx(rows, i, l)], re);
        }
        for l in 0..w {
            re = (-c(k.g_re, l, j)).mul_add(d_re[pidx(rows, i, l)], re);
        }
        for l in 0..w {
            re = c(k.g_im, l, j).mul_add(d_im[pidx(rows, i, l)], re);
        }
        for l in 0..w {
            im = c(k.e_im, l, j).mul_add(v[pidx(rows, i, l)], im);
        }
        for l in 0..w {
            im = (-c(k.g_im, l, j)).mul_add(d_re[pidx(rows, i, l)], im);
        }
        for l in 0..w {
            im = (-c(k.g_re, l, j)).mul_add(d_im[pidx(rows, i, l)], im);
        }
        v_next[pidx(rows, i, j)] = a;
        dn_re[pidx(rows, i, j)] = re;
        dn_im[pidx(rows, i, j)] = im;
    }
    for j in 0..w {
        let mut acc = x[pidx(rows, i, j)];
        for l in 0..w {
            acc = c(k.z_re, l, j).mul_add(dn_re[pidx(rows, i, l)], acc);
        }
        for l in 0..w {
            acc = (-c(k.z_im, l, j)).mul_add(dn_im[pidx(rows, i, l)], acc);
        }
        x[pidx(rows, i, j)] = acc;
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn block_advance(
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
    for i in 0..rows {
        block_advance_row(rows, s, i, k, u, v, d_re, d_im, v_next, dn_re, dn_im, x);
    }
}
