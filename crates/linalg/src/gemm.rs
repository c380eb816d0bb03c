//! Packed, register-blocked dense matrix multiplication.
//!
//! The dominant shapes in the RPA pipeline are tall-and-skinny: `n_d × n_eig`
//! blocks of grid vectors multiplied by small `n_eig × n_eig` subspace
//! matrices (`V·Q`, `P·β`), and Gram products `VᵀW` reducing the long grid
//! dimension. The real kernels follow the classic BLIS decomposition: `B` is
//! packed once per call into column panels of width `NR` with `alpha` folded
//! in, `A` is packed per cache block into row panels of height `MR`, and an
//! 8×4 register-tile microkernel streams the packed panels so every
//! element of `A` is read from memory once per `NR` output columns instead
//! of once per column.
//!
//! The microkernel and the 2×4 Gram tile live in `mbrpa-simd` and are
//! runtime-dispatched (AVX2+FMA / scalar) with a bit-identical scalar twin.
//! Both drivers are real-only. Complex products run only in block COCG
//! (Alg. 3), which no shipped Sternheimer chunk reaches: there every entry
//! is one plain chain in a fixed order, the one block COCG's pinned bits
//! (`solver/tests/block_lanczos_bits.rs`) were recorded in.
//!
//! `C` is written in place: the row dimension is split into disjoint
//! contiguous strips, each strip borrowing its segment of every column via
//! `split_at_mut`, so the parallel path needs no scratch panels and no
//! serial copy-back. Strip parallelism is sized by
//! [`crate::par::inner_slots`] so these kernels never oversubscribe a rayon
//! pool that is already running an outer partition (the per-frequency
//! Sternheimer split in `core::chi0`).
//!
//! Pack buffers live in a thread-local arena keyed by scalar type, so
//! steady-state GEMM calls perform no heap allocation.

use crate::dense::Mat;
use crate::par;
use crate::scalar::Scalar;
use crate::vecops;
use mbrpa_simd::Dispatch;
use rayon::prelude::*;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;

/// Row-panel height for the blocked Gram kernels. 512 rows × 8–16 B scalars
/// keeps a panel column in L1 while amortizing the loop overhead.
const PANEL: usize = 512;

/// Work threshold (in scalar multiply-adds) below which the serial kernel is
/// used; spawning rayon tasks for tiny products costs more than it saves.
const PAR_THRESHOLD: usize = 1 << 16;

/// Byte budget for one packed block of `A`; sized to sit comfortably in L2.
const A_BLOCK_BYTES: usize = 1 << 18;

/// Rows and columns of the register tile of `mbrpa_simd::gemm_f64_8x4_on`.
const MR: usize = 8;
const NR: usize = 4;

// ---------------------------------------------------------------------------
// Thread-local pack-buffer arena
// ---------------------------------------------------------------------------

// Buffers are taken *out* of the map (leaving an empty `Vec` behind in the
// same box) and put back when done, so a rayon worker that steals an
// unrelated GEMM while one is in flight on the same thread never aliases a
// live buffer — it just pays one fresh allocation for the stolen call.
thread_local! {
    static PACK_ARENA: RefCell<BTreeMap<(TypeId, u8), Box<dyn Any>>> =
        RefCell::new(BTreeMap::new());
}

const SLOT_PACK_A: u8 = 0;
const SLOT_PACK_B: u8 = 1;
const SLOT_GRAM: u8 = 2;

fn take_buf<T: Scalar>(slot: u8, min_len: usize) -> Vec<T> {
    let mut v: Vec<T> = PACK_ARENA.with(|a| {
        let mut map = a.borrow_mut();
        let entry = map
            .entry((TypeId::of::<T>(), slot))
            .or_insert_with(|| Box::new(Vec::<T>::new()) as Box<dyn Any>);
        entry
            .downcast_mut::<Vec<T>>()
            .map(std::mem::take)
            .unwrap_or_default()
    });
    if v.len() < min_len {
        v.resize(min_len, T::zero());
    }
    v
}

fn put_buf<T: Scalar>(slot: u8, v: Vec<T>) {
    PACK_ARENA.with(|a| {
        if let Some(entry) = a.borrow_mut().get_mut(&(TypeId::of::<T>(), slot)) {
            if let Some(dst) = entry.downcast_mut::<Vec<T>>() {
                *dst = v;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Pack `mc` rows of `A` starting at `row0` into row panels of height `MR`:
/// panel `ip` holds, for each depth index `l`, the `MR` consecutive row
/// entries, zero-padded past the matrix edge.
fn pack_a(a: &Mat<f64>, row0: usize, mc: usize, k: usize, buf: &mut [f64]) {
    for ip in 0..mc.div_ceil(MR) {
        let i0 = row0 + ip * MR;
        let mre = MR.min(row0 + mc - i0);
        let panel = &mut buf[ip * MR * k..(ip + 1) * MR * k];
        for l in 0..k {
            let dst = &mut panel[l * MR..(l + 1) * MR];
            dst.fill(0.0);
            dst[..mre].copy_from_slice(&a.col(l)[i0..i0 + mre]);
        }
    }
}

/// Pack all of `B` (k×n) into column panels of width `NR` with `alpha`
/// folded in: panel `jp` holds, for each depth index `l`, `NR` consecutive
/// scaled column entries, zero-padded past the matrix edge.
fn pack_b(b: &Mat<f64>, alpha: f64, k: usize, n: usize, buf: &mut [f64]) {
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let panel = &mut buf[jp * NR * k..(jp + 1) * NR * k];
        panel.fill(0.0);
        for jj in 0..NR.min(n - j0) {
            for (l, &blj) in b.col(j0 + jj)[..k].iter().enumerate() {
                panel[l * NR + jj] = alpha * blj;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tile stores
// ---------------------------------------------------------------------------

/// `dst = acc + beta·dst` over one tile column (`beta` pre-dispatched so
/// the branch sits outside the copy loop). The loops index `acc`: written
/// as `copy_from_slice`, the `β = 0` store compiles to a `memcpy` call per
/// tile column, which the small GEMMs of si8's solves (Galerkin guess,
/// Rayleigh–Ritz) paid as ×1.08 of its `solve_s`.
#[inline(always)]
fn store_acc_col<T: Scalar>(dst: &mut [T], acc: &[T], beta: T) {
    if beta == T::zero() {
        for (ii, d) in dst.iter_mut().enumerate() {
            *d = acc[ii];
        }
    } else if beta == T::one() {
        for (ii, d) in dst.iter_mut().enumerate() {
            *d += acc[ii];
        }
    } else {
        for (ii, d) in dst.iter_mut().enumerate() {
            *d = acc[ii] + beta * *d;
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Compute one row strip `[r0, r0+h)` of `C = (alpha·A)·B + beta·C` from the
/// shared packed `B`, packing `A` in L2-sized blocks on the way. Accumulator
/// tiles (column-major, column stride 8) are handed to
/// `write_tile(i_local, j0, acc, mr_eff, nr_eff)` so the caller decides
/// where the strip's output lives (whole matrix or a borrowed strip
/// segment).
#[allow(clippy::too_many_arguments)]
fn strip_gemm(
    d: Dispatch,
    a: &Mat<f64>,
    bpack: &[f64],
    r0: usize,
    h: usize,
    k: usize,
    n: usize,
    mut write_tile: impl FnMut(usize, usize, &[f64; 32], usize, usize),
) {
    let mc_elems = (A_BLOCK_BYTES / std::mem::size_of::<f64>() / k.max(1)).max(MR);
    let mc_max = (mc_elems / MR * MR).min(h.div_ceil(MR) * MR);
    let mut a_buf = take_buf::<f64>(SLOT_PACK_A, mc_max * k);
    let n_col_panels = n.div_ceil(NR);

    let mut off = 0;
    while off < h {
        let mc = mc_max.min(h - off);
        pack_a(a, r0 + off, mc, k, &mut a_buf);
        let n_row_panels = mc.div_ceil(MR);
        for jp in 0..n_col_panels {
            let nre = NR.min(n - jp * NR);
            let bp = &bpack[jp * NR * k..(jp + 1) * NR * k];
            for ip in 0..n_row_panels {
                let mre = MR.min(mc - ip * MR);
                let ap = &a_buf[ip * MR * k..(ip + 1) * MR * k];
                let mut acc = [0.0f64; 32];
                mbrpa_simd::gemm_f64_8x4_on(d, k, ap, bp, &mut acc);
                write_tile(off + ip * MR, jp * NR, &acc, mre, nre);
            }
        }
        off += mc;
    }
    put_buf(SLOT_PACK_A, a_buf);
}

/// Packed register-blocked `C = alpha·A·B + beta·C` for `k > 0` and
/// `alpha ≠ 0`.
fn gemm_driver(alpha: f64, a: &Mat<f64>, b: &Mat<f64>, beta: f64, c: &mut Mat<f64>) {
    let (m, k) = a.shape();
    let n = b.cols();
    let d = mbrpa_simd::active();
    let mut b_buf = take_buf::<f64>(SLOT_PACK_B, n.div_ceil(NR) * NR * k);
    pack_b(b, alpha, k, n, &mut b_buf);

    let work = m * n * k;
    let slots = par::inner_slots();
    let p = if work < PAR_THRESHOLD || slots == 1 {
        1
    } else {
        slots.min(m.div_ceil(4 * MR)).max(1)
    };

    if p == 1 {
        let c_data = c.as_mut_slice();
        strip_gemm(d, a, &b_buf, 0, m, k, n, |i0, j0, acc, mre, nre| {
            for jj in 0..nre {
                let col = &mut c_data[(j0 + jj) * m + i0..(j0 + jj) * m + i0 + mre];
                store_acc_col(col, &acc[8 * jj..], beta);
            }
        });
        put_buf(SLOT_PACK_B, b_buf);
        return;
    }

    // Parallel path: disjoint row strips (MR-aligned) of C, each task
    // borrowing its segment of every column — written in place, no
    // copy-back.
    let h_strip = m.div_ceil(p).div_ceil(MR) * MR;
    let strips: Vec<(usize, usize)> = (0..m.div_ceil(h_strip))
        .map(|s| (s * h_strip, h_strip.min(m - s * h_strip)))
        .collect();
    let mut col_segs: Vec<Vec<&mut [f64]>> = strips.iter().map(|_| Vec::with_capacity(n)).collect();
    let mut rest = c.as_mut_slice();
    for _ in 0..n {
        let (mut col, tail) = rest.split_at_mut(m);
        rest = tail;
        for (s, &(_, h)) in strips.iter().enumerate() {
            let (seg, col_tail) = col.split_at_mut(h);
            col_segs[s].push(seg);
            col = col_tail;
        }
    }
    let b_ref = &b_buf;
    strips
        .par_iter()
        .zip(col_segs.into_par_iter())
        .for_each(|(&(r0, h), mut segs)| {
            strip_gemm(d, a, b_ref, r0, h, k, n, |i0, j0, acc, mre, nre| {
                for jj in 0..nre {
                    let col = &mut segs[j0 + jj][i0..i0 + mre];
                    store_acc_col(col, &acc[8 * jj..], beta);
                }
            });
        });
    put_buf(SLOT_PACK_B, b_buf);
}

/// Complex `C = alpha·A·B + beta·C` for `k > 0` and `alpha ≠ 0`, every
/// entry one plain chain: with `t = alpha·b_lj`, over `l` in order from
/// `+0`, `re = (−a_im)·t_im + (a_re·t_re + re)` and
/// `im = a_im·t_re + (a_re·t_im + im)`, each `·+` one fused rounding; the
/// store is [`store_acc_col`]'s.
fn gemm_chains<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    let k = a.cols();
    for j in 0..b.cols() {
        for i in 0..a.rows() {
            let (mut re, mut im) = (0.0_f64, 0.0_f64);
            for l in 0..k {
                let (x, t) = (a[(i, l)], alpha * b[(l, j)]);
                re = (-x.im()).mul_add(t.im(), x.re().mul_add(t.re(), re));
                im = x.im().mul_add(t.re(), x.re().mul_add(t.im(), im));
            }
            let acc = [T::from_components(re, im)];
            store_acc_col(std::slice::from_mut(&mut c[(i, j)]), &acc, beta);
        }
    }
}

/// `Some(m)` when `T` is `f64`: the packed drivers are real-only.
fn real<T: Scalar>(m: &Mat<T>) -> Option<&Mat<f64>> {
    (m as &dyn Any).downcast_ref()
}

/// Mutable variant of [`real`].
fn real_mut<T: Scalar>(m: &mut Mat<T>) -> Option<&mut Mat<f64>> {
    (m as &mut dyn Any).downcast_mut()
}

fn count_gemm<T: Scalar>(m: usize, k: usize, n: usize) {
    mbrpa_obs::add("linalg.gemm_calls", 1);
    mbrpa_obs::add(
        "linalg.gemm_flops",
        (2 * m * k * n * T::COMPONENTS * T::COMPONENTS) as u64,
    );
}

// ---------------------------------------------------------------------------
// Public products
// ---------------------------------------------------------------------------

/// `C = A · B`.
///
/// ```
/// use mbrpa_linalg::{matmul, Mat};
/// let a = Mat::from_fn(2, 2, |i, j| (i * 2 + j) as f64); // [[0,1],[2,3]]
/// let c = matmul(&a, &Mat::identity(2));
/// assert_eq!(c, a);
/// ```
pub fn matmul<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let mut c = Mat::zeros(a.rows(), b.cols());
    matmul_into(T::one(), a, b, T::zero(), &mut c);
    c
}

/// `C = alpha · A · B + beta · C`.
pub fn matmul_into<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "inner dimension mismatch: {k} vs {kb}");
    assert_eq!(c.shape(), (m, n), "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    count_gemm::<T>(m, k, n);
    if k == 0 || alpha == T::zero() {
        // No product term: C = beta·C.
        let data = c.as_mut_slice();
        if beta == T::zero() {
            data.iter_mut().for_each(|x| *x = T::zero());
        } else if beta != T::one() {
            vecops::scal(beta, data);
        }
        return;
    }
    if let (Some(a), Some(b), Some(c)) = (real(a), real(b), real_mut(c)) {
        gemm_driver(alpha.re(), a, b, beta.re(), c);
        return;
    }
    gemm_chains(alpha, a, b, beta, c);
}

/// `C = Aᵀ · B` (no conjugation; the COCG bilinear Gram product).
pub fn matmul_tn<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let mut c = Mat::zeros(a.cols(), b.cols());
    matmul_tn_into(a, b, &mut c);
    c
}

/// `C = Aᵀ · B` written into a caller-owned matrix (overwrites `C`; the
/// allocation-free form for solver steady-state loops).
pub fn matmul_tn_into<T: Scalar>(a: &Mat<T>, b: &Mat<T>, c: &mut Mat<T>) {
    gram_checks(a, b, c);
    let (m, kc, n) = (a.rows(), a.cols(), b.cols());
    if let (Some(a), Some(b), Some(c)) = (real(a), real(b), real_mut(c)) {
        let d = mbrpa_simd::active();
        gram_driver(
            m,
            kc,
            n,
            |row0, h, buf| gram_chunk_simd(d, a, b, row0, h, buf),
            c,
        );
        return;
    }
    gram_driver(
        m,
        kc,
        n,
        |row0, h, buf| gram_chunk_chains(a, b, row0, h, buf),
        c,
    );
}

fn gram_checks<T: Scalar>(a: &Mat<T>, b: &Mat<T>, c: &Mat<T>) {
    let (m, k) = a.shape();
    let (mb, n) = b.shape();
    assert_eq!(m, mb, "row dimension mismatch: {m} vs {mb}");
    assert_eq!(c.shape(), (k, n), "output shape mismatch");
    mbrpa_obs::add("linalg.gram_calls", 1);
    mbrpa_obs::add("linalg.dot_products", (k * n) as u64);
    // Gram products are block *reductions* (k·n long dot products), not
    // GEMM traffic: charging them to `linalg.gemm_flops` inflated the
    // GEMM GF/s row in `-profile` summaries, so they get their own
    // counter in the reduce family.
    mbrpa_obs::add(
        "solver.reduce.gram_flops",
        (2 * m * k * n * T::COMPONENTS * T::COMPONENTS) as u64,
    );
}

/// Shared skeleton for the Gram products `C = op(A)ᵀ·B`: the long row
/// dimension (`m`) is cut into fixed `PANEL` chunks whose partial Grams
/// are computed by `chunk(row0, h, out_buf)` and folded in index order, so
/// results are bitwise independent of the thread count.
fn gram_driver<T: Scalar>(
    m: usize,
    kc: usize,
    n: usize,
    chunk: impl Fn(usize, usize, &mut [T]) + Sync,
    out: &mut Mat<T>,
) {
    if kc == 0 || n == 0 {
        return;
    }
    let work = m * n * kc;
    if work < PAR_THRESHOLD || m < 2 * PANEL {
        chunk(0, m, out.as_mut_slice());
        return;
    }
    let n_chunks = m.div_ceil(PANEL);
    let mut partials = take_buf::<T>(SLOT_GRAM, n_chunks * kc * n);
    let chunk_of = |p: usize, buf: &mut [T]| {
        let row0 = p * PANEL;
        chunk(row0, PANEL.min(m - row0), buf);
    };
    if par::inner_slots() > 1 {
        let chunk_refs: Vec<(usize, &mut [T])> = partials[..n_chunks * kc * n]
            .chunks_mut(kc * n)
            .enumerate()
            .collect();
        chunk_refs
            .into_par_iter()
            .for_each(|(p, buf)| chunk_of(p, buf));
    } else {
        for (p, buf) in partials[..n_chunks * kc * n].chunks_mut(kc * n).enumerate() {
            chunk_of(p, buf);
        }
    }
    let out_data = out.as_mut_slice();
    out_data.copy_from_slice(&partials[..kc * n]);
    for p in 1..n_chunks {
        for (o, x) in out_data.iter_mut().zip(&partials[p * kc * n..]) {
            *o += *x;
        }
    }
    put_buf(SLOT_GRAM, partials);
}

/// One row chunk of a real Gram product, written (overwriting) into `out`
/// (column-major `a.cols() × b.cols()`), routed through the `mbrpa-simd`
/// 2×4 Gram tile, which shares its operand streams and cuts memory traffic
/// versus dot-per-entry; edge tiles fall back to the dispatched dot.
fn gram_chunk_simd(
    d: Dispatch,
    a: &Mat<f64>,
    b: &Mat<f64>,
    row0: usize,
    h: usize,
    out: &mut [f64],
) {
    let kc = a.cols();
    let n = b.cols();
    let ac = |i: usize| &a.col(i)[row0..row0 + h];
    let bc = |j: usize| &b.col(j)[row0..row0 + h];
    let mut j0 = 0;
    while j0 < n {
        let nj = (n - j0).min(4);
        let mut i0 = 0;
        while i0 < kc {
            let ni = (kc - i0).min(2);
            if ni == 2 && nj == 4 {
                let mut t = [0.0; 8];
                mbrpa_simd::gram2x4_f64_on(
                    d,
                    ac(i0),
                    ac(i0 + 1),
                    bc(j0),
                    bc(j0 + 1),
                    bc(j0 + 2),
                    bc(j0 + 3),
                    &mut t,
                );
                for jj in 0..4 {
                    for ii in 0..2 {
                        out[(j0 + jj) * kc + i0 + ii] = t[2 * jj + ii];
                    }
                }
            } else {
                for jj in 0..nj {
                    for ii in 0..ni {
                        out[(j0 + jj) * kc + i0 + ii] =
                            mbrpa_simd::dot_on(d, ac(i0 + ii), bc(j0 + jj));
                    }
                }
            }
            i0 += ni;
        }
        j0 += nj;
    }
}

/// One row chunk of a complex Gram product `AᵀB`, written (overwriting)
/// into `out`. An entry inside the complete 2×2 tiles (`i < kc − kc mod 2`,
/// `j < n − n mod 2`) sums in two complex lanes ([`dot_t_two_lanes`]);
/// every other entry is `mbrpa_simd::dot_t_c64`. Block
/// COCG's pinned bits depend on that split.
fn gram_chunk_chains<T: Scalar>(a: &Mat<T>, b: &Mat<T>, row0: usize, h: usize, out: &mut [T]) {
    let (kc, n) = (a.cols(), b.cols());
    for j in 0..n {
        for i in 0..kc {
            let (x, y) = (&a.col(i)[row0..row0 + h], &b.col(j)[row0..row0 + h]);
            out[j * kc + i] = if i < kc - kc % 2 && j < n - n % 2 {
                dot_t_two_lanes(x, y)
            } else {
                let (re, im) = mbrpa_simd::dot_t_c64(T::as_components(x), T::as_components(y));
                T::from_components(re, im)
            };
        }
    }
}

/// The unconjugated `xᵀy` with row `r` in lane `r mod 2`: per lane, the
/// fused chains `Σ x_re·y_re`, `Σ x_im·y_im`, `Σ x_re·y_im`, `Σ x_im·y_re`;
/// each of the four sums is then its two lanes added in order to `+0`, and
/// `xᵀy = (p_re − p_im) + i·(q_re + q_im)`.
fn dot_t_two_lanes<T: Scalar>(x: &[T], y: &[T]) -> T {
    let (mut p, mut q) = ([0.0_f64; 4], [0.0_f64; 4]);
    for (r, (x, y)) in x.iter().zip(y).enumerate() {
        let l = 2 * (r % 2);
        p[l] = x.re().mul_add(y.re(), p[l]);
        p[l + 1] = x.im().mul_add(y.im(), p[l + 1]);
        q[l] = x.re().mul_add(y.im(), q[l]);
        q[l + 1] = x.im().mul_add(y.re(), q[l + 1]);
    }
    let lanes = |s: [f64; 4], c: usize| {
        let mut sum = 0.0;
        sum += s[c];
        sum + s[2 + c]
    };
    T::from_components(lanes(p, 0) - lanes(p, 1), lanes(q, 0) + lanes(q, 1))
}

/// One row chunk of [`matmul_tn_rowsum_into`], written (overwriting)
/// into `out`: every entry is one plain chain `Σ_r b[r]·a[r]` from `+0` in
/// row order. The output is cut into tiles of up to 4×4 entries whose
/// chains run interleaved, sharing their operand streams; a partial tile
/// at the edge interleaves the chains it has and is not padded.
fn gram_chunk_rowsum(a: &Mat<f64>, b: &Mat<f64>, row0: usize, h: usize, out: &mut [f64]) {
    let (kc, n) = (a.cols(), b.cols());
    for j0 in (0..n).step_by(4) {
        for i0 in (0..kc).step_by(4) {
            let (nj, rows) = ((n - j0).min(4), row0..row0 + h);
            match (kc - i0).min(4) {
                1 => rowsum_tiles::<1>(nj, a, b, (i0, j0), rows, out),
                2 => rowsum_tiles::<2>(nj, a, b, (i0, j0), rows, out),
                3 => rowsum_tiles::<3>(nj, a, b, (i0, j0), rows, out),
                _ => rowsum_tiles::<4>(nj, a, b, (i0, j0), rows, out),
            }
        }
    }
}

/// The `NI × nj` tile of [`gram_chunk_rowsum`] whose first entry is `at`.
fn rowsum_tiles<const NI: usize>(
    nj: usize,
    a: &Mat<f64>,
    b: &Mat<f64>,
    at: (usize, usize),
    rows: Range<usize>,
    out: &mut [f64],
) {
    match nj {
        1 => rowsum_tile::<NI, 1>(a, b, at, rows, out),
        2 => rowsum_tile::<NI, 2>(a, b, at, rows, out),
        3 => rowsum_tile::<NI, 3>(a, b, at, rows, out),
        _ => rowsum_tile::<NI, 4>(a, b, at, rows, out),
    }
}

/// The `NI × NJ` tile of [`gram_chunk_rowsum`] whose first entry is
/// `(i0, j0)`, its chains interleaved row by row.
fn rowsum_tile<const NI: usize, const NJ: usize>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    (i0, j0): (usize, usize),
    rows: Range<usize>,
    out: &mut [f64],
) {
    let ac: [&[f64]; NI] = std::array::from_fn(|ii| &a.col(i0 + ii)[rows.clone()]);
    let bc: [&[f64]; NJ] = std::array::from_fn(|jj| &b.col(j0 + jj)[rows.clone()]);
    let mut acc = [[0.0; NI]; NJ];
    for r in 0..rows.len() {
        let av: [f64; NI] = std::array::from_fn(|ii| ac[ii][r]);
        for (accj, bj) in acc.iter_mut().zip(&bc) {
            for (acc, &ai) in accj.iter_mut().zip(&av) {
                *acc += bj[r] * ai;
            }
        }
    }
    let kc = a.cols();
    for (jj, accj) in acc.iter().enumerate() {
        out[(j0 + jj) * kc + i0..][..NI].copy_from_slice(accj);
    }
}

/// `C = A · Bᵀ` (no conjugation).
pub fn matmul_nt<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "inner dimension mismatch: {k} vs {kb}");
    mbrpa_obs::add("linalg.gemm_calls", 1);
    mbrpa_obs::add(
        "linalg.gemm_flops",
        (2 * m * k * n * T::COMPONENTS * T::COMPONENTS) as u64,
    );
    let mut c = Mat::zeros(m, n);
    for j in 0..n {
        let cj = c.col_mut(j);
        for l in 0..k {
            let blj = b[(j, l)];
            if blj == T::zero() {
                continue;
            }
            vecops::axpy_uncounted(blj, a.col(l), cj);
        }
    }
    c
}

/// `C = Aᵀ · B` for real `A` and `B`, into a caller-owned matrix, with
/// every entry one plain chain in row order (row panels folded in index
/// order past `2·PANEL` rows). That is the order the Galerkin guess
/// `ΨᵀB` has always summed in, and the pinned energies depend on it;
/// [`matmul_tn_into`]'s lane-split tiles sum in another.
pub fn matmul_tn_rowsum_into(a: &Mat<f64>, b: &Mat<f64>, c: &mut Mat<f64>) {
    gram_checks(a, b, c);
    gram_driver(
        a.rows(),
        a.cols(),
        b.cols(),
        |row0, h, buf| gram_chunk_rowsum(a, b, row0, h, buf),
        c,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_complex::Complex64;

    /// `Σ_r b[r, j]·a[r, i]` over `rows`, one chain from `+0` in row order.
    fn one_chain(a: &Mat<f64>, b: &Mat<f64>, i: usize, j: usize, rows: Range<usize>) -> f64 {
        let mut acc = 0.0;
        for r in rows {
            acc += b[(r, j)] * a[(r, i)];
        }
        acc
    }

    #[test]
    fn rowsum_tiles_keep_the_one_chain_bits() {
        // every partial tile shape beside full ones, on a chunk that starts
        // past row 0, then the whole product past 2·PANEL rows, where the
        // panels' chains are folded in index order
        let m = 2 * PANEL + 37;
        for (kc, n) in (1..=9).flat_map(|kc| (1..=9).map(move |n| (kc, n))) {
            let a = pseudo_random(m, kc, (kc * 10 + n) as u64);
            let b = pseudo_random(m, n, (kc * 10 + n + 100) as u64);
            let mut out = vec![f64::NAN; kc * n];
            gram_chunk_rowsum(&a, &b, 3, 125, &mut out);
            let mut c = Mat::zeros(kc, n);
            matmul_tn_rowsum_into(&a, &b, &mut c);
            let split = m * kc * n >= PAR_THRESHOLD;
            for (i, j) in (0..kc).flat_map(|i| (0..n).map(move |j| (i, j))) {
                let want = one_chain(&a, &b, i, j, 3..128);
                assert_eq!(
                    out[j * kc + i].to_bits(),
                    want.to_bits(),
                    "{kc}×{n} ({i}, {j})"
                );
                let whole = if split {
                    (PANEL..m)
                        .step_by(PANEL)
                        .fold(one_chain(&a, &b, i, j, 0..PANEL), |s, r| {
                            s + one_chain(&a, &b, i, j, r..(r + PANEL).min(m))
                        })
                } else {
                    one_chain(&a, &b, i, j, 0..m)
                };
                assert_eq!(
                    c[(i, j)].to_bits(),
                    whole.to_bits(),
                    "{kc}×{n} of {m} rows ({i}, {j})"
                );
            }
        }
    }

    fn naive_matmul(a: &Mat<f64>, b: &Mat<f64>) -> Mat<f64> {
        let (m, k) = a.shape();
        let n = b.cols();
        Mat::from_fn(m, n, |i, j| (0..k).map(|l| a[(i, l)] * b[(l, j)]).sum())
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Mat::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        })
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = pseudo_random(7, 5, 1);
        let b = pseudo_random(5, 4, 2);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-13);
    }

    #[test]
    fn matmul_matches_naive_tall_parallel_path() {
        let a = pseudo_random(2100, 13, 3);
        let b = pseudo_random(13, 9, 4);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-12);
    }

    #[test]
    fn matmul_into_alpha_beta() {
        let a = pseudo_random(6, 6, 5);
        let b = pseudo_random(6, 6, 6);
        let c0 = pseudo_random(6, 6, 7);
        let mut c = c0.clone();
        matmul_into(2.0, &a, &b, 0.5, &mut c);
        let mut expect = naive_matmul(&a, &b);
        expect.scale_assign(2.0);
        expect.axpy(0.5, &c0);
        assert!(c.max_abs_diff(&expect) < 1e-13);
    }

    #[test]
    fn matmul_into_zero_depth_applies_beta() {
        let a = Mat::<f64>::zeros(3, 0);
        let b = Mat::<f64>::zeros(0, 2);
        let mut c = pseudo_random(3, 2, 17);
        let expect = c.map(|x| 0.5 * x);
        matmul_into(2.0, &a, &b, 0.5, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-15);
    }

    #[test]
    fn complex_matmul_matches_componentwise_naive() {
        let ar = pseudo_random(33, 6, 50);
        let ai = pseudo_random(33, 6, 51);
        let br = pseudo_random(6, 5, 52);
        let bi = pseudo_random(6, 5, 53);
        let a = Mat::from_fn(33, 6, |i, j| Complex64::new(ar[(i, j)], ai[(i, j)]));
        let b = Mat::from_fn(6, 5, |i, j| Complex64::new(br[(i, j)], bi[(i, j)]));
        let c = matmul(&a, &b);
        for i in 0..33 {
            for j in 0..5 {
                let mut expect = Complex64::new(0.0, 0.0);
                for l in 0..6 {
                    expect += a[(i, l)] * b[(l, j)];
                }
                assert!((c[(i, j)] - expect).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_tn_matches_transpose_matmul() {
        let a = pseudo_random(1200, 6, 8);
        let b = pseudo_random(1200, 5, 9);
        let c = matmul_tn(&a, &b);
        let expect = naive_matmul(&a.transpose(), &b);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn gram_tn_leaves_complex_unconjugated() {
        let a = Mat::from_fn(30, 2, |i, j| Complex64::new(i as f64 * 0.1, (j + 1) as f64));
        let b = Mat::from_fn(30, 3, |i, j| Complex64::new((j + i) as f64 * 0.05, -1.0));
        let c_t = matmul_tn(&a, &b);
        // Check against the explicit plain-transpose product
        let expect = matmul(&a.transpose(), &b);
        assert!(c_t.max_abs_diff(&expect) < 1e-12);
        // And that it differs from the conjugated one (imaginary parts present)
        let c_h = matmul(&a.conj_transpose(), &b);
        assert!(c_h.max_abs_diff(&c_t) > 1e-8);
    }

    #[test]
    fn gram_wide_hits_tiled_fast_path() {
        let a = pseudo_random(2100, 9, 40);
        let b = pseudo_random(2100, 7, 41);
        let c = matmul_tn(&a, &b);
        let expect = naive_matmul(&a.transpose(), &b);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = pseudo_random(8, 5, 10);
        let b = pseudo_random(7, 5, 11);
        let c = matmul_nt(&a, &b);
        let expect = naive_matmul(&a, &b.transpose());
        assert!(c.max_abs_diff(&expect) < 1e-13);
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo_random(40, 40, 13);
        let i = Mat::<f64>::identity(40);
        assert!(matmul(&a, &i).max_abs_diff(&a) < 1e-14);
        assert!(matmul(&i, &a).max_abs_diff(&a) < 1e-14);
    }
}
