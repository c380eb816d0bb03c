//! Packed, register-blocked dense matrix multiplication.
//!
//! The dominant shapes in the RPA pipeline are tall-and-skinny: `n_d × n_eig`
//! blocks of grid vectors multiplied by small `n_eig × n_eig` subspace
//! matrices (`V·Q`, `P·β`), and Gram products `VᵀW` reducing the long grid
//! dimension. The kernels follow the classic BLIS decomposition: `B` is
//! packed once per call into column panels of width `NR` with `alpha` folded
//! in, `A` is packed per cache block into row panels of height `MR`, and an
//! `MR×NR` register-tile microkernel streams the packed panels so every
//! element of `A` is read from memory once per `NR` output columns instead
//! of once per column. Register tiles are 8×4 for `f64` and 4×4 for
//! `Complex64` (selected by [`Scalar::COMPONENTS`]).
//!
//! The microkernels live in `mbrpa-simd` and are runtime-dispatched
//! (AVX2+FMA / scalar) with a bit-identical scalar twin for every
//! vector kernel. Panels are packed as flat `f64` component buffers: plain
//! row/column entries for `f64`, split `[re×MR | im×MR]` per depth step
//! for `Complex64` — the SoA layout the 4×4 split-complex kernel consumes
//! without shuffles.
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
//! steady-state GEMM calls (the block-COCG iteration loop) perform no heap
//! allocation.

use crate::dense::Mat;
use crate::par;
use crate::scalar::Scalar;
use crate::vecops;
use mbrpa_simd::Dispatch;
use num_complex::Complex64;
use rayon::prelude::*;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Row-panel height for the blocked Gram kernels. 512 rows × 8–16 B scalars
/// keeps a panel column in L1 while amortizing the loop overhead.
const PANEL: usize = 512;

/// Work threshold (in scalar multiply-adds) below which the serial kernel is
/// used; spawning rayon tasks for tiny products costs more than it saves.
const PAR_THRESHOLD: usize = 1 << 16;

/// Byte budget for one packed block of `A`; sized to sit comfortably in L2.
const A_BLOCK_BYTES: usize = 1 << 18;

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

/// Pack `mc` rows of `A` starting at `row0` into row panels of height `MR`
/// as flat `f64` components: panel `ip` holds, for each depth index `l`,
/// the `MR` consecutive (converted) row entries — `f64` directly, complex
/// split as `[re×MR | im×MR]` — zero-padded past the matrix edge.
fn pack_a<SA: Scalar, T: Scalar, const MR: usize>(
    a: &Mat<SA>,
    conv: fn(SA) -> T,
    row0: usize,
    mc: usize,
    k: usize,
    buf: &mut [f64],
) {
    let cs = T::COMPONENTS;
    let n_panels = mc.div_ceil(MR);
    for ip in 0..n_panels {
        let i0 = row0 + ip * MR;
        let mre = MR.min(row0 + mc - i0);
        let panel = &mut buf[ip * MR * cs * k..(ip + 1) * MR * cs * k];
        for l in 0..k {
            let src = &a.col(l)[i0..i0 + mre];
            let dst = &mut panel[l * MR * cs..(l + 1) * MR * cs];
            dst.fill(0.0);
            if cs == 1 {
                for ii in 0..mre {
                    dst[ii] = conv(src[ii]).re();
                }
            } else {
                for ii in 0..mre {
                    let t = conv(src[ii]);
                    dst[ii] = t.re();
                    dst[MR + ii] = t.im();
                }
            }
        }
    }
}

/// Pack all of `B` (k×n) into column panels of width `NR` with `alpha`
/// folded in, as flat `f64` components: panel `jp` holds, for each depth
/// index `l`, `NR` consecutive scaled column entries (complex split as
/// `[re×NR | im×NR]`), zero-padded past the matrix edge.
fn pack_b<T: Scalar, const NR: usize>(b: &Mat<T>, alpha: T, k: usize, n: usize, buf: &mut [f64]) {
    let cs = T::COMPONENTS;
    let n_panels = n.div_ceil(NR);
    for jp in 0..n_panels {
        let j0 = jp * NR;
        let nre = NR.min(n - j0);
        let panel = &mut buf[jp * NR * cs * k..(jp + 1) * NR * cs * k];
        panel.fill(0.0);
        for jj in 0..nre {
            let bj = &b.col(j0 + jj)[..k];
            if cs == 1 {
                for l in 0..k {
                    panel[l * NR + jj] = (alpha * bj[l]).re();
                }
            } else {
                for l in 0..k {
                    let t = alpha * bj[l];
                    panel[l * NR * 2 + jj] = t.re();
                    panel[l * NR * 2 + NR + jj] = t.im();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tile stores
// ---------------------------------------------------------------------------

/// Read element `ii` of one accumulator tile column (`[re×8]` for `f64`,
/// `[re×4 | im×4]` for complex — both a stride of 8 `f64` per column).
#[inline(always)]
fn acc_elem<T: Scalar>(acc: &[f64], ii: usize) -> T {
    if T::COMPONENTS == 1 {
        T::from_components(acc[ii], 0.0)
    } else {
        T::from_components(acc[ii], acc[4 + ii])
    }
}

/// `dst = acc + beta·dst` over one tile column (`beta` pre-dispatched so
/// the branch sits outside the copy loop).
#[inline(always)]
fn store_acc_col<T: Scalar>(dst: &mut [T], acc: &[f64], beta: T) {
    if beta == T::zero() {
        for (ii, d) in dst.iter_mut().enumerate() {
            *d = acc_elem::<T>(acc, ii);
        }
    } else if beta == T::one() {
        for (ii, d) in dst.iter_mut().enumerate() {
            *d += acc_elem::<T>(acc, ii);
        }
    } else {
        for (ii, d) in dst.iter_mut().enumerate() {
            *d = acc_elem::<T>(acc, ii) + beta * *d;
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Compute one row strip `[r0, r0+h)` of `C = (alpha·A)·B + beta·C` from the
/// shared packed `B`, packing `A` in L2-sized blocks on the way. Accumulator
/// tiles (column-major, column stride 8 `f64`) are handed to
/// `write_tile(i_local, j0, acc, mr_eff, nr_eff)` so the caller decides
/// where the strip's output lives (whole matrix or a borrowed strip
/// segment).
#[allow(clippy::too_many_arguments)]
fn strip_gemm<SA: Scalar, T: Scalar, const MR: usize, const NR: usize>(
    d: Dispatch,
    a: &Mat<SA>,
    conv: fn(SA) -> T,
    bpack: &[f64],
    r0: usize,
    h: usize,
    k: usize,
    n: usize,
    mut write_tile: impl FnMut(usize, usize, &[f64; 32], usize, usize),
) {
    let cs = T::COMPONENTS;
    let mc_elems = (A_BLOCK_BYTES / std::mem::size_of::<T>() / k.max(1)).max(MR);
    let mc_max = (mc_elems / MR * MR).min(h.div_ceil(MR) * MR);
    let mut a_buf = take_buf::<f64>(SLOT_PACK_A, mc_max * k * cs);
    let n_col_panels = n.div_ceil(NR);

    let mut off = 0;
    while off < h {
        let mc = mc_max.min(h - off);
        pack_a::<SA, T, MR>(a, conv, r0 + off, mc, k, &mut a_buf);
        let n_row_panels = mc.div_ceil(MR);
        for jp in 0..n_col_panels {
            let nre = NR.min(n - jp * NR);
            let bp = &bpack[jp * NR * cs * k..(jp + 1) * NR * cs * k];
            for ip in 0..n_row_panels {
                let mre = MR.min(mc - ip * MR);
                let ap = &a_buf[ip * MR * cs * k..(ip + 1) * MR * cs * k];
                let mut acc = [0.0f64; 32];
                if cs == 1 {
                    mbrpa_simd::gemm_f64_8x4_on(d, k, ap, bp, &mut acc);
                } else {
                    mbrpa_simd::gemm_c64_4x4_on(d, k, ap, bp, &mut acc);
                }
                write_tile(off + ip * MR, jp * NR, &acc, mre, nre);
            }
        }
        off += mc;
    }
    put_buf(SLOT_PACK_A, a_buf);
}

/// Packed register-blocked `C = alpha·conv(A)·B + beta·C`. `conv` embeds
/// `A`'s scalar field into `C`'s at pack time (identity for uniform
/// products, `from_re` for the real×complex variants).
fn gemm_driver<SA: Scalar, T: Scalar, const MR: usize, const NR: usize>(
    alpha: T,
    a: &Mat<SA>,
    conv: fn(SA) -> T,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    debug_assert_eq!(
        (MR, NR),
        if T::COMPONENTS == 1 { (8, 4) } else { (4, 4) },
        "tile shape must match the mbrpa-simd microkernel"
    );
    let (m, k) = a.shape();
    let n = b.cols();
    if m == 0 || n == 0 {
        return;
    }
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

    let d = mbrpa_simd::active();
    let cs = T::COMPONENTS;
    let mut b_buf = take_buf::<f64>(SLOT_PACK_B, n.div_ceil(NR) * NR * k * cs);
    pack_b::<T, NR>(b, alpha, k, n, &mut b_buf);

    let work = m * n * k;
    let slots = par::inner_slots();
    let p = if work < PAR_THRESHOLD || slots == 1 {
        1
    } else {
        slots.min(m.div_ceil(4 * MR)).max(1)
    };

    if p == 1 {
        let c_data = c.as_mut_slice();
        strip_gemm::<SA, T, MR, NR>(d, a, conv, &b_buf, 0, m, k, n, |i0, j0, acc, mre, nre| {
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
    let mut col_segs: Vec<Vec<&mut [T]>> = strips.iter().map(|_| Vec::with_capacity(n)).collect();
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
            strip_gemm::<SA, T, MR, NR>(d, a, conv, b_ref, r0, h, k, n, |i0, j0, acc, mre, nre| {
                for jj in 0..nre {
                    let col = &mut segs[j0 + jj][i0..i0 + mre];
                    store_acc_col(col, &acc[8 * jj..], beta);
                }
            });
        });
    put_buf(SLOT_PACK_B, b_buf);
}

/// Dispatch on the register-tile shape: 8×4 for 1-component scalars (f64),
/// 4×4 for 2-component scalars (Complex64).
fn packed_gemm<SA: Scalar, T: Scalar>(
    alpha: T,
    a: &Mat<SA>,
    conv: fn(SA) -> T,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    if T::COMPONENTS >= 2 {
        gemm_driver::<SA, T, 4, 4>(alpha, a, conv, b, beta, c);
    } else {
        gemm_driver::<SA, T, 8, 4>(alpha, a, conv, b, beta, c);
    }
}

fn count_gemm<SA: Scalar, T: Scalar>(m: usize, k: usize, n: usize) {
    mbrpa_obs::add("linalg.gemm_calls", 1);
    mbrpa_obs::add(
        "linalg.gemm_flops",
        (2 * m * k * n * SA::COMPONENTS * T::COMPONENTS) as u64,
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
    count_gemm::<T, T>(m, k, n);
    packed_gemm(alpha, a, |x| x, b, beta, c);
}

/// `C = Aᵀ · B` (no conjugation; the COCG bilinear Gram product).
pub fn matmul_tn<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let mut c = Mat::zeros(a.cols(), b.cols());
    matmul_tn_into(a, b, &mut c);
    c
}

/// `C = Aᵀ · B` written into a caller-owned matrix (overwrites `C`; the
/// allocation-free form for solver steady-state loops). Complex products
/// with at most four columns on each side (block COCG's `μ = UᵀP`,
/// `ρ = WᵀZ`) are one `mbrpa_simd::thin_gram_c64` sweep that reads every
/// column once; its lane layout is the one the fused COCG update
/// accumulates `WᵀW` in, so the two agree bit for bit.
pub fn matmul_tn_into<T: Scalar>(a: &Mat<T>, b: &Mat<T>, c: &mut Mat<T>) {
    gram_checks(a, b, c);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let thin = 1..=mbrpa_simd::THIN_MAX;
    if T::COMPONENTS == 2 && thin.contains(&k) && thin.contains(&n) {
        mbrpa_simd::thin_gram_c64(
            m,
            k,
            n,
            T::as_components(a.as_slice()),
            T::as_components(b.as_slice()),
            T::as_components_mut(c.as_mut_slice()),
        );
        return;
    }
    let d = mbrpa_simd::active();
    gram_driver(
        a.rows(),
        a.cols(),
        b.cols(),
        |row0, h, buf| gram_chunk_simd(d, a, b, row0, h, buf),
        c,
    );
}

fn gram_checks<SA: Scalar, T: Scalar>(a: &Mat<SA>, b: &Mat<T>, c: &Mat<T>) {
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
        (2 * m * k * n * SA::COMPONENTS * T::COMPONENTS) as u64,
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

/// One row chunk of a uniform-field Gram product, written (overwriting)
/// into `out` (column-major `a.cols() × b.cols()`), routed through the
/// `mbrpa-simd` Gram tiles: 2×4 `f64` tiles / 2×2 complex tiles share
/// their operand streams, cutting memory traffic versus dot-per-entry;
/// edge tiles fall back to the dispatched dot primitives.
fn gram_chunk_simd<T: Scalar>(
    d: Dispatch,
    a: &Mat<T>,
    b: &Mat<T>,
    row0: usize,
    h: usize,
    out: &mut [T],
) {
    let kc = a.cols();
    let n = b.cols();
    let ac = |i: usize| T::as_components(&a.col(i)[row0..row0 + h]);
    let bc = |j: usize| T::as_components(&b.col(j)[row0..row0 + h]);
    if T::COMPONENTS == 1 {
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
                            out[(j0 + jj) * kc + i0 + ii] = T::from_components(t[2 * jj + ii], 0.0);
                        }
                    }
                } else {
                    for jj in 0..nj {
                        for ii in 0..ni {
                            out[(j0 + jj) * kc + i0 + ii] = T::from_components(
                                mbrpa_simd::dot_on(d, ac(i0 + ii), bc(j0 + jj)),
                                0.0,
                            );
                        }
                    }
                }
                i0 += ni;
            }
            j0 += nj;
        }
    } else {
        let mut j0 = 0;
        while j0 < n {
            let nj = (n - j0).min(2);
            let mut i0 = 0;
            while i0 < kc {
                let ni = (kc - i0).min(2);
                if ni == 2 && nj == 2 {
                    let mut t = [0.0; 8];
                    mbrpa_simd::gram2_c64_on(d, ac(i0), ac(i0 + 1), bc(j0), bc(j0 + 1), &mut t);
                    for jj in 0..2 {
                        for ii in 0..2 {
                            let o = 2 * (2 * jj + ii);
                            out[(j0 + jj) * kc + i0 + ii] = T::from_components(t[o], t[o + 1]);
                        }
                    }
                } else {
                    for jj in 0..nj {
                        for ii in 0..ni {
                            let (re, im) = mbrpa_simd::dot_t_c64_on(d, ac(i0 + ii), bc(j0 + jj));
                            out[(j0 + jj) * kc + i0 + ii] = T::from_components(re, im);
                        }
                    }
                }
                i0 += ni;
            }
            j0 += nj;
        }
    }
}

/// One row chunk of a mixed-field Gram product (`mul` supplies the
/// per-element product, e.g. the real×complex embedding), written
/// (overwriting) into `out`. Full 4×4 tiles of output dots share their
/// operand streams; edge tiles fall back to plain dots. Used only by the
/// Galerkin-guess products (real×complex and its real twin), which sit
/// outside the solver steady-state loop.
fn gram_chunk_mixed<SA: Scalar, T: Scalar>(
    a: &Mat<SA>,
    b: &Mat<T>,
    mul: impl Fn(SA, T) -> T + Copy,
    row0: usize,
    h: usize,
    out: &mut [T],
) {
    let kc = a.cols();
    let n = b.cols();
    let mut j0 = 0;
    while j0 < n {
        let nj = (n - j0).min(4);
        let mut i0 = 0;
        while i0 < kc {
            let ni = (kc - i0).min(4);
            if ni == 4 && nj == 4 {
                let ac = [
                    &a.col(i0)[row0..row0 + h],
                    &a.col(i0 + 1)[row0..row0 + h],
                    &a.col(i0 + 2)[row0..row0 + h],
                    &a.col(i0 + 3)[row0..row0 + h],
                ];
                let bc = [
                    &b.col(j0)[row0..row0 + h],
                    &b.col(j0 + 1)[row0..row0 + h],
                    &b.col(j0 + 2)[row0..row0 + h],
                    &b.col(j0 + 3)[row0..row0 + h],
                ];
                let mut acc = [[T::zero(); 4]; 4];
                for r in 0..h {
                    let av = [ac[0][r], ac[1][r], ac[2][r], ac[3][r]];
                    let bv = [bc[0][r], bc[1][r], bc[2][r], bc[3][r]];
                    for jj in 0..4 {
                        for ii in 0..4 {
                            acc[jj][ii] += mul(av[ii], bv[jj]);
                        }
                    }
                }
                for jj in 0..4 {
                    for ii in 0..4 {
                        out[(j0 + jj) * kc + i0 + ii] = acc[jj][ii];
                    }
                }
            } else {
                for jj in 0..nj {
                    let bj = &b.col(j0 + jj)[row0..row0 + h];
                    for ii in 0..ni {
                        let ai = &a.col(i0 + ii)[row0..row0 + h];
                        let mut acc = T::zero();
                        for r in 0..h {
                            acc += mul(ai[r], bj[r]);
                        }
                        out[(j0 + jj) * kc + i0 + ii] = acc;
                    }
                }
            }
            i0 += ni;
        }
        j0 += nj;
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

/// Mixed-field product `C = A · B` with real `A` and complex `B`
/// (the Galerkin initial guess `Y₀ = Ψ(E − λI + iωI)⁻¹ΨᴴB` multiplies the
/// real orbital block into complex coefficient matrices). Routed through the
/// packed microkernel; `A` is embedded into the complex field at pack time.
pub fn matmul_rc(a: &Mat<f64>, b: &Mat<Complex64>) -> Mat<Complex64> {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "inner dimension mismatch: {k} vs {kb}");
    count_gemm::<f64, Complex64>(m, k, n);
    let mut c = Mat::zeros(m, n);
    gemm_driver::<f64, Complex64, 4, 4>(
        Complex64::new(1.0, 0.0),
        a,
        |x| Complex64::new(x, 0.0),
        b,
        Complex64::new(0.0, 0.0),
        &mut c,
    );
    c
}

/// Mixed-field Gram product `C = Aᵀ · B` with real `A` and complex `B`.
pub fn matmul_tn_rc(a: &Mat<f64>, b: &Mat<Complex64>) -> Mat<Complex64> {
    let mut c = Mat::zeros(a.cols(), b.cols());
    gram_checks(a, b, &c);
    gram_driver(
        a.rows(),
        a.cols(),
        b.cols(),
        |row0, h, buf| gram_chunk_mixed(a, b, |x, y: Complex64| y.scale(x), row0, h, buf),
        &mut c,
    );
    c
}

/// `C = Aᵀ · B` for real `A` and `B`, into a caller-owned matrix, summed
/// the way [`matmul_tn_rc`] sums: one plain chain per entry in row order.
/// With `B` the real part of a complex block whose imaginary part is zero
/// the two agree bit for bit, which [`matmul_tn_into`]'s lane-split tiles
/// do not; the real Galerkin guess relies on it.
pub fn matmul_tn_rowsum_into(a: &Mat<f64>, b: &Mat<f64>, c: &mut Mat<f64>) {
    gram_checks(a, b, c);
    gram_driver(
        a.rows(),
        a.cols(),
        b.cols(),
        |row0, h, buf| gram_chunk_mixed(a, b, |x, y: f64| y * x, row0, h, buf),
        c,
    );
}

/// `y = A · x` for a single vector.
pub fn mat_vec<T: Scalar>(a: &Mat<T>, x: &[T]) -> Vec<T> {
    let (m, k) = a.shape();
    assert_eq!(k, x.len(), "dimension mismatch");
    let mut y = vec![T::zero(); m];
    for l in 0..k {
        if x[l] == T::zero() {
            continue;
        }
        vecops::axpy(x[l], a.col(l), &mut y);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_complex::Complex64;

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
    fn mat_vec_matches_naive() {
        let a = pseudo_random(6, 4, 12);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let y = mat_vec(&a, &x);
        for i in 0..6 {
            let expect: f64 = (0..4).map(|l| a[(i, l)] * x[l]).sum();
            assert!((y[i] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn mixed_real_complex_products() {
        let a = pseudo_random(12, 4, 20);
        let b = Mat::from_fn(4, 3, |i, j| Complex64::new(i as f64 - 1.0, j as f64 + 0.5));
        let ac = a.map(|x| Complex64::new(x, 0.0));
        let fast = matmul_rc(&a, &b);
        let slow = matmul(&ac, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-13);

        let b2 = Mat::from_fn(12, 3, |i, j| {
            Complex64::new(0.1 * i as f64, -0.2 * j as f64)
        });
        let fast2 = matmul_tn_rc(&a, &b2);
        let slow2 = matmul(&ac.conj_transpose(), &b2);
        assert!(fast2.max_abs_diff(&slow2) < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo_random(40, 40, 13);
        let i = Mat::<f64>::identity(40);
        assert!(matmul(&a, &i).max_abs_diff(&a) < 1e-14);
        assert!(matmul(&i, &a).max_abs_diff(&a) < 1e-14);
    }
}
