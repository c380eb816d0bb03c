//! Bitwise identity of every `mbrpa-simd` primitive across dispatch paths.
//!
//! The crate's contract (DESIGN.md §8) is that the scalar backend is not
//! merely "close to" the vector backends — it replicates their lane
//! layout and fused-multiply-add structure exactly, so **every** path
//! returns the same bits for the same input. These properties drive each
//! primitive over random lengths (covering empty inputs, sub-register
//! tails, and multi-block bodies) and assert exact `to_bits` equality of
//! each non-scalar path against the scalar oracle.

// Test code: panics are failures, and exact bit comparisons are the whole
// point here.
#![allow(clippy::float_cmp)]

use mbrpa_check::{check, Rng as _};
use mbrpa_simd::{available, Dispatch};

/// Deterministic xorshift stream so vector contents follow from one seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 as f64 / u64::MAX as f64) - 0.5
    }
    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }
}

/// Every available non-scalar path (the paths under test).
fn vector_paths() -> impl Iterator<Item = Dispatch> {
    available()
        .iter()
        .copied()
        .filter(|&d| d != Dispatch::Scalar)
}

fn assert_same_bits(d: Dispatch, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch on {d:?}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: lane {i} differs on {d:?}: {g:e} ({:#x}) vs scalar {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn real_elementwise_bitwise_identical() {
    check(48, |rng| {
        let n = rng.random_range(0usize..67);
        let c = rng.random_range(-2.0f64..2.0);
        let b = rng.random_range(-2.0f64..2.0);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let x = rng.vec(n);
        let p = rng.vec(n);
        let init = rng.vec(n);
        let s = Dispatch::Scalar;
        for d in vector_paths() {
            let (mut want, mut got) = (init.clone(), init.clone());
            mbrpa_simd::axpy_on(s, c, &x, &mut want);
            mbrpa_simd::axpy_on(d, c, &x, &mut got);
            assert_same_bits(d, "axpy", &got, &want);

            let (mut want, mut got) = (init.clone(), init.clone());
            mbrpa_simd::scal_on(s, c, &mut want);
            mbrpa_simd::scal_on(d, c, &mut got);
            assert_same_bits(d, "scal", &got, &want);

            let (mut want, mut got) = (init.clone(), init.clone());
            mbrpa_simd::shift_scale_on(s, c, b, &x, &mut want);
            mbrpa_simd::shift_scale_on(d, c, b, &x, &mut got);
            assert_same_bits(d, "shift_scale", &got, &want);

            let (mut want, mut got) = (init.clone(), init.clone());
            mbrpa_simd::shift_scale_sub_on(s, c, b, 0.75, &x, &p, &mut want);
            mbrpa_simd::shift_scale_sub_on(d, c, b, 0.75, &x, &p, &mut got);
            assert_same_bits(d, "shift_scale_sub", &got, &want);
        }
    });
}

#[test]
fn complex_elementwise_bitwise_identical() {
    check(48, |rng| {
        let m = rng.random_range(0usize..33);
        let ar = rng.random_range(-2.0f64..2.0);
        let ai = rng.random_range(-2.0f64..2.0);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let x = rng.vec(2 * m);
        let init = rng.vec(2 * m);
        let s = Dispatch::Scalar;
        for d in vector_paths() {
            let (mut want, mut got) = (init.clone(), init.clone());
            mbrpa_simd::axpy_c64_on(s, ar, ai, &x, &mut want);
            mbrpa_simd::axpy_c64_on(d, ar, ai, &x, &mut got);
            assert_same_bits(d, "axpy_c64", &got, &want);

            let (mut want, mut got) = (init.clone(), init.clone());
            mbrpa_simd::scal_c64_on(s, ar, ai, &mut want);
            mbrpa_simd::scal_c64_on(d, ar, ai, &mut got);
            assert_same_bits(d, "scal_c64", &got, &want);
        }
    });
}

#[test]
fn reductions_bitwise_identical() {
    check(48, |rng| {
        let m = rng.random_range(0usize..41);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let x = rng.vec(2 * m);
        let y = rng.vec(2 * m);
        let s = Dispatch::Scalar;
        for d in vector_paths() {
            let want = mbrpa_simd::dot_on(s, &x, &y);
            let got = mbrpa_simd::dot_on(d, &x, &y);
            assert_same_bits(d, "dot", &[got], &[want]);

            let want = mbrpa_simd::nrm2_sq_on(s, &x);
            let got = mbrpa_simd::nrm2_sq_on(d, &x);
            assert_same_bits(d, "nrm2_sq", &[got], &[want]);

            let (wr, wi) = mbrpa_simd::dot_t_c64_on(s, &x, &y);
            let (gr, gi) = mbrpa_simd::dot_t_c64_on(d, &x, &y);
            assert_same_bits(d, "dot_t_c64", &[gr, gi], &[wr, wi]);
        }
    });
}

/// The scalar oracle itself against plain loops, at the lengths and
/// for the five vector kernels COCG's recurrences use (with every
/// other path bit-identical to it, this pins them all): the lane
/// split changes the rounding, never the value.
#[test]
fn scalar_oracle_matches_plain_loops() {
    check(48, |rng| {
        let m = rng.random_range(0usize..600);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let x = rng.vec(2 * m);
        let y = rng.vec(2 * m);
        let s = Dispatch::Scalar;
        let tol = 1e-12 * (1 + m) as f64;

        let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((mbrpa_simd::dot_on(s, &x, &y) - dot).abs() <= tol);
        let sq: f64 = x.iter().map(|a| a * a).sum();
        assert!((mbrpa_simd::nrm2_sq_on(s, &x) - sq).abs() <= tol);

        // xᵀy = Σ x·y (unconjugated) over interleaved (re, im) pairs
        let (mut tr, mut ti) = (0.0, 0.0);
        for (a, b) in x.chunks_exact(2).zip(y.chunks_exact(2)) {
            tr += a[0] * b[0] - a[1] * b[1];
            ti += a[0] * b[1] + a[1] * b[0];
        }
        let (gr, gi) = mbrpa_simd::dot_t_c64_on(s, &x, &y);
        assert!((gr - tr).abs() <= tol && (gi - ti).abs() <= tol);

        let mut got = y.clone();
        mbrpa_simd::axpy_on(s, 0.5, &x, &mut got);
        for ((g, a), b) in got.iter().zip(&x).zip(&y) {
            assert!((g - (b + 0.5 * a)).abs() <= 1e-14);
        }
    });
}

#[test]
fn gemm_microkernels_bitwise_identical() {
    check(48, |rng| {
        let k = rng.random_range(0usize..9);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let ap = rng.vec(8 * k);
        let bp_f = rng.vec(4 * k);
        let bp_c = rng.vec(8 * k);
        let init: Vec<f64> = rng.vec(32);
        let mut acc_init = [0.0f64; 32];
        acc_init.copy_from_slice(&init);
        let s = Dispatch::Scalar;
        for d in vector_paths() {
            let (mut want, mut got) = (acc_init, acc_init);
            mbrpa_simd::gemm_f64_8x4_on(s, k, &ap, &bp_f, &mut want);
            mbrpa_simd::gemm_f64_8x4_on(d, k, &ap, &bp_f, &mut got);
            assert_same_bits(d, "gemm_f64_8x4", &got, &want);

            let (mut want, mut got) = (acc_init, acc_init);
            mbrpa_simd::gemm_c64_4x4_on(s, k, &ap, &bp_c, &mut want);
            mbrpa_simd::gemm_c64_4x4_on(d, k, &ap, &bp_c, &mut got);
            assert_same_bits(d, "gemm_c64_4x4", &got, &want);
        }
    });
}

#[test]
fn gram_tiles_bitwise_identical() {
    check(48, |rng| {
        let n = rng.random_range(0usize..27);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let cols: Vec<Vec<f64>> = (0..6).map(|_| rng.vec(n)).collect();
        let za = rng.vec(2 * n);
        let zb = rng.vec(2 * n);
        let zc = rng.vec(2 * n);
        let zd = rng.vec(2 * n);
        let s = Dispatch::Scalar;
        for d in vector_paths() {
            let (mut want, mut got) = ([0.0f64; 8], [0.0f64; 8]);
            mbrpa_simd::gram2x4_f64_on(
                s, &cols[0], &cols[1], &cols[2], &cols[3], &cols[4], &cols[5], &mut want,
            );
            mbrpa_simd::gram2x4_f64_on(
                d, &cols[0], &cols[1], &cols[2], &cols[3], &cols[4], &cols[5], &mut got,
            );
            assert_same_bits(d, "gram2x4_f64", &got, &want);

            let (mut want, mut got) = ([0.0f64; 8], [0.0f64; 8]);
            mbrpa_simd::gram2_c64_on(s, &za, &zb, &zc, &zd, &mut want);
            mbrpa_simd::gram2_c64_on(d, &za, &zb, &zc, &zd, &mut got);
            assert_same_bits(d, "gram2_c64", &got, &want);
        }
    });
}

#[test]
fn stencil_rows_bitwise_identical() {
    check(48, |rng| {
        let n = rng.random_range(1usize..40);
        let nrow = rng.random_range(1usize..4);
        let nslab = rng.random_range(1usize..3);
        let r = rng.random_range(0usize..3);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        // One halo row per slab and one halo slab on each side, plus an
        // in-row halo of r, mirroring how the grid crate lays out its
        // halo'd volume.
        let row = n + 2 * r;
        let slab = row * (nrow + 2);
        let src = rng.vec(slab * (nslab + 2));
        let origin = slab + row + r;
        let mut terms: Vec<(f64, isize)> = vec![(rng.next_f64(), 0)];
        for t in 1..=r {
            terms.push((rng.next_f64(), t as isize));
            terms.push((rng.next_f64(), -(t as isize)));
        }
        terms.push((rng.next_f64(), row as isize));
        terms.push((rng.next_f64(), -(row as isize)));
        terms.push((rng.next_f64(), slab as isize));
        terms.push((rng.next_f64(), -(slab as isize)));
        let out_len = nslab * nrow * n;
        for d in vector_paths() {
            let mut want = vec![0.0; out_len];
            let mut got = vec![0.0; out_len];
            mbrpa_simd::stencil_rows_on(
                Dispatch::Scalar,
                &terms,
                &src,
                origin,
                row,
                slab,
                nrow,
                n,
                &mut want,
            );
            mbrpa_simd::stencil_rows_on(d, &terms, &src, origin, row, slab, nrow, n, &mut got);
            assert_same_bits(d, "stencil_rows", &got, &want);
        }
    });
}
/// The non-local projector term: random sparse rows (an empty one among
/// them), even and odd row counts around the vector path's pairs, real
/// and complex elements, every path against the scalar twin bit for
/// bit, and the twin against the plain loops it is written as.
#[test]
fn sparse_projector_add_bitwise_identical() {
    check(48, |rng| {
        let cols = rng.random_range(1usize..60);
        let fill = rng.random_range(0.05f64..0.9);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        for nrows in [0usize, 1, 2, 3, 4, 5, 8, 9] {
            let mut lists: Vec<(Vec<u32>, Vec<f64>)> = (0..nrows)
                .map(|_| {
                    let idx: Vec<u32> = (0..cols as u32)
                        .filter(|_| rng.next_f64() + 0.5 < fill)
                        .collect();
                    let val = rng.vec(idx.len());
                    (idx, val)
                })
                .collect();
            if nrows >= 3 {
                lists[1] = (Vec::new(), Vec::new());
            }
            let rows = mbrpa_simd::SparseRows::from_rows(
                cols,
                lists.iter().map(|(i, v)| (i.as_slice(), v.as_slice())),
            );
            let gamma = rng.vec(nrows);
            for cs in [1usize, 2] {
                let x = rng.vec(cs * cols);
                let y0 = rng.vec(cs * cols);
                let mut want = y0.clone();
                mbrpa_simd::sparse_projector_add_on(
                    Dispatch::Scalar,
                    cs,
                    &rows,
                    &gamma,
                    &x,
                    &mut want,
                );
                for d in vector_paths() {
                    let mut got = y0.clone();
                    mbrpa_simd::sparse_projector_add_on(d, cs, &rows, &gamma, &x, &mut got);
                    assert_same_bits(d, "sparse_projector_add", &got, &want);
                }
                let mut plain = y0.clone();
                for ((idx, val), &g) in lists.iter().zip(&gamma) {
                    for k in 0..cs {
                        let mut dot = 0.0;
                        for (&i, &p) in idx.iter().zip(val) {
                            dot += x[cs * i as usize + k] * p;
                        }
                        let c = dot * g;
                        for (&i, &p) in idx.iter().zip(val) {
                            plain[cs * i as usize + k] += c * p;
                        }
                    }
                }
                assert_same_bits(
                    Dispatch::Scalar,
                    "sparse_projector_add vs plain loops",
                    &want,
                    &plain,
                );
            }
        }
    });
}

/// The dense form of the projector term against the sparse kernel it
/// replaces: row counts around the groups of eight and the pairs within
/// them (0, 1, 7, 8, 9, 16), real and complex elements, and inputs holding
/// exact zeros, `−0` in `y` (also where no row has an entry), `±∞`/NaN in
/// `x`, an infinite strength, or a whole idle component. Every path's dense kernel, the scalar twin
/// included, must return the sparse scalar kernel's bits — except inside a
/// NaN: Rust leaves the sign and payload of a NaN result unspecified (two
/// NaNs meeting in one add may give either), so a NaN need only meet a NaN.
#[test]
fn dense_projector_add_matches_the_sparse_kernel() {
    check(48, |rng| {
        let cols = rng.random_range(1usize..60);
        let fill = rng.random_range(0.05f64..1.0);
        // 0: plain data; 1: zeros and −0 in x and y; 2: also ±∞/NaN in x
        // and one infinite strength; 3: an idle second slot (every odd
        // component of x `+0`, of y `±0`), as a lone real Lanczos column
        let mode = rng.random_range(0usize..4);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let special = |v: &mut [f64], table: &[f64], rate: f64, rng: &mut Rng| {
            for e in v.iter_mut() {
                if rng.next_f64() + 0.5 < rate {
                    *e = table[(rng.0 % table.len() as u64) as usize];
                }
            }
        };
        for nrows in [0usize, 1, 7, 8, 9, 16] {
            let lists: Vec<(Vec<u32>, Vec<f64>)> = (0..nrows)
                .map(|_| {
                    let idx: Vec<u32> = (0..cols as u32)
                        .filter(|_| rng.next_f64() + 0.5 < fill)
                        .collect();
                    // a stored zero has no dense form
                    let val = rng
                        .vec(idx.len())
                        .into_iter()
                        .map(|v| if v == 0.0 { 0.25 } else { v })
                        .collect();
                    (idx, val)
                })
                .collect();
            let sparse = mbrpa_simd::SparseRows::from_rows(
                cols,
                lists.iter().map(|(i, v)| (i.as_slice(), v.as_slice())),
            );
            let dense = mbrpa_simd::DenseRows::from_sparse(&sparse).expect("no stored zero");
            assert_eq!(dense.nnz(), sparse.nnz());
            let mut gamma = rng.vec(nrows);
            if mode == 2 && nrows > 0 {
                gamma[(rng.0 % nrows as u64) as usize] = f64::INFINITY;
            }
            for cs in [1usize, 2] {
                let mut x = rng.vec(cs * cols);
                let mut y0 = rng.vec(cs * cols);
                if mode >= 1 {
                    special(&mut x, &[0.0, -0.0], 0.2, &mut rng);
                    special(&mut y0, &[0.0, -0.0, -0.0], 0.3, &mut rng);
                }
                if mode == 2 {
                    let odd = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
                    special(&mut x, &odd, 0.05, &mut rng);
                }
                if mode == 3 {
                    for (i, (x, y)) in x.iter_mut().zip(&mut y0).enumerate().skip(1).step_by(2) {
                        *x = 0.0;
                        *y = if i % 3 == 0 { 0.0 } else { -0.0 };
                    }
                }
                let mut want = y0.clone();
                mbrpa_simd::sparse_projector_add_on(
                    Dispatch::Scalar,
                    cs,
                    &sparse,
                    &gamma,
                    &x,
                    &mut want,
                );
                for &d in available() {
                    let mut got = y0.clone();
                    mbrpa_simd::dense_projector_add_on(d, cs, &dense, &gamma, &x, &mut got);
                    let nan_blind = |v: &[f64]| -> Vec<f64> {
                        v.iter()
                            .map(|&e| if e.is_nan() { f64::NAN } else { e })
                            .collect()
                    };
                    assert_same_bits(
                        d,
                        "dense_projector_add vs sparse",
                        &nan_blind(&got),
                        &nan_blind(&want),
                    );
                }
            }
        }
    });
}

/// The thin-block kernels: every block width, odd and even row
/// counts, every vector path against the scalar twin bit for bit, and
/// the twin against plain complex loops.
#[test]
fn thin_block_kernels_bitwise_identical() {
    check(48, |rng| {
        let rows = rng.random_range(0usize..38);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let sc = Dispatch::Scalar;
        for s in 1..=mbrpa_simd::THIN_MAX {
            for k in 1..=mbrpa_simd::THIN_MAX {
                // thin_gram: out = AᵀB over NaN-filled out
                let a = rng.vec(2 * rows * k);
                let g = rng.vec(2 * rows * s);
                let mut want = vec![f64::NAN; 2 * k * s];
                mbrpa_simd::thin_gram_c64_on(sc, rows, k, s, &a, &g, &mut want);
                for d in vector_paths() {
                    let mut got = vec![f64::NAN; 2 * k * s];
                    mbrpa_simd::thin_gram_c64_on(d, rows, k, s, &a, &g, &mut got);
                    assert_same_bits(d, "thin_gram_c64", &got, &want);
                }
                for j in 0..s {
                    for i in 0..k {
                        let (mut re, mut im) = (0.0, 0.0);
                        for r in 0..rows {
                            let (ar, ai) = (a[2 * (i * rows + r)], a[2 * (i * rows + r) + 1]);
                            let (br, bi) = (g[2 * (j * rows + r)], g[2 * (j * rows + r) + 1]);
                            re += ar * br - ai * bi;
                            im += ar * bi + ai * br;
                        }
                        let at = 2 * (i + k * j);
                        let tol = 1e-13 * (1 + rows) as f64;
                        assert!((want[at] - re).abs() <= tol && (want[at + 1] - im).abs() <= tol);
                    }
                }
            }

            // cocg_update: X += P·α, W −= U·α, ρ = WᵀW, ‖w_j‖²
            let p = rng.vec(2 * rows * s);
            let u = rng.vec(2 * rows * s);
            let alpha = rng.vec(2 * s * s);
            let x0 = rng.vec(2 * rows * s);
            let w0 = rng.vec(2 * rows * s);
            let (mut xw, mut ww) = (x0.clone(), w0.clone());
            let (mut rho_w, mut sq_w) = (vec![f64::NAN; 2 * s * s], vec![f64::NAN; s]);
            mbrpa_simd::cocg_update_c64_on(
                sc, rows, s, &p, &u, &alpha, &mut xw, &mut ww, &mut rho_w, &mut sq_w,
            );
            for d in vector_paths() {
                let (mut xg, mut wg) = (x0.clone(), w0.clone());
                let (mut rho_g, mut sq_g) = (vec![f64::NAN; 2 * s * s], vec![f64::NAN; s]);
                mbrpa_simd::cocg_update_c64_on(
                    d, rows, s, &p, &u, &alpha, &mut xg, &mut wg, &mut rho_g, &mut sq_g,
                );
                assert_same_bits(d, "cocg_update_c64 x", &xg, &xw);
                assert_same_bits(d, "cocg_update_c64 w", &wg, &ww);
                assert_same_bits(d, "cocg_update_c64 rho", &rho_g, &rho_w);
                assert_same_bits(d, "cocg_update_c64 w_sq", &sq_g, &sq_w);
            }
            let tol = 1e-13 * (1 + rows) as f64;
            for j in 0..s {
                for i in 0..rows {
                    let at = 2 * (j * rows + i);
                    let (mut xr, mut xi, mut wr, mut wi) = (x0[at], x0[at + 1], w0[at], w0[at + 1]);
                    for l in 0..s {
                        let (ar, ai) = (alpha[2 * (l + s * j)], alpha[2 * (l + s * j) + 1]);
                        let (pr, pi) = (p[2 * (l * rows + i)], p[2 * (l * rows + i) + 1]);
                        let (ur, ui) = (u[2 * (l * rows + i)], u[2 * (l * rows + i) + 1]);
                        xr += pr * ar - pi * ai;
                        xi += pr * ai + pi * ar;
                        wr -= ur * ar - ui * ai;
                        wi -= ur * ai + ui * ar;
                    }
                    assert!((xw[at] - xr).abs() <= 1e-14 && (xw[at + 1] - xi).abs() <= 1e-14);
                    assert!((ww[at] - wr).abs() <= 1e-14 && (ww[at + 1] - wi).abs() <= 1e-14);
                }
                let sq: f64 = ww[2 * j * rows..2 * (j + 1) * rows]
                    .iter()
                    .map(|v| v * v)
                    .sum();
                assert!((sq_w[j] - sq).abs() <= tol);
                for i in 0..s {
                    let (mut re, mut im) = (0.0, 0.0);
                    for r in 0..rows {
                        let (ar, ai) = (ww[2 * (i * rows + r)], ww[2 * (i * rows + r) + 1]);
                        let (br, bi) = (ww[2 * (j * rows + r)], ww[2 * (j * rows + r) + 1]);
                        re += ar * br - ai * bi;
                        im += ar * bi + ai * br;
                    }
                    let at = 2 * (i + s * j);
                    assert!((rho_w[at] - re).abs() <= tol && (rho_w[at + 1] - im).abs() <= tol);
                    // exactly symmetric
                    let mirror = 2 * (j + s * i);
                    assert_eq!(rho_w[at].to_bits(), rho_w[mirror].to_bits());
                    assert_eq!(rho_w[at + 1].to_bits(), rho_w[mirror + 1].to_bits());
                }
            }

            // the fused Gram is thin_gram(W, W), bit for bit
            let mut gram = vec![f64::NAN; 2 * s * s];
            mbrpa_simd::thin_gram_c64_on(sc, rows, s, s, &ww, &ww, &mut gram);
            assert_same_bits(sc, "thin_gram(W, W) vs cocg_update rho", &gram, &rho_w);

            // cocg_direction: P ← Z + P·β in place
            let beta = rng.vec(2 * s * s);
            let z = rng.vec(2 * rows * s);
            let mut want = p.clone();
            mbrpa_simd::cocg_direction_c64_on(sc, rows, s, &z, &beta, &mut want);
            for d in vector_paths() {
                let mut got = p.clone();
                mbrpa_simd::cocg_direction_c64_on(d, rows, s, &z, &beta, &mut got);
                assert_same_bits(d, "cocg_direction_c64", &got, &want);
            }
            for j in 0..s {
                for i in 0..rows {
                    let at = 2 * (j * rows + i);
                    let (mut re, mut im) = (z[at], z[at + 1]);
                    for l in 0..s {
                        let (br, bi) = (beta[2 * (l + s * j)], beta[2 * (l + s * j) + 1]);
                        let (pr, pi) = (p[2 * (l * rows + i)], p[2 * (l * rows + i) + 1]);
                        re += pr * br - pi * bi;
                        im += pr * bi + pi * br;
                    }
                    assert!((want[at] - re).abs() <= 1e-14 && (want[at + 1] - im).abs() <= 1e-14);
                }
            }
        }
    });
}

/// The two passes of a paired Lanczos step: odd and even element
/// counts around the 8-component blocks, every vector path against
/// the scalar twin bit for bit, and the twin against plain loops, slot
/// by slot (the two slots never mix).
#[test]
fn lanczos_pair_passes_bitwise_identical() {
    check(48, |rng| {
        let n = rng.random_range(0usize..45);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let sc = Dispatch::Scalar;
        let pair = |rng: &mut Rng| [rng.next_f64() * 3.0, rng.next_f64() * 3.0];
        let (s, c) = (pair(&mut rng), pair(&mut rng));
        let (v_prev, v, y) = (rng.vec(2 * n), rng.vec(2 * n), rng.vec(2 * n));

        let mut u = y.clone();
        let dots = mbrpa_simd::lanczos_pair_project_on(sc, s, c, &v_prev, &v, &mut u);
        for d in vector_paths() {
            let mut got = y.clone();
            let got_dots = mbrpa_simd::lanczos_pair_project_on(d, s, c, &v_prev, &v, &mut got);
            assert_same_bits(d, "lanczos_pair_project u", &got, &u);
            assert_same_bits(d, "lanczos_pair_project dots", &got_dots, &dots);
        }
        let mut plain_dots = [0.0; 2];
        for p in 0..2 * n {
            let want = y[p] * s[p % 2] - c[p % 2] * v_prev[p];
            assert!((u[p] - want).abs() <= 1e-14);
            plain_dots[p % 2] += v[p] * want;
        }
        for (got, plain) in dots.iter().zip(plain_dots) {
            assert!((got - plain).abs() <= 1e-12);
        }

        let k = mbrpa_simd::PairStep {
            a: pair(&mut rng),
            t_re: pair(&mut rng),
            t_im: pair(&mut rng),
            g_re: pair(&mut rng),
            g_im: pair(&mut rng),
            z_re: pair(&mut rng),
            z_im: pair(&mut rng),
        };
        let (d_re, d_im, x) = (rng.vec(2 * n), rng.vec(2 * n), rng.vec(2 * n));
        let run = |d: Dispatch| {
            let (mut next, mut dr, mut di, mut xx) =
                (u.clone(), d_re.clone(), d_im.clone(), x.clone());
            let sq = mbrpa_simd::lanczos_pair_advance_on(
                d, &k, &v, &mut next, &mut dr, &mut di, &mut xx,
            );
            (next, dr, di, xx, sq)
        };
        let want = run(sc);
        for d in vector_paths() {
            let got = run(d);
            assert_same_bits(d, "lanczos_pair_advance v_next", &got.0, &want.0);
            assert_same_bits(d, "lanczos_pair_advance d_re", &got.1, &want.1);
            assert_same_bits(d, "lanczos_pair_advance d_im", &got.2, &want.2);
            assert_same_bits(d, "lanczos_pair_advance x", &got.3, &want.3);
            assert_same_bits(d, "lanczos_pair_advance norms", &got.4, &want.4);
        }
        let mut plain_sq = [0.0; 2];
        for p in 0..2 * n {
            let l = p % 2;
            let next = u[p] - k.a[l] * v[p];
            let dr = k.t_re[l] * v[p] - (k.g_re[l] * d_re[p] - k.g_im[l] * d_im[p]);
            let di = k.t_im[l] * v[p] - (k.g_re[l] * d_im[p] + k.g_im[l] * d_re[p]);
            let xx = x[p] + (k.z_re[l] * dr - k.z_im[l] * di);
            plain_sq[l] += next * next;
            assert!((want.0[p] - next).abs() <= 1e-13);
            assert!((want.1[p] - dr).abs() <= 1e-13 && (want.2[p] - di).abs() <= 1e-13);
            assert!((want.3[p] - xx).abs() <= 1e-13);
        }
        for (got, plain) in want.4.iter().zip(plain_sq) {
            assert!((got - plain).abs() <= 1e-11);
        }
    });
}

/// The three block Lanczos sweeps on pair-packed blocks of every width
/// 1..=12 (odd widths with their idle slot, the widths past the vector
/// path's range on the scalar twin), even and odd row counts, against the
/// scalar twin bit for bit and against plain loops over the real columns.
#[test]
fn block_lanczos_sweeps_bitwise_identical() {
    check(64, |rng| {
        let s = rng.random_range(1usize..13);
        let rows = rng.random_range(0usize..37);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let mut rng = Rng::new(seed);
        let sc = Dispatch::Scalar;
        let m = s.div_ceil(2);
        // a pair-packed block with a zero idle slot, as the solver keeps it
        let block = |rng: &mut Rng| {
            let mut b = rng.vec(2 * rows * m);
            if s % 2 == 1 {
                for i in 0..rows {
                    b[2 * ((m - 1) * rows + i) + 1] = 0.0;
                }
            }
            b
        };
        let at = |b: &[f64], i: usize, c: usize| b[2 * ((c / 2) * rows + i) + c % 2];
        let mats: Vec<Vec<f64>> = (0..8).map(|_| rng.vec(s * s)).collect();
        let (v_prev, v, y) = (block(&mut rng), block(&mut rng), block(&mut rng));

        let run_project = |d: Dispatch| {
            let (mut u, mut alpha) = (y.clone(), vec![f64::NAN; s * s]);
            mbrpa_simd::block_lanczos_project_on(
                d, rows, s, &mats[0], &v_prev, &v, &mut u, &mut alpha,
            );
            (u, alpha)
        };
        let (u, alpha) = run_project(sc);
        let run_orth = |d: Dispatch| {
            let (mut w, mut gram) = (u.clone(), vec![f64::NAN; s * s]);
            mbrpa_simd::block_lanczos_orthogonalize_on(d, rows, s, &mats[1], &v, &mut w, &mut gram);
            (w, gram)
        };
        let (w, gram) = run_orth(sc);
        let step = mbrpa_simd::BlockStep {
            b_inv: &mats[2],
            e_re: &mats[3],
            e_im: &mats[4],
            g_re: &mats[5],
            g_im: &mats[6],
            z_re: &mats[7],
            z_im: &mats[0],
        };
        let (d_re, d_im, x) = (block(&mut rng), block(&mut rng), block(&mut rng));
        let run_advance = |d: Dispatch| {
            let (mut vn, mut nr, mut ni, mut xx) = (
                vec![f64::NAN; x.len()],
                vec![f64::NAN; x.len()],
                vec![f64::NAN; x.len()],
                x.clone(),
            );
            mbrpa_simd::block_lanczos_advance_on(
                d, rows, s, &step, &w, &v, &d_re, &d_im, &mut vn, &mut nr, &mut ni, &mut xx,
            );
            (vn, nr, ni, xx)
        };
        let adv = run_advance(sc);
        for d in vector_paths() {
            let got = run_project(d);
            assert_same_bits(d, "block_lanczos_project y", &got.0, &u);
            assert_same_bits(d, "block_lanczos_project alpha", &got.1, &alpha);
            let got = run_orth(d);
            assert_same_bits(d, "block_lanczos_orthogonalize u", &got.0, &w);
            assert_same_bits(d, "block_lanczos_orthogonalize gram", &got.1, &gram);
            let got = run_advance(d);
            assert_same_bits(d, "block_lanczos_advance v_next", &got.0, &adv.0);
            assert_same_bits(d, "block_lanczos_advance dn_re", &got.1, &adv.1);
            assert_same_bits(d, "block_lanczos_advance dn_im", &got.2, &adv.2);
            assert_same_bits(d, "block_lanczos_advance x", &got.3, &adv.3);
        }

        // plain loops over the real columns
        let c = |k: usize, l: usize, j: usize| mats[k][l + s * j];
        let close = |got: f64, want: f64, what: &str| {
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "{what}: {got} vs {want}"
            );
        };
        for i in 0..rows {
            for j in 0..s {
                let uu = at(&y, i, j) - (0..s).map(|l| at(&v_prev, i, l) * c(0, l, j)).sum::<f64>();
                close(at(&u, i, j), uu, "project y");
                let ww = uu - (0..s).map(|l| at(&v, i, l) * c(1, l, j)).sum::<f64>();
                close(at(&w, i, j), ww, "orthogonalize u");
            }
        }
        for a in 0..s {
            for b in 0..s {
                let want: f64 = (0..rows).map(|i| at(&v, i, a) * at(&u, i, b)).sum();
                close(alpha[a + s * b], want, "alpha");
                let want: f64 = (0..rows).map(|i| at(&w, i, a) * at(&w, i, b)).sum();
                close(gram[a + s * b], want, "gram");
                assert_eq!(
                    gram[a + s * b].to_bits(),
                    gram[b + s * a].to_bits(),
                    "gram symmetric"
                );
            }
        }
        let dot = |k: usize, blk: &[f64], i: usize, j: usize| {
            (0..s).map(|l| at(blk, i, l) * c(k, l, j)).sum::<f64>()
        };
        for i in 0..rows {
            for j in 0..s {
                close(at(&adv.0, i, j), dot(2, &w, i, j), "v_next");
                let re = dot(3, &v, i, j) - dot(5, &d_re, i, j) + dot(6, &d_im, i, j);
                let im = dot(4, &v, i, j) - dot(6, &d_re, i, j) - dot(5, &d_im, i, j);
                close(at(&adv.1, i, j), re, "dn_re");
                close(at(&adv.2, i, j), im, "dn_im");
                let xx = at(&x, i, j) + dot(7, &adv.1, i, j) - dot(0, &adv.2, i, j);
                close(at(&adv.3, i, j), xx, "x");
            }
            if s % 2 == 1 {
                for (what, b) in [
                    ("v_next", &adv.0),
                    ("dn_re", &adv.1),
                    ("dn_im", &adv.2),
                    ("x", &adv.3),
                ] {
                    assert_eq!(at(b, i, s), 0.0, "{what}: the idle slot stays zero");
                }
            }
        }
    });
}

/// The stencil sweep at every row length 1..=40 — no 16-wide block, one,
/// two, each with every remainder block of one to four vectors, masked and
/// not — over ragged slabs, every path against the scalar twin.
#[test]
fn stencil_remainder_block_at_every_row_length() {
    let mut rng = Rng::new(0x57e9c11);
    for n in 1usize..=40 {
        for (nrow, nslab) in [(1usize, 1usize), (3, 2), (2, 3)] {
            let r = 2;
            let row = n + 2 * r;
            let slab = row * (nrow + 2 * r) + 3;
            let src = rng.vec(slab * (nslab + 2 * r));
            let origin = r * slab + r * row + r;
            let mut terms: Vec<(f64, isize)> = vec![(rng.next_f64(), 0)];
            for stride in [1, row, slab] {
                for t in 1..=r {
                    let off = (t * stride) as isize;
                    terms.extend([(rng.next_f64(), off), (rng.next_f64(), -off)]);
                }
            }
            let mut want = vec![f64::NAN; nslab * nrow * n];
            mbrpa_simd::stencil_rows_on(
                Dispatch::Scalar,
                &terms,
                &src,
                origin,
                row,
                slab,
                nrow,
                n,
                &mut want,
            );
            assert!(want.iter().all(|w| w.is_finite()));
            for d in vector_paths() {
                let mut got = vec![f64::NAN; nslab * nrow * n];
                mbrpa_simd::stencil_rows_on(d, &terms, &src, origin, row, slab, nrow, n, &mut got);
                assert_same_bits(
                    d,
                    &format!("stencil_rows n={n} {nrow}x{nslab}"),
                    &got,
                    &want,
                );
            }
        }
    }
}

/// The halo fill at every row length up to past its register-move limit and
/// every wrap width up to past its own: every path writes the bytes the
/// scalar twin writes, the twin the bytes plain slice copies write, and
/// nothing else is touched.
#[test]
fn copy_rows_moves_exactly_its_rows_on_every_path() {
    let mut rng = Rng::new(0xc09f);
    for len in 1usize..=40 {
        for wrap in 0..=len.min(6) {
            let nrows = 5;
            let src = rng.vec(nrows * len + 7);
            let pitch = len + 2 * wrap + 3;
            // rows out of order in the source, ascending in the destination
            let rows: Vec<(usize, usize)> = (0..nrows)
                .map(|i| (2 + wrap + i * pitch, ((i * 3) % nrows) * len + i))
                .collect();
            let blank = vec![f64::NAN; nrows * pitch + 4];
            let mut plain = blank.clone();
            for &(to, from) in &rows {
                plain[to..to + len].copy_from_slice(&src[from..from + len]);
                plain[to - wrap..to].copy_from_slice(&src[from + len - wrap..from + len]);
                plain[to + len..to + len + wrap].copy_from_slice(&src[from..from + wrap]);
            }
            for &d in available() {
                let mut got = blank.clone();
                mbrpa_simd::copy_rows_on(d, len, wrap, &rows, &src, &mut got);
                assert_same_bits(d, &format!("copy_rows len={len} wrap={wrap}"), &got, &plain);
            }
        }
    }
}

/// A row or an image that leaves either slice is refused on every path
/// before anything outside is touched.
#[test]
fn copy_rows_refuses_rows_that_leave_their_slices() {
    let src = vec![1.0; 16];
    for &d in available() {
        for (len, wrap, row, dst_len) in [
            (8usize, 0usize, (0usize, 9usize), 16usize), // source overrun
            (8, 0, (9, 0), 16),                          // destination overrun
            (8, 2, (1, 0), 16),                          // left image underruns
            (8, 2, (7, 0), 16),                          // right image overruns
            (40, 0, (0, 0), 64),                         // row longer than the source
        ] {
            let refused = std::panic::catch_unwind(|| {
                let mut dst = vec![0.0; dst_len];
                mbrpa_simd::copy_rows_on(d, len, wrap, &[row], &src, &mut dst);
            });
            assert!(refused.is_err(), "{d:?}: len={len} wrap={wrap} row={row:?}");
        }
    }
}
