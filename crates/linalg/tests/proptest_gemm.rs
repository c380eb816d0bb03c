//! Property-based equivalence of the packed register-blocked GEMM against a
//! naive triple-loop oracle, over random shapes including the edge cases the
//! microkernel must pad around (`m`/`n`/`k` of 0, 1, odd, and below one
//! register tile) and all `alpha`/`beta` special-casing (0, 1, random), for
//! both scalar fields.

// Test code: panics are failures, and exact float comparisons assert
// bitwise-reproducible results (DESIGN.md §9).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use mbrpa_check::{check, Rng as _};
use mbrpa_linalg::{matmul_into, matmul_rc, matmul_tn_into, matmul_tn_rc, Mat, Scalar, C64};

/// Shape menu concentrating on microkernel edges: empty, single, odd,
/// sub-tile, exactly-one-tile, and just-past-one-tile extents.
const DIMS: [usize; 10] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 17];

struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 as f64 / u64::MAX as f64) - 0.5
    }
}

fn filled<T: Scalar>(rows: usize, cols: usize, rng: &mut Rng) -> Mat<T> {
    Mat::from_fn(rows, cols, |_, _| {
        let re = rng.next_f64();
        let im = rng.next_f64();
        T::from_re(re) + T::from_re(im) * imaginary_unit::<T>()
    })
}

/// The imaginary unit for 2-component scalars, 0 for reals (so real test
/// matrices simply ignore the second random draw).
fn imaginary_unit<T: Scalar>() -> T {
    if T::COMPONENTS == 2 {
        let z = C64::new(0.0, 1.0);
        // Only reachable when T = C64; the downcast proves it to the
        // type system without unsafe.
        *(&z as &dyn std::any::Any).downcast_ref::<T>().unwrap()
    } else {
        T::zero()
    }
}

fn coeff<T: Scalar>(sel: u64, rng: &mut Rng) -> T {
    match sel % 3 {
        0 => T::zero(),
        1 => T::one(),
        _ => T::from_re(rng.next_f64()) + T::from_re(rng.next_f64()) * imaginary_unit::<T>(),
    }
}

fn naive_gemm<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c0: &Mat<T>) -> Mat<T> {
    let (m, k) = a.shape();
    let n = b.cols();
    Mat::from_fn(m, n, |i, j| {
        let mut acc = T::zero();
        for l in 0..k {
            acc += a[(i, l)] * b[(l, j)];
        }
        alpha * acc + beta * c0[(i, j)]
    })
}

fn check_field<T: Scalar>(m: usize, k: usize, n: usize, sel: u64, seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed | 1);
    let a: Mat<T> = filled(m, k, &mut rng);
    let b: Mat<T> = filled(k, n, &mut rng);
    let c0: Mat<T> = filled(m, n, &mut rng);
    let alpha: T = coeff(sel, &mut rng);
    let beta: T = coeff(sel / 3, &mut rng);

    let expect = naive_gemm(alpha, &a, &b, beta, &c0);
    let mut c = c0.clone();
    matmul_into(alpha, &a, &b, beta, &mut c);
    let scale = (k as f64).max(1.0);
    if c.max_abs_diff(&expect) > 1e-13 * scale {
        return Err(format!(
            "matmul_into mismatch at m={m} k={k} n={n} alpha={alpha:?} beta={beta:?}: {}",
            c.max_abs_diff(&expect)
        ));
    }

    // Gram products against the same oracle on transposed operands.
    let g: Mat<T> = filled(m, n, &mut rng);
    let mut tn = Mat::zeros(k, n);
    matmul_tn_into(&a, &g, &mut tn);
    for j in 0..n {
        for i in 0..k {
            let mut dt = T::zero();
            for r in 0..m {
                dt += a[(r, i)] * g[(r, j)];
            }
            let tol = 1e-13 * (m as f64).max(1.0);
            if (tn[(i, j)] - dt).abs() > tol {
                return Err(format!(
                    "matmul_tn mismatch at ({i},{j}), m={m} k={k} n={n}"
                ));
            }
        }
    }
    Ok(())
}

/// Complex `matmul_tn_into` with at most four columns a side (the
/// pack-free `thin_gram_c64` sweep) against the naive oracle and against
/// the blocked Gram driver, which the same product reaches once both
/// operands are padded to five columns. The output starts NaN-filled: it
/// must be overwritten, not read. Row counts are ragged on purpose (odd,
/// and not a multiple of any lane width).
fn check_thin_gram(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    type T = C64;
    let mut rng = Rng(seed | 1);
    let a: Mat<T> = filled(m, k, &mut rng);
    let g: Mat<T> = filled(m, n, &mut rng);
    let nan = T::from_re(f64::NAN);
    let wide = 5;
    let mut tn = Mat::from_fn(k, n, |_, _| nan);
    matmul_tn_into(&a, &g, &mut tn);
    let a_wide = Mat::from_fn(m, wide, |i, l| if l < k { a[(i, l)] } else { T::one() });
    let g_wide = Mat::from_fn(m, wide, |i, j| if j < n { g[(i, j)] } else { T::one() });
    let mut tn_wide = Mat::zeros(wide, wide);
    matmul_tn_into(&a_wide, &g_wide, &mut tn_wide);
    for j in 0..n {
        for i in 0..k {
            let mut dt = T::zero();
            for r in 0..m {
                dt += a[(r, i)] * g[(r, j)];
            }
            let tol = 1e-13 * (m as f64).max(1.0);
            if !((tn[(i, j)] - dt).abs() <= tol && (tn[(i, j)] - tn_wide[(i, j)]).abs() <= tol) {
                return Err(format!("thin matmul_tn at ({i},{j}), m={m} k={k} n={n}"));
            }
        }
    }
    Ok(())
}

#[test]
fn packed_gemm_matches_naive_oracle() {
    check(48, |rng| {
        let mi = rng.random_range(0usize..10);
        let ki = rng.random_range(0usize..10);
        let ni = rng.random_range(0usize..10);
        let sel = rng.random::<u64>();
        let seed = rng.random_range(1..usize::MAX) as u64;
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        if let Err(e) = check_field::<f64>(m, k, n, sel, seed) {
            panic!("f64: {e}");
        }
        if let Err(e) = check_field::<C64>(m, k, n, sel, seed ^ 0xABCD) {
            panic!("C64: {e}");
        }
    });
}

#[test]
fn thin_gram_matches_oracle_and_blocked_path() {
    check(48, |rng| {
        let m = rng.random_range(0usize..40);
        let k = rng.random_range(0usize..5);
        let n = rng.random_range(0usize..5);
        let seed = rng.random_range(1..usize::MAX) as u64;
        if let Err(e) = check_thin_gram(m, k, n, seed) {
            panic!("{e}");
        }
    });
}

#[test]
fn mixed_real_complex_matches_oracle() {
    check(48, |rng| {
        let mi = rng.random_range(0usize..10);
        let ki = rng.random_range(0usize..10);
        let ni = rng.random_range(0usize..10);
        let seed = rng.random_range(1..usize::MAX) as u64;
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let mut rng = Rng(seed | 1);
        let a: Mat<f64> = filled(m, k, &mut rng);
        let b: Mat<C64> = filled(k, n, &mut rng);
        let c = matmul_rc(&a, &b);
        for j in 0..n {
            for i in 0..m {
                let mut acc = C64::new(0.0, 0.0);
                for l in 0..k {
                    acc += b[(l, j)].scale(a[(i, l)]);
                }
                assert!(
                    (c[(i, j)] - acc).norm() <= 1e-13 * (k as f64).max(1.0),
                    "matmul_rc mismatch at ({i},{j}), m={m} k={k} n={n}"
                );
            }
        }

        let g: Mat<C64> = filled(m, n, &mut rng);
        let t = matmul_tn_rc(&a, &g);
        for j in 0..n {
            for i in 0..k {
                let mut acc = C64::new(0.0, 0.0);
                for r in 0..m {
                    acc += g[(r, j)].scale(a[(r, i)]);
                }
                assert!(
                    (t[(i, j)] - acc).norm() <= 1e-13 * (m as f64).max(1.0),
                    "matmul_tn_rc mismatch at ({i},{j}), m={m} k={k} n={n}"
                );
            }
        }
    });
}

/// Deterministic coverage of the L2 cache-blocking path: the packed-A budget
/// only splits into multiple blocks when `rows × depth` outgrows it.
#[test]
fn tall_deep_product_spans_multiple_a_blocks() {
    let mut rng = Rng(99);
    let a: Mat<f64> = filled(1500, 48, &mut rng);
    let b: Mat<f64> = filled(48, 5, &mut rng);
    let c0: Mat<f64> = filled(1500, 5, &mut rng);
    let mut c = c0.clone();
    matmul_into(1.25, &a, &b, -0.5, &mut c);
    let expect = naive_gemm(1.25, &a, &b, -0.5, &c0);
    assert!(c.max_abs_diff(&expect) < 1e-11);
}
