//! Real Cholesky factorization.
//!
//! Used to reduce the Rayleigh–Ritz generalized symmetric-definite problem
//! `H_s Q = M_s Q D` (with `M_s = VᵀV ≻ 0`) to a standard symmetric problem,
//! exactly as a LAPACK `sygv`-style driver would.
//!
//! Every sum keeps the operands and the order of the textbook loops (each
//! entry's subtractions in ascending `k`), so the bits are theirs; only the
//! memory order differs, and every inner loop is unit-stride. The factor
//! runs its column's chains side by side down the columns of `L`. The
//! triangular solves pack [`PANEL`] right-hand sides into one
//! row-interleaved strip, so each step of a substitution updates the
//! strip's chains side by side.

use crate::dense::Mat;
use crate::error::LinalgError;

/// Right-hand-side columns one substitution carries at once.
const PANEL: usize = 16;

/// Lower-triangular Cholesky factor `A = L·Lᵀ` of a real SPD matrix.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Mat<f64>,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix. Only the lower triangle
    /// of `a` (the diagonal and the entries below it) is read.
    pub fn factor(a: &Mat<f64>) -> Result<Self, LinalgError> {
        let n = a.rows();
        if n != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square".into(),
                got: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let mut l = Mat::zeros(n, n);
        let mut acc = vec![0.0; n];
        for j in 0..n {
            // acc[i] = a[i, j] − Σ_k L[i, k]·L[j, k] for i ≥ j, k ascending
            let acc = &mut acc[j..];
            acc.copy_from_slice(&a.col(j)[j..]);
            for k in 0..j {
                let ljk = l[(j, k)];
                for (s, &lik) in acc.iter_mut().zip(&l.col(k)[j..]) {
                    *s -= lik * ljk;
                }
            }
            let d = acc[0];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let djj = d.sqrt();
            let col = &mut l.col_mut(j)[j..];
            col[0] = djj;
            for (x, &s) in col[1..].iter_mut().zip(&acc[1..]) {
                *x = s / djj;
            }
        }
        Ok(Self { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Mat<f64> {
        &self.l
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Solve `L X = B` (forward substitution), column by column.
    pub fn solve_lower(&self, b: &Mat<f64>) -> Mat<f64> {
        let n = self.order();
        assert_eq!(b.rows(), n);
        // row i of L, L[i, 0..=i], at i(i+1)/2
        let mut rows = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            rows.extend((0..=i).map(|k| self.l[(i, k)]));
        }
        by_strips(b, |x| {
            for i in 0..n {
                let row = &rows[i * (i + 1) / 2..][..=i];
                let (done, rest) = x.split_at_mut(i * PANEL);
                let xi = &mut rest[..PANEL];
                let mut acc: [f64; PANEL] = [0.0; PANEL];
                acc.copy_from_slice(xi);
                for (xk, &lik) in done.chunks_exact(PANEL).zip(row) {
                    for (s, &v) in acc.iter_mut().zip(xk) {
                        *s -= lik * v;
                    }
                }
                for (v, s) in xi.iter_mut().zip(acc) {
                    *v = s / row[i];
                }
            }
        })
    }

    /// Solve `Lᵀ X = B` (back substitution), column by column.
    pub fn solve_lower_t(&self, b: &Mat<f64>) -> Mat<f64> {
        let n = self.order();
        assert_eq!(b.rows(), n);
        by_strips(b, |x| {
            for i in (0..n).rev() {
                let col = &self.l.col(i)[i..];
                let (head, later) = x.split_at_mut((i + 1) * PANEL);
                let xi = &mut head[i * PANEL..];
                let mut acc: [f64; PANEL] = [0.0; PANEL];
                acc.copy_from_slice(xi);
                for (xk, &lki) in later.chunks_exact(PANEL).zip(&col[1..]) {
                    for (s, &v) in acc.iter_mut().zip(xk) {
                        *s -= lki * v;
                    }
                }
                for (v, s) in xi.iter_mut().zip(acc) {
                    *v = s / col[0];
                }
            }
        })
    }

    /// Solve the full system `A X = L Lᵀ X = B`.
    pub fn solve(&self, b: &Mat<f64>) -> Mat<f64> {
        self.solve_lower_t(&self.solve_lower(b))
    }
}

/// `B` with `solve` run on each strip of [`PANEL`] columns, packed so that
/// row `k` of the strip is `PANEL` contiguous values (zeros past the last
/// column). Every column is its own chain; the strip only puts them side by
/// side.
fn by_strips(b: &Mat<f64>, solve: impl Fn(&mut [f64])) -> Mat<f64> {
    let n = b.rows();
    let mut x = b.clone();
    if n == 0 {
        return x;
    }
    let mut strip = vec![0.0; n * PANEL];
    for cols in x.as_mut_slice().chunks_mut(n * PANEL) {
        strip.fill(0.0);
        for (jj, col) in cols.chunks_exact(n).enumerate() {
            for (k, &v) in col.iter().enumerate() {
                strip[k * PANEL + jj] = v;
            }
        }
        solve(&mut strip);
        for (jj, col) in cols.chunks_exact_mut(n).enumerate() {
            for (k, v) in col.iter_mut().enumerate() {
                *v = strip[k * PANEL + jj];
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    /// The textbook factor and substitutions, row walks and all: the
    /// referee the library's loops must match bit for bit.
    fn referee(a: &Mat<f64>, b: &Mat<f64>) -> (Mat<f64>, Mat<f64>, Mat<f64>) {
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        let mut fwd = b.clone();
        let mut back = b.clone();
        for j in 0..b.cols() {
            for i in 0..n {
                let mut acc = fwd[(i, j)];
                for k in 0..i {
                    acc -= l[(i, k)] * fwd[(k, j)];
                }
                fwd[(i, j)] = acc / l[(i, i)];
            }
            for i in (0..n).rev() {
                let mut acc = back[(i, j)];
                for k in i + 1..n {
                    acc -= l[(k, i)] * back[(k, j)];
                }
                back[(i, j)] = acc / l[(i, i)];
            }
        }
        (l, fwd, back)
    }

    #[test]
    fn matches_the_textbook_loops_bit_for_bit() {
        let bits = |m: &Mat<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // right-hand-side counts below, at and across the strip width
        for (n, m) in [(1, 1), (2, 3), (7, 16), (16, 17), (23, 5), (40, 33)] {
            let a = spd_matrix(n, 300 + n as u64);
            let b = Mat::from_fn(n, m, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
            let ch = Cholesky::factor(&a).unwrap();
            let (l, fwd, back) = referee(&a, &b);
            assert_eq!(bits(ch.l()), bits(&l), "L, n = {n}");
            assert_eq!(
                bits(&ch.solve_lower(&b)),
                bits(&fwd),
                "L⁻¹B, n = {n}, m = {m}"
            );
            assert_eq!(
                bits(&ch.solve_lower_t(&b)),
                bits(&back),
                "L⁻ᵀB, n = {n}, m = {m}"
            );
        }
    }

    fn spd_matrix(n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed | 1;
        let g = Mat::from_fn(n, n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        });
        let mut a = matmul(&g.transpose(), &g);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn reconstructs_matrix() {
        let a = spd_matrix(8, 42);
        let ch = Cholesky::factor(&a).unwrap();
        let llt = matmul(ch.l(), &ch.l().transpose());
        assert!(llt.max_abs_diff(&a) < 1e-11);
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd_matrix(10, 7);
        let b = Mat::from_fn(10, 3, |i, j| (i + j) as f64);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        let ax = matmul(&a, &x);
        assert!(ax.max_abs_diff(&b) < 1e-10);
    }

    #[test]
    fn triangular_solves_invert_each_other() {
        let a = spd_matrix(6, 3);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Mat::from_fn(6, 2, |i, j| (2 * i + j) as f64 * 0.1);
        let y = ch.solve_lower(&b);
        let ly = matmul(ch.l(), &y);
        assert!(ly.max_abs_diff(&b) < 1e-12);
        let z = ch.solve_lower_t(&b);
        let ltz = matmul(&ch.l().transpose(), &z);
        assert!(ltz.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Mat::<f64>::identity(3);
        a[(2, 2)] = -1.0;
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot: 2 }) => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Mat::<f64>::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
