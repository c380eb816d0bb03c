//! Column-major dense matrix type.
//!
//! Column-major layout is chosen deliberately: every tall-skinny block of
//! grid vectors in the RPA pipeline (`V`, Sternheimer right-hand sides,
//! Krylov block vectors) is a set of columns of length `n_d`, and the hot
//! kernels (stencil application, AXPY updates, Gram matrices) stream whole
//! columns contiguously.

use crate::scalar::Scalar;
use std::ops::{Index, IndexMut};

/// Dense column-major matrix over a [`Scalar`] field.
///
/// ```
/// use mbrpa_linalg::Mat;
/// let m = Mat::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
/// assert_eq!(m[(2, 1)], 12.0);
/// assert_eq!(m.col(1), &[10.0, 11.0, 12.0]); // columns are contiguous
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    // lint: allow(unreached_pub) — test fixture of linalg, dft and solver tests
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing column-major buffer. Panics if the length mismatches.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// A single column vector from a `Vec`.
    pub fn col_vector(data: Vec<T>) -> Self {
        let rows = data.len();
        Self {
            rows,
            cols: 1,
            data,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying column-major slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Underlying column-major slice, mutable.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the column-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct mutable columns `(i, j)`, `i != j`.
    pub fn cols_mut2(&mut self, i: usize, j: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(i, j);
        let r = self.rows;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (a, b) = self.data.split_at_mut(hi * r);
        let first = &mut a[lo * r..(lo + 1) * r];
        let second = &mut b[..r];
        if i < j {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Iterator over column slices.
    pub fn col_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.rows.max(1))
    }

    /// Copy of columns `range` as a new matrix.
    pub fn columns(&self, start: usize, count: usize) -> Mat<T> {
        assert!(start + count <= self.cols);
        let r = self.rows;
        Mat {
            rows: r,
            cols: count,
            data: self.data[start * r..(start + count) * r].to_vec(),
        }
    }

    /// Overwrite columns `[start, start+src.cols)` with `src`.
    pub fn set_columns(&mut self, start: usize, src: &Mat<T>) {
        assert_eq!(self.rows, src.rows);
        assert!(start + src.cols <= self.cols);
        let r = self.rows;
        self.data[start * r..(start + src.cols) * r].copy_from_slice(&src.data);
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose.
    // lint: allow(unreached_pub) — referee of proptest_linalg
    pub fn conj_transpose(&self) -> Mat<T> {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Elementwise map.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> Mat<U> {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Fill every entry with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// `self += alpha * other`, elementwise.
    pub fn axpy(&mut self, alpha: T, other: &Mat<T>) {
        assert_eq!(self.shape(), other.shape());
        crate::vecops::axpy(alpha, &other.data, &mut self.data);
    }

    /// `self *= alpha`, elementwise.
    // lint: allow(unreached_pub) — used by block_lanczos_bits and the seed baseline's tests
    pub fn scale_assign(&mut self, alpha: T) {
        crate::vecops::scal(alpha, &mut self.data);
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        crate::vecops::norm2(&self.data)
    }

    /// Largest modulus among entries.
    // lint: allow(unreached_pub) — residual check of proptest_linalg and sternheimer_vs_adler_wiser
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// True if any entry is NaN or infinite.
    pub fn has_bad_values(&self) -> bool {
        self.data.iter().any(|x| x.is_bad())
    }

    /// Maximum modulus of `self - other`.
    // lint: allow(unreached_pub) — pinned by crates/e2e (replay check)
    pub fn max_abs_diff(&self, other: &Mat<T>) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if show_c < self.cols { "..." } else { "" })?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_complex::Complex64;

    #[test]
    fn construction_and_indexing() {
        let m = Mat::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.col(1), &[1.0, 11.0, 21.0]);
        // column-major layout check
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
    }

    #[test]
    fn identity_and_transpose() {
        let i3 = Mat::<f64>::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        let m = Mat::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn conj_transpose_conjugates() {
        let m = Mat::from_fn(2, 2, |i, j| Complex64::new(i as f64, j as f64));
        let h = m.conj_transpose();
        assert_eq!(h[(1, 0)], Complex64::new(0.0, -1.0));
    }

    #[test]
    fn columns_roundtrip() {
        let m = Mat::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        let sub = m.columns(1, 3);
        assert_eq!(sub.shape(), (4, 3));
        assert_eq!(sub[(2, 0)], m[(2, 1)]);
        let mut n = Mat::zeros(4, 5);
        n.set_columns(1, &sub);
        assert_eq!(n[(2, 1)], m[(2, 1)]);
        assert_eq!(n[(2, 0)], 0.0);
    }

    #[test]
    fn cols_mut2_disjoint() {
        let mut m = Mat::from_fn(3, 3, |i, j| (i + 3 * j) as f64);
        let (a, b) = m.cols_mut2(2, 0);
        a[0] = -1.0;
        b[0] = -2.0;
        assert_eq!(m[(0, 2)], -1.0);
        assert_eq!(m[(0, 0)], -2.0);
    }

    #[test]
    fn norms() {
        let m = Mat::from_col_major(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-14);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::from_col_major(2, 1, vec![1.0, 2.0]);
        let b = Mat::from_col_major(2, 1, vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale_assign(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
    }

    #[test]
    fn bad_value_detection() {
        let mut m = Mat::<f64>::zeros(2, 2);
        assert!(!m.has_bad_values());
        m[(1, 1)] = f64::NAN;
        assert!(m.has_bad_values());
    }

    #[test]
    #[should_panic]
    fn from_col_major_length_mismatch_panics() {
        let _ = Mat::from_col_major(2, 2, vec![1.0; 3]);
    }
}
