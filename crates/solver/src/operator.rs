//! Abstract linear operators consumed by the Krylov solvers.

use mbrpa_linalg::{Mat, Scalar};

/// A (possibly matrix-free) linear operator `A : Tⁿ → Tⁿ`.
///
/// The Sternheimer coefficient matrices, the Kohn–Sham Hamiltonian, and the
/// dense test matrices all enter the solvers through this trait. `Sync` is
/// required because workers solve independent systems concurrently.
pub trait LinearOperator<T: Scalar>: Sync {
    /// Vector length `n`.
    fn dim(&self) -> usize;

    /// `y = A x` for one vector. Every entry of `y` is overwritten and
    /// none is read: the solvers hand in pooled buffers whose contents
    /// are stale.
    fn apply(&self, x: &[T], y: &mut [T]);

    /// `Y = A X`, default column-by-column (stencil-style operators prefer
    /// one vector at a time, per the paper's §III-C).
    fn apply_block(&self, x: &Mat<T>, y: &mut Mat<T>) {
        assert_eq!(x.shape(), y.shape());
        assert_eq!(x.rows(), self.dim());
        for j in 0..x.cols() {
            self.apply(x.col(j), y.col_mut(j));
        }
    }

    /// Estimated FLOPs of one single-vector application; drives the
    /// deterministic block-size cost model. The default assumes a sparse
    /// operator touching each entry a handful of times.
    fn apply_flops(&self) -> usize {
        16 * self.dim()
    }
}

/// Dense matrix as an operator (tests, baselines, small problems).
#[derive(Clone)]
pub struct DenseOperator<T: Scalar> {
    a: Mat<T>,
}

impl<T: Scalar> std::fmt::Debug for DenseOperator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseOperator({}x{})", self.a.rows(), self.a.cols())
    }
}

impl<T: Scalar> DenseOperator<T> {
    /// Wrap a square dense matrix.
    pub fn new(a: Mat<T>) -> Self {
        assert_eq!(a.rows(), a.cols(), "operator must be square");
        Self { a }
    }

    /// The wrapped matrix.
    // lint: allow(unreached_pub) — the dense referee of proptest_solver and steady_state_alloc
    pub fn matrix(&self) -> &Mat<T> {
        &self.a
    }
}

impl<T: Scalar> LinearOperator<T> for DenseOperator<T> {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        let n = self.dim();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        y.iter_mut().for_each(|v| *v = T::zero());
        for l in 0..n {
            let xl = x[l];
            if xl == T::zero() {
                continue;
            }
            mbrpa_linalg::vecops::axpy(xl, self.a.col(l), y);
        }
    }

    fn apply_flops(&self) -> usize {
        2 * self.dim() * self.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_linalg::C64;

    #[test]
    fn dense_operator_applies_matrix() {
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let op = DenseOperator::new(a.clone());
        let x = vec![1.0, 0.0, -1.0];
        let mut y = vec![0.0; 3];
        op.apply(&x, &mut y);
        for i in 0..3 {
            let expect = a[(i, 0)] - a[(i, 2)];
            assert!((y[i] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn default_block_apply_is_columnwise() {
        let a = Mat::from_fn(4, 4, |i, j| {
            C64::new((i + j) as f64, (i as f64 - j as f64) * 0.5)
        });
        let op = DenseOperator::new(a);
        let x = Mat::from_fn(4, 2, |i, j| C64::new(i as f64, j as f64));
        let mut y = Mat::zeros(4, 2);
        op.apply_block(&x, &mut y);
        for j in 0..2 {
            let mut expect = vec![C64::new(0.0, 0.0); 4];
            op.apply(x.col(j), &mut expect);
            for (a, b) in y.col(j).iter().zip(expect.iter()) {
                assert!((*a - *b).norm() < 1e-14);
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let _ = DenseOperator::new(Mat::<f64>::zeros(3, 2));
    }
}
