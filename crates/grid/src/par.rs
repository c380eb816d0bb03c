//! The shared nested-parallelism heuristic for block operator applies.
//!
//! `core::chi0` partitions Sternheimer systems across rayon per frequency;
//! the block applies underneath (stencil [`crate::Laplacian`], the dft
//! crate's Hamiltonian and shifted operator) decide how many column chunks
//! to split into through [`block_apply_chunks`], which consults the
//! process-global outer-region registry in `mbrpa_linalg::par` (re-exported
//! here). Inner parallelism therefore activates exactly when the outer
//! partition leaves cores idle — e.g. a frequency with few large blocks —
//! and collapses to serial when the pool is already saturated.
//! [`apply_columns`] is the one driver that acts on that decision: every
//! block apply is its own single-vector kernel handed to it.

pub use mbrpa_linalg::par::{inner_slots, outer_scope, OuterScope};
use mbrpa_linalg::{Mat, Scalar};
use rayon::prelude::*;

/// Minimum per-block work (scalar flops) before a block apply will split
/// columns across threads; below this the rayon dispatch overhead dominates.
pub const MIN_INNER_WORK: usize = 1 << 16;

/// Number of column chunks a block apply of `cols` columns, each costing
/// `work_per_col` scalar flops, should split into. Returns 1 (serial) for
/// small blocks, tiny work, or a saturated outer partition.
pub fn block_apply_chunks(cols: usize, work_per_col: usize) -> usize {
    if cols < 2 || cols.saturating_mul(work_per_col) < MIN_INNER_WORK {
        return 1;
    }
    cols.min(inner_slots())
}

/// `f(v_j, out_j)` for every column `j` of a block, one vector at a time
/// (§III-C): in a serial loop, or with the columns split into the
/// contiguous chunks [`block_apply_chunks`] grants for `work_per_col`
/// scalar flops a column. `f` sees each column exactly once either way,
/// so the split never changes a bit of `out`.
pub fn apply_columns<T: Scalar>(
    v: &Mat<T>,
    out: &mut Mat<T>,
    work_per_col: usize,
    f: impl Fn(&[T], &mut [T]) + Sync,
) {
    let chunks = block_apply_chunks(v.cols(), work_per_col);
    apply_columns_in(chunks, v, out, f);
}

/// [`apply_columns`] with the chunk count decided by the caller.
fn apply_columns_in<T: Scalar>(
    chunks: usize,
    v: &Mat<T>,
    out: &mut Mat<T>,
    f: impl Fn(&[T], &mut [T]) + Sync,
) {
    debug_assert_eq!(v.shape(), out.shape());
    let (n, s) = v.shape();
    if chunks <= 1 || n * s == 0 {
        for j in 0..s {
            // split borrows: columns of distinct matrices
            f(v.col(j), out.col_mut(j));
        }
        return;
    }
    let cols_per = s.div_ceil(chunks);
    let tasks: Vec<(&[T], &mut [T])> = v
        .as_slice()
        .chunks(n * cols_per)
        .zip(out.as_mut_slice().chunks_mut(n * cols_per))
        .collect();
    tasks.into_par_iter().for_each(|(src, dst)| {
        for (sc, dc) in src.chunks(n).zip(dst.chunks_mut(n)) {
            f(sc, dc);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_blocks_stay_serial() {
        assert_eq!(block_apply_chunks(1, 1 << 30), 1);
        assert_eq!(block_apply_chunks(8, 10), 1);
    }

    #[test]
    fn saturated_outer_partition_forces_serial() {
        let threads = inner_slots();
        let _g = outer_scope(threads * 4);
        assert_eq!(block_apply_chunks(16, 1 << 20), 1);
    }

    #[test]
    fn chunks_never_exceed_columns() {
        assert!(block_apply_chunks(3, 1 << 20) <= 3);
    }

    /// Whatever the chunk count — ragged last chunk (5 columns in 2 or 3
    /// chunks), more chunks than columns, no columns at all — the split
    /// writes what the serial loop writes, over an `out` it must not read.
    #[test]
    fn chunked_split_equals_the_serial_loop_bit_for_bit() {
        let n = 7;
        let kernel = |x: &[f64], y: &mut [f64]| {
            for (i, (yi, xi)) in y.iter_mut().zip(x).enumerate() {
                *yi = xi * 1.7 + x[(i + 1) % x.len()];
            }
        };
        for cols in [0, 1, 2, 5, 8] {
            let v = Mat::from_fn(n, cols, |i, j| ((i * 13 + j * 7) % 11) as f64 * 0.3 - 1.1);
            let mut serial = Mat::from_fn(n, cols, |_, _| f64::NAN);
            apply_columns_in(1, &v, &mut serial, kernel);
            assert!(!serial.has_bad_values());
            for chunks in [2, 3, 4, 16] {
                let mut split = Mat::from_fn(n, cols, |_, _| f64::NAN);
                apply_columns_in(chunks, &v, &mut split, kernel);
                let same = split
                    .as_slice()
                    .iter()
                    .zip(serial.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "cols={cols} chunks={chunks}");
            }
        }
    }
}
