//! The two forms of a projector matrix the kernels take, each checked once.
//!
//! [`crate::sparse_projector_add_on`] indexes dense vectors with the stored
//! column indices without a bounds check per entry. That is sound because
//! the only way to obtain a [`SparseRows`] is [`SparseRows::from_rows`],
//! which refuses any index `≥ cols`, and because the safe wrapper compares
//! every dense slice it is handed against `rows()` / `cols()` before
//! dispatching. [`DenseRows`] is built from a checked [`SparseRows`] only,
//! and [`crate::dense_projector_add_on`] compares its slices the same way.
//! The fields are private and nothing mutates them after construction.

/// Sparse `rows × cols` matrix of `f64`: row `r` holds the entries
/// `ptr[r]..ptr[r + 1]` of `idx` (column) and `val`, columns strictly
/// ascending within a row and all `< cols`.
#[derive(Clone, Debug)]
pub struct SparseRows {
    cols: usize,
    ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl SparseRows {
    /// Pack per-row `(columns, values)` lists.
    ///
    /// # Panics
    /// In every build profile, if a row's two lists differ in length, its
    /// columns are not strictly ascending, a column is `≥ cols`, or the
    /// entry count does not fit the `u32` row offsets — the unchecked
    /// kernels rest on exactly these facts.
    pub fn from_rows<'a>(
        cols: usize,
        rows: impl IntoIterator<Item = (&'a [u32], &'a [f64])>,
    ) -> Self {
        let (mut ptr, mut idx, mut val) = (vec![0u32], Vec::new(), Vec::new());
        for (r, (columns, values)) in rows.into_iter().enumerate() {
            assert_eq!(
                columns.len(),
                values.len(),
                "row {r}: one value per column index"
            );
            assert!(
                columns.windows(2).all(|w| w[0] < w[1]),
                "row {r}: column indices must be strictly ascending"
            );
            assert!(
                columns.last().is_none_or(|&c| (c as usize) < cols),
                "row {r}: column index outside 0..{cols}"
            );
            idx.extend_from_slice(columns);
            val.extend_from_slice(values);
            assert!(
                idx.len() <= u32::MAX as usize,
                "sparse entry count exceeds the u32 row offsets"
            );
            ptr.push(idx.len() as u32);
        }
        Self {
            cols,
            ptr,
            idx,
            val,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of columns (every stored index is below it).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Columns and values of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.ptr[r] as usize..self.ptr[r + 1] as usize;
        (&self.idx[span.clone()], &self.val[span])
    }

    /// `(row offsets, columns, values)` for the kernels.
    #[inline]
    pub(crate) fn parts(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.ptr, &self.idx, &self.val)
    }
}

/// The same matrix as a [`SparseRows`] with every absent entry stored as
/// `+0`: row pairs `(2q, 2q + 1)` interleaved column by column, so that
/// `table[2·cols·q + 2j + h]` is entry `(2q + h, j)` (an odd last row pairs
/// with a row of zeros). One load then carries two rows at a column for the
/// dots and two columns of a row for the update, with no second layout.
///
/// Every stored value of the source is non-zero (a value `±0` there is
/// refused), so `entry ≠ 0` is exactly "stored in the sparse form": the
/// exact fallbacks of the dense kernel read the sparse support from it.
#[derive(Clone, Debug)]
pub struct DenseRows {
    rows: usize,
    cols: usize,
    nnz: usize,
    table: Vec<f64>,
}

impl DenseRows {
    /// The dense form of `m`, or `None` when `m` stores a value `±0` (which
    /// the dense form could not tell from an absent entry).
    pub fn from_sparse(m: &SparseRows) -> Option<Self> {
        let (rows, cols) = (m.rows(), m.cols());
        let mut table = vec![0.0; 2 * cols * rows.div_ceil(2)];
        for r in 0..rows {
            let (idx, val) = m.row(r);
            for (&j, &v) in idx.iter().zip(val) {
                // lint: allow(float_cmp) — a stored ±0 would read as "no entry" in the dense form
                if v == 0.0 {
                    return None;
                }
                table[2 * cols * (r / 2) + 2 * j as usize + r % 2] = v;
            }
        }
        Some(Self {
            rows,
            cols,
            nnz: m.nnz(),
            table,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entries stored by the sparse form it was built from (the non-zero
    /// entries).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Entry `(r, j)`; `0` where the sparse form stores none.
    #[inline]
    pub fn get(&self, r: usize, j: usize) -> f64 {
        self.table[2 * self.cols * (r / 2) + 2 * j + r % 2]
    }

    /// Entry `(r, j)` if the sparse form stores one (it stores no zero).
    #[inline]
    pub(crate) fn stored(&self, r: usize, j: usize) -> Option<f64> {
        let p = self.get(r, j);
        // lint: allow(float_cmp) — exactly zero is exactly "no entry" (`from_sparse`)
        (p != 0.0).then_some(p)
    }

    /// The interleaved row pairs for the kernels: `2·cols` values per pair.
    #[inline]
    pub(crate) fn table(&self) -> &[f64] {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_back_as_they_were_packed() {
        let rows: [(&[u32], &[f64]); 3] =
            [(&[0, 2], &[1.0, 2.0]), (&[], &[]), (&[1, 2], &[3.0, 4.0])];
        let m = SparseRows::from_rows(4, rows);
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 4, 4));
        for (r, want) in rows.iter().enumerate() {
            assert_eq!(m.row(r), *want);
        }
    }

    #[test]
    #[should_panic(expected = "outside 0..3")]
    fn an_index_past_the_dimension_is_refused() {
        let _ = SparseRows::from_rows(3, [(&[1u32, 3][..], &[1.0, 1.0][..])]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_rows_are_refused() {
        let _ = SparseRows::from_rows(3, [(&[2u32, 1][..], &[1.0, 1.0][..])]);
    }

    #[test]
    fn the_dense_form_holds_every_entry_and_zeros_elsewhere() {
        let rows: [(&[u32], &[f64]); 3] =
            [(&[0, 2], &[1.0, 2.0]), (&[], &[]), (&[1, 3], &[3.0, -0.5])];
        let m = SparseRows::from_rows(4, rows);
        let d = DenseRows::from_sparse(&m).expect("no stored zero");
        assert_eq!((d.rows(), d.cols(), d.nnz()), (3, 4, 4));
        for (r, (idx, val)) in rows.iter().enumerate() {
            for j in 0..4u32 {
                let want = idx.iter().position(|&i| i == j).map_or(0.0, |k| val[k]);
                assert_eq!(d.get(r, j as usize).to_bits(), want.to_bits());
            }
        }
        assert_eq!(d.table().len(), 2 * 4 * 2, "the odd row pairs with zeros");
    }

    #[test]
    fn a_stored_zero_has_no_dense_form() {
        let m = SparseRows::from_rows(3, [(&[0u32, 2][..], &[1.0, -0.0][..])]);
        assert!(DenseRows::from_sparse(&m).is_none());
    }
}
