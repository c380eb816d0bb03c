//! A sparse matrix in compressed-row form whose indices were checked once.
//!
//! [`crate::sparse_projector_add_on`] indexes dense vectors with the stored
//! column indices without a bounds check per entry. That is sound because
//! the only way to obtain a [`SparseRows`] is [`SparseRows::from_rows`],
//! which refuses any index `≥ cols`, and because the safe wrapper compares
//! every dense slice it is handed against `rows()` / `cols()` before
//! dispatching. The fields are private and nothing mutates them after
//! construction.

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
}
