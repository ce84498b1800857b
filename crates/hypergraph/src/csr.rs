//! Compact sparse-row (CSR) storage shared by the hypergraph and the
//! projected graph.
//!
//! A [`Csr`] stores a sequence of variable-length rows in two flat arrays:
//! `values` concatenates every row, and `offsets` (length `num_rows + 1`)
//! delimits them, so row `i` is the slice
//! `values[offsets[i] .. offsets[i + 1]]`. Compared with a `Vec<Vec<T>>`
//! this removes one pointer indirection and one heap allocation per row,
//! which is what makes streaming over all hyperedge members (projection,
//! counting) memory-bandwidth-bound instead of allocator-bound.

/// Flat variable-length-row storage: `offsets` + concatenated `values`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Csr<T> {
    offsets: Vec<usize>,
    values: Vec<T>,
}

impl<T> Csr<T> {
    /// An empty CSR with zero rows.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            values: Vec::new(),
        }
    }

    /// An empty CSR with capacity reserved for `rows` rows holding `entries`
    /// values in total.
    pub fn with_capacity(rows: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            values: Vec::with_capacity(entries),
        }
    }

    /// Appends one row, copying `row` onto the end of the value array.
    pub fn push_row(&mut self, row: &[T])
    where
        T: Copy,
    {
        self.values.extend_from_slice(row);
        self.offsets.push(self.values.len());
    }

    /// Builds a CSR from explicit parts. `offsets` must start at 0, be
    /// non-decreasing, and end at `values.len()`.
    pub fn from_parts(offsets: Vec<usize>, values: Vec<T>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap(), values.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets, values }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of values across all rows.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.values.len()
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Length of row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The offset array (length `num_rows + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The concatenated value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterator over all rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.num_rows()).map(move |i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_index() {
        let mut csr: Csr<u32> = Csr::with_capacity(3, 6);
        csr.push_row(&[1, 2, 3]);
        csr.push_row(&[]);
        csr.push_row(&[7, 9]);
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.num_entries(), 5);
        assert_eq!(csr.row(0), &[1, 2, 3]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[7, 9]);
        assert_eq!(csr.row_len(2), 2);
        assert_eq!(csr.offsets(), &[0, 3, 3, 5]);
        let rows: Vec<&[u32]> = csr.rows().collect();
        assert_eq!(rows, [&[1, 2, 3][..], &[], &[7, 9]]);
    }

    #[test]
    fn from_parts_matches_pushes() {
        let mut pushed: Csr<u8> = Csr::new();
        pushed.push_row(&[1]);
        pushed.push_row(&[2, 3]);
        let parts = Csr::from_parts(vec![0, 1, 3], vec![1, 2, 3]);
        assert_eq!(pushed, parts);
    }

    #[test]
    fn empty_csr() {
        let csr: Csr<u32> = Csr::new();
        assert_eq!(csr.num_rows(), 0);
        assert_eq!(csr.num_entries(), 0);
        assert_eq!(csr.rows().count(), 0);
    }
}
