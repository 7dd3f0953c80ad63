//! A dense row-major matrix over a Galois field.

use std::fmt;
use std::ops::{Index, IndexMut};

use prlc_gf::{kernel, GfElem};
use rand::Rng;

/// A dense `rows × cols` matrix over the field `F`.
///
/// Used for coefficient matrices of random linear codes, for the worked
/// examples of Fig. 1/2 of the paper, and as the reference implementation
/// that the progressive decoder is validated against.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: GfElem> Matrix<F> {
    /// An all-zero `rows × cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F::ZERO; rows * cols],
        }
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length, or if `rows`
    /// is empty (an empty matrix has no well-defined column count; use
    /// [`Matrix::zero`] with explicit dimensions instead).
    pub fn from_rows(rows: Vec<Vec<F>>) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in &rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A matrix with independent uniformly random entries.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| F::random(rng)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[F] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [F] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    /// Disjoint mutable borrows of two *distinct* rows, in argument
    /// order. This is the aliasing-safe primitive behind the row
    /// arithmetic helpers ([`Matrix::row_axpy`]), obtained with
    /// `split_at_mut` — no row is ever cloned.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or if `a == b`.
    pub fn row_pair_mut(&mut self, a: usize, b: usize) -> (&mut [F], &mut [F]) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        assert_ne!(a, b, "row_pair_mut requires distinct rows");
        let cols = self.cols;
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(hi * cols);
        let lo_row = &mut top[lo * cols..(lo + 1) * cols];
        let hi_row = &mut bottom[..cols];
        if a < b {
            (lo_row, hi_row)
        } else {
            (hi_row, lo_row)
        }
    }

    /// `row[dst][from_col..] += factor * row[src][from_col..]` through the
    /// dispatched [`kernel`] — the elimination inner loop.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds, if `dst == src`, or if
    /// `from_col > self.cols()`.
    pub fn row_axpy(&mut self, dst: usize, factor: F, src: usize, from_col: usize) {
        let (d, s) = self.row_pair_mut(dst, src);
        kernel::axpy(&mut d[from_col..], factor, &s[from_col..]);
    }

    /// `row[r][from_col..] *= factor` through the dispatched [`kernel`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or `from_col > self.cols()`.
    pub fn scale_row(&mut self, r: usize, factor: F, from_col: usize) {
        kernel::scale_slice(&mut self.row_mut(r)[from_col..], factor);
    }

    /// Whether the matrix is in reduced row-echelon form: each pivot is 1,
    /// is the only nonzero entry in its column, pivots move strictly right
    /// as rows descend, and zero rows are at the bottom.
    pub fn is_rref(&self) -> bool {
        let mut last_pivot: Option<usize> = None;
        let mut seen_zero_row = false;
        for r in 0..self.rows {
            let row = self.row(r);
            match row.iter().position(|v| !v.is_zero()) {
                None => seen_zero_row = true,
                Some(p) => {
                    if seen_zero_row {
                        return false; // nonzero row below a zero row
                    }
                    if row[p] != F::ONE {
                        return false;
                    }
                    if let Some(lp) = last_pivot {
                        if p <= lp {
                            return false;
                        }
                    }
                    // the pivot column must be zero everywhere else
                    for r2 in 0..self.rows {
                        if r2 != r && !self[(r2, p)].is_zero() {
                            return false;
                        }
                    }
                    last_pivot = Some(p);
                }
            }
        }
        true
    }

    /// Whether the matrix is in *reverse* row-echelon form, the shape
    /// [`ProgressiveRref`](crate::ProgressiveRref) keeps: every row
    /// pivots on its last nonzero, which is 1, and no two rows share a
    /// pivot column.
    #[cfg(test)]
    pub(crate) fn is_reverse_echelon(&self) -> bool {
        let mut pivots = std::collections::HashSet::new();
        (0..self.rows).all(|r| {
            let row = self.row(r);
            row.iter()
                .rposition(|v| !v.is_zero())
                .is_some_and(|p| row[p] == F::ONE && pivots.insert(p))
        })
    }
}

impl<F: GfElem> Index<(usize, usize)> for Matrix<F> {
    type Output = F;

    fn index(&self, (r, c): (usize, usize)) -> &F {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<F: GfElem> IndexMut<(usize, usize)> for Matrix<F> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut F {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl<F: GfElem> fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>4x}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl<F: GfElem> fmt::Display for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;

    fn g(v: usize) -> Gf256 {
        Gf256::from_index(v)
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(vec![vec![g(1), g(2)], vec![g(3), g(4)]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], g(2));
        assert_eq!(m.row(1), &[g(3), g(4)]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(vec![vec![g(1)], vec![g(1), g(2)]]);
    }

    #[test]
    fn swap_rows_swaps() {
        let mut m = Matrix::from_rows(vec![vec![g(1), g(2)], vec![g(3), g(4)]]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[g(3), g(4)]);
        assert_eq!(m.row(1), &[g(1), g(2)]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[g(1), g(2)]);
    }

    #[test]
    fn is_rref_detects_violations() {
        // Pivot not 1.
        let m = Matrix::from_rows(vec![vec![g(2), g(0)], vec![g(0), g(1)]]);
        assert!(!m.is_rref());
        // Nonzero above a pivot.
        let m = Matrix::from_rows(vec![vec![g(1), g(5)], vec![g(0), g(1)]]);
        assert!(!m.is_rref());
        // Zero row above nonzero row.
        let m = Matrix::from_rows(vec![vec![g(0), g(0)], vec![g(0), g(1)]]);
        assert!(!m.is_rref());
        // Proper RREF with a free column.
        let m = Matrix::from_rows(vec![vec![g(1), g(9), g(0)], vec![g(0), g(0), g(1)]]);
        assert!(m.is_rref());
    }

    #[test]
    fn is_reverse_echelon_detects_violations() {
        // Pivots on the last nonzero, with a free column left of them.
        let m = Matrix::from_rows(vec![vec![g(1), g(0), g(0)], vec![g(0), g(9), g(1)]]);
        assert!(m.is_reverse_echelon());
        assert!(!m.is_rref());
        // Not reduced: a pivot column is nonzero in another row.
        let m = Matrix::from_rows(vec![vec![g(1), g(0)], vec![g(5), g(1)]]);
        assert!(m.is_reverse_echelon());
        // Two rows share a pivot column.
        let m = Matrix::from_rows(vec![vec![g(0), g(9), g(1)], vec![g(1), g(0), g(1)]]);
        assert!(!m.is_reverse_echelon());
        // Pivot not 1.
        let m = Matrix::from_rows(vec![vec![g(1), g(0)], vec![g(0), g(2)]]);
        assert!(!m.is_reverse_echelon());
        // A zero row has no pivot.
        let m = Matrix::from_rows(vec![vec![g(1), g(0)], vec![g(0), g(0)]]);
        assert!(!m.is_reverse_echelon());
        let m = Matrix::from_rows(vec![vec![g(1), g(0)], vec![g(0), g(1)]]);
        assert!(m.is_reverse_echelon());
    }

    #[test]
    fn debug_render_is_nonempty() {
        let m = Matrix::from_rows(vec![vec![g(1), g(0)], vec![g(0), g(1)]]);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x2"));
    }
}
