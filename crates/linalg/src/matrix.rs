//! A dense row-major matrix over a Galois field.

use std::fmt;
use std::ops::{Index, IndexMut, Mul};

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

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
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

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
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

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[F]> {
        self.data.chunks_exact(self.cols.max(1))
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

    /// Appends the columns of `other` to the right of `self`
    /// (the augmented matrix `[self | other]`).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn augment(&self, other: &Matrix<F>) -> Matrix<F> {
        assert_eq!(self.rows, other.rows, "augment: row count mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix<F> {
        let mut t = Matrix::zero(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[F]) -> Vec<F> {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch");
        (0..self.rows)
            .map(|r| kernel::dot(self.row(r), x))
            .collect()
    }

    /// Number of nonzero entries.
    pub fn nonzeros(&self) -> usize {
        self.data.iter().filter(|v| !v.is_zero()).count()
    }

    /// Whether this is the identity matrix.
    pub fn is_identity(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let want = if r == c { F::ONE } else { F::ZERO };
                if self[(r, c)] != want {
                    return false;
                }
            }
        }
        true
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

impl<F: GfElem> Mul for &Matrix<F> {
    type Output = Matrix<F>;

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    fn mul(self, rhs: &Matrix<F>) -> Matrix<F> {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out: Matrix<F> = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                kernel::axpy(out.row_mut(r), a, rhs.row(k));
            }
        }
        out
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g(v: usize) -> Gf256 {
        Gf256::from_index(v)
    }

    #[test]
    fn identity_is_identity() {
        let i = Matrix::<Gf256>::identity(4);
        assert!(i.is_identity());
        assert!(i.is_rref());
        assert_eq!(i.nonzeros(), 4);
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
    fn mul_by_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::<Gf256>::random(3, 5, &mut rng);
        let i3 = Matrix::identity(3);
        let i5 = Matrix::identity(5);
        assert_eq!(&(&i3 * &m), &m);
        assert_eq!(&(&m * &i5), &m);
    }

    #[test]
    fn matmul_associative() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::<Gf256>::random(3, 4, &mut rng);
        let b = Matrix::<Gf256>::random(4, 2, &mut rng);
        let c = Matrix::<Gf256>::random(2, 5, &mut rng);
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn transpose_involutive() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::<Gf256>::random(4, 7, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Matrix::<Gf256>::random(3, 4, &mut rng);
        let x: Vec<Gf256> = (0..4).map(|_| Gf256::random(&mut rng)).collect();
        let as_col = Matrix::from_rows(x.iter().map(|&v| vec![v]).collect());
        let prod = &m * &as_col;
        let mv = m.mul_vec(&x);
        for r in 0..3 {
            assert_eq!(prod[(r, 0)], mv[r]);
        }
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
    fn augment_concatenates() {
        let a = Matrix::from_rows(vec![vec![g(1)], vec![g(2)]]);
        let b = Matrix::from_rows(vec![vec![g(3), g(4)], vec![g(5), g(6)]]);
        let ab = a.augment(&b);
        assert_eq!(ab.cols(), 3);
        assert_eq!(ab.row(0), &[g(1), g(3), g(4)]);
        assert_eq!(ab.row(1), &[g(2), g(5), g(6)]);
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
        assert!(Matrix::<Gf256>::identity(3).is_reverse_echelon());
    }

    #[test]
    fn debug_render_is_nonempty() {
        let m = Matrix::<Gf256>::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x2"));
    }
}
