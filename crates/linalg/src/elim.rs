//! Batch Gaussian and Gauss–Jordan elimination.
//!
//! These are the classical whole-matrix algorithms. The paper's decoder
//! processes blocks *incrementally* (see [`crate::ProgressiveRref`]); the
//! batch path here is the independent reference implementation the
//! progressive decoder is validated against, and computes the RREF shown
//! for the paper's Fig. 2.

use prlc_gf::GfElem;

use crate::matrix::Matrix;

/// The result of reducing a matrix to reduced row-echelon form.
#[derive(Clone)]
pub struct RrefResult<F> {
    /// The matrix in reduced row-echelon form.
    pub matrix: Matrix<F>,
    /// The rank (number of pivots).
    pub rank: usize,
    /// The pivot column of each pivot row, in row order (strictly
    /// increasing).
    pub pivot_cols: Vec<usize>,
}

impl<F: GfElem> std::fmt::Debug for RrefResult<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RrefResult")
            .field("matrix", &self.matrix)
            .field("rank", &self.rank)
            .field("pivot_cols", &self.pivot_cols)
            .finish()
    }
}

/// Reduces `m` to reduced row-echelon form with Gauss–Jordan elimination.
///
/// This is the transformation of Fig. 2(c) in the paper: every pivot is 1,
/// every pivot column is zero outside its pivot row, zero rows sink to the
/// bottom.
pub fn rref<F: GfElem>(m: &Matrix<F>) -> RrefResult<F> {
    let mut a = m.clone();
    let (rows, cols) = (a.rows(), a.cols());
    let mut pivot_cols = Vec::new();
    let mut pivot_row = 0usize;

    for col in 0..cols {
        if pivot_row == rows {
            break;
        }
        // Find a row at or below pivot_row with a nonzero entry in col.
        let Some(src) = (pivot_row..rows).find(|&r| !a[(r, col)].is_zero()) else {
            continue;
        };
        a.swap_rows(pivot_row, src);

        // Normalise the pivot to 1.
        let inv = a[(pivot_row, col)]
            .gf_inv()
            .expect("pivot is nonzero by construction");
        a.scale_row(pivot_row, inv, col);

        // Eliminate the pivot column from every other row (Gauss–Jordan:
        // above *and* below, unlike plain Gaussian elimination). The
        // disjoint row-pair borrow lets the kernel read the pivot row in
        // place — no per-pivot clone.
        for r in 0..rows {
            if r == pivot_row {
                continue;
            }
            let factor = a[(r, col)];
            if factor.is_zero() {
                continue;
            }
            a.row_axpy(r, factor, pivot_row, col);
        }

        pivot_cols.push(col);
        pivot_row += 1;
    }

    RrefResult {
        rank: pivot_cols.len(),
        matrix: a,
        pivot_cols,
    }
}

/// The rank of `m`.
pub fn rank<F: GfElem>(m: &Matrix<F>) -> usize {
    rref(m).rank
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
    fn rref_produces_rref() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let m = Matrix::<Gf256>::random(5, 7, &mut rng);
            let r = rref(&m);
            assert!(r.matrix.is_rref(), "{:?}", r.matrix);
            assert!(r.rank <= 5);
            // Pivot columns strictly increase.
            assert!(r.pivot_cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rref_of_identity_is_identity() {
        let mut i = Matrix::<Gf256>::zero(4, 4);
        for k in 0..4 {
            i[(k, k)] = Gf256::ONE;
        }
        let r = rref(&i);
        assert_eq!(r.matrix, i);
        assert_eq!(r.rank, 4);
        assert_eq!(r.pivot_cols, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rank_of_zero_matrix_is_zero() {
        let z = Matrix::<Gf256>::zero(3, 3);
        assert_eq!(rank(&z), 0);
    }

    #[test]
    fn rank_of_duplicated_rows() {
        let m = Matrix::from_rows(vec![
            vec![g(1), g(2), g(3)],
            vec![g(1), g(2), g(3)],
            vec![g(5), g(6), g(7)],
        ]);
        assert_eq!(rank(&m), 2);
    }

    #[test]
    fn rref_of_paper_fig1_slc_example() {
        // Fig. 1(b): SLC with level 1 = {x1}, level 2 = {x2, x3}.
        // A level-1 row [b, 0, 0] decodes x1 on its own.
        let m = Matrix::from_rows(vec![vec![g(0x42), g(0), g(0)]]);
        let r = rref(&m);
        assert_eq!(r.rank, 1);
        assert_eq!(r.pivot_cols, vec![0]);
        assert_eq!(r.matrix[(0, 0)], Gf256::ONE);
    }

    #[test]
    fn rank_is_invariant_under_row_shuffle() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = Matrix::<Gf256>::random(6, 4, &mut rng);
        let mut shuffled = m.clone();
        shuffled.swap_rows(0, 5);
        shuffled.swap_rows(2, 3);
        assert_eq!(rank(&m), rank(&shuffled));
    }

    #[test]
    fn rref_identical_for_row_permutations() {
        // Sec. 3.2: "the RREFs of two matrices are identical, if they
        // differ only in row orders".
        let mut rng = StdRng::seed_from_u64(14);
        let m = Matrix::<Gf256>::random(5, 5, &mut rng);
        let mut p = m.clone();
        p.swap_rows(0, 4);
        p.swap_rows(1, 2);
        assert_eq!(rref(&m).matrix, rref(&p).matrix);
    }
}
