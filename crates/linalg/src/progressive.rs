//! The progressive Gauss–Jordan partial decoder, kept in *reverse*
//! reduced row-echelon form.
//!
//! Implements the decoding algorithm of Sec. 3.2 of the paper: "As each
//! new coded block is accumulated, the coding coefficients of the coded
//! block are appended to the current decoding matrix. A pass of
//! Gauss–Jordan elimination is performed on the existing decoding matrix —
//! with identical operations performed on the data blocks as well — such
//! that the matrix is reduced to RREF."
//!
//! # Reverse RREF
//!
//! The machine keeps its stored rows in reduced echelon form with the
//! column order reversed: each row pivots on its *last* nonzero, the
//! pivot is normalised to 1, and every pivot column is zero in every
//! other row. Rotating the pivot-sorted matrix by 180° gives an ordinary
//! RREF, so every property of the paper's RREF carries over.
//!
//! The reversal is what PLC's structure asks for. A level-`k` block has
//! support `[0, b_k)`, and Lemma 2 says the first `b_k` unknowns depend
//! only on rows whose support lies inside `[0, b_k)`. A row pivoting on
//! its last nonzero is zero right of its pivot, so eliminating column
//! `c` with the row that owns it touches only `[0, c]`, and
//! back-eliminating a new pivot `pc` touches only `[0, pc]` of rows
//! whose pivot is right of `pc`. No row ever gains a nonzero at or past
//! the support it arrived with: a level-1 row is never widened by an
//! early level-5 pivot, which a first-nonzero pivot rule would do.
//!
//! # Exact solved-tracking
//!
//! An unknown `x_c` is *decoded* exactly when `e_c` lies in the row
//! space, a property of the rows held, not of the echelon form chosen.
//! In either reduced form a pivot row's off-pivot nonzeros sit only in
//! non-pivot (free) columns, so `x_c` is determined exactly when the
//! pivot row owning column `c` has a single nonzero. Determinedness,
//! [`decoded_count`](ProgressiveRref::decoded_count),
//! [`is_decoded`](ProgressiveRref::is_decoded),
//! [`newly_solved`](ProgressiveRref::newly_solved) and
//! [`recovered`](ProgressiveRref::recovered) are therefore the same as
//! under forward RREF; only the pivot column reported for an innovative
//! row names its last nonzero rather than its first.
//!
//! # Performance
//!
//! The decoding-curve experiments of Sec. 5 run this machine with
//! `width = 1000` for thousands of insertions per run, so the hot paths
//! are engineered:
//!
//! * rows are stored as [`CoeffRow`]s: dense rows track their support
//!   and every row operation is bounded to `[0, c]` for the column `c`
//!   it clears, while sparse rows store only their `(index, value)`
//!   pairs so elimination costs `O(nnz)` per colliding pivot;
//! * each row keeps a *witness*: its last nonzero column left of the
//!   pivot, or none once the row is solved. A row can hold a new pivot
//!   column `pc` only if its witness is at least `pc`, so
//!   back-elimination skips every other row without reading it, and it
//!   leaves every column right of `pc` unchanged. So a row rescans
//!   (downward from `pc`) only when its witness *was* `pc`; otherwise
//!   solved-tracking costs O(1) per touched row and decoded queries are
//!   O(1);
//! * dense bulk operations route through the dispatched
//!   [`kernel`](prlc_gf::kernel) (product table or SIMD nibble-shuffle
//!   for GF(2⁸), selected once at startup), and payloads are mirrored
//!   through the same kernel calls over their contiguous symbol planes.

use prlc_gf::GfElem;

use crate::coeffrow::CoeffRow;
use crate::matrix::Matrix;
use crate::payload::RowPayload;

/// Outcome of inserting one coded block into the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertOutcome {
    /// The block increased the rank; its pivot landed in this column.
    Innovative {
        /// The column of the new pivot: the reduced row's last nonzero.
        pivot: usize,
    },
    /// The block was a linear combination of already-held blocks and was
    /// discarded.
    Redundant,
}

impl InsertOutcome {
    /// Whether the insertion increased the decoder's rank.
    pub fn is_innovative(self) -> bool {
        matches!(self, InsertOutcome::Innovative { .. })
    }
}

#[derive(Clone)]
struct Row<F, P> {
    coeffs: CoeffRow<F>,
    payload: P,
    pivot: usize,
    /// The last nonzero column left of `pivot`, or `None` once the row
    /// is solved (its only nonzero is the pivot). Under the reverse-RREF
    /// invariant this is always a free column, and the row is zero
    /// strictly between the witness and `pivot`.
    witness: Option<usize>,
}

// Hand-written (not derived) because `CoeffRow`'s logical `Debug`
// requires `F: GfElem`, a bound derive cannot infer.
impl<F: GfElem, P: std::fmt::Debug> std::fmt::Debug for Row<F, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Row")
            .field("coeffs", &self.coeffs)
            .field("payload", &self.payload)
            .field("pivot", &self.pivot)
            .field("witness", &self.witness)
            .finish()
    }
}

/// An incremental Gauss–Jordan elimination machine over `width` unknowns.
///
/// `P` is the payload mirrored through every row operation: use
/// `Vec<F>` to decode real data blocks, or `()` to track decodability
/// only. See [`RowPayload`].
#[derive(Clone)]
pub struct ProgressiveRref<F, P = ()> {
    width: usize,
    rows: Vec<Row<F, P>>,
    /// Column -> index into `rows` of the pivot row owning that column.
    pivot_of_col: Vec<Option<usize>>,
    /// Columns whose unknown is fully determined.
    solved: Vec<bool>,
    solved_count: usize,
    /// First column not yet solved (the decoded prefix length). Monotone:
    /// solved rows can never become unsolved.
    prefix: usize,
    inserted: usize,
    /// Columns whose unknown became determined during the most recent
    /// [`insert`](Self::insert), ascending. Cleared on every insert.
    last_solved: Vec<usize>,
}

// Hand-written for the same `F: GfElem` bound reason as `Row`.
impl<F: GfElem, P: std::fmt::Debug> std::fmt::Debug for ProgressiveRref<F, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressiveRref")
            .field("width", &self.width)
            .field("rows", &self.rows)
            .field("pivot_of_col", &self.pivot_of_col)
            .field("solved", &self.solved)
            .field("solved_count", &self.solved_count)
            .field("prefix", &self.prefix)
            .field("inserted", &self.inserted)
            .field("last_solved", &self.last_solved)
            .finish()
    }
}

impl<F: GfElem, P: RowPayload<F>> ProgressiveRref<F, P> {
    /// Creates a decoder for a system with `width` unknowns.
    pub fn new(width: usize) -> Self {
        ProgressiveRref {
            width,
            rows: Vec::new(),
            pivot_of_col: vec![None; width],
            solved: vec![false; width],
            solved_count: 0,
            prefix: 0,
            inserted: 0,
            last_solved: Vec::new(),
        }
    }

    /// The number of unknowns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The current rank (number of innovative blocks held).
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Total number of blocks offered via [`insert`](Self::insert),
    /// including redundant ones.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Columns whose unknown became determined during the most recent
    /// [`insert`](Self::insert), in ascending order. Empty when the last
    /// insert was redundant or solved nothing new.
    pub fn newly_solved(&self) -> &[usize] {
        &self.last_solved
    }

    /// Number of unknowns currently determined (not necessarily a prefix).
    pub fn decoded_count(&self) -> usize {
        self.solved_count
    }

    /// Length of the longest decoded *prefix* of unknowns: the largest
    /// `j` such that `x_0 … x_{j-1}` are all determined.
    ///
    /// Under PLC, mapping this through the level boundaries `b_k` yields
    /// the number of decoded priority levels.
    pub fn decoded_prefix(&self) -> usize {
        self.prefix
    }

    /// Whether unknown `col` is determined.
    ///
    /// # Panics
    ///
    /// Panics if `col >= width`.
    pub fn is_decoded(&self, col: usize) -> bool {
        assert!(col < self.width, "column {col} out of range");
        self.solved[col]
    }

    /// Whether all unknowns are determined.
    pub fn is_complete(&self) -> bool {
        self.solved_count == self.width
    }

    /// The recovered payload for unknown `col`, if it is determined.
    ///
    /// When `P = Vec<F>`, this is the decoded source block itself (the
    /// pivot row has been normalised, so the payload *is* the solution).
    ///
    /// # Panics
    ///
    /// Panics if `col >= width`.
    pub fn recovered(&self, col: usize) -> Option<&P> {
        assert!(col < self.width, "column {col} out of range");
        if !self.solved[col] {
            return None;
        }
        let r = self.pivot_of_col[col].expect("solved column has a pivot row");
        Some(&self.rows[r].payload)
    }

    /// Inserts one coded block: `coeffs` are its coding coefficients over
    /// the `width` unknowns, `payload` the data mirrored through the
    /// elimination.
    ///
    /// Runs one incremental pass of Gauss–Jordan elimination, after which
    /// the held rows are again in reverse RREF (up to row order).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != width`.
    pub fn insert(&mut self, coeffs: Vec<F>, payload: P) -> InsertOutcome {
        self.insert_row(CoeffRow::from_dense(coeffs), payload)
    }

    /// Inserts one coded block given as a [`CoeffRow`] in either
    /// representation — the sparse-aware form of [`insert`](Self::insert).
    ///
    /// The elimination touches only stored nonzeros: pivot lookup walks
    /// [`CoeffRow::last_nonzero_before`] and row updates go through
    /// [`CoeffRow::axpy_range`] bounded to `[0, c]`, so a sparse row with
    /// `d` nonzeros costs `O(d)` per colliding pivot instead of
    /// `O(width)`, and a dense row never works past its own support.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != width`.
    pub fn insert_row(&mut self, mut coeffs: CoeffRow<F>, mut payload: P) -> InsertOutcome {
        assert_eq!(coeffs.len(), self.width, "coefficient width mismatch");
        self.inserted += 1;
        self.last_solved.clear();

        // Tighten a dense row's support, so the downward walk starts at
        // its last nonzero.
        coeffs.normalize_support();

        // Fill-in accounting: nonzeros the reduction *adds* to this row
        // before it is stored. Logical, so identical across
        // representations; only computed when observability is on.
        let original_nnz = if prlc_obs::enabled() { coeffs.nnz() } else { 0 };

        // Reduction, top down: clear every coefficient in a pivot column
        // with the row owning it. That row is zero right of its pivot `c`
        // and in every other pivot column, so the update touches only
        // `[0, c]` and never refills a column already passed. The last
        // nonzero that survives in a free column becomes the pivot; the
        // walk goes on below it, since the reduced form also needs the
        // pivot columns left of the pivot cleared. A full-rank decoder
        // holds every column as a pivot, so any row reduces to zero.
        let mut end = if self.rows.len() == self.width {
            0
        } else {
            coeffs.support()
        };
        let mut pivot_col = None;
        while let Some(c) = coeffs.last_nonzero_before(end) {
            match self.pivot_of_col[c] {
                Some(r) => {
                    let prow = &self.rows[r];
                    let factor = coeffs.get(c);
                    eliminate(&mut coeffs, c, factor, &prow.coeffs, prow.witness.is_none());
                    payload.payload_axpy(&prow.payload, factor);
                    debug_assert!(coeffs.get(c).is_zero());
                }
                None => {
                    if pivot_col.is_none() {
                        pivot_col = Some(c);
                    }
                }
            }
            end = c;
        }

        let Some(pc) = pivot_col else {
            if prlc_obs::enabled() {
                prlc_obs::counter!("linalg.rref.rows").incr();
                prlc_obs::counter!("linalg.rref.redundant").incr();
            }
            if prlc_obs::trace::enabled() {
                // Cause: the reduced row vanished, so the offered block was
                // a linear combination of the rows already held.
                prlc_obs::trace_instant!(
                    "linalg.rref.redundant_row",
                    self.inserted as u64,
                    rank: self.rows.len() as u64,
                );
            }
            return InsertOutcome::Redundant;
        };

        // Normalise the pivot to 1; the row is zero right of it.
        let inv = coeffs.get(pc).gf_inv().expect("pivot entry is nonzero");
        coeffs.scale_range(0..pc + 1, inv);
        payload.payload_scale(inv);

        // Back-eliminate column `pc` from every stored row holding it,
        // restoring the invariant. A row is zero between its witness and
        // its pivot, and right of its pivot, so only a row whose witness
        // is at least `pc` can hold it (solved rows never do). The update
        // leaves columns right of `pc` alone, so only a row whose witness
        // *is* `pc` can change its witness — and only it needs a rescan.
        let new_idx = self.rows.len();
        let witness = coeffs.last_nonzero_before(pc);
        for row in self.rows.iter_mut() {
            if row.witness.is_none_or(|w| w < pc) {
                continue;
            }
            let factor = row.coeffs.get(pc);
            if factor.is_zero() {
                continue;
            }
            eliminate(&mut row.coeffs, pc, factor, &coeffs, witness.is_none());
            row.payload.payload_axpy(&payload, factor);
            if row.witness == Some(pc) {
                row.witness = row.coeffs.last_nonzero_before(pc);
                if row.witness.is_none() {
                    self.solved[row.pivot] = true;
                    self.solved_count += 1;
                    self.last_solved.push(row.pivot);
                }
            }
        }

        if witness.is_none() {
            self.solved[pc] = true;
            self.solved_count += 1;
            self.last_solved.push(pc);
        }
        self.pivot_of_col[pc] = Some(new_idx);
        self.rows.push(Row {
            coeffs,
            payload,
            pivot: pc,
            witness,
        });

        // Advance the decoded-prefix pointer (monotone: a solved row's
        // only nonzero is its pivot, so no later back-elimination
        // touches it).
        while self.prefix < self.width && self.solved[self.prefix] {
            self.prefix += 1;
        }
        self.last_solved.sort_unstable();

        if prlc_obs::trace::enabled() {
            prlc_obs::trace_instant!(
                "linalg.rref.pivot",
                self.inserted as u64,
                pivot: pc as u64,
                rank: self.rows.len() as u64,
                solved: self.last_solved.len() as u64,
            );
        }

        if prlc_obs::enabled() {
            prlc_obs::counter!("linalg.rref.rows").incr();
            prlc_obs::counter!("linalg.rref.pivots").incr();
            // Rank-vs-rows-consumed trajectory: each innovation records
            // how many rows had been consumed to reach the new rank.
            prlc_obs::histogram!("linalg.rref.rows_per_pivot").observe(self.inserted as u64);
            // Fill-in of the stored row: nonzeros gained over the whole
            // row between arrival and storage. Defined over logical
            // nonzero counts, so the observed values are
            // representation-independent.
            let stored_nnz = self.rows[new_idx].coeffs.nnz();
            prlc_obs::histogram!("linalg.rref.fill_in")
                .observe(stored_nnz.saturating_sub(original_nnz) as u64);
        }

        InsertOutcome::Innovative { pivot: pc }
    }

    /// Snapshot of the held coefficient rows as a matrix (rows in pivot
    /// order, i.e. sorted by pivot column), in reverse RREF. Intended for
    /// inspection and tests; allocates.
    ///
    /// Returns a `rank × width` matrix, or `None` when no rows are held.
    pub fn coefficient_matrix(&self) -> Option<Matrix<F>> {
        if self.rows.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by_key(|&i| self.rows[i].pivot);
        Some(Matrix::from_rows(
            order
                .iter()
                .map(|&i| self.rows[i].coeffs.to_dense_vec())
                .collect(),
        ))
    }

    /// Iterates over the determined unknown indices in ascending order.
    pub fn decoded_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.solved
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
    }
}

/// Clears column `c` of `row`, which holds `factor` there, with the row
/// `prow` that pivots on `c`: `row += factor · prow` over `[0, c]`. A
/// solved `prow` is 1 at `c` and zero elsewhere, so then only that one
/// coefficient changes and no kernel call is needed.
fn eliminate<F: GfElem>(
    row: &mut CoeffRow<F>,
    c: usize,
    factor: F,
    prow: &CoeffRow<F>,
    solved: bool,
) {
    if solved {
        row.add_assign_at(c, factor);
    } else {
        row.axpy_range(0..c + 1, factor, prow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn g(v: usize) -> Gf256 {
        Gf256::from_index(v)
    }

    fn rowv(vals: &[usize]) -> Vec<Gf256> {
        vals.iter().map(|&v| g(v)).collect()
    }

    #[test]
    fn empty_decoder_state() {
        let d: ProgressiveRref<Gf256> = ProgressiveRref::new(5);
        assert_eq!(d.width(), 5);
        assert_eq!(d.rank(), 0);
        assert_eq!(d.decoded_prefix(), 0);
        assert_eq!(d.decoded_count(), 0);
        assert!(!d.is_complete());
        assert!(d.coefficient_matrix().is_none());
    }

    #[test]
    fn zero_row_is_redundant() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(3);
        assert_eq!(d.insert(rowv(&[0, 0, 0]), ()), InsertOutcome::Redundant);
        assert_eq!(d.rank(), 0);
        assert_eq!(d.inserted(), 1);
    }

    #[test]
    fn single_variable_row_decodes_immediately() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(3);
        let out = d.insert(rowv(&[9, 0, 0]), ());
        assert_eq!(out, InsertOutcome::Innovative { pivot: 0 });
        assert_eq!(d.decoded_prefix(), 1);
        assert!(d.is_decoded(0));
        assert!(!d.is_decoded(1));
    }

    #[test]
    fn duplicate_row_is_redundant() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(3);
        assert!(d.insert(rowv(&[1, 2, 3]), ()).is_innovative());
        assert_eq!(d.insert(rowv(&[1, 2, 3]), ()), InsertOutcome::Redundant);
        // A scalar multiple is also redundant.
        let mut scaled = rowv(&[1, 2, 3]);
        Gf256::scale_slice(&mut scaled, g(77));
        assert_eq!(d.insert(scaled, ()), InsertOutcome::Redundant);
        assert_eq!(d.rank(), 1);
    }

    #[test]
    fn paper_fig2_partial_decode() {
        // Fig. 2: 5 rows over 6 unknowns; after sorting, the top-left 3x3
        // block is invertible with zeros to its right, so exactly the
        // first 3 unknowns decode from 5 coded blocks. We replicate the
        // *structure* (values differ; the figure's entries are symbolic):
        // rows 1-2 touch x1..x3 only; row 0 touches x1 only; rows 3-4
        // touch all six.
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(6);
        d.insert(rowv(&[5, 0, 0, 0, 0, 0]), ());
        d.insert(rowv(&[1, 7, 2, 0, 0, 0]), ());
        d.insert(rowv(&[3, 1, 9, 0, 0, 0]), ());
        d.insert(rowv(&[4, 2, 8, 1, 5, 7]), ());
        d.insert(rowv(&[6, 3, 1, 2, 9, 4]), ());
        assert_eq!(d.rank(), 5);
        assert_eq!(d.decoded_prefix(), 3);
        assert_eq!(d.decoded_count(), 3);
        assert!(!d.is_decoded(3));
        // The held rows are a valid reverse RREF.
        assert!(d.coefficient_matrix().unwrap().is_reverse_rref());
    }

    #[test]
    fn insertion_order_does_not_matter_for_decodability() {
        let rows = [
            rowv(&[4, 2, 8, 1, 5, 7]),
            rowv(&[5, 0, 0, 0, 0, 0]),
            rowv(&[6, 3, 1, 2, 9, 4]),
            rowv(&[1, 7, 2, 0, 0, 0]),
            rowv(&[3, 1, 9, 0, 0, 0]),
        ];
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(6);
        for r in &rows {
            d.insert(r.clone(), ());
        }
        assert_eq!(d.decoded_prefix(), 3);
        assert_eq!(d.rank(), 5);
    }

    #[test]
    fn full_decode_recovers_payload() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 8;
        let blk = 4;
        // Random source blocks.
        let sources: Vec<Vec<Gf256>> = (0..n)
            .map(|_| (0..blk).map(|_| Gf256::random(&mut rng)).collect())
            .collect();
        let mut d: ProgressiveRref<Gf256, Vec<Gf256>> = ProgressiveRref::new(n);
        while !d.is_complete() {
            let coeffs: Vec<Gf256> = (0..n).map(|_| Gf256::random(&mut rng)).collect();
            let mut payload = vec![Gf256::ZERO; blk];
            for (c, s) in coeffs.iter().zip(&sources) {
                Gf256::axpy(&mut payload, *c, s);
            }
            d.insert(coeffs, payload);
        }
        for (i, s) in sources.iter().enumerate() {
            assert_eq!(d.recovered(i).unwrap(), s, "block {i}");
        }
        assert_eq!(d.decoded_prefix(), n);
    }

    #[test]
    fn partial_decode_recovers_prefix_payloads() {
        // PLC-shaped rows: supports are prefixes. With enough level-1
        // rows the first blocks decode even though later ones cannot.
        let mut rng = StdRng::seed_from_u64(22);
        let n = 6;
        let sources: Vec<Vec<Gf256>> = (0..n).map(|_| vec![Gf256::random(&mut rng)]).collect();
        let mut d: ProgressiveRref<Gf256, Vec<Gf256>> = ProgressiveRref::new(n);
        // Three rows over the first three unknowns only.
        for _ in 0..3 {
            let mut coeffs = vec![Gf256::ZERO; n];
            for c in coeffs.iter_mut().take(3) {
                *c = Gf256::random_nonzero(&mut rng);
            }
            let mut payload = vec![Gf256::ZERO];
            for (c, s) in coeffs.iter().zip(&sources) {
                Gf256::axpy(&mut payload, *c, s);
            }
            d.insert(coeffs, payload);
        }
        // With overwhelming probability three random 3-vectors over
        // GF(256) are independent.
        assert_eq!(d.decoded_prefix(), 3);
        for (i, s) in sources.iter().enumerate().take(3) {
            assert_eq!(d.recovered(i).unwrap(), s);
        }
        assert!(d.recovered(4).is_none());
    }

    #[test]
    fn rank_matches_batch_rref_on_random_inserts() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let width = rng.gen_range(1..10);
            let nrows = rng.gen_range(0..15);
            let rows: Vec<Vec<Gf256>> = (0..nrows)
                .map(|_| {
                    (0..width)
                        .map(|_| {
                            // Sparse-ish rows exercise the support tracking.
                            if rng.gen_bool(0.4) {
                                Gf256::ZERO
                            } else {
                                Gf256::random(&mut rng)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(width);
            for r in &rows {
                d.insert(r.clone(), ());
            }
            if nrows > 0 {
                let m = Matrix::from_rows(rows);
                assert_eq!(d.rank(), crate::elim::rank(&m));
                if let Some(cm) = d.coefficient_matrix() {
                    assert!(cm.is_reverse_rref());
                }
            }
        }
    }

    #[test]
    fn decoded_prefix_is_monotone() {
        let mut rng = StdRng::seed_from_u64(24);
        let n = 12;
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(n);
        let mut last = 0;
        for _ in 0..40 {
            // PLC-style prefix-support rows.
            let lvl = rng.gen_range(1..=n);
            let mut coeffs = vec![Gf256::ZERO; n];
            for c in coeffs.iter_mut().take(lvl) {
                *c = Gf256::random(&mut rng);
            }
            d.insert(coeffs, ());
            let p = d.decoded_prefix();
            assert!(p >= last, "prefix regressed: {last} -> {p}");
            last = p;
        }
    }

    #[test]
    fn decoded_columns_iterates_solved() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(4);
        d.insert(rowv(&[0, 0, 3, 0]), ());
        d.insert(rowv(&[7, 0, 0, 0]), ());
        let cols: Vec<usize> = d.decoded_columns().collect();
        assert_eq!(cols, vec![0, 2]);
        assert_eq!(d.decoded_prefix(), 1);
        assert_eq!(d.decoded_count(), 2);
    }

    #[test]
    fn newly_solved_reports_transitions() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(3);
        // A 2-variable row solves nothing yet.
        assert!(d.insert(rowv(&[1, 2, 0]), ()).is_innovative());
        assert!(d.newly_solved().is_empty());
        // The second row pins x1 directly and x0 via back-elimination.
        assert!(d.insert(rowv(&[0, 5, 0]), ()).is_innovative());
        assert_eq!(d.newly_solved(), &[0, 1]);
        // A redundant row solves nothing and clears the ledger.
        assert_eq!(d.insert(rowv(&[3, 7, 0]), ()), InsertOutcome::Redundant);
        assert!(d.newly_solved().is_empty());
    }

    #[test]
    fn sparse_rows_match_dense_rows_exactly() {
        use crate::coeffrow::CoeffRow;
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..20 {
            let width = rng.gen_range(1..20);
            let nrows = rng.gen_range(0..25);
            let rows: Vec<Vec<Gf256>> = (0..nrows)
                .map(|_| {
                    (0..width)
                        .map(|_| {
                            if rng.gen_bool(0.6) {
                                Gf256::ZERO
                            } else {
                                Gf256::random(&mut rng)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut dd: ProgressiveRref<Gf256> = ProgressiveRref::new(width);
            let mut ds: ProgressiveRref<Gf256> = ProgressiveRref::new(width);
            for r in &rows {
                let entries = r
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.is_zero())
                    .map(|(i, &c)| (i as u32, c))
                    .collect();
                let sparse = CoeffRow::from_sorted_entries(width, entries);
                let a = dd.insert(r.clone(), ());
                let b = ds.insert_row(sparse, ());
                assert_eq!(a, b);
                assert_eq!(dd.newly_solved(), ds.newly_solved());
                assert_eq!(dd.decoded_prefix(), ds.decoded_prefix());
                assert_eq!(dd.decoded_count(), ds.decoded_count());
            }
            assert_eq!(dd.rank(), ds.rank());
            assert_eq!(dd.coefficient_matrix(), ds.coefficient_matrix());
            assert!(dd.coefficient_matrix().is_none_or(|m| m.is_reverse_rref()));
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn insert_wrong_width_panics() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(3);
        d.insert(rowv(&[1, 2]), ());
    }

    #[test]
    fn complete_after_width_innovative_rows() {
        let mut rng = StdRng::seed_from_u64(25);
        let n = 10;
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(n);
        let mut innovative = 0;
        while innovative < n {
            let coeffs: Vec<Gf256> = (0..n).map(|_| Gf256::random(&mut rng)).collect();
            if d.insert(coeffs, ()).is_innovative() {
                innovative += 1;
            }
        }
        assert!(d.is_complete());
        assert_eq!(d.decoded_prefix(), n);
        assert!(d.coefficient_matrix().unwrap().is_identity());
    }
}
