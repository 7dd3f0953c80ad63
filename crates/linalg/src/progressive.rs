//! The progressive partial decoder, kept in *reverse* row-echelon form.
//!
//! Implements the decoding algorithm of Sec. 3.2 of the paper: "As each
//! new coded block is accumulated, the coding coefficients of the coded
//! block are appended to the current decoding matrix. A pass of
//! Gauss–Jordan elimination is performed on the existing decoding matrix —
//! with identical operations performed on the data blocks as well — such
//! that the matrix is reduced to RREF."
//!
//! # Reverse echelon form
//!
//! The machine keeps its stored rows in echelon form with the column
//! order reversed: each row pivots on its *last* nonzero, the pivot is
//! normalised to 1, and no two rows share a pivot column. An arriving row
//! is walked top down: every nonzero in a pivot column is cleared with
//! the row owning that column, and the first nonzero that survives in a
//! free column becomes its pivot. The walk stops there. Stored rows are
//! never updated again — there is no back-elimination — so the paper's
//! reduced form is not kept, only a form with the same row space.
//!
//! The reversal is what PLC's structure asks for. A level-`k` block has
//! support `[0, b_k)`, and Lemma 2 says the first `b_k` unknowns depend
//! only on rows whose support lies inside `[0, b_k)`. A row pivoting on
//! its last nonzero is zero right of its pivot, so eliminating column
//! `c` with the row that owns it touches only `[0, c]`: no row ever gains
//! a nonzero at or past the support it arrived with, and a level-1 row is
//! never widened by an early level-5 pivot, which a first-nonzero pivot
//! rule would do.
//!
//! # The decoded prefix
//!
//! What the decoded levels need is exactly what the echelon form shows.
//! A vector of the row space has its last nonzero on a pivot column, so
//! no free column is ever determined; and if columns `0 … j-1` all hold
//! pivots, their rows form a triangular system in `x_0 … x_{j-1}`. The
//! [`decoded_prefix`](ProgressiveRref::decoded_prefix) is therefore the
//! run of pivot columns from 0, read off in O(1) per column it advances.
//! When it advances over column `c`, the row owning `c` has its payload
//! back-substituted once over the prefix — it becomes `(e_c, x_c)`, so
//! [`recovered`](ProgressiveRref::recovered) returns it directly and a
//! later elimination by it is a single coefficient update. Its
//! coefficients are then released: only the payload is kept.
//!
//! The prefix is also the decoder's progress record. Tracing reads it
//! off after each insert — the `linalg.rref.pivot` instant carries it,
//! and the decoders in `prlc-core` report each block the prefix passes
//! as solved — so a traced insert does the work of an untraced one.
//!
//! # Exact answers beyond the prefix, on request
//!
//! An unknown `x_c` is *decoded* exactly when `e_c` lies in the row
//! space: for a pivot column, when the owning row, reduced over the
//! pivot columns left of `c`, has no free nonzero. That is a property of
//! the reduced form, so [`decoded_count`](ProgressiveRref::decoded_count),
//! [`is_decoded`](ProgressiveRref::is_decoded) and
//! [`recovered`](ProgressiveRref::recovered) past the prefix consult a
//! reverse-RREF view of the coefficients. The view is built from the
//! stored rows with the same elimination step, only when one of these
//! queries asks, and then incrementally: each request folds in just the
//! rows stored since the last one. A released row folds in as the `e_c`
//! it stands for. The view carries no payloads; a decoded column past
//! the prefix has its payload solved from the stored rows on its first
//! `recovered` request.
//!
//! # Performance
//!
//! The decoding-curve experiments of Sec. 5 run this machine with
//! `width = 1000` for thousands of insertions per run, so the hot paths
//! are engineered:
//!
//! * rows are stored as [`CoeffRow`]s: a dense row is zero-padded to
//!   whole 64-symbol blocks and stored with support exactly `pivot + 1`,
//!   its buffer cut to the blocks covering it, so clearing column `c`
//!   with the row owning it is one whole-block kernel call over the
//!   blocks covering `[0, c]`, while sparse rows store only their
//!   `(index, value)` pairs so elimination costs `O(nnz)` per colliding
//!   pivot;
//! * the walk stops at the pivot and stored rows are immutable, so an
//!   insert costs at most one row operation per pivot column between its
//!   arrival support and its pivot, with no walk below the pivot and no
//!   back-elimination;
//! * a redundant row leaves the walk as soon as its next nonzero lies in
//!   the decoded prefix, where every column's pivot acts as `e_c`,
//!   instead of being walked through the prefix one column at a time;
//! * the walk's scans read only below a row's recorded support, and the
//!   arriving row's support is found block by block (see [`CoeffRow`]'s
//!   notes on scans);
//! * payloads follow the coefficient pass: it records its `(factor, row)`
//!   terms in a buffer the decoder reuses, and only an innovative row
//!   replays them on its payload, so a redundant row costs no payload
//!   work; a zero-sized payload (`()`) records and replays nothing;
//! * a payload takes every term of one walk, back-substitution or solve
//!   in one [`payload_axpy_sum`](RowPayload::payload_axpy_sum) call,
//!   which for `Vec<F>` is one
//!   [`kernel::axpy_sum`](prlc_gf::kernel::axpy_sum) call: on `gfni`
//!   each register tile of the payload is loaded and stored once per
//!   batch of up to 64 terms, not once per term;
//! * the decoder resolves one [`RowKernel`] when it is built (backend,
//!   SIMD level and GF(2⁸) tables), so a dense row operation pays no
//!   per-call backend dispatch and runs no masked or table tail;
//!   payloads are mirrored through the dispatched
//!   [`kernel`](prlc_gf::kernel) over their contiguous symbol planes.

use std::cell::{OnceCell, Ref, RefCell};

use prlc_gf::kernel::RowKernel;
use prlc_gf::GfElem;

use crate::coeffrow::{CoeffRep, CoeffRow};
use crate::matrix::Matrix;
use crate::payload::RowPayload;

/// Outcome of inserting one coded block into the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertOutcome {
    /// The block increased the rank; its pivot landed in this column.
    Innovative {
        /// The column of the new pivot: the stored row's last nonzero.
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
    /// Zero right of `pivot` and 1 at it; never changes once stored,
    /// until the decoded prefix covers `pivot` and the row is released:
    /// left all zero, it acts as `e_pivot` everywhere.
    coeffs: CoeffRow<F>,
    /// The payload mirrored through the walk, replaced by the solution
    /// `x_pivot` once the decoded prefix covers `pivot`.
    payload: P,
    pivot: usize,
    /// The solution of a decoded column past the prefix, solved on the
    /// first [`recovered`](ProgressiveRref::recovered) request.
    solution: OnceCell<P>,
}

// Hand-written (not derived) because `CoeffRow`'s logical `Debug`
// requires `F: GfElem`, a bound derive cannot infer.
impl<F: GfElem, P: std::fmt::Debug> std::fmt::Debug for Row<F, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Row")
            .field("coeffs", &self.coeffs)
            .field("payload", &self.payload)
            .field("pivot", &self.pivot)
            .finish_non_exhaustive()
    }
}

/// An incremental elimination machine over `width` unknowns.
///
/// `P` is the payload mirrored through every row operation: use
/// `Vec<F>` to decode real data blocks, or `()` to track decodability
/// only. See [`RowPayload`].
#[derive(Clone)]
pub struct ProgressiveRref<F, P = ()> {
    width: usize,
    /// The kernel every dense row operation runs on, resolved once.
    kernel: RowKernel,
    rows: Vec<Row<F, P>>,
    /// Column -> index into `rows` of the pivot row owning that column.
    pivot_of_col: Vec<Option<usize>>,
    /// The run of pivot columns from 0: the decoded prefix length. The
    /// rows owning these columns are released.
    prefix: usize,
    inserted: usize,
    /// `(factor, row)` terms of the payload update in progress; kept so
    /// its capacity is reused from insert to insert.
    terms: Vec<(F, usize)>,
    /// The reverse-RREF view behind the exact queries.
    reduced: RefCell<Reduced<F>>,
}

// Hand-written for the same `F: GfElem` bound reason as `Row`.
impl<F: GfElem, P: std::fmt::Debug> std::fmt::Debug for ProgressiveRref<F, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressiveRref")
            .field("width", &self.width)
            .field("kernel", &self.kernel)
            .field("rows", &self.rows)
            .field("pivot_of_col", &self.pivot_of_col)
            .field("prefix", &self.prefix)
            .field("inserted", &self.inserted)
            .finish_non_exhaustive()
    }
}

impl<F: GfElem, P: RowPayload<F>> ProgressiveRref<F, P> {
    /// Whether payloads carry data: a zero-sized payload has nothing to
    /// mirror, so its term lists are never recorded or replayed.
    const MIRRORED: bool = std::mem::size_of::<P>() != 0;

    /// Creates a decoder for a system with `width` unknowns.
    pub fn new(width: usize) -> Self {
        ProgressiveRref {
            width,
            kernel: RowKernel::active(),
            rows: Vec::new(),
            pivot_of_col: vec![None; width],
            prefix: 0,
            inserted: 0,
            terms: Vec::new(),
            reduced: RefCell::new(Reduced::default()),
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

    /// Number of unknowns currently determined (not necessarily a prefix).
    pub fn decoded_count(&self) -> usize {
        self.reduced().count
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
        col < self.prefix || (self.pivot_of_col[col].is_some() && self.reduced().solved[col])
    }

    /// Whether all unknowns are determined.
    pub fn is_complete(&self) -> bool {
        self.rows.len() == self.width
    }

    /// The recovered payload for unknown `col`, if it is determined.
    ///
    /// When `P = Vec<F>`, this is the decoded source block itself.
    ///
    /// # Panics
    ///
    /// Panics if `col >= width`.
    pub fn recovered(&self, col: usize) -> Option<&P>
    where
        P: Clone,
    {
        if !self.is_decoded(col) {
            return None;
        }
        let r = self.pivot_of_col[col].expect("a decoded column has a pivot row");
        let row = &self.rows[r];
        if col < self.prefix {
            return Some(&row.payload);
        }
        Some(row.solution.get_or_init(|| self.solve(r)))
    }

    /// Inserts one coded block: `coeffs` are its coding coefficients over
    /// the `width` unknowns, `payload` the data mirrored through the
    /// elimination.
    ///
    /// Walks the row down to its pivot, after which the held rows are
    /// again in reverse echelon form.
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
    /// [`CoeffRow::axpy`] with a row that is zero right of the column
    /// `c` it clears, so a sparse row with `d` nonzeros costs `O(d)` per
    /// colliding pivot instead of `O(width)`, and a dense row works only
    /// on the blocks covering `[0, c]`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != width`.
    pub fn insert_row(&mut self, mut coeffs: CoeffRow<F>, payload: P) -> InsertOutcome {
        assert_eq!(coeffs.len(), self.width, "coefficient width mismatch");
        self.inserted += 1;

        // Tighten a dense row's support, so the walk starts at its last
        // nonzero.
        coeffs.normalize_support();

        // Fill-in accounting: nonzeros the reduction *adds* to this row
        // before it is stored. Logical, so identical across
        // representations; only computed when observability is on.
        let original_nnz = if prlc_obs::enabled() { coeffs.nnz() } else { 0 };

        // The walk, top down: clear every coefficient in a pivot column
        // with the row owning it. That row is zero right of its pivot `c`,
        // so the update touches only `[0, c]` and never refills a column
        // already passed. The first nonzero in a free column is the
        // pivot, and the walk ends there. Every column below the decoded
        // prefix holds a pivot that acts as `e_c`, so once the next
        // nonzero lies there the row can only reduce to zero: the walk
        // stops and the row is redundant. A full-rank decoder's prefix is
        // its whole width, so there every row stops at once.
        self.terms.clear();
        let mut end = coeffs.support();
        let mut pivot = None;
        while let Some(c) = coeffs
            .last_nonzero_before(end)
            .filter(|&c| c >= self.prefix)
        {
            let Some(r) = self.pivot_of_col[c] else {
                pivot = Some(c);
                break;
            };
            let prow = &self.rows[r];
            let factor = coeffs.get(c);
            eliminate(&mut coeffs, c, factor, self.open(prow), &self.kernel);
            debug_assert!(coeffs.get(c).is_zero());
            if Self::MIRRORED {
                self.terms.push((factor, r));
            }
            end = c;
        }

        let Some(pc) = pivot else {
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

        // Normalise the pivot to 1 and store the row at its tight width:
        // it is zero right of `pc`, and nothing widens it again.
        coeffs.shrink_support(pc + 1);
        let inv = coeffs.get(pc).gf_inv().expect("pivot entry is nonzero");
        coeffs.scale(inv, &self.kernel);
        let new_idx = self.rows.len();
        self.rows.push(Row {
            coeffs,
            payload,
            pivot: pc,
            solution: OnceCell::new(),
        });
        self.pivot_of_col[pc] = Some(new_idx);

        if prlc_obs::enabled() {
            prlc_obs::counter!("linalg.rref.rows").incr();
            prlc_obs::counter!("linalg.rref.pivots").incr();
            // Rank-vs-rows-consumed trajectory: each innovation records
            // how many rows had been consumed to reach the new rank.
            prlc_obs::histogram!("linalg.rref.rows_per_pivot").observe(self.inserted as u64);
            // Fill-in of the stored row: nonzeros gained over the whole
            // row between arrival and storage, read before the prefix
            // below can release it. Defined over logical nonzero counts,
            // so the observed values are representation-independent.
            let stored_nnz = self.rows[new_idx].coeffs.nnz();
            prlc_obs::histogram!("linalg.rref.fill_in")
                .observe(stored_nnz.saturating_sub(original_nnz) as u64);
        }

        // The payload follows the walk, now that the row is innovative.
        if Self::MIRRORED {
            replay(&mut self.rows, new_idx, &self.terms);
            self.rows[new_idx].payload.payload_scale(inv);
        }

        // Advance the decoded prefix over the run of pivot columns,
        // back-substituting each newly covered row's payload over the
        // columns before it, which are all solved, then releasing its
        // coefficients.
        while let Some(r) = self.pivot_of_col.get(self.prefix).copied().flatten() {
            if Self::MIRRORED {
                self.terms.clear();
                self.terms.extend(
                    self.rows[r]
                        .coeffs
                        .iter_nonzeros()
                        .take_while(|&(i, _)| i < self.prefix)
                        .map(|(i, v)| (v, self.pivot_of_col[i].expect("prefix column"))),
                );
                replay(&mut self.rows, r, &self.terms);
                self.rows[r].solution.take();
            }
            self.rows[r].coeffs = CoeffRow::zero(self.width, CoeffRep::Sparse);
            self.prefix += 1;
        }

        if prlc_obs::trace::enabled() {
            prlc_obs::trace_instant!(
                "linalg.rref.pivot",
                self.inserted as u64,
                pivot: pc as u64,
                rank: self.rows.len() as u64,
                prefix: self.prefix as u64,
            );
        }

        InsertOutcome::Innovative { pivot: pc }
    }

    /// Snapshot of the held coefficient rows as a matrix (rows in pivot
    /// order, i.e. sorted by pivot column), in reverse echelon form. A
    /// row the decoded prefix has released shows as `e_pivot`. Intended
    /// for inspection and tests; allocates.
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
                .map(|&i| {
                    let row = &self.rows[i];
                    let mut v = row.coeffs.to_dense_vec();
                    if row.pivot < self.prefix {
                        v[row.pivot] = F::ONE;
                    }
                    v
                })
                .collect(),
        ))
    }

    /// A stored row's coefficients as an eliminator, or `None` once the
    /// decoded prefix covers it and it acts as `e_pivot`.
    fn open<'a>(&self, row: &'a Row<F, P>) -> Option<&'a CoeffRow<F>> {
        (row.pivot >= self.prefix).then_some(&row.coeffs)
    }

    /// The reverse-RREF view, with every stored row folded in.
    fn reduced(&self) -> Ref<'_, Reduced<F>> {
        self.reduced
            .borrow_mut()
            .fold(&self.rows, &self.pivot_of_col, &self.kernel);
        self.reduced.borrow()
    }

    /// The solution `x_c` of the decoded column `c` that stored row `r`
    /// owns: the row walked down over the pivot columns left of `c`, its
    /// payload updated once with the walk's terms. Since `x_c` is
    /// determined, the walk meets no free column and ends at `e_c`.
    fn solve(&self, r: usize) -> P
    where
        P: Clone,
    {
        let row = &self.rows[r];
        let mut coeffs = row.coeffs.clone();
        let mut terms = Vec::new();
        let mut end = row.pivot;
        while let Some(c) = coeffs.last_nonzero_before(end) {
            let s = self.pivot_of_col[c].expect("a decoded column reduces over pivot columns");
            let factor = coeffs.get(c);
            eliminate(
                &mut coeffs,
                c,
                factor,
                self.open(&self.rows[s]),
                &self.kernel,
            );
            if Self::MIRRORED {
                terms.push((factor, s));
            }
            end = c;
        }
        let mut payload = row.payload.clone();
        payload.payload_axpy_sum(
            terms
                .iter()
                .map(|&(factor, s)| (factor, &self.rows[s].payload)),
        );
        payload
    }
}

/// `rows[r].payload += Σ factor · rows[s].payload` over the `(factor, s)`
/// terms, none of which names `r` itself, in one payload update.
fn replay<F: GfElem, P: RowPayload<F>>(rows: &mut [Row<F, P>], r: usize, terms: &[(F, usize)]) {
    let (lo, hi) = rows.split_at_mut(r);
    let (dst, hi) = hi.split_first_mut().expect("row r is stored");
    dst.payload
        .payload_axpy_sum(terms.iter().map(|&(factor, s)| {
            let src = if s < r { &lo[s] } else { &hi[s - r - 1] };
            (factor, &src.payload)
        }));
}

/// Clears column `c` of `row`, which holds `factor` there, with the row
/// that pivots on `c`: `row += factor · prow`, which touches only
/// `[0, c]` since `prow` is zero right of its pivot. A solved pivot row
/// (`None`) is `e_c`, so then only that one coefficient changes and no
/// kernel call is needed.
fn eliminate<F: GfElem>(
    row: &mut CoeffRow<F>,
    c: usize,
    factor: F,
    prow: Option<&CoeffRow<F>>,
    kernel: &RowKernel,
) {
    match prow {
        Some(prow) => row.axpy(factor, prow, kernel),
        None => row.add_assign_at(c, factor),
    }
}

/// The reverse-RREF view of the stored rows: each row pivots on its last
/// nonzero, and every pivot column is zero in every other row. Rows are
/// folded in the order they were stored, so after row `k` the view is
/// the reduced form of the first `k + 1` rows.
#[derive(Clone, Default)]
struct Reduced<F> {
    /// Parallel to the stored rows folded so far; `None` for a solved
    /// row, whose only nonzero is its pivot.
    rows: Vec<Option<OpenRow<F>>>,
    /// Columns whose unknown is determined; sized on the first fold.
    solved: Vec<bool>,
    count: usize,
}

/// A reduced row that is not solved yet.
#[derive(Clone)]
struct OpenRow<F> {
    coeffs: CoeffRow<F>,
    /// The last nonzero column left of the pivot: always a free column,
    /// and the row is zero strictly between it and the pivot.
    witness: usize,
}

impl<F: GfElem> Reduced<F> {
    /// Folds in every stored row not yet in the view.
    fn fold<P>(
        &mut self,
        stored: &[Row<F, P>],
        pivot_of_col: &[Option<usize>],
        kernel: &RowKernel,
    ) {
        if self.solved.len() != pivot_of_col.len() {
            self.solved = vec![false; pivot_of_col.len()];
        }
        while self.rows.len() < stored.len() {
            self.fold_next(stored, pivot_of_col, kernel);
        }
    }

    /// Folds in the stored row `k = self.rows.len()`.
    fn fold_next<P>(
        &mut self,
        stored: &[Row<F, P>],
        pivot_of_col: &[Option<usize>],
        kernel: &RowKernel,
    ) {
        let k = self.rows.len();
        let pc = stored[k].pivot;
        let mut coeffs = stored[k].coeffs.clone();

        // Reduce below the pivot: clear every pivot column an earlier row
        // owns with that row's reduced form, which is zero in every other
        // pivot column, so nothing passed is refilled. The first free
        // nonzero met is the witness; later updates stay left of it.
        let mut end = pc;
        let mut witness = None;
        while let Some(c) = coeffs.last_nonzero_before(end) {
            match pivot_of_col[c] {
                Some(r) if r < k => {
                    let factor = coeffs.get(c);
                    let prow = self.rows[r].as_ref().map(|open| &open.coeffs);
                    eliminate(&mut coeffs, c, factor, prow, kernel);
                }
                _ => witness = witness.or(Some(c)),
            }
            end = c;
        }

        // Back-eliminate column `pc` from every folded row holding it. A
        // row is zero between its witness and its pivot, and right of its
        // pivot, so only a row whose witness is at least `pc` can hold it.
        // The update leaves columns right of `pc` alone, so only a row
        // whose witness *is* `pc` can change its witness.
        let new_row = witness.map(|_| &coeffs);
        for (r, slot) in self.rows.iter_mut().enumerate() {
            let Some(open) = slot.as_mut().filter(|open| open.witness >= pc) else {
                continue;
            };
            let factor = open.coeffs.get(pc);
            if factor.is_zero() {
                continue;
            }
            eliminate(&mut open.coeffs, pc, factor, new_row, kernel);
            if open.witness == pc {
                match open.coeffs.last_nonzero_before(pc) {
                    Some(w) => open.witness = w,
                    None => {
                        *slot = None;
                        self.solved[stored[r].pivot] = true;
                        self.count += 1;
                    }
                }
            }
        }
        match witness {
            Some(witness) => self.rows.push(Some(OpenRow { coeffs, witness })),
            None => {
                self.rows.push(None);
                self.solved[pc] = true;
                self.count += 1;
            }
        }
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
        // The held rows are in reverse echelon form.
        assert!(d.coefficient_matrix().unwrap().is_reverse_echelon());
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
                    assert!(cm.is_reverse_echelon());
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

    fn decoded(d: &ProgressiveRref<Gf256>) -> Vec<usize> {
        (0..d.width()).filter(|&c| d.is_decoded(c)).collect()
    }

    #[test]
    fn decoded_columns_iterates_solved() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(4);
        d.insert(rowv(&[0, 0, 3, 0]), ());
        d.insert(rowv(&[7, 0, 0, 0]), ());
        assert_eq!(decoded(&d), vec![0, 2]);
        assert_eq!(d.decoded_prefix(), 1);
        assert_eq!(d.decoded_count(), 2);
    }

    #[test]
    fn newly_solved_reports_transitions() {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(3);
        // A 2-variable row solves nothing yet.
        assert!(d.insert(rowv(&[1, 2, 0]), ()).is_innovative());
        assert!(decoded(&d).is_empty());
        // The second row pins x1 directly, and x0 with it.
        assert!(d.insert(rowv(&[0, 5, 0]), ()).is_innovative());
        assert_eq!(decoded(&d), [0, 1]);
        assert_eq!(d.decoded_prefix(), 2);
        // A redundant row solves nothing.
        assert_eq!(d.insert(rowv(&[3, 7, 0]), ()), InsertOutcome::Redundant);
        assert_eq!(decoded(&d), [0, 1]);
        assert_eq!(d.decoded_count(), 2);
    }

    /// Inserts rows pivoting on 0, 1, 4 and 3 (prefix 2), then a
    /// redundant row whose walk clears columns 4 and 3 with the open rows
    /// and so reaches column 1, inside the decoded prefix. It must come
    /// back redundant and leave rank, prefix, pivots and recovered
    /// payloads as they were.
    fn redundant_row_reaching_the_prefix_changes_nothing<P>(payload: impl Fn(&[Gf256]) -> P)
    where
        P: RowPayload<Gf256> + Clone + PartialEq + std::fmt::Debug,
    {
        let stored = [
            [5, 0, 0, 0, 0, 0],
            [1, 3, 0, 0, 0, 0],
            [2, 0, 7, 0, 4, 0],
            [1, 0, 5, 6, 0, 0],
        ];
        let mut d: ProgressiveRref<Gf256, P> = ProgressiveRref::new(6);
        for vals in &stored {
            let coeffs = rowv(vals);
            let p = payload(&coeffs);
            assert!(d.insert(coeffs, p).is_innovative());
        }
        assert_eq!(d.decoded_prefix(), 2);
        let state = |d: &ProgressiveRref<Gf256, P>| {
            let recovered: Vec<Option<P>> = (0..6).map(|c| d.recovered(c).cloned()).collect();
            (
                d.rank(),
                d.decoded_prefix(),
                d.pivot_of_col.clone(),
                recovered,
            )
        };
        let before = state(&d);
        assert!(before.3[..2].iter().all(Option::is_some));

        // 3 · row 2 + 2 · row 3 + e_0 + 9 · e_1.
        let mut coeffs = rowv(&[1, 9, 0, 0, 0, 0]);
        Gf256::axpy(&mut coeffs, g(3), &rowv(&stored[2]));
        Gf256::axpy(&mut coeffs, g(2), &rowv(&stored[3]));
        let p = payload(&coeffs);
        assert_eq!(d.insert(coeffs, p), InsertOutcome::Redundant);
        assert_eq!(state(&d), before);
        assert_eq!(d.inserted(), 5);
    }

    #[test]
    fn redundant_row_exits_at_the_decoded_prefix() {
        redundant_row_reaching_the_prefix_changes_nothing(|_| ());
        let sources: Vec<Vec<Gf256>> = (0..6).map(|i| vec![g(i + 1), g(40 + i)]).collect();
        redundant_row_reaching_the_prefix_changes_nothing(|coeffs| {
            let mut payload = vec![Gf256::ZERO; 2];
            for (&c, s) in coeffs.iter().zip(&sources) {
                Gf256::axpy(&mut payload, c, s);
            }
            payload
        });
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
                assert_eq!(dd.decoded_prefix(), ds.decoded_prefix());
                assert_eq!(dd.decoded_count(), ds.decoded_count());
            }
            assert_eq!(dd.rank(), ds.rank());
            assert_eq!(dd.coefficient_matrix(), ds.coefficient_matrix());
            assert!(dd
                .coefficient_matrix()
                .is_none_or(|m| m.is_reverse_echelon()));
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
        assert!(d.coefficient_matrix().unwrap().is_reverse_echelon());
    }
}
