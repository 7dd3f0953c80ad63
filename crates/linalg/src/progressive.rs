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
//! [`recovered`](ProgressiveRref::recovered) returns it directly. Its
//! coefficients are then released: only the payload is kept, since the
//! walk never clears a column inside the prefix.
//!
//! The prefix is also the decoder's one answer to what is decoded. A
//! pivot column past it may happen to be determined as well, but PLC
//! decodes in level order (Lemma 2): a level is decoded exactly when the
//! prefix covers it, so [`recovered`](ProgressiveRref::recovered) returns
//! a payload for the columns below the prefix and for no other.
//!
//! Tracing reads the prefix off after each insert — the
//! `linalg.rref.pivot` instant carries it, and the decoders in
//! `prlc-core` report each block it passes as solved — so a traced
//! insert does the work of an untraced one.
//!
//! # Performance
//!
//! The decoding-curve experiments of Sec. 5 run this machine with
//! `width = 1000` for thousands of insertions per run, so the hot paths
//! are engineered:
//!
//! * every row is held in one representation: an arriving [`CoeffRow`]
//!   is densified at its support into the padded layout of whole
//!   64-symbol blocks, and stored with support exactly `pivot + 1`, its
//!   buffer cut to the blocks covering it, so clearing column `c` with
//!   the row owning it is one whole-block kernel call over the blocks
//!   covering `[0, c]`; a row the decoded prefix covers is released to
//!   an empty buffer, which allocates nothing;
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
//! * a payload takes every term of one walk or back-substitution in one
//!   [`payload_axpy_sum`](RowPayload::payload_axpy_sum) call,
//!   which for `Vec<F>` is one
//!   [`kernel::axpy_sum`](prlc_gf::kernel::axpy_sum) call: on `gfni`
//!   each register tile of the payload is loaded and stored once per
//!   batch of up to 64 terms, not once per term;
//! * the decoder resolves one [`RowKernel`] when it is built (backend,
//!   SIMD level and GF(2⁸) tables), so a dense row operation pays no
//!   per-call backend dispatch and runs no masked or table tail;
//!   payloads are mirrored through the dispatched
//!   [`kernel`](prlc_gf::kernel) over their contiguous symbol planes.

use prlc_gf::kernel::RowKernel;
use prlc_gf::GfElem;

use crate::coeffrow::{CoeffRow, DenseRow};
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

/// A stored row: the owner, in `pivot_of_col`, of its column `pivot`.
#[derive(Clone, Debug)]
struct Row<F, P> {
    /// Zero right of `pivot` and 1 at it; never changes once stored,
    /// until the decoded prefix covers `pivot` and the row is released:
    /// left all zero, since the walk never clears a prefix column.
    coeffs: DenseRow<F>,
    /// The payload mirrored through the walk, replaced by the solution
    /// `x_pivot` once the decoded prefix covers `pivot`.
    payload: P,
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
}

// Hand-written to leave out the `terms` scratch buffer.
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

    /// Length of the longest decoded *prefix* of unknowns: the largest
    /// `j` such that `x_0 … x_{j-1}` are all determined.
    ///
    /// Under PLC, mapping this through the level boundaries `b_k` yields
    /// the number of decoded priority levels.
    pub fn decoded_prefix(&self) -> usize {
        self.prefix
    }

    /// Whether all unknowns are determined.
    pub fn is_complete(&self) -> bool {
        self.rows.len() == self.width
    }

    /// The recovered payload for unknown `col`, if it lies in the
    /// decoded prefix; `None` for every column from the prefix on.
    ///
    /// When `P = Vec<F>`, this is the decoded source block itself.
    ///
    /// # Panics
    ///
    /// Panics if `col >= width`.
    pub fn recovered(&self, col: usize) -> Option<&P> {
        assert!(col < self.width, "column {col} out of range");
        (col < self.prefix).then(|| {
            let r = self.pivot_of_col[col].expect("a prefix column has a pivot row");
            &self.rows[r].payload
        })
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
    /// representation.
    ///
    /// A sparse row is densified at its support, into a buffer covering
    /// only the blocks up to its last nonzero, so the walk, the stored
    /// rows and the kernel see one representation: each update clears a
    /// column `c` with a row that is zero right of `c`, one kernel call
    /// over the blocks covering `[0, c]`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != width`.
    pub fn insert_row(&mut self, coeffs: CoeffRow<F>, payload: P) -> InsertOutcome {
        assert_eq!(coeffs.len(), self.width, "coefficient width mismatch");
        self.inserted += 1;

        // Fill-in accounting: nonzeros the reduction *adds* to this row
        // before it is stored. Logical, so identical across
        // representations; only computed when observability is on.
        let original_nnz = if prlc_obs::enabled() { coeffs.nnz() } else { 0 };

        // Densify, and tighten the support so the walk starts at the
        // last nonzero.
        let mut coeffs = coeffs.into_dense();
        coeffs.normalize_support();

        // The walk, top down: clear every coefficient in a pivot column
        // with the row owning it. That row is zero right of its pivot `c`,
        // so the update touches only `[0, c]` and never refills a column
        // already passed. The first nonzero in a free column is the
        // pivot, and the walk ends there. Every column below the decoded
        // prefix holds a pivot that acts as `e_c`, so once the next
        // nonzero lies there the row can only reduce to zero: the walk
        // stops and the row is redundant. A full-rank decoder's prefix is
        // its whole width, so there every row stops at once. The walk
        // thus clears only columns past the prefix, whose rows are all
        // unreleased.
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
            let factor = coeffs.get(c);
            coeffs.axpy(factor, &self.rows[r].coeffs, &self.kernel);
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
        self.rows.push(Row { coeffs, payload });
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
            let stored_nnz = self.rows[new_idx].coeffs.iter_nonzeros().count();
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
            }
            self.rows[r].coeffs = DenseRow::released(self.width);
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
    /// row the decoded prefix has released shows as `e_pivot`.
    ///
    /// Returns a `rank × width` matrix, or `None` when no rows are held.
    #[cfg(test)]
    pub(crate) fn coefficient_matrix(&self) -> Option<crate::Matrix<F>> {
        if self.rows.is_empty() {
            return None;
        }
        Some(crate::Matrix::from_rows(
            self.pivot_of_col
                .iter()
                .enumerate()
                .filter_map(|(pivot, r)| {
                    let mut v = self.rows[(*r)?].coeffs.to_dense_vec();
                    if pivot < self.prefix {
                        v[pivot] = F::ONE;
                    }
                    Some(v)
                })
                .collect(),
        ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
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
        assert_eq!(d.recovered(0), None);
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
        assert!(d.recovered(0).is_some());
        assert!(d.recovered(1).is_none());
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
        assert!(d.recovered(2).is_some());
        assert!(d.recovered(3).is_none());
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
        (0..d.width())
            .filter(|&c| d.recovered(c).is_some())
            .collect()
    }

    #[test]
    fn decoded_columns_iterates_solved() {
        // Column 2 is pinned by its own row, but it lies past the decoded
        // prefix: only the prefix is reported, as the levels need it.
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(4);
        d.insert(rowv(&[0, 0, 3, 0]), ());
        assert!(decoded(&d).is_empty());
        d.insert(rowv(&[7, 0, 0, 0]), ());
        assert_eq!(decoded(&d), vec![0]);
        assert_eq!(d.decoded_prefix(), 1);
        // Column 1 closes the gap, and the prefix runs on over column 2.
        d.insert(rowv(&[1, 4, 0, 0]), ());
        assert_eq!(decoded(&d), vec![0, 1, 2]);
        assert_eq!(d.decoded_prefix(), 3);
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
        assert_eq!(d.decoded_prefix(), 2);
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
