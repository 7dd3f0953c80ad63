//! Coefficient rows with a dense and a sparse physical representation.
//!
//! The paper's Sec. 4 sparsity argument (after Dimakis et al.'s
//! decentralized erasure codes) says each coded block needs only
//! `O(ln N)` nonzero coefficients — so at `N = 10^6` a dense `Vec<F>`
//! of length `N` per block wastes five orders of magnitude of memory
//! and bandwidth over the information actually present. [`CoeffRow`]
//! stores a row either densely (a `Vec<F>` plus a tracked support, the
//! representation every experiment used before sparse rows existed) or
//! sparsely (sorted `(index, value)` pairs, the peeling-decoder idiom).
//!
//! # Padded dense layout
//!
//! A dense row keeps its `len` symbols in a buffer zero-padded to a whole
//! number of [`BLOCK`] = 64 symbols; the padding is always zero, and the
//! row's logical length is stored beside it. Every dense row operation is
//! one call into the [`RowKernel`], which runs whole 64-byte vectors with
//! no masked or table tail: an axpy or scale bounded by a support `s`
//! runs the blocks covering `[0, s)`, since the operand is zero from `s`
//! to the block end. The padding is invisible to every observable below
//! and to [`storage_bytes`](CoeffRow::storage_bytes), which counts the
//! logical `len`; `gf.axpy.bytes` and `gf.scale.bytes` count `s`.
//!
//! The decoder keeps each stored row's support *tight* (its last nonzero
//! plus one, see [`shrink_support`](CoeffRow::shrink_support)), so every
//! elimination step's kernel call covers just the blocks up to the
//! column it clears.
//!
//! # Determinism contract
//!
//! The two representations are *logically identical*: every observable
//! — equality, hashing, `Debug` output, nonzero iteration order, pivot
//! choices and solve order in the progressive RREF — is defined over
//! the logical row (length + nonzero entries), never over the physical
//! layout. A pinned-seed run therefore produces byte-identical decode
//! results, session reports, logical metrics and traces whichever
//! representation it stores rows in; only the `gf.<op>.bytes.*` volume
//! counters differ, because bytes *touched* is exactly the quantity
//! sparsity eliminates. `tests/coeffrep_equivalence.rs` pins this.
//!
//! # Densify threshold
//!
//! A sparse row that fills in past `len / 4` nonzeros (fill-in is what
//! Gauss–Jordan elimination does to sparse rows) switches to the dense
//! layout, where the whole-block kernel is far cheaper per entry. The
//! threshold depends only on the logical nonzero count, so the switch
//! point is deterministic and identical across platforms and thread
//! counts.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use prlc_gf::kernel::{RowKernel, BLOCK};
use prlc_gf::GfElem;

/// Which physical layout a [`CoeffRow`] (or a whole run) stores
/// coefficient rows in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoeffRep {
    /// Full-length `Vec<F>` rows — O(N) memory per block.
    Dense,
    /// Sorted `(index, value)` pair rows — O(nnz) memory per block.
    Sparse,
}

/// A sparse row densifies once its nonzero count reaches
/// `len / DENSIFY_DIVISOR`.
const DENSIFY_DIVISOR: usize = 4;

#[derive(Clone)]
enum Repr<F> {
    Dense {
        /// The coefficients, zero-padded to a whole number of [`BLOCK`]s:
        /// `data[len..]` is always zero.
        data: Vec<F>,
        len: usize,
        /// Exclusive upper bound of the nonzero region: `data[support..]`
        /// are all zero (the bound may be loose).
        support: usize,
    },
    Sparse {
        len: usize,
        /// Strictly ascending indices; values are never zero.
        entries: Vec<(u32, F)>,
    },
}

/// One coefficient row over `len` unknowns, stored densely or sparsely.
///
/// Equality, ordering-free hashing and `Debug` are *logical*: two rows
/// with the same length and the same nonzero entries compare equal,
/// hash identically and print identically regardless of representation.
#[derive(Clone)]
pub struct CoeffRow<F> {
    repr: Repr<F>,
}

impl<F: GfElem> CoeffRow<F> {
    /// An all-zero row of `len` unknowns in the given representation.
    pub fn zero(len: usize, rep: CoeffRep) -> Self {
        let repr = match rep {
            CoeffRep::Dense => Repr::Dense {
                data: vec![F::ZERO; padded(len)],
                len,
                support: 0,
            },
            CoeffRep::Sparse => {
                assert!(
                    len <= u32::MAX as usize,
                    "sparse rows index with u32: length {len} out of range"
                );
                Repr::Sparse {
                    len,
                    entries: Vec::new(),
                }
            }
        };
        CoeffRow { repr }
    }

    /// An all-zero row with the same length and representation as `self`.
    pub fn zero_like(&self) -> Self {
        Self::zero(self.len(), self.rep())
    }

    /// Wraps a dense vector, computing its tight trailing support.
    pub fn from_dense(mut data: Vec<F>) -> Self {
        let len = data.len();
        data.resize(padded(len), F::ZERO);
        Self::dense_padded(data, len)
    }

    /// A dense row of `len` unknowns whose coefficients `fill` writes
    /// into a zeroed slice, built in its padded buffer directly.
    pub fn dense_with(len: usize, fill: impl FnOnce(&mut [F])) -> Self {
        let mut data = vec![F::ZERO; padded(len)];
        fill(&mut data[..len]);
        Self::dense_padded(data, len)
    }

    fn dense_padded(data: Vec<F>, len: usize) -> Self {
        debug_assert_eq!(data.len(), padded(len));
        let support = trailing_support(&data[..len]);
        CoeffRow {
            repr: Repr::Dense { data, len, support },
        }
    }

    /// Builds a sparse row from entries sorted by strictly ascending
    /// index, with no zero values and all indices `< len`.
    pub fn from_sorted_entries(len: usize, entries: Vec<(u32, F)>) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "sparse rows index with u32: length {len} out of range"
        );
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be sorted by strictly ascending index"
        );
        debug_assert!(entries
            .iter()
            .all(|&(i, v)| (i as usize) < len && !v.is_zero()));
        CoeffRow {
            repr: Repr::Sparse { len, entries },
        }
    }

    /// The number of unknowns (logical row length).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Dense { len, .. } | Repr::Sparse { len, .. } => *len,
        }
    }

    /// Whether the row has zero logical length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current physical representation.
    pub fn rep(&self) -> CoeffRep {
        match &self.repr {
            Repr::Dense { .. } => CoeffRep::Dense,
            Repr::Sparse { .. } => CoeffRep::Sparse,
        }
    }

    /// Heap bytes the coefficient storage occupies in its current
    /// representation: `len · size_of::<F>()` dense, `nnz ·
    /// size_of::<(u32, F)>()` sparse. The quantity the sparse
    /// representation exists to shrink from `O(N)` to `O(ln N)`.
    pub fn storage_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense { len, .. } => len * std::mem::size_of::<F>(),
            Repr::Sparse { entries, .. } => entries.len() * std::mem::size_of::<(u32, F)>(),
        }
    }

    /// Exclusive upper bound of the nonzero region. Tight for sparse
    /// rows; possibly loose (but always sound) for dense rows.
    pub fn support(&self) -> usize {
        match &self.repr {
            Repr::Dense { support, .. } => *support,
            Repr::Sparse { entries, .. } => entries.last().map_or(0, |&(i, _)| i as usize + 1),
        }
    }

    /// Number of nonzero coefficients. O(1) for sparse rows, O(support)
    /// for dense rows.
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Dense { data, support, .. } => count_nonzeros(&data[..*support]),
            Repr::Sparse { entries, .. } => entries.len(),
        }
    }

    /// Number of nonzero coefficients at index `start` or later.
    pub fn count_nonzeros_from(&self, start: usize) -> usize {
        match &self.repr {
            Repr::Dense { data, support, .. } => {
                count_nonzeros(&data[start.min(*support)..*support])
            }
            Repr::Sparse { entries, .. } => {
                entries.len() - entries.partition_point(|&(i, _)| (i as usize) < start)
            }
        }
    }

    /// Whether every coefficient is zero.
    pub fn is_zero_row(&self) -> bool {
        match &self.repr {
            Repr::Dense { data, support, .. } => data[..*support].iter().all(|c| c.is_zero()),
            Repr::Sparse { entries, .. } => entries.is_empty(),
        }
    }

    /// The coefficient at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> F {
        assert!(i < self.len(), "index {i} out of range");
        match &self.repr {
            Repr::Dense { data, .. } => data[i],
            Repr::Sparse { entries, .. } => entries
                .binary_search_by_key(&(i as u32), |&(idx, _)| idx)
                .map_or(F::ZERO, |p| entries[p].1),
        }
    }

    /// The largest index `< end` holding a nonzero coefficient.
    pub fn last_nonzero_before(&self, end: usize) -> Option<usize> {
        match &self.repr {
            Repr::Dense { data, support, .. } => {
                data[..end.min(*support)].iter().rposition(|c| !c.is_zero())
            }
            Repr::Sparse { entries, .. } => {
                let p = entries.partition_point(|&(i, _)| (i as usize) < end);
                p.checked_sub(1).map(|q| entries[q].0 as usize)
            }
        }
    }

    /// Iterates the nonzero coefficients as `(index, value)` in
    /// ascending index order — identical for both representations.
    pub fn iter_nonzeros(&self) -> impl Iterator<Item = (usize, F)> + '_ {
        let (dense, sparse): (&[F], &[(u32, F)]) = match &self.repr {
            Repr::Dense { data, support, .. } => (&data[..*support], &[]),
            Repr::Sparse { entries, .. } => (&[], entries.as_slice()),
        };
        dense
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, &c)| (i, c))
            .chain(sparse.iter().map(|&(i, v)| (i as usize, v)))
    }

    /// `self[i] += delta` — the incremental accumulation step of the
    /// pre-distribution protocol.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn add_assign_at(&mut self, i: usize, delta: F) {
        assert!(i < self.len(), "index {i} out of range");
        if delta.is_zero() {
            return;
        }
        match &mut self.repr {
            Repr::Dense { data, support, .. } => {
                data[i] = data[i].gf_add(delta);
                if i >= *support && !data[i].is_zero() {
                    *support = i + 1;
                }
            }
            Repr::Sparse { entries, .. } => {
                match entries.binary_search_by_key(&(i as u32), |&(idx, _)| idx) {
                    Ok(p) => {
                        let v = entries[p].1.gf_add(delta);
                        if v.is_zero() {
                            entries.remove(p);
                        } else {
                            entries[p].1 = v;
                        }
                    }
                    Err(p) => entries.insert(p, (i as u32, delta)),
                }
                self.maybe_densify();
            }
        }
    }

    /// `self += factor · other` — the row operation of Gauss–Jordan
    /// elimination.
    ///
    /// Dense-into-dense lowers to exactly one whole-block
    /// [`RowKernel::axpy`] over the blocks covering `other`'s support `s`,
    /// counting `s` symbols: `other` is zero from `s` to the block end,
    /// so nothing past `s` changes. A sparse `self` densifies first.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn axpy(&mut self, factor: F, other: &CoeffRow<F>, kernel: &RowKernel) {
        assert_eq!(self.len(), other.len(), "coefficient width mismatch");
        if factor.is_zero() {
            return;
        }
        self.axpy_counting(factor, other, kernel, other.support());
    }

    /// `self[i] += factor · other[i]` over the *whole* row — the coded
    /// block combine primitive behind in-network repair.
    ///
    /// Dense-into-dense runs every block and counts the whole logical
    /// row, exactly the pre-`CoeffRow` repair kernel call, and leaves the
    /// support bound at `len`; a sparse `self` densifies and counts up to
    /// the wider of the two supports — a bound a later combine into a
    /// sparse row therefore counts, so tightening it would move
    /// `gf.axpy.bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn axpy_full(&mut self, factor: F, other: &CoeffRow<F>) {
        assert_eq!(self.len(), other.len(), "coefficient width mismatch");
        let kernel = RowKernel::active();
        match (&mut self.repr, &other.repr) {
            (Repr::Dense { data, len, support }, Repr::Dense { data: odata, .. }) => {
                kernel.axpy(data, factor, odata, *len);
                *support = *len;
            }
            _ if factor.is_zero() => {}
            _ => {
                let counted = self.support().max(other.support());
                self.axpy_counting(factor, other, &kernel, counted);
            }
        }
    }

    /// `self += factor · other`, counting `counted` symbols (at least
    /// `other`'s support) when both rows end up dense.
    fn axpy_counting(
        &mut self,
        factor: F,
        other: &CoeffRow<F>,
        kernel: &RowKernel,
        counted: usize,
    ) {
        match (&mut self.repr, &other.repr) {
            (
                Repr::Dense { data, support, .. },
                Repr::Dense {
                    data: odata,
                    support: osupport,
                    ..
                },
            ) => {
                let end = counted.next_multiple_of(BLOCK);
                kernel.axpy(&mut data[..end], factor, &odata[..end], counted);
                *support = (*support).max(*osupport);
            }
            (Repr::Dense { data, support, .. }, Repr::Sparse { entries, .. }) => {
                for &(i, v) in entries {
                    let i = i as usize;
                    data[i] = data[i].gf_add(factor.gf_mul(v));
                }
                *support = (*support).max(other.support());
            }
            (Repr::Sparse { .. }, Repr::Dense { .. }) => {
                // Mixed-representation runs are the escape hatch, not the
                // hot path: fall back to the dense kernel.
                self.densify();
                self.axpy_counting(factor, other, kernel, counted);
            }
            (
                Repr::Sparse { entries, .. },
                Repr::Sparse {
                    entries: oentries, ..
                },
            ) => {
                *entries = merge_axpy(entries, factor, oentries);
                self.maybe_densify();
            }
        }
    }

    /// `self *= c` — pivot normalisation.
    ///
    /// Dense lowers to exactly one whole-block [`RowKernel::scale`] over
    /// the blocks covering the support `s`, counting `s` symbols.
    ///
    /// # Panics
    ///
    /// Panics if `c` is zero (scaling a row by zero is never a valid
    /// elimination step).
    pub fn scale(&mut self, c: F, kernel: &RowKernel) {
        assert!(!c.is_zero(), "scale by zero");
        match &mut self.repr {
            Repr::Dense { data, support, .. } => {
                let end = support.next_multiple_of(BLOCK);
                kernel.scale(&mut data[..end], c, *support);
            }
            Repr::Sparse { entries, .. } => {
                for e in entries {
                    // c is nonzero, so nonzero values stay nonzero.
                    e.1 = e.1.gf_mul(c);
                }
            }
        }
    }

    /// The sub-row over `range`, preserving the representation — the
    /// per-level projection SLC decoding performs.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the row length.
    pub fn project(&self, range: Range<usize>) -> CoeffRow<F> {
        assert!(range.end <= self.len(), "projection range out of bounds");
        match &self.repr {
            Repr::Dense { data, .. } => {
                CoeffRow::dense_with(range.len(), |d| d.copy_from_slice(&data[range]))
            }
            Repr::Sparse { entries, .. } => {
                let lo = entries.partition_point(|&(i, _)| (i as usize) < range.start);
                let hi = entries.partition_point(|&(i, _)| (i as usize) < range.end);
                let shifted = entries[lo..hi]
                    .iter()
                    .map(|&(i, v)| (i - range.start as u32, v))
                    .collect();
                CoeffRow::from_sorted_entries(range.len(), shifted)
            }
        }
    }

    /// The row as a full-length dense vector (allocates for sparse
    /// rows) — the on-disk shard format stays dense.
    pub fn to_dense_vec(&self) -> Vec<F> {
        match &self.repr {
            Repr::Dense { data, len, .. } => data[..*len].to_vec(),
            Repr::Sparse { len, entries } => {
                let mut v = vec![F::ZERO; *len];
                for &(i, val) in entries {
                    v[i as usize] = val;
                }
                v
            }
        }
    }

    /// Switches a sparse row to the dense layout in place (no-op for
    /// dense rows).
    pub fn densify(&mut self) {
        if let Repr::Sparse { len, entries } = &self.repr {
            let support = entries.last().map_or(0, |&(i, _)| i as usize + 1);
            let mut data = vec![F::ZERO; padded(*len)];
            for &(i, val) in entries {
                data[i as usize] = val;
            }
            self.repr = Repr::Dense {
                data,
                len: *len,
                support,
            };
        }
    }

    /// Recomputes the tight trailing support of a dense row (no-op for
    /// sparse rows, whose support is always tight).
    pub fn normalize_support(&mut self) {
        if let Repr::Dense { data, len, support } = &mut self.repr {
            *support = trailing_support(&data[..*len]);
        }
    }

    /// Declares every coefficient at or past `end` zero, tightening a
    /// dense row's support to at most `end` in O(1); the decoder calls it
    /// with `pivot + 1` once the reduction has cleared everything right
    /// of the pivot. Sparse rows are always tight.
    pub fn shrink_support(&mut self, end: usize) {
        debug_assert!(
            self.last_nonzero_before(self.len())
                .is_none_or(|last| last < end),
            "nonzero coefficient at or past {end}"
        );
        if let Repr::Dense { support, .. } = &mut self.repr {
            *support = (*support).min(end);
        }
    }

    /// Whether a dense row's padding past `len` is all zero (always true
    /// for sparse rows).
    #[cfg(test)]
    pub(crate) fn padding_is_zero(&self) -> bool {
        match &self.repr {
            Repr::Dense { data, len, .. } => {
                data.len().is_multiple_of(BLOCK) && data[*len..].iter().all(|v| v.is_zero())
            }
            Repr::Sparse { .. } => true,
        }
    }

    /// Densifies once fill-in crosses the deterministic threshold
    /// (`nnz >= len / 4`); depends only on the logical nonzero count.
    fn maybe_densify(&mut self) {
        if let Repr::Sparse { len, entries } = &self.repr {
            if entries.len() * DENSIFY_DIVISOR >= *len {
                self.densify();
            }
        }
    }
}

/// Merge-based sparse axpy: `self + factor · other` over two sorted
/// entry lists.
fn merge_axpy<F: GfElem>(entries: &[(u32, F)], factor: F, other: &[(u32, F)]) -> Vec<(u32, F)> {
    let (mut a, mut b) = (entries, other);
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut push = |idx: u32, v: F| {
        if !v.is_zero() {
            out.push((idx, v));
        }
    };
    loop {
        match (a.first(), b.first()) {
            (Some(&(i, x)), Some(&(j, y))) if i == j => {
                push(i, x.gf_add(factor.gf_mul(y)));
                a = &a[1..];
                b = &b[1..];
            }
            (Some(&(i, x)), Some(&(j, _))) if i < j => {
                push(i, x);
                a = &a[1..];
            }
            (_, Some(&(j, y))) => {
                push(j, factor.gf_mul(y));
                b = &b[1..];
            }
            (Some(&(i, x)), None) => {
                push(i, x);
                a = &a[1..];
            }
            (None, None) => break,
        }
    }
    out
}

/// The padded buffer length of a dense row of `len` symbols: a whole
/// number of kernel blocks.
fn padded(len: usize) -> usize {
    len.next_multiple_of(BLOCK)
}

/// Exclusive upper bound of the nonzero region of `v`.
fn trailing_support<F: GfElem>(v: &[F]) -> usize {
    v.iter().rposition(|x| !x.is_zero()).map_or(0, |p| p + 1)
}

fn count_nonzeros<F: GfElem>(v: &[F]) -> usize {
    v.iter().filter(|x| !x.is_zero()).count()
}

impl<F: GfElem> PartialEq for CoeffRow<F> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter_nonzeros().eq(other.iter_nonzeros())
    }
}

impl<F: GfElem> Eq for CoeffRow<F> {}

impl<F: GfElem> Hash for CoeffRow<F> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for (i, v) in self.iter_nonzeros() {
            i.hash(state);
            v.hash(state);
        }
    }
}

impl<F: GfElem> fmt::Debug for CoeffRow<F> {
    /// Prints the *logical* dense form, so debug output (and anything
    /// derived from it, like the equivalence tests' slot dumps) is
    /// independent of the physical representation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.get(i)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;
    use std::collections::hash_map::DefaultHasher;

    fn g(v: usize) -> Gf256 {
        Gf256::from_index(v)
    }

    fn dense(vals: &[usize]) -> CoeffRow<Gf256> {
        CoeffRow::from_dense(vals.iter().map(|&v| g(v)).collect())
    }

    fn sparse(len: usize, vals: &[usize]) -> CoeffRow<Gf256> {
        assert_eq!(len, vals.len());
        let entries = vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i as u32, g(v)))
            .collect();
        CoeffRow::from_sorted_entries(len, entries)
    }

    fn hash_of(row: &CoeffRow<Gf256>) -> u64 {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        h.finish()
    }

    #[test]
    fn zero_rows_in_both_reps() {
        for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
            let r: CoeffRow<Gf256> = CoeffRow::zero(5, rep);
            assert_eq!(r.len(), 5);
            assert_eq!(r.rep(), rep);
            assert_eq!(r.nnz(), 0);
            assert!(r.is_zero_row());
            assert_eq!(r.support(), 0);
            assert_eq!(r.last_nonzero_before(5), None);
        }
    }

    #[test]
    fn logical_equality_across_reps() {
        let d = dense(&[0, 7, 0, 3, 0]);
        let s = sparse(5, &[0, 7, 0, 3, 0]);
        assert_eq!(d, s);
        assert_eq!(hash_of(&d), hash_of(&s));
        assert_eq!(format!("{d:?}"), format!("{s:?}"));
        assert_ne!(d, dense(&[0, 7, 0, 4, 0]));
        assert_ne!(d, sparse(5, &[0, 7, 0, 0, 0]));
    }

    #[test]
    fn get_and_last_nonzero_agree() {
        let vals = [0, 7, 0, 3, 0, 9, 0];
        let d = dense(&vals);
        let s = sparse(7, &vals);
        for i in 0..7 {
            assert_eq!(d.get(i), s.get(i));
            assert_eq!(d.count_nonzeros_from(i), s.count_nonzeros_from(i));
        }
        for (end, want) in [
            (0, None),
            (1, None),
            (2, Some(1)),
            (4, Some(3)),
            (5, Some(3)),
        ] {
            assert_eq!(d.last_nonzero_before(end), want, "end={end}");
            assert_eq!(s.last_nonzero_before(end), want, "end={end}");
        }
        assert_eq!(d.last_nonzero_before(7), Some(5));
        assert_eq!(s.last_nonzero_before(7), Some(5));
        assert_eq!(d.nnz(), 3);
        assert_eq!(s.nnz(), 3);
        assert_eq!(d.support(), 6);
        assert_eq!(s.support(), 6);
    }

    #[test]
    fn iter_nonzeros_is_ascending_and_rep_independent() {
        let vals = [5, 0, 0, 2, 1, 0];
        let d = dense(&vals);
        let s = sparse(6, &vals);
        let dv: Vec<_> = d.iter_nonzeros().collect();
        let sv: Vec<_> = s.iter_nonzeros().collect();
        assert_eq!(dv, sv);
        assert_eq!(dv, vec![(0, g(5)), (3, g(2)), (4, g(1))]);
    }

    #[test]
    fn add_assign_cancels_in_both_reps() {
        for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
            let mut r: CoeffRow<Gf256> = CoeffRow::zero(40, rep);
            r.add_assign_at(3, g(9));
            assert_eq!(r.get(3), g(9));
            assert_eq!(r.nnz(), 1);
            // Characteristic 2: adding the same value cancels.
            r.add_assign_at(3, g(9));
            assert!(r.is_zero_row());
        }
    }

    #[test]
    fn axpy_agrees_across_all_rep_pairs() {
        let a = [1, 0, 2, 0, 3, 0, 0, 0];
        let b = [0, 0, 4, 5, 0, 6, 0, 0];
        let factor = g(7);
        let want: Vec<Gf256> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| g(x).gf_add(factor.gf_mul(g(y))))
            .collect();
        for self_rep in [CoeffRep::Dense, CoeffRep::Sparse] {
            for other_rep in [CoeffRep::Dense, CoeffRep::Sparse] {
                let row = |vals: &[usize], rep| match rep {
                    CoeffRep::Dense => dense(vals),
                    CoeffRep::Sparse => sparse(8, vals),
                };
                let (mut x, y) = (row(&a, self_rep), row(&b, other_rep));
                x.axpy(factor, &y, &RowKernel::active());
                assert_eq!(x.to_dense_vec(), want, "{self_rep:?}+={other_rep:?}");
                assert!(x.support() >= trailing_support(&want));
                let (mut x, y) = (row(&a, self_rep), row(&b, other_rep));
                x.axpy_full(factor, &y);
                assert_eq!(x.to_dense_vec(), want, "full {self_rep:?}+={other_rep:?}");
            }
        }
    }

    #[test]
    fn scale_agrees_across_reps() {
        let vals = [1, 0, 2, 3, 0, 4];
        let c = g(11);
        let mut d = dense(&vals);
        let mut s = sparse(6, &vals);
        d.scale(c, &RowKernel::active());
        s.scale(c, &RowKernel::active());
        assert_eq!(d, s);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(d.get(i), g(v).gf_mul(c), "i={i}");
        }
    }

    #[test]
    fn project_preserves_rep_and_values() {
        let vals = [1, 0, 2, 0, 3, 4, 0, 5];
        let d = dense(&vals).project(2..6);
        let s = sparse(8, &vals).project(2..6);
        assert_eq!(d.rep(), CoeffRep::Dense);
        assert_eq!(s.rep(), CoeffRep::Sparse);
        assert_eq!(d, s);
        assert_eq!(d.to_dense_vec(), vec![g(2), g(0), g(3), g(4)]);
    }

    #[test]
    fn densify_threshold_fires_deterministically() {
        // len 40: densifies at nnz 10 = 40/4.
        let mut r: CoeffRow<Gf256> = CoeffRow::zero(40, CoeffRep::Sparse);
        for i in 0..9 {
            r.add_assign_at(i * 4, g(1));
            assert_eq!(r.rep(), CoeffRep::Sparse, "nnz {}", i + 1);
        }
        r.add_assign_at(39, g(1));
        assert_eq!(r.rep(), CoeffRep::Dense);
        assert_eq!(r.nnz(), 10);
    }

    #[test]
    fn dense_support_tracks_axpy_end() {
        let mut a = dense(&[1, 0, 0, 0, 0, 0]);
        assert_eq!(a.support(), 1);
        let b = dense(&[0, 0, 0, 5, 0, 0]);
        a.axpy(g(2), &b, &RowKernel::active());
        assert_eq!(a.support(), 4);
        // Cancellation leaves the bound loose until it is recomputed.
        a.axpy(g(2), &b, &RowKernel::active());
        assert_eq!(a.support(), 4);
        a.normalize_support();
        assert_eq!(a.support(), 1);
        // Shrinking is O(1) and tightens only.
        let mut c = dense(&[1, 2, 0, 0, 0, 0]);
        c.shrink_support(5);
        assert_eq!(c.support(), 2);
        c.shrink_support(2);
        assert_eq!(c.support(), 2);
    }

    #[test]
    fn padding_is_invisible() {
        for len in [1, 63, 64, 65, 100, 128, 129] {
            let vals: Vec<usize> = (0..len).map(|i| (i * 7 + 1) % 256).collect();
            let d = dense(&vals);
            let s = sparse(len, &vals);
            assert_eq!(d.len(), len);
            assert_eq!(d.storage_bytes(), len);
            assert_eq!(d.to_dense_vec().len(), len);
            assert_eq!(d, s);
            assert_eq!(hash_of(&d), hash_of(&s));
            assert_eq!(format!("{d:?}"), format!("{s:?}"));
            let Repr::Dense { data, .. } = &d.repr else {
                unreachable!()
            };
            assert_eq!(data.len() % BLOCK, 0);
            assert!(data[len..].iter().all(|v| v.is_zero()));
        }
    }

    #[test]
    fn to_dense_round_trips() {
        let vals = [0, 9, 0, 0, 7, 0];
        let s = sparse(6, &vals);
        let d = CoeffRow::from_dense(s.to_dense_vec());
        assert_eq!(s, d);
        assert_eq!(d.rep(), CoeffRep::Dense);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let r: CoeffRow<Gf256> = CoeffRow::zero(3, CoeffRep::Sparse);
        r.get(3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn axpy_width_mismatch_panics() {
        let mut a: CoeffRow<Gf256> = CoeffRow::zero(3, CoeffRep::Dense);
        let b: CoeffRow<Gf256> = CoeffRow::zero(4, CoeffRep::Dense);
        a.axpy(g(1), &b, &RowKernel::active());
    }
}
