//! Coded blocks: coefficients plus payload.

use prlc_gf::kernel::RowKernel;
use prlc_gf::GfElem;
use prlc_linalg::{CoeffRep, CoeffRow};

/// A coded block: the coding coefficients over all `N` source blocks
/// plus the encoded payload.
///
/// The coefficient row is a [`CoeffRow`] over all `N` source blocks —
/// stored densely or sparsely (sorted `(index, value)` pairs), chosen
/// at construction; entries outside the scheme's support for `level`
/// are zero either way. The payload is the corresponding linear
/// combination of the source payloads and may be empty when an
/// experiment tracks decodability only.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CodedBlock<F: GfElem> {
    /// The priority level this block was generated at (0 = most
    /// important).
    pub level: usize,
    /// Coding coefficients `β_{i,1} … β_{i,N}` (logical length `N`).
    pub coefficients: CoeffRow<F>,
    /// The encoded data `c_i = Σ_j β_{i,j} x_j` (may be empty).
    pub payload: Vec<F>,
}

impl<F: GfElem> CodedBlock<F> {
    /// Number of nonzero coding coefficients (the block's degree).
    pub fn degree(&self) -> usize {
        self.coefficients.nnz()
    }

    /// Indices of the source blocks this block combines.
    pub fn support(&self) -> impl Iterator<Item = usize> + '_ {
        self.coefficients.iter_nonzeros().map(|(i, _)| i)
    }

    /// Folds another source block into this coded block in place:
    /// `c ← c + β·x` — the incremental encoding step each caching node
    /// performs in the pre-distribution protocol (Sec. 4).
    ///
    /// # Panics
    ///
    /// Panics if `source_idx` is out of range, or if the payload lengths
    /// differ (unless this block's payload is empty, in which case it is
    /// initialised to zeros of the right length first).
    pub fn accumulate(&mut self, source_idx: usize, beta: F, data: &[F]) {
        assert!(
            source_idx < self.coefficients.len(),
            "source index {source_idx} out of range"
        );
        self.coefficients.add_assign_at(source_idx, beta);
        if self.payload.is_empty() && !data.is_empty() {
            self.payload = vec![F::ZERO; data.len()];
        }
        F::axpy(&mut self.payload, beta, data);
    }

    /// Folds a whole coded block into this one: `self ← self + β·other`.
    ///
    /// Because coding is linear, a random combination of valid coded
    /// blocks is itself a valid coded block whose support is the union
    /// of the inputs' supports — the primitive behind in-network
    /// *repair* (re-creating lost coded blocks from surviving ones
    /// without touching the original sources).
    ///
    /// # Panics
    ///
    /// Panics if the coefficient widths differ, or if both payloads are
    /// non-empty with different lengths. An empty payload on either side
    /// is treated as "not tracking payloads" and stays consistent.
    pub fn combine(&mut self, other: &CodedBlock<F>, beta: F) {
        assert_eq!(
            self.coefficients.len(),
            other.coefficients.len(),
            "combine: coefficient width mismatch"
        );
        self.coefficients
            .axpy(beta, &other.coefficients, &RowKernel::active());
        if other.payload.is_empty() {
            return;
        }
        if self.payload.is_empty() {
            self.payload = vec![F::ZERO; other.payload.len()];
        }
        F::axpy(&mut self.payload, beta, &other.payload);
    }

    /// An all-zero coded block over `n` source blocks at `level`, stored
    /// densely, ready for incremental [`accumulate`](Self::accumulate)
    /// encoding.
    pub fn empty(level: usize, n: usize) -> Self {
        Self::empty_with(level, n, CoeffRep::Dense)
    }

    /// An all-zero coded block in the given coefficient representation.
    pub fn empty_with(level: usize, n: usize, rep: CoeffRep) -> Self {
        CodedBlock {
            level,
            coefficients: CoeffRow::zero(n, rep),
            payload: Vec::new(),
        }
    }

    /// Whether no source block has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.coefficients.is_zero_row()
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
    fn empty_block_accumulates() {
        for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
            let mut b: CodedBlock<Gf256> = CodedBlock::empty_with(1, 4, rep);
            assert!(b.is_empty());
            assert_eq!(b.degree(), 0);

            b.accumulate(2, g(5), &[g(10), g(20)]);
            assert!(!b.is_empty());
            assert_eq!(b.degree(), 1);
            assert_eq!(b.support().collect::<Vec<_>>(), vec![2]);
            assert_eq!(b.payload, vec![g(5) * g(10), g(5) * g(20)]);

            b.accumulate(0, g(3), &[g(1), g(2)]);
            assert_eq!(b.degree(), 2);
            assert_eq!(b.payload[0], g(5) * g(10) + g(3) * g(1));
        }
    }

    #[test]
    fn accumulate_same_index_adds_coefficients() {
        for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
            let mut b: CodedBlock<Gf256> = CodedBlock::empty_with(0, 2, rep);
            b.accumulate(0, g(5), &[g(1)]);
            b.accumulate(0, g(5), &[g(1)]);
            // In GF(2^8), beta + beta = 0: the contributions cancel.
            assert_eq!(b.coefficients.get(0), Gf256::ZERO);
            assert_eq!(b.payload[0], Gf256::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn accumulate_bad_index_panics() {
        let mut b: CodedBlock<Gf256> = CodedBlock::empty(0, 2);
        b.accumulate(2, g(1), &[]);
    }

    #[test]
    fn combine_is_a_valid_linear_combination() {
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(8)
        };
        let sources: Vec<Vec<Gf256>> = (0..3)
            .map(|_| (0..2).map(|_| Gf256::random(&mut rng)).collect())
            .collect();
        let mk = |coeffs: &[usize], rep: CoeffRep| -> CodedBlock<Gf256> {
            let mut b = CodedBlock::empty_with(0, 3, rep);
            for (i, &c) in coeffs.iter().enumerate() {
                if c != 0 {
                    b.accumulate(i, g(c), &sources[i]);
                }
            }
            b
        };
        for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
            let a = mk(&[1, 2, 0], rep);
            let b = mk(&[0, 3, 4], rep);
            let mut combined = a.clone();
            combined.combine(&b, g(7));
            // Coefficients and payload must agree with re-encoding from
            // the combined coefficient vector.
            let mut want = vec![Gf256::ZERO; 2];
            for (c, s) in combined.coefficients.to_dense_vec().iter().zip(&sources) {
                Gf256::axpy(&mut want, *c, s);
            }
            assert_eq!(combined.payload, want);
            assert_eq!(
                combined.coefficients.get(1),
                a.coefficients.get(1) + g(7) * b.coefficients.get(1)
            );
        }
    }

    #[test]
    fn combine_mixes_representations() {
        let mut dense: CodedBlock<Gf256> = CodedBlock::empty_with(0, 4, CoeffRep::Dense);
        dense.accumulate(1, g(2), &[]);
        let mut sparse: CodedBlock<Gf256> = CodedBlock::empty_with(0, 4, CoeffRep::Sparse);
        sparse.accumulate(3, g(5), &[]);
        let mut a = dense.clone();
        a.combine(&sparse, g(7));
        let mut b = sparse.clone();
        b.combine(&dense, g(7));
        assert_eq!(a.coefficients.get(3), g(7) * g(5));
        assert_eq!(b.coefficients.get(1), g(7) * g(2));
        // Logical equality holds regardless of which side was sparse.
        assert_eq!(a.coefficients.get(1), g(2));
        assert_eq!(b.coefficients.get(3), g(5));
    }

    #[test]
    fn combine_handles_empty_payloads() {
        let mut a: CodedBlock<Gf256> = CodedBlock::empty(0, 2);
        a.accumulate(0, g(5), &[]);
        let mut b: CodedBlock<Gf256> = CodedBlock::empty(0, 2);
        b.accumulate(1, g(3), &[g(9)]);
        // a has no payload yet; combining with b initialises it.
        a.combine(&b, g(2));
        assert_eq!(a.payload, vec![g(2) * g(3) * g(9)]);
        // Combining with a payload-less block leaves payload untouched.
        let c: CodedBlock<Gf256> = CodedBlock::empty(0, 2);
        let before = a.payload.clone();
        a.combine(&c, g(4));
        assert_eq!(a.payload, before);
    }

    #[test]
    fn coefficient_only_blocks_have_empty_payload() {
        let mut b: CodedBlock<Gf256> = CodedBlock::empty(0, 3);
        b.accumulate(1, g(9), &[]);
        assert!(b.payload.is_empty());
        assert_eq!(b.degree(), 1);
    }

    #[test]
    fn dense_and_sparse_blocks_compare_equal() {
        let mut d: CodedBlock<Gf256> = CodedBlock::empty_with(2, 5, CoeffRep::Dense);
        let mut s: CodedBlock<Gf256> = CodedBlock::empty_with(2, 5, CoeffRep::Sparse);
        for b in [&mut d, &mut s] {
            b.accumulate(1, g(9), &[g(4)]);
            b.accumulate(4, g(3), &[g(8)]);
        }
        assert_eq!(d, s);
        assert_eq!(format!("{d:?}"), format!("{s:?}"));
    }
}
