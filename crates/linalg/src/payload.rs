//! Row payloads that mirror elimination operations.
//!
//! Gauss–Jordan elimination on a decoding matrix must perform "identical
//! operations ... on the data blocks as well" (paper, Sec. 3.2). A
//! [`RowPayload`] is whatever travels alongside a coefficient row — the
//! coded data block during real decoding, or nothing at all (`()`) when an
//! experiment only needs decodability, which roughly halves the cost of
//! the large decoding-curve simulations.

use prlc_gf::{kernel, GfElem};

/// Data carried alongside a coefficient row through elimination.
///
/// Implementations must mirror the row operations of Gauss–Jordan
/// elimination: scaling a row, and adding multiples of other rows. A
/// decoder records the multiples one row collects and applies them in
/// one call, so a payload is updated once per row, not once per term.
pub trait RowPayload<F: GfElem> {
    /// Mirrors `row *= c`.
    fn payload_scale(&mut self, c: F);

    /// Mirrors `row += Σ c·other` over the `(c, other)` terms.
    fn payload_axpy_sum<'a>(&mut self, terms: impl Iterator<Item = (F, &'a Self)>)
    where
        Self: 'a;
}

/// The empty payload: elimination on coefficients only.
impl<F: GfElem> RowPayload<F> for () {
    #[inline]
    fn payload_scale(&mut self, _c: F) {}

    #[inline]
    fn payload_axpy_sum<'a>(&mut self, _terms: impl Iterator<Item = (F, &'a Self)>) {}
}

/// A coded data block: a vector of field symbols.
///
/// Both operations go straight to the dispatched [`kernel`]: the terms
/// of `payload_axpy_sum` to the multi-term [`kernel::axpy_sum`]. Because the
/// field element types are `repr(transparent)` wrappers over their
/// integer representation, a `Vec<F>` payload *is* a contiguous byte
/// plane — for GF(2⁸) the kernel views it as `&mut [u8]` at zero cost
/// and runs the table/SIMD byte kernels directly on it.
///
/// # Panics
///
/// `payload_axpy_sum` panics if a term's block differs in length from
/// this one; all blocks in one decoding session must share the block
/// size.
impl<F: GfElem> RowPayload<F> for Vec<F> {
    #[inline]
    fn payload_scale(&mut self, c: F) {
        kernel::scale_slice(self, c);
    }

    #[inline]
    fn payload_axpy_sum<'a>(&mut self, terms: impl Iterator<Item = (F, &'a Self)>) {
        kernel::axpy_sum(self, terms.map(|(c, other)| (c, other.as_slice())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;

    #[test]
    fn unit_payload_is_noop() {
        let mut p = ();
        p.payload_scale(Gf256::from_index(3));
        p.payload_axpy_sum([(Gf256::from_index(5), &())].into_iter());
    }

    #[test]
    fn vec_payload_mirrors_slice_ops() {
        let mut a = vec![Gf256::from_index(1), Gf256::from_index(2)];
        let b = vec![Gf256::from_index(3), Gf256::from_index(4)];
        let e = vec![Gf256::from_index(5), Gf256::from_index(6)];
        let (c, d) = (Gf256::from_index(7), Gf256::from_index(9));
        a.payload_axpy_sum([(c, &b), (d, &e)].into_iter());
        assert_eq!(
            a,
            vec![
                Gf256::from_index(1) + c * Gf256::from_index(3) + d * Gf256::from_index(5),
                Gf256::from_index(2) + c * Gf256::from_index(4) + d * Gf256::from_index(6),
            ]
        );
        a.payload_scale(Gf256::ZERO);
        assert!(a.iter().all(|x| x.is_zero()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vec_payload_length_mismatch_panics() {
        let mut a = vec![Gf256::ONE];
        let b = vec![Gf256::ONE, Gf256::ONE];
        a.payload_axpy_sum([(Gf256::ONE, &b)].into_iter());
    }
}
