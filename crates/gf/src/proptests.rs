//! Property-based tests for the field axioms on all three fields, and
//! for the equivalence of every [`crate::kernel`] backend.

use proptest::prelude::*;

use crate::kernel::{self, Backend};
use crate::{Gf16, Gf256, Gf64k, GfElem};

macro_rules! field_axiom_tests {
    ($modname:ident, $ty:ty) => {
        mod $modname {
            use super::*;

            fn elem() -> impl Strategy<Value = $ty> {
                (0..<$ty as GfElem>::ORDER).prop_map(<$ty>::from_index)
            }

            proptest! {
                #[test]
                fn add_commutative(a in elem(), b in elem()) {
                    prop_assert_eq!(a + b, b + a);
                }

                #[test]
                fn add_associative(a in elem(), b in elem(), c in elem()) {
                    prop_assert_eq!((a + b) + c, a + (b + c));
                }

                #[test]
                fn mul_commutative(a in elem(), b in elem()) {
                    prop_assert_eq!(a * b, b * a);
                }

                #[test]
                fn mul_associative(a in elem(), b in elem(), c in elem()) {
                    prop_assert_eq!((a * b) * c, a * (b * c));
                }

                #[test]
                fn distributive(a in elem(), b in elem(), c in elem()) {
                    prop_assert_eq!(a * (b + c), a * b + a * c);
                }

                #[test]
                fn additive_identity(a in elem()) {
                    prop_assert_eq!(a + <$ty as GfElem>::ZERO, a);
                }

                #[test]
                fn multiplicative_identity(a in elem()) {
                    prop_assert_eq!(a * <$ty as GfElem>::ONE, a);
                }

                #[test]
                fn mul_by_zero_annihilates(a in elem()) {
                    prop_assert_eq!(a * <$ty as GfElem>::ZERO, <$ty as GfElem>::ZERO);
                }

                #[test]
                fn inverse_roundtrip(a in elem()) {
                    match a.gf_inv() {
                        Some(inv) => prop_assert_eq!(a * inv, <$ty as GfElem>::ONE),
                        None => prop_assert!(a.is_zero()),
                    }
                }

                #[test]
                fn div_then_mul_roundtrip(a in elem(), b in elem()) {
                    prop_assume!(!b.is_zero());
                    prop_assert_eq!((a / b) * b, a);
                }

                #[test]
                fn no_zero_divisors(a in elem(), b in elem()) {
                    prop_assume!(!a.is_zero() && !b.is_zero());
                    prop_assert!(!(a * b).is_zero());
                }

                #[test]
                fn pow_adds_exponents(a in elem(), e1 in 0u64..64, e2 in 0u64..64) {
                    prop_assume!(!a.is_zero());
                    prop_assert_eq!(a.gf_pow(e1) * a.gf_pow(e2), a.gf_pow(e1 + e2));
                }

                #[test]
                fn index_roundtrip(a in elem()) {
                    prop_assert_eq!(<$ty>::from_index(a.index()), a);
                }
            }
        }
    };
}

field_axiom_tests!(gf16, Gf16);
field_axiom_tests!(gf256, Gf256);
field_axiom_tests!(gf64k, Gf64k);

/// Every available kernel backend must produce bit-identical results to
/// the generic scalar backend, on every field and at every slice length —
/// in particular at the SIMD kernels' edge cases: empty slices, a single
/// element, and lengths that are not a multiple of the 16/32-byte lane
/// width. Each generated case is additionally checked on a set of fixed
/// edge-length prefixes so those lengths are exercised on *every* run,
/// not just when the generator happens to produce them.
macro_rules! backend_equiv_tests {
    ($modname:ident, $ty:ty) => {
        mod $modname {
            use super::*;

            fn elem() -> impl Strategy<Value = $ty> {
                (0..<$ty as GfElem>::ORDER).prop_map(<$ty>::from_index)
            }

            /// Prefix lengths to check: kernel edge cases plus the full
            /// generated slice.
            fn prefixes(len: usize) -> Vec<usize> {
                let mut ls: Vec<usize> = [0usize, 1, 15, 17, 33, len]
                    .into_iter()
                    .filter(|&l| l <= len)
                    .collect();
                ls.sort_unstable();
                ls.dedup();
                ls
            }

            proptest! {
                #[test]
                fn axpy_identical_across_backends(
                    c in elem(),
                    data in prop::collection::vec((elem(), elem()), 0..130)
                ) {
                    let dst: Vec<$ty> = data.iter().map(|&(d, _)| d).collect();
                    let src: Vec<$ty> = data.iter().map(|&(_, s)| s).collect();
                    for n in prefixes(data.len()) {
                        let mut reference = dst[..n].to_vec();
                        kernel::axpy_with(Backend::Scalar, &mut reference, c, &src[..n]);
                        for backend in kernel::available_backends() {
                            let mut out = dst[..n].to_vec();
                            kernel::axpy_with(backend, &mut out, c, &src[..n]);
                            prop_assert_eq!(&out, &reference, "{} len {}", backend, n);
                        }
                    }
                }

                #[test]
                fn scale_slice_identical_across_backends(
                    c in elem(),
                    data in prop::collection::vec(elem(), 0..130)
                ) {
                    for n in prefixes(data.len()) {
                        let mut reference = data[..n].to_vec();
                        kernel::scale_slice_with(Backend::Scalar, &mut reference, c);
                        for backend in kernel::available_backends() {
                            let mut out = data[..n].to_vec();
                            kernel::scale_slice_with(backend, &mut out, c);
                            prop_assert_eq!(&out, &reference, "{} len {}", backend, n);
                        }
                    }
                }

                /// The whole-block row kernel on every backend equals that
                /// backend's slice kernel on the logical prefix. Lengths
                /// cross multiples of [`kernel::BLOCK`]; `dst` holds `junk`
                /// past the prefix, which axpy must keep, and `extra`
                /// appends whole zero blocks past the rounded-up length.
                #[test]
                fn row_kernel_matches_slice_kernels_on_the_logical_prefix(
                    c in elem(),
                    junk in elem(),
                    extra in 0usize..2,
                    data in prop::collection::vec((elem(), elem()), 0..=200)
                ) {
                    let len = data.len();
                    let padded = len.next_multiple_of(kernel::BLOCK) + extra * kernel::BLOCK;
                    let zero = <$ty as GfElem>::ZERO;
                    let mut dst: Vec<$ty> = data.iter().map(|&(d, _)| d).collect();
                    let mut src: Vec<$ty> = data.iter().map(|&(_, s)| s).collect();
                    let mut row = dst.clone();
                    dst.resize(padded, junk);
                    src.resize(padded, zero);
                    row.resize(padded, zero);
                    for backend in kernel::available_backends() {
                        let k = kernel::RowKernel::with(backend);

                        let mut want = dst[..len].to_vec();
                        kernel::axpy_with(backend, &mut want, c, &src[..len]);
                        let mut out = dst.clone();
                        k.axpy(&mut out, c, &src, len);
                        prop_assert_eq!(&out[..len], &want[..], "axpy {} len {}", backend, len);
                        prop_assert_eq!(&out[len..], &dst[len..], "axpy {} wrote past {}", backend, len);

                        let mut want = row[..len].to_vec();
                        kernel::scale_slice_with(backend, &mut want, c);
                        let mut out = row.clone();
                        k.scale(&mut out, c, len);
                        prop_assert_eq!(&out[..len], &want[..], "scale {} len {}", backend, len);
                        prop_assert!(out[len..].iter().all(|v| v.is_zero()), "scale {} padding", backend);
                    }
                }

                #[test]
                fn mul_slice_identical_across_backends(
                    data in prop::collection::vec((elem(), elem()), 0..130)
                ) {
                    let dst: Vec<$ty> = data.iter().map(|&(d, _)| d).collect();
                    let src: Vec<$ty> = data.iter().map(|&(_, s)| s).collect();
                    for n in prefixes(data.len()) {
                        let mut reference = dst[..n].to_vec();
                        kernel::mul_slice_with(Backend::Scalar, &mut reference, &src[..n]);
                        for backend in kernel::available_backends() {
                            let mut out = dst[..n].to_vec();
                            kernel::mul_slice_with(backend, &mut out, &src[..n]);
                            prop_assert_eq!(&out, &reference, "{} len {}", backend, n);
                        }
                    }
                }

                #[test]
                fn dot_identical_across_backends(
                    data in prop::collection::vec((elem(), elem()), 0..130)
                ) {
                    let a: Vec<$ty> = data.iter().map(|&(x, _)| x).collect();
                    let b: Vec<$ty> = data.iter().map(|&(_, y)| y).collect();
                    for n in prefixes(data.len()) {
                        let reference = kernel::dot_with(Backend::Scalar, &a[..n], &b[..n]);
                        for backend in kernel::available_backends() {
                            let got = kernel::dot_with(backend, &a[..n], &b[..n]);
                            prop_assert_eq!(got, reference, "{} len {}", backend, n);
                        }
                    }
                }
            }
        }
    };
}

backend_equiv_tests!(backend_equiv_gf16, Gf16);
backend_equiv_tests!(backend_equiv_gf256, Gf256);
backend_equiv_tests!(backend_equiv_gf64k, Gf64k);

mod bulk_ops {
    use super::*;

    proptest! {
        #[test]
        fn axpy_matches_scalar_formula(
            c in 0usize..256,
            data in prop::collection::vec((0usize..256, 0usize..256), 0..64)
        ) {
            let c = Gf256::from_index(c);
            let mut dst: Vec<Gf256> =
                data.iter().map(|&(d, _)| Gf256::from_index(d)).collect();
            let src: Vec<Gf256> =
                data.iter().map(|&(_, s)| Gf256::from_index(s)).collect();
            let expect: Vec<Gf256> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| d + c * s)
                .collect();
            Gf256::axpy(&mut dst, c, &src);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn scale_slice_matches_scalar_formula(
            c in 0usize..256,
            data in prop::collection::vec(0usize..256, 0..64)
        ) {
            let c = Gf256::from_index(c);
            let mut dst: Vec<Gf256> =
                data.iter().map(|&d| Gf256::from_index(d)).collect();
            let expect: Vec<Gf256> = dst.iter().map(|&d| d * c).collect();
            Gf256::scale_slice(&mut dst, c);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn axpy_then_undo_restores(
            c in 1usize..256,
            data in prop::collection::vec((0usize..256, 0usize..256), 0..64)
        ) {
            // In characteristic 2, applying the same axpy twice is a no-op.
            let c = Gf256::from_index(c);
            let original: Vec<Gf256> =
                data.iter().map(|&(d, _)| Gf256::from_index(d)).collect();
            let src: Vec<Gf256> =
                data.iter().map(|&(_, s)| Gf256::from_index(s)).collect();
            let mut dst = original.clone();
            Gf256::axpy(&mut dst, c, &src);
            Gf256::axpy(&mut dst, c, &src);
            prop_assert_eq!(dst, original);
        }
    }
}
