//! The [`GfElem`] trait and the concrete field element types.

use std::fmt;
use std::hash::Hash;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use rand::Rng;

use crate::tables::{GfTables, Mul256Table, POLY_GF16, POLY_GF256, POLY_GF64K};

/// An element of a binary-extension Galois field `GF(2^w)`.
///
/// All coding-theoretic code in the workspace is generic over this trait;
/// the paper's experiments use [`Gf256`] (the field named in Sec. 5 of
/// Lin–Li–Liang), while [`Gf16`] and [`Gf64k`] support the field-size
/// ablation.
///
/// Implementors also get the full set of `std::ops` operator overloads
/// (`+` and `-` are both XOR in characteristic 2; `/` panics on a zero
/// divisor — use [`GfElem::gf_div`] for a checked variant).
pub trait GfElem:
    Copy
    + Clone
    + Eq
    + PartialEq
    + Ord
    + PartialOrd
    + Hash
    + fmt::Debug
    + fmt::Display
    + fmt::LowerHex
    + fmt::UpperHex
    + fmt::Binary
    + Default
    + Send
    + Sync
    + Sized
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + 'static
{
    /// Field size `q = 2^BITS`.
    const ORDER: usize;
    /// Field width `w` in bits.
    const BITS: u32;
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Whether [`GfElem::gf_add`] is exactly XOR of the in-memory
    /// representation *and* the set of valid representations is closed
    /// under XOR. When `true`, [`crate::kernel`] may perform addition
    /// word-at-a-time over the raw byte plane of a symbol slice.
    /// Defaults to `false` so external implementors opt in explicitly.
    const REPR_XOR: bool = false;

    /// Constructs the element whose binary representation is `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= Self::ORDER`.
    fn from_index(v: usize) -> Self;

    /// The binary representation of the element, in `0..Self::ORDER`.
    fn index(self) -> usize;

    /// Whether this is the additive identity.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Field addition (XOR). Identical to subtraction in characteristic 2.
    fn gf_add(self, rhs: Self) -> Self;

    /// Field multiplication.
    fn gf_mul(self, rhs: Self) -> Self;

    /// Multiplicative inverse, or `None` for the zero element.
    fn gf_inv(self) -> Option<Self>;

    /// Checked division: `None` when `rhs` is zero.
    #[inline]
    fn gf_div(self, rhs: Self) -> Option<Self> {
        rhs.gf_inv().map(|i| self.gf_mul(i))
    }

    /// Exponentiation in the field (with `0^0 == 1`).
    fn gf_pow(self, e: u64) -> Self;

    /// A uniformly random field element (zero included).
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_index(rng.gen_range(0..Self::ORDER))
    }

    /// A uniformly random *nonzero* field element, as required for the
    /// coding coefficients of SLC/PLC (the paper draws coefficients that
    /// are "nonzero random number\[s\] uniformly chosen from a Galois
    /// field").
    fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_index(rng.gen_range(1..Self::ORDER))
    }

    /// `dst[i] += c * src[i]` for all `i` — the inner loop of Gaussian and
    /// Gauss–Jordan elimination. Dispatches through [`crate::kernel`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn axpy(dst: &mut [Self], c: Self, src: &[Self]) {
        crate::kernel::axpy(dst, c, src);
    }

    /// `dst[i] *= c` for all `i`. Dispatches through [`crate::kernel`].
    fn scale_slice(dst: &mut [Self], c: Self) {
        crate::kernel::scale_slice(dst, c);
    }

    /// `dst[i] += src[i]` for all `i`. Dispatches through
    /// [`crate::kernel`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn add_slice(dst: &mut [Self], src: &[Self]) {
        crate::kernel::add_slice(dst, src);
    }

    /// Elementwise product `dst[i] *= src[i]` for all `i`. Dispatches
    /// through [`crate::kernel`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn mul_slice(dst: &mut [Self], src: &[Self]) {
        crate::kernel::mul_slice(dst, src);
    }

    /// Dot product `sum_i a[i] * b[i]`. Dispatches through
    /// [`crate::kernel`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn dot(a: &[Self], b: &[Self]) -> Self {
        crate::kernel::dot(a, b)
    }
}

macro_rules! gf_type {
    (
        $(#[$meta:meta])*
        $name:ident, $repr:ty, $bits:expr, $poly:expr, $tables_fn:ident,
        overrides { $($overrides:tt)* }
    ) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[repr(transparent)]
        pub struct $name($repr);

        fn $tables_fn() -> &'static GfTables {
            static TABLES: OnceLock<GfTables> = OnceLock::new();
            TABLES.get_or_init(|| GfTables::build($bits, $poly))
        }

        impl $name {
            /// Constructs the element with binary representation `v`
            /// without bounds checking beyond the repr width.
            #[inline]
            pub const fn new(v: $repr) -> Self {
                $name(v)
            }

            /// The raw binary representation.
            #[inline]
            pub const fn raw(self) -> $repr {
                self.0
            }
        }

        impl GfElem for $name {
            const ORDER: usize = 1 << $bits;
            const BITS: u32 = $bits;
            const ZERO: Self = $name(0);
            const ONE: Self = $name(1);
            // Addition is XOR of the raw repr, and XOR of two valid
            // representations stays below `ORDER`.
            const REPR_XOR: bool = true;

            #[inline]
            fn from_index(v: usize) -> Self {
                assert!(v < Self::ORDER, "value {v} outside GF(2^{})", $bits);
                $name(v as $repr)
            }

            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }

            #[inline]
            fn gf_add(self, rhs: Self) -> Self {
                $name(self.0 ^ rhs.0)
            }

            #[inline]
            fn gf_mul(self, rhs: Self) -> Self {
                $name($tables_fn().mul(self.0 as u32, rhs.0 as u32) as $repr)
            }

            #[inline]
            fn gf_inv(self) -> Option<Self> {
                $tables_fn().inv(self.0 as u32).map(|v| $name(v as $repr))
            }

            #[inline]
            fn gf_pow(self, e: u64) -> Self {
                $name($tables_fn().pow(self.0 as u32, e) as $repr)
            }

            $($overrides)*
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(v: $name) -> usize {
                v.index()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.gf_add(rhs)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.gf_add(rhs)
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                self
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.gf_mul(rhs)
            }
        }

        impl Div for $name {
            type Output = Self;
            /// # Panics
            ///
            /// Panics when dividing by zero; use [`GfElem::gf_div`] for a
            /// checked alternative.
            #[inline]
            fn div(self, rhs: Self) -> Self {
                self.gf_div(rhs)
                    .expect(concat!(stringify!($name), ": division by zero"))
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = self.gf_add(rhs);
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = self.gf_add(rhs);
            }
        }

        impl MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = self.gf_mul(rhs);
            }
        }
    };
}

gf_type!(
    /// An element of GF(2⁴) = GF(2)\[x\]/(x⁴+x+1), stored in the low nibble
    /// of a `u8`.
    Gf16,
    u8,
    4,
    POLY_GF16,
    gf16_tables,
    overrides {}
);

gf_type!(
    /// An element of GF(2⁸) = GF(2)\[x\]/(x⁸+x⁴+x³+x²+1) — the field used
    /// throughout the paper's evaluation. Its bulk slice operations hit
    /// the table/SIMD fast paths inside [`crate::kernel`].
    Gf256,
    u8,
    8,
    POLY_GF256,
    gf256_tables,
    overrides {}
);

gf_type!(
    /// An element of GF(2¹⁶) = GF(2)\[x\]/(x¹⁶+x¹²+x³+x+1).
    Gf64k,
    u16,
    16,
    POLY_GF64K,
    gf64k_tables,
    overrides {}
);

fn mul256_table() -> &'static Mul256Table {
    static TABLE: OnceLock<Mul256Table> = OnceLock::new();
    TABLE.get_or_init(|| Mul256Table::build(gf256_tables()))
}

/// The 64 KiB GF(2⁸) product table, shared with [`crate::kernel`] (which
/// builds its table-backend and SIMD nibble tables from its rows).
pub(crate) fn gf256_product_table() -> &'static Mul256Table {
    mul256_table()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constants_behave() {
        assert_eq!(Gf256::ZERO + Gf256::ONE, Gf256::ONE);
        assert_eq!(Gf256::ONE * Gf256::ONE, Gf256::ONE);
        assert!(Gf256::ZERO.is_zero());
        assert!(!Gf256::ONE.is_zero());
        assert_eq!(Gf256::default(), Gf256::ZERO);
    }

    #[test]
    fn add_is_self_inverse() {
        let a = Gf256::from_index(0xAB);
        let b = Gf256::from_index(0x3C);
        assert_eq!(a + b + b, a);
        assert_eq!(a - a, Gf256::ZERO);
        assert_eq!(-a, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn from_index_rejects_out_of_range() {
        let _ = Gf16::from_index(16);
    }

    #[test]
    fn random_nonzero_is_never_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            assert!(!Gf16::random_nonzero(&mut rng).is_zero());
        }
    }

    #[test]
    fn dispatched_axpy_matches_generic_formula_for_gf256() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(0..100);
            let src: Vec<Gf256> = (0..n).map(|_| Gf256::random(&mut rng)).collect();
            let base: Vec<Gf256> = (0..n).map(|_| Gf256::random(&mut rng)).collect();
            let c = Gf256::random(&mut rng);

            let mut fast = base.clone();
            <Gf256 as GfElem>::axpy(&mut fast, c, &src);

            let mut slow = base.clone();
            for (d, s) in slow.iter_mut().zip(&src) {
                *d = d.gf_add(c.gf_mul(*s));
            }
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn trait_axpy_uses_fast_path_for_gf256() {
        // The trait method must agree with the slow formula (it routes
        // through the dispatched kernel backend).
        let mut rng = StdRng::seed_from_u64(43);
        let src: Vec<Gf256> = (0..64).map(|_| Gf256::random(&mut rng)).collect();
        let mut dst: Vec<Gf256> = (0..64).map(|_| Gf256::random(&mut rng)).collect();
        let expect: Vec<Gf256> = dst
            .iter()
            .zip(&src)
            .map(|(d, s)| d.gf_add(Gf256::from_index(9).gf_mul(*s)))
            .collect();
        <Gf256 as GfElem>::axpy(&mut dst, Gf256::from_index(9), &src);
        assert_eq!(dst, expect);
    }

    #[test]
    fn dot_product_is_bilinear() {
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<Gf64k> = (0..16).map(|_| Gf64k::random(&mut rng)).collect();
        let b: Vec<Gf64k> = (0..16).map(|_| Gf64k::random(&mut rng)).collect();
        let c: Vec<Gf64k> = (0..16).map(|_| Gf64k::random(&mut rng)).collect();
        let bc: Vec<Gf64k> = b.iter().zip(&c).map(|(x, y)| *x + *y).collect();
        assert_eq!(Gf64k::dot(&a, &bc), Gf64k::dot(&a, &b) + Gf64k::dot(&a, &c));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", Gf256::ZERO), "0x0");
        assert_eq!(format!("{:?}", Gf256::ONE), "Gf256(0x1)");
        assert_eq!(format!("{:x}", Gf256::from_index(0xAB)), "ab");
        assert_eq!(format!("{:X}", Gf256::from_index(0xAB)), "AB");
        assert_eq!(format!("{:b}", Gf16::from_index(0b101)), "101");
    }

    #[test]
    fn pow_fermat_all_fields() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let a = Gf16::random_nonzero(&mut rng);
            assert_eq!(a.gf_pow(15), Gf16::ONE);
            let b = Gf256::random_nonzero(&mut rng);
            assert_eq!(b.gf_pow(255), Gf256::ONE);
            let c = Gf64k::random_nonzero(&mut rng);
            assert_eq!(c.gf_pow(65535), Gf64k::ONE);
        }
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gf16>();
        assert_send_sync::<Gf256>();
        assert_send_sync::<Gf64k>();
    }
}
