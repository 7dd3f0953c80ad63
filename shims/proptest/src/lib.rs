//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API the workspace's property
//! tests use: the [`proptest!`] macro, [`Strategy`] with `prop_map`,
//! ranges / tuples / `Just` / [`collection::vec`] / [`any`] strategies,
//! weighted [`prop_oneof!`], `ProptestConfig::with_cases`, and the
//! `prop_assert*` / `prop_assume!` assertion macros.
//!
//! Differences from the real crate: no shrinking (a failing case is
//! reported with its generated inputs via ordinary `assert!` panics)
//! and generation is deterministic per test (seeded from the test
//! name), so failures reproduce exactly across runs.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The generation-side RNG handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic RNG derived from the test's name, so every run of
    /// a test sees the same case sequence.
    pub fn deterministic(test_name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    /// The underlying generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// A generator of random values of `Self::Value`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, G);

/// Types with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.rng().gen::<u64>() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.rng().gen()
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// A weighted union of same-valued strategies ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total_weight: u64,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` options.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or all weights are zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total_weight: u64 = options.iter().map(|(w, _)| *w as u64).sum();
        assert!(total_weight > 0, "prop_oneof requires a positive weight");
        Union {
            options,
            total_weight,
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.rng().gen_range(0..self.total_weight);
        for (w, s) in &self.options {
            let w = *w as u64;
            if pick < w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weighted pick out of range")
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Ranges of collection sizes (`usize`, `a..b`, `a..=b`).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.rng().gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `elem` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// The `prop` namespace mirrored from the real crate's prelude.
pub mod prop {
    pub use super::collection;
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use super::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        prop_oneof, proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
        Union,
    };
}

/// Boolean property assertion (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality property assertion (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality property assertion (panics like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

/// Weighted choice between strategies with a common value type.
///
/// `prop_oneof![a, b]` picks uniformly; `prop_oneof![3 => a, 2 => b]`
/// picks proportionally to the weights.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight, $crate::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
}

/// Declares property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0usize..10, v in prop::collection::vec(any::<u8>(), 0..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // The closure gives `prop_assume!` an early-exit via
                    // `return` without ending the whole case loop.
                    #[allow(clippy::redundant_closure_call)]
                    (|| $body)();
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn small_even() -> impl Strategy<Value = usize> {
        (0usize..50).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respected(x in 3usize..17, y in -2.0f64..2.0, z in 1u8..=9) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!((1..=9).contains(&z));
        }

        #[test]
        fn map_and_custom_strategies(e in small_even(), j in Just(7usize)) {
            prop_assert_eq!(e % 2, 0);
            prop_assert_eq!(j, 7);
        }

        #[test]
        fn vec_and_tuple_strategies(
            v in prop::collection::vec((0usize..4, 0usize..4), 2..6),
            exact in prop::collection::vec(any::<u8>(), 3),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(exact.len(), 3);
            for (a, b) in v {
                prop_assert!(a < 4 && b < 4);
            }
        }

        #[test]
        fn oneof_weighted(x in prop_oneof![3 => Just(0usize), 2 => 1usize..256]) {
            prop_assert!(x < 256);
        }

        #[test]
        fn assume_skips(x in 0usize..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let s = small_even();
        let mut a = TestRng::deterministic("fixed");
        let mut b = TestRng::deterministic("fixed");
        for _ in 0..20 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
