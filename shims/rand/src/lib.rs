//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `rand 0.8` API it actually uses:
//! [`Rng`], [`SeedableRng`], [`rngs::StdRng`],
//! [`distributions::Bernoulli`], [`seq::SliceRandom`] and
//! [`seq::index::sample`]. The generator is xoshiro256++ seeded through
//! SplitMix64 — deterministic, portable and of ample statistical quality
//! for the simulations (it is the same family the real `rand` small
//! RNGs use). The API is call-compatible with the subset the workspace
//! uses, so swapping the real crate back in is a one-line manifest edit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from the full value domain
/// (`[0, 1)` for floats).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a [`Rng::gen_range`] call can sample from. The value type is
/// a trait *parameter* (as in the real crate) so integer literals in a
/// range unify with the caller's expected type.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as Standard>::sample(rng);
                self.start + (self.end - self.start) * unit
            }
        }
    )*};
}
sample_range_float!(f32, f64);

/// High-level sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random value of `T` (full domain; `[0, 1)` for
    /// floats).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`: one [`Bernoulli`] coin, so the top
    /// 53 bits of one draw are compared with `ceil(p·2^53)` as integers.
    /// That is exactly the float test `gen::<f64>() < p`, coin for coin
    /// and draw for draw. A loop flipping many coins of one `p` should
    /// build the [`Bernoulli`] once.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    ///
    /// [`Bernoulli`]: distributions::Bernoulli
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        use distributions::{Bernoulli, Distribution};
        match Bernoulli::new(p) {
            Ok(coin) => coin.sample(self),
            Err(_) => panic!("gen_bool: p = {p} not in [0, 1]"),
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Distributions a value can be sampled from.
pub mod distributions {
    use super::Rng;

    /// Types that produce a random `T` from a generator.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// A coin that comes up `true` with probability `p`.
    ///
    /// A sample takes the top 53 bits `m` of one 64-bit draw and returns
    /// `m < ceil(p·2^53)`. The float test `m·2^-53 < p` gives the same
    /// answer for every `m` and every `p` in `[0, 1]`: `m·2^-53` and
    /// `p·2^53` are both exact (a power-of-two scaling that cannot
    /// overflow or round), and an integer is below a real exactly when
    /// it is below the real's ceiling. So `p = 0` never fires, `p = 1`
    /// always does, and a subnormal `p` fires only on `m = 0`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Bernoulli {
        /// `ceil(p·2^53)`, in `0..=2^53`.
        threshold: u64,
    }

    /// [`Bernoulli::new`] was given a `p` outside `[0, 1]` (or NaN).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BernoulliError;

    impl Bernoulli {
        /// The coin for probability `p`.
        ///
        /// # Errors
        ///
        /// Returns [`BernoulliError`] if `p` is not in `[0, 1]`.
        pub fn new(p: f64) -> Result<Self, BernoulliError> {
            if !(0.0..=1.0).contains(&p) {
                return Err(BernoulliError);
            }
            Ok(Bernoulli {
                threshold: (p * (1u64 << 53) as f64).ceil() as u64,
            })
        }
    }

    impl Distribution<bool> for Bernoulli {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 11 < self.threshold
        }
    }
}

/// Construction of reproducible generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (full state derived via
    /// SplitMix64, as recommended by the xoshiro authors).
    fn seed_from_u64(state: u64) -> Self;
}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Sequence-related sampling helpers.
pub mod seq {
    use super::Rng;

    /// Slice extension methods.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }

    /// Index sampling without replacement.
    pub mod index {
        use super::super::Rng;

        /// A set of distinct indices in `0..length`.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// The indices as a vector.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }

            /// Number of sampled indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether no indices were sampled.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Iterates over the sampled indices.
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;

            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Samples `amount` distinct indices uniformly from `0..length`
        /// (partial Fisher–Yates).
        ///
        /// The virtual pool `0..length` is never materialised: a sparse
        /// displacement map records only the positions a swap has
        /// touched, so the call allocates `O(amount)` regardless of
        /// `length` — sampling 20 indices out of 10^6 costs 20 map
        /// entries, not a million-element vector. The draw sequence and
        /// output are identical to the materialised-pool version
        /// (`pool.swap(i, rng.gen_range(i..length))` per step), which
        /// the tests pin.
        ///
        /// # Panics
        ///
        /// Panics if `amount > length`.
        pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} indices from 0..{length}"
            );
            // Maps position -> current value for the positions whose
            // value differs from their index. BTreeMap rather than
            // HashMap for deterministic, std-hasher-free behaviour.
            let mut displaced: std::collections::BTreeMap<usize, usize> =
                std::collections::BTreeMap::new();
            let mut out = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                let vj = displaced.get(&j).copied().unwrap_or(j);
                let vi = displaced.get(&i).copied().unwrap_or(i);
                // swap(i, j): position i is emitted now and never read
                // again (future draws are over i+1..length), so only
                // position j needs recording.
                out.push(vj);
                displaced.insert(j, vi);
            }
            IndexVec(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::index::sample;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&w));
            let x = rng.gen_range(1u8..=255);
            assert!(x >= 1);
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_covers_domain() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..16)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn bernoulli_rejects_probabilities_outside_the_unit_interval() {
        use super::distributions::Bernoulli;
        for p in [
            f64::NAN,
            -f64::MIN_POSITIVE,
            -1.0,
            1.0 + f64::EPSILON,
            f64::INFINITY,
        ] {
            assert!(Bernoulli::new(p).is_err(), "p = {p}");
        }
        for p in [-0.0, 0.0, f64::MIN_POSITIVE, 0.5, 1.0] {
            assert!(Bernoulli::new(p).is_ok(), "p = {p}");
        }
    }

    #[test]
    fn sample_is_without_replacement() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let v = sample(&mut rng, 20, 7).into_vec();
            assert_eq!(v.len(), 7);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 7, "duplicates in {v:?}");
            assert!(v.iter().all(|&i| i < 20));
        }
        assert_eq!(sample(&mut rng, 5, 0).len(), 0);
        let full: Vec<usize> = {
            let mut v = sample(&mut rng, 5, 5).into_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(full, vec![0, 1, 2, 3, 4]);
    }

    /// Reference implementation the sparse `sample` replaced: a fully
    /// materialised `0..length` pool with partial Fisher–Yates. Kept
    /// here to pin that the sparse version draws the same randomness
    /// and emits the same indices.
    fn sample_dense_pool<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> Vec<usize> {
        assert!(amount <= length);
        let mut pool: Vec<usize> = (0..length).collect();
        for i in 0..amount {
            let j = rng.gen_range(i..length);
            pool.swap(i, j);
        }
        pool.truncate(amount);
        pool
    }

    #[test]
    fn sparse_sample_matches_dense_pool_exactly() {
        for seed in 0..20u64 {
            for &(length, amount) in &[
                (1usize, 0usize),
                (1, 1),
                (5, 5),
                (20, 7),
                (100, 1),
                (100, 99),
                (100, 100),
                (1000, 13),
                (10_000, 25),
            ] {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let sparse = sample(&mut a, length, amount).into_vec();
                let dense = sample_dense_pool(&mut b, length, amount);
                assert_eq!(
                    sparse, dense,
                    "seed {seed}, length {length}, amount {amount}"
                );
                // Both consumed the same number of draws.
                assert_eq!(a.gen::<u64>(), b.gen::<u64>());
            }
        }
    }

    #[test]
    fn sample_handles_huge_lengths_without_pool_allocation() {
        // The dense-pool version would allocate 8 GB here; the sparse
        // version only touches `amount` map entries.
        let mut rng = StdRng::seed_from_u64(7);
        let v = sample(&mut rng, 1_000_000_000, 20).into_vec();
        assert_eq!(v.len(), 20);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "duplicates in {v:?}");
        assert!(v.iter().all(|&i| i < 1_000_000_000));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements left unshuffled");
    }

    #[test]
    fn works_through_unsized_and_reborrowed_receivers() {
        fn takes_generic<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut rng = StdRng::seed_from_u64(6);
        let _ = takes_generic(&mut rng);
        let re: &mut StdRng = &mut rng;
        let _ = takes_generic(re);
    }
}

#[cfg(test)]
mod proptests {
    use super::distributions::{Bernoulli, Distribution};
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};
    use proptest::prelude::*;

    /// `2^-53`, the spacing of the float coin's grid.
    const ULP: f64 = 1.0 / (1u64 << 53) as f64;

    /// The float coin `gen_bool` used to flip: a `[0, 1)` sample with 53
    /// bits of precision, compared with `p`.
    fn float_coin<R: RngCore>(rng: &mut R, p: f64) -> bool {
        (rng.next_u64() >> 11) as f64 * ULP < p
    }

    /// Replays a fixed list of words.
    #[derive(Debug, PartialEq)]
    struct Replay {
        words: Vec<u64>,
        next: usize,
    }

    impl RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.next % self.words.len()];
            self.next += 1;
            word
        }
    }

    /// A probability in `[0, 1]`: the ends, the grid's first and last
    /// steps, grid points and their float neighbours, subnormals, every
    /// float of the interval by bit pattern, and uniform values.
    fn probability() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            Just(ULP),
            Just(1.0 - ULP),
            Just(f64::MIN_POSITIVE),
            (0u64..=1 << 53).prop_map(|k| k as f64 * ULP),
            ((1u64..1 << 53), 0usize..2).prop_map(|(k, side)| {
                let bits = (k as f64 * ULP).to_bits();
                f64::from_bits(if side == 0 { bits - 1 } else { bits + 1 })
            }),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (0u64..=1.0f64.to_bits()).prop_map(f64::from_bits),
            0.0f64..1.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn integer_gen_bool_matches_the_float_coin(
            p in probability(),
            seed in any::<u64>(),
            coins in 1usize..64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference = rng.clone();
            for _ in 0..coins {
                prop_assert_eq!(rng.gen_bool(p), float_coin(&mut reference, p));
            }
            prop_assert_eq!(&rng, &reference);
        }

        #[test]
        fn bernoulli_matches_the_float_coin_at_its_threshold(
            p in probability(),
            low in any::<u64>(),
            top in any::<u64>(),
        ) {
            // Draws whose top 53 bits sit on, just below and just above
            // the grid point nearest `p·2^53`, plus the extreme words.
            let m = (p * (1u64 << 53) as f64) as u64;
            let mut words = vec![0, u64::MAX, top];
            for near in [m.saturating_sub(1), m, m + 1] {
                let near = near.min((1 << 53) - 1);
                words.push(near << 11 | low >> 53);
            }
            let coin = Bernoulli::new(p).expect("p is in [0, 1]");
            let mut rng = Replay { words: words.clone(), next: 0 };
            let mut reference = Replay { words, next: 0 };
            for _ in 0..rng.words.len() {
                prop_assert_eq!(coin.sample(&mut rng), float_coin(&mut reference, p));
            }
            prop_assert_eq!(&rng, &reference);
        }
    }
}
