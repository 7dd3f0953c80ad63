//! The priority model: level sizes, boundaries, distributions and
//! decoding constraints (Sec. 2 and Sec. 3.3 of the paper).

use std::fmt;
use std::ops::Range;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How `N` source blocks are divided into `n` priority levels.
///
/// Level `0` is the most important (the paper's level 1). With the
/// paper's notation, `sizes[i] = a_{i+1}` and [`bound`](Self::bound)`(i)`
/// `= b_i` — the cumulative number of source blocks in levels `0..i`.
///
/// # Example
///
/// ```
/// use prlc_core::PriorityProfile;
///
/// # fn main() -> Result<(), prlc_core::ProfileError> {
/// // The Sec. 5.3 profile: 500 blocks in levels of 50, 100 and 350.
/// let p = PriorityProfile::new(vec![50, 100, 350])?;
/// assert_eq!(p.num_levels(), 3);
/// assert_eq!(p.total_blocks(), 500);
/// assert_eq!(p.bound(2), 150);
/// assert_eq!(p.level_of(149), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PriorityProfile {
    sizes: Vec<usize>,
    /// `bounds[i] = sizes[0] + … + sizes[i-1]`; `bounds[0] == 0` and
    /// `bounds[n] == N`.
    bounds: Vec<usize>,
}

/// Error constructing a [`PriorityProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// No levels were given.
    Empty,
    /// A level had zero source blocks (index attached).
    EmptyLevel(usize),
    /// The level sizes sum past `usize::MAX`.
    TooLarge,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Empty => write!(f, "priority profile has no levels"),
            ProfileError::EmptyLevel(i) => {
                write!(f, "priority level {i} has zero source blocks")
            }
            ProfileError::TooLarge => {
                write!(f, "priority levels hold more blocks than fit a usize")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl PriorityProfile {
    /// Builds a profile from per-level source-block counts, most
    /// important level first.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if `sizes` is empty, any level is empty
    /// or the sizes sum past `usize::MAX`.
    pub fn new(sizes: Vec<usize>) -> Result<Self, ProfileError> {
        if sizes.is_empty() {
            return Err(ProfileError::Empty);
        }
        if let Some(i) = sizes.iter().position(|&s| s == 0) {
            return Err(ProfileError::EmptyLevel(i));
        }
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        bounds.push(0);
        let mut acc = 0usize;
        for &s in &sizes {
            acc = acc.checked_add(s).ok_or(ProfileError::TooLarge)?;
            bounds.push(acc);
        }
        Ok(PriorityProfile { sizes, bounds })
    }

    /// A profile with `levels` equal levels of `per_level` blocks each —
    /// the shape used throughout Sec. 5.1/5.2 of the paper (e.g. 5 × 200,
    /// 50 × 20).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if either argument is zero.
    pub fn uniform(levels: usize, per_level: usize) -> Result<Self, ProfileError> {
        PriorityProfile::new(vec![per_level; levels])
    }

    /// A single-level profile over `total` blocks (plain RLC shape).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if `total` is zero.
    pub fn flat(total: usize) -> Result<Self, ProfileError> {
        PriorityProfile::new(vec![total])
    }

    /// Number of priority levels `n`.
    pub fn num_levels(&self) -> usize {
        self.sizes.len()
    }

    /// Total number of source blocks `N`.
    pub fn total_blocks(&self) -> usize {
        *self.bounds.last().expect("bounds is never empty")
    }

    /// Number of source blocks in `level` (the paper's `a_{level+1}`).
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn size(&self, level: usize) -> usize {
        self.sizes[level]
    }

    /// Cumulative number of source blocks in levels `0..level` (the
    /// paper's `b_level`; `bound(0) == 0`, `bound(n) == N`).
    ///
    /// # Panics
    ///
    /// Panics if `level > num_levels()`.
    pub fn bound(&self, level: usize) -> usize {
        self.bounds[level]
    }

    /// The contiguous source-block index range of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn blocks_of(&self, level: usize) -> Range<usize> {
        self.bounds[level]..self.bounds[level + 1]
    }

    /// The level containing source block `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= total_blocks()`.
    pub fn level_of(&self, idx: usize) -> usize {
        assert!(
            idx < self.total_blocks(),
            "block index {idx} out of range ({})",
            self.total_blocks()
        );
        // bounds is sorted; find the level whose range contains idx.
        match self.bounds.binary_search(&idx) {
            Ok(i) => i,      // idx == bounds[i], start of level i
            Err(i) => i - 1, // bounds[i-1] < idx < bounds[i]
        }
    }

    /// Per-level sizes, most important first.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Number of *whole* levels contained in the block-index prefix
    /// `0..prefix` — how many priority levels a decoded prefix covers.
    pub fn levels_in_prefix(&self, prefix: usize) -> usize {
        match self.bounds.binary_search(&prefix) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }
}

/// The fraction of coded blocks generated at each priority level — the
/// paper's *priority distribution* `p_1 … p_n` (Sec. 3.3).
///
/// Invariant: entries are non-negative and sum to 1 (within floating
/// point tolerance; construction normalises).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorityDistribution(Vec<f64>);

/// Error constructing a [`PriorityDistribution`].
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionError {
    /// No levels were given.
    Empty,
    /// A weight was negative or non-finite (index and value attached).
    InvalidWeight(usize, f64),
    /// All weights were zero, so no distribution exists.
    ZeroMass,
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributionError::Empty => write!(f, "priority distribution has no levels"),
            DistributionError::InvalidWeight(i, w) => {
                write!(f, "invalid weight {w} at level {i}")
            }
            DistributionError::ZeroMass => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for DistributionError {}

impl PriorityDistribution {
    /// Builds a distribution from non-negative weights, normalising them
    /// to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `weights` is empty, contains a
    /// negative or non-finite entry, or sums to zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, DistributionError> {
        if weights.is_empty() {
            return Err(DistributionError::Empty);
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(DistributionError::InvalidWeight(i, w));
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(DistributionError::ZeroMass);
        }
        Ok(PriorityDistribution(
            weights.into_iter().map(|w| w / total).collect(),
        ))
    }

    /// The uniform distribution over `n` levels — the paper's default and
    /// the initial point of its feasibility search.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform distribution needs at least one level");
        PriorityDistribution(vec![1.0 / n as f64; n])
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.0.len()
    }

    /// The probability mass of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn p(&self, level: usize) -> f64 {
        self.0[level]
    }

    /// All masses as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Total mass of levels `range` (e.g. the paper's `P_{i,j}`).
    pub fn mass(&self, range: Range<usize>) -> f64 {
        self.0[range].iter().sum()
    }

    /// Samples a level index.
    pub fn sample_level<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.0.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        self.0.len() - 1 // floating-point slack lands in the last level
    }

    /// Splits `m` storage locations into per-level counts proportional to
    /// the distribution, using largest-remainder rounding so the counts
    /// sum exactly to `m` (used by the pre-distribution protocol to size
    /// the location parts of Fig. 3).
    pub fn allocate(&self, m: usize) -> Vec<usize> {
        let n = self.0.len();
        let mut counts: Vec<usize> = Vec::with_capacity(n);
        let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
        let mut assigned = 0usize;
        for (i, &p) in self.0.iter().enumerate() {
            let exact = p * m as f64;
            let floor = exact.floor() as usize;
            counts.push(floor);
            assigned += floor;
            remainders.push((i, exact - floor as f64));
        }
        remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(i, _) in remainders.iter().take(m - assigned) {
            counts[i] += 1;
        }
        counts
    }
}

/// A decoding constraint `(M_i, k_i)` from Sec. 3.3: from `m` randomly
/// accumulated coded blocks, the expected number of decoded levels must
/// be at least `min_levels`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodingConstraint {
    /// The number of randomly accumulated coded blocks `M_i`.
    pub blocks: usize,
    /// The required expected number of decoded levels `k_i`.
    pub min_levels: f64,
}

impl DecodingConstraint {
    /// Convenience constructor.
    pub fn new(blocks: usize, min_levels: f64) -> Self {
        DecodingConstraint { blocks, min_levels }
    }
}

impl fmt::Display for DecodingConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.blocks, self.min_levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn profile_bounds_and_levels() {
        let p = PriorityProfile::new(vec![50, 100, 350]).unwrap();
        assert_eq!(p.num_levels(), 3);
        assert_eq!(p.total_blocks(), 500);
        assert_eq!(p.bound(0), 0);
        assert_eq!(p.bound(1), 50);
        assert_eq!(p.bound(2), 150);
        assert_eq!(p.bound(3), 500);
        assert_eq!(p.blocks_of(1), 50..150);
        assert_eq!(p.level_of(0), 0);
        assert_eq!(p.level_of(49), 0);
        assert_eq!(p.level_of(50), 1);
        assert_eq!(p.level_of(499), 2);
        assert_eq!(p.sizes(), &[50, 100, 350]);
    }

    #[test]
    fn profile_rejects_bad_input() {
        assert_eq!(PriorityProfile::new(vec![]), Err(ProfileError::Empty));
        assert_eq!(
            PriorityProfile::new(vec![3, 0, 2]),
            Err(ProfileError::EmptyLevel(1))
        );
        assert!(PriorityProfile::uniform(0, 5).is_err());
        assert!(PriorityProfile::uniform(5, 0).is_err());
    }

    #[test]
    fn uniform_profile_matches_paper_settings() {
        // Sec. 5.1: 1000 blocks as 5 x 200 and 50 x 20.
        let p5 = PriorityProfile::uniform(5, 200).unwrap();
        assert_eq!(p5.total_blocks(), 1000);
        let p50 = PriorityProfile::uniform(50, 20).unwrap();
        assert_eq!(p50.total_blocks(), 1000);
        assert_eq!(p50.size(49), 20);
    }

    #[test]
    fn levels_in_prefix() {
        let p = PriorityProfile::new(vec![2, 3, 5]).unwrap();
        assert_eq!(p.levels_in_prefix(0), 0);
        assert_eq!(p.levels_in_prefix(1), 0);
        assert_eq!(p.levels_in_prefix(2), 1);
        assert_eq!(p.levels_in_prefix(4), 1);
        assert_eq!(p.levels_in_prefix(5), 2);
        assert_eq!(p.levels_in_prefix(9), 2);
        assert_eq!(p.levels_in_prefix(10), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_of_out_of_range_panics() {
        let p = PriorityProfile::new(vec![2]).unwrap();
        p.level_of(2);
    }

    #[test]
    fn distribution_normalises() {
        let d = PriorityDistribution::from_weights(vec![1.0, 3.0]).unwrap();
        assert!((d.p(0) - 0.25).abs() < 1e-12);
        assert!((d.p(1) - 0.75).abs() < 1e-12);
        assert!((d.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_rejects_bad_weights() {
        assert_eq!(
            PriorityDistribution::from_weights(vec![]),
            Err(DistributionError::Empty)
        );
        assert!(matches!(
            PriorityDistribution::from_weights(vec![1.0, -0.5]),
            Err(DistributionError::InvalidWeight(1, _))
        ));
        assert!(matches!(
            PriorityDistribution::from_weights(vec![f64::NAN]),
            Err(DistributionError::InvalidWeight(0, _))
        ));
        assert_eq!(
            PriorityDistribution::from_weights(vec![0.0, 0.0]),
            Err(DistributionError::ZeroMass)
        );
    }

    #[test]
    fn distribution_mass_ranges() {
        let d = PriorityDistribution::from_weights(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((d.mass(0..4) - 1.0).abs() < 1e-12);
        assert!((d.mass(1..3) - 0.5).abs() < 1e-12);
        assert_eq!(d.mass(2..2), 0.0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let d = PriorityDistribution::from_weights(vec![8.0, 1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0usize; 3];
        let trials = 20_000;
        for _ in 0..trials {
            counts[d.sample_level(&mut rng)] += 1;
        }
        let f0 = counts[0] as f64 / trials as f64;
        assert!((f0 - 0.8).abs() < 0.02, "observed {f0}");
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn zero_probability_levels_never_sampled() {
        // Case 2 of Table 1 has p1 = 0: level 0 must never be drawn.
        let d = PriorityDistribution::from_weights(vec![0.0, 0.6149, 0.3851]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5000 {
            assert_ne!(d.sample_level(&mut rng), 0);
        }
    }

    #[test]
    fn allocate_sums_exactly() {
        let d = PriorityDistribution::from_weights(vec![1.0, 1.0, 1.0]).unwrap();
        for m in [0usize, 1, 2, 3, 10, 100, 101] {
            let counts = d.allocate(m);
            assert_eq!(counts.iter().sum::<usize>(), m, "m={m}");
        }
        // Largest-remainder keeps proportions: 100 into [0.5138, 0.0768,
        // 0.4094] (Table 1 case 1) gives 51/8/41 or 52/8/40-ish.
        let d = PriorityDistribution::from_weights(vec![0.5138, 0.0768, 0.4094]).unwrap();
        let counts = d.allocate(100);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!((counts[0] as i64 - 51).unsigned_abs() <= 1);
    }

    #[test]
    fn constraint_display() {
        let c = DecodingConstraint::new(130, 1.0);
        assert_eq!(c.to_string(), "(130, 1)");
    }
}
