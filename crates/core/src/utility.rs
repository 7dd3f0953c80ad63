//! Utility functions over priority levels — the paper's "less stringent
//! priority model".
//!
//! Sec. 2 of the paper: "It is also possible to consider a less
//! stringent priority model, where obtaining a large amount of low
//! priority data may be preferable to obtaining a small amount of high
//! priority data. However, such a model requires the specification of an
//! application-specific utility function over the priority levels. This
//! is outside the scope of this paper and remains an open problem."
//!
//! This module supplies that specification as an *evaluation* tool: a
//! [`UtilityFunction`] assigns a weight to each fully recovered level,
//! and decoders report which levels are recovered. Under the strict
//! model only the decoded prefix counts; under the set model every
//! recovered level counts (relevant to SLC, whose levels decode
//! independently, so a low-priority island can complete while a
//! higher level is missing). The set model's expectation for SLC is
//! computed exactly by `prlc_analysis::overhead::slc_expected_set_utility`.

use serde::{Deserialize, Serialize};

/// A per-level utility assignment (non-negative weights, most important
/// level first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilityFunction {
    weights: Vec<f64>,
}

/// Error constructing a [`UtilityFunction`].
#[derive(Debug, Clone, PartialEq)]
pub enum UtilityError {
    /// No levels.
    Empty,
    /// Negative or non-finite weight at the given index.
    InvalidWeight(usize, f64),
}

impl std::fmt::Display for UtilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UtilityError::Empty => write!(f, "utility function has no levels"),
            UtilityError::InvalidWeight(i, w) => {
                write!(f, "invalid utility weight {w} at level {i}")
            }
        }
    }
}

impl std::error::Error for UtilityError {}

impl UtilityFunction {
    /// Builds from explicit non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`UtilityError`] on empty or invalid weights.
    pub fn new(weights: Vec<f64>) -> Result<Self, UtilityError> {
        if weights.is_empty() {
            return Err(UtilityError::Empty);
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(UtilityError::InvalidWeight(i, w));
            }
        }
        Ok(UtilityFunction { weights })
    }

    /// Equal utility per level (total 1): recovering any level is worth
    /// the same — the implicit weighting behind `E(X)/n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "utility needs at least one level");
        UtilityFunction {
            weights: vec![1.0 / n as f64; n],
        }
    }

    /// Geometrically decaying utility: level `i` is worth `ratio` times
    /// level `i-1` (`0 < ratio < 1` expresses "critical data dominates"),
    /// normalised to total 1.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `ratio` is not in `(0, 1]`.
    pub fn geometric(n: usize, ratio: f64) -> Self {
        assert!(n > 0, "utility needs at least one level");
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "ratio must be in (0, 1], got {ratio}"
        );
        let mut weights = Vec::with_capacity(n);
        let mut w = 1.0;
        for _ in 0..n {
            weights.push(w);
            w *= ratio;
        }
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        UtilityFunction { weights }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.weights.len()
    }

    /// The weight of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn weight(&self, level: usize) -> f64 {
        self.weights[level]
    }

    /// Utility under the **strict** priority model: the sum of weights
    /// of the decoded prefix (`decoded_levels` consecutive levels from
    /// the front).
    ///
    /// # Panics
    ///
    /// Panics if `decoded_levels` exceeds the level count.
    pub fn strict(&self, decoded_levels: usize) -> f64 {
        assert!(
            decoded_levels <= self.weights.len(),
            "decoded {decoded_levels} of {} levels",
            self.weights.len()
        );
        self.weights[..decoded_levels].iter().sum()
    }

    /// Total utility of recovering everything.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(UtilityFunction::new(vec![]), Err(UtilityError::Empty));
        assert!(matches!(
            UtilityFunction::new(vec![1.0, -2.0]),
            Err(UtilityError::InvalidWeight(1, _))
        ));
        let u = UtilityFunction::new(vec![3.0, 1.0]).unwrap();
        assert_eq!(u.num_levels(), 2);
        assert_eq!(u.weight(0), 3.0);
        assert_eq!(u.total(), 4.0);
    }

    #[test]
    fn uniform_weights() {
        let u = UtilityFunction::uniform(4);
        assert!((u.weight(0) - 0.25).abs() < 1e-12);
        assert!((u.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_decays_and_normalises() {
        let u = UtilityFunction::geometric(3, 0.5);
        // Raw weights 1, 0.5, 0.25 -> normalised by 1.75.
        assert!((u.weight(0) - 1.0 / 1.75).abs() < 1e-12);
        assert!((u.weight(2) - 0.25 / 1.75).abs() < 1e-12);
        assert!((u.total() - 1.0).abs() < 1e-12);
        assert!(u.weight(0) > u.weight(1));
    }

    #[test]
    fn strict_sums_prefix() {
        let u = UtilityFunction::new(vec![5.0, 3.0, 1.0]).unwrap();
        assert_eq!(u.strict(0), 0.0);
        assert_eq!(u.strict(1), 5.0);
        assert_eq!(u.strict(3), 9.0);
    }
}
