//! Scheme-dispatching decoding curves — the analysis behind Figs. 4, 5
//! and 7 of the paper.

use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};

use crate::model::AnalysisOptions;
use crate::{plc, slc};

/// `Pr(X ≥ k)` for any scheme.
///
/// For RLC the decoded-level count jumps from 0 to `n` at full rank, so
/// for any `k ≥ 1` the survival probability is the probability that all
/// `N` source blocks decode from `m` blocks (sharp: `m ≥ N`).
///
/// # Panics
///
/// Panics if `k > n` or the distribution and profile disagree on the
/// level count.
pub fn survival(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    k: usize,
    opts: &AnalysisOptions,
) -> f64 {
    match scheme {
        Scheme::Slc => slc::survival(profile, dist, m, k, opts),
        Scheme::Plc => plc::survival(profile, dist, m, k, opts),
        Scheme::Rlc => {
            assert!(k <= profile.num_levels(), "k out of range");
            if k == 0 {
                1.0
            } else {
                opts.decode_weight(m, profile.total_blocks())
            }
        }
    }
}

/// `Pr(X = k)` for any scheme.
pub fn decode_exactly(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    k: usize,
    opts: &AnalysisOptions,
) -> f64 {
    let n = profile.num_levels();
    let s_k = survival(scheme, profile, dist, m, k, opts);
    if k == n {
        return s_k;
    }
    (s_k - survival(scheme, profile, dist, m, k + 1, opts)).max(0.0)
}

/// `E(X)`: expected number of decoded levels from `m` coded blocks.
pub fn expected_levels(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    opts: &AnalysisOptions,
) -> f64 {
    match scheme {
        Scheme::Slc => slc::expected_levels(profile, dist, m, opts),
        Scheme::Plc => plc::expected_levels(profile, dist, m, opts),
        Scheme::Rlc => profile.num_levels() as f64 * opts.decode_weight(m, profile.total_blocks()),
    }
}

/// Probability that *all* source blocks decode from `m` coded blocks —
/// the quantity constrained by eq. 10, `Pr(X_{αN} = n) > 1 − ε`.
pub fn prob_complete(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    opts: &AnalysisOptions,
) -> f64 {
    survival(scheme, profile, dist, m, profile.num_levels(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rlc_is_all_or_nothing() {
        let p = PriorityProfile::uniform(4, 5).unwrap();
        let d = PriorityDistribution::uniform(4);
        let o = AnalysisOptions::sharp();
        assert_eq!(expected_levels(Scheme::Rlc, &p, &d, 19, &o), 0.0);
        assert_eq!(expected_levels(Scheme::Rlc, &p, &d, 20, &o), 4.0);
        assert_eq!(survival(Scheme::Rlc, &p, &d, 19, 1, &o), 0.0);
        assert_eq!(survival(Scheme::Rlc, &p, &d, 25, 4, &o), 1.0);
        assert_eq!(survival(Scheme::Rlc, &p, &d, 0, 0, &o), 1.0);
    }

    #[test]
    fn priority_schemes_beat_rlc_before_n() {
        // The headline claim: below N blocks RLC decodes nothing while
        // SLC/PLC already deliver levels.
        let p = PriorityProfile::uniform(5, 10).unwrap();
        let d = PriorityDistribution::uniform(5);
        let o = AnalysisOptions::sharp();
        for m in [30usize, 40, 49] {
            assert_eq!(expected_levels(Scheme::Rlc, &p, &d, m, &o), 0.0);
            assert!(expected_levels(Scheme::Slc, &p, &d, m, &o) > 0.0);
            assert!(expected_levels(Scheme::Plc, &p, &d, m, &o) > 0.0);
        }
        // At 40 blocks (0.8 N) PLC already delivers a substantial
        // fraction of the levels in expectation.
        assert!(expected_levels(Scheme::Plc, &p, &d, 45, &o) > 1.0);
    }

    #[test]
    fn decoding_curve_shape() {
        let p = PriorityProfile::uniform(3, 5).unwrap();
        let d = PriorityDistribution::uniform(3);
        let o = AnalysisOptions::sharp();
        let ms: Vec<usize> = (0..=10).map(|i| i * 6).collect();
        let curve: Vec<f64> = ms
            .iter()
            .map(|&m| expected_levels(Scheme::Plc, &p, &d, m, &o))
            .collect();
        // Non-decreasing, bounded by n, eventually ~n.
        for w in curve.windows(2) {
            assert!(w[1] + 1e-9 >= w[0]);
        }
        assert!(curve.iter().all(|&e| (0.0..=3.0 + 1e-9).contains(&e)));
        assert!(curve.last().unwrap() > &2.9);
    }

    #[test]
    fn decode_exactly_consistency_across_schemes() {
        let p = PriorityProfile::uniform(3, 4).unwrap();
        let d = PriorityDistribution::uniform(3);
        let o = AnalysisOptions::sharp();
        for scheme in Scheme::ALL {
            for m in [0usize, 6, 12, 24] {
                let total: f64 = (0..=3)
                    .map(|k| decode_exactly(scheme, &p, &d, m, k, &o))
                    .sum();
                assert!((total - 1.0).abs() < 1e-9, "{scheme} m={m} total={total}");
            }
        }
    }

    #[test]
    fn prob_complete_matches_full_survival() {
        let p = PriorityProfile::uniform(2, 3).unwrap();
        let d = PriorityDistribution::uniform(2);
        let o = AnalysisOptions::sharp();
        for scheme in Scheme::ALL {
            for m in [6usize, 10, 14] {
                assert_eq!(
                    prob_complete(scheme, &p, &d, m, &o),
                    survival(scheme, &p, &d, m, 2, &o)
                );
            }
        }
        // With 2N blocks completion is near-certain for all schemes.
        for scheme in Scheme::ALL {
            assert!(prob_complete(scheme, &p, &d, 40, &o) > 0.99, "{scheme}");
        }
    }
}
