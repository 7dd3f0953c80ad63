//! Decoding-performance analysis for SLC (Sec. 3.3.1 of the paper).
//!
//! The per-level coded-block counts `D = (D_1 … D_n)` of `M` randomly
//! accumulated blocks follow a multinomial over the priority distribution
//! (eq. 5). Each level is an independent RLC, so the first `k` levels
//! decode iff `D_i ≥ a_i` for every `i ≤ k` (events of eq. 2).
//!
//! Rather than enumerating count vectors (exponential) or computing each
//! `Pr(X = k)` separately, we evaluate the *survival* probabilities
//! `Pr(X ≥ k) = Pr(A_1 ∩ … ∩ A_k)` through the Poissonization identity
//!
//! `Pr(D ∈ A) = [z^M] ∏_i g_i(z) / Pois(M; M)`,
//!
//! where `g_i` is the `Poisson(M·p_i)` pmf restricted (or weighted) by
//! level `i`'s event. This is the same quantity the paper computes with
//! the Kontkanen–Myllymäki DP+FFT (its reference \[13\]), with the same
//! `O(M log M)` convolution cost per level. `Pr(X = k)` and `E(X)` follow
//! as `Pr(X ≥ k) − Pr(X ≥ k+1)` and `Σ_k Pr(X ≥ k)`.

use prlc_core::{PriorityDistribution, PriorityProfile};

use crate::conv::{convolution_coefficient, Factors};
use crate::model::AnalysisOptions;
use crate::numeric::{poisson_pmf, poisson_point};

/// `Pr(X ≥ k)`: probability that `m` randomly accumulated SLC coded
/// blocks decode at least the first `k` priority levels.
///
/// `k == 0` trivially returns 1.
///
/// # Panics
///
/// Panics if `k > n` or the distribution's level count differs from the
/// profile's.
pub fn survival(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    k: usize,
    opts: &AnalysisOptions,
) -> f64 {
    let n = profile.num_levels();
    assert!(k <= n, "k={k} exceeds {n} levels");
    assert_eq!(
        dist.num_levels(),
        n,
        "distribution level count does not match profile"
    );
    if k == 0 {
        return 1.0;
    }
    Survivals::new(profile, dist, m, opts).at(k)
}

/// `Pr(X = k)`: probability of decoding *exactly* the first `k` levels
/// (eq. 6 of the paper).
pub fn decode_exactly(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    k: usize,
    opts: &AnalysisOptions,
) -> f64 {
    let n = profile.num_levels();
    let s_k = survival(profile, dist, m, k, opts);
    if k == n {
        return s_k;
    }
    (s_k - survival(profile, dist, m, k + 1, opts)).max(0.0)
}

/// `E(X)`: expected number of decoded levels from `m` randomly
/// accumulated coded blocks (eq. 1), via `E(X) = Σ_{k≥1} Pr(X ≥ k)`.
///
/// Terms are monotone decreasing in `k`; summation stops early once they
/// fall below `1e-12`.
pub fn expected_levels(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    opts: &AnalysisOptions,
) -> f64 {
    let n = profile.num_levels();
    assert_eq!(
        dist.num_levels(),
        n,
        "distribution level count does not match profile"
    );
    let mut survivals = Survivals::new(profile, dist, m, opts);
    let mut e = 0.0;
    for k in 1..=n {
        let s = survivals.at(k);
        e += s;
        if s < 1e-12 {
            break;
        }
    }
    e
}

/// `Pr(X ≥ k)` at one block count `M` for non-decreasing `k`, from one
/// running product of the constrained per-level generating polynomials
/// that each `k` extends rather than rebuilds. A level's factor is built
/// once per distinct (mean, size) pair, and the denominator once per
/// `M`.
struct Survivals<'a> {
    profile: &'a PriorityProfile,
    dist: &'a PriorityDistribution,
    opts: &'a AnalysisOptions,
    m: usize,
    /// The product over levels `0..levels`, or `None` once it is all
    /// zero.
    acc: Option<Vec<f64>>,
    levels: usize,
    /// Weighted `Poisson(M·p_i)` factors, keyed by the mean's bits and
    /// the level size.
    factors: Factors<(u64, usize)>,
    /// `Pois(M; M)`.
    denominator: f64,
}

impl<'a> Survivals<'a> {
    fn new(
        profile: &'a PriorityProfile,
        dist: &'a PriorityDistribution,
        m: usize,
        opts: &'a AnalysisOptions,
    ) -> Self {
        let mut acc = vec![0.0; m + 1];
        acc[0] = 1.0;
        Survivals {
            profile,
            dist,
            opts,
            m,
            acc: Some(acc),
            levels: 0,
            factors: Factors::new(),
            denominator: poisson_point(m as f64, m),
        }
    }

    /// `Pr(X ≥ k)` for `k ≥ 1`, at least the `k` of the previous call.
    fn at(&mut self, k: usize) -> f64 {
        let (profile, dist, m) = (self.profile, self.dist, self.m);
        // Decoding k levels needs at least b_k blocks in levels 1..k alone.
        if profile.bound(k) > m {
            return 0.0;
        }
        let len = m + 1;
        while self.levels < k {
            let Some(acc) = &self.acc else { break };
            let lambda = m as f64 * dist.p(self.levels);
            let a = profile.size(self.levels);
            let opts = self.opts;
            let factor = self.factors.get((lambda.to_bits(), a), || {
                let mut g = poisson_pmf(lambda, len);
                for (d, gd) in g.iter_mut().enumerate() {
                    *gd *= opts.decode_weight(d, a);
                }
                g
            });
            let next = factor.convolve(acc, len);
            self.acc = (!next.iter().all(|&x| x == 0.0)).then_some(next);
            self.levels += 1;
        }
        let Some(acc) = &self.acc else { return 0.0 };

        // Levels k+1..n are unconstrained; their Poisson counts lump into
        // a single Poisson with the remaining mass.
        let rest = poisson_pmf(m as f64 * dist.mass(k..profile.num_levels()), len);
        let numerator = convolution_coefficient(acc, &rest, m);
        numerator / self.denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, per: usize) -> (PriorityProfile, PriorityDistribution) {
        (
            PriorityProfile::uniform(n, per).unwrap(),
            PriorityDistribution::uniform(n),
        )
    }

    #[test]
    fn survival_edge_cases() {
        let (p, d) = uniform(3, 10);
        let o = AnalysisOptions::sharp();
        assert_eq!(survival(&p, &d, 50, 0, &o), 1.0);
        // Too few blocks for even level 1: b_1 = 10 > 5.
        assert_eq!(survival(&p, &d, 5, 1, &o), 0.0);
        // b_3 = 30 > 20.
        assert_eq!(survival(&p, &d, 20, 3, &o), 0.0);
    }

    #[test]
    fn survival_is_monotone_in_k_and_m() {
        let (p, d) = uniform(4, 5);
        let o = AnalysisOptions::sharp();
        for m in [10usize, 20, 40, 80] {
            let mut last = 1.0;
            for k in 1..=4 {
                let s = survival(&p, &d, m, k, &o);
                assert!(
                    s <= last + 1e-12,
                    "survival increased: m={m} k={k}: {s} > {last}"
                );
                assert!((0.0..=1.0 + 1e-12).contains(&s));
                last = s;
            }
        }
        for k in 1..=4 {
            let mut last = 0.0;
            for m in [10usize, 20, 40, 80, 160] {
                let s = survival(&p, &d, m, k, &o);
                assert!(s + 1e-9 >= last, "survival not monotone in m");
                last = s;
            }
        }
    }

    #[test]
    fn exact_probabilities_sum_to_one() {
        let (p, d) = uniform(3, 6);
        let o = AnalysisOptions::sharp();
        for m in [0usize, 5, 12, 30, 60] {
            let total: f64 = (0..=3).map(|k| decode_exactly(&p, &d, m, k, &o)).sum();
            assert!((total - 1.0).abs() < 1e-9, "m={m} total={total}");
        }
    }

    #[test]
    fn single_level_matches_binomial_tail() {
        // One level: X >= 1 iff D_1 = M >= a_1 (all blocks land there).
        let p = PriorityProfile::flat(10).unwrap();
        let d = PriorityDistribution::uniform(1);
        let o = AnalysisOptions::sharp();
        assert_eq!(survival(&p, &d, 9, 1, &o), 0.0);
        let s = survival(&p, &d, 10, 1, &o);
        assert!((s - 1.0).abs() < 1e-9, "s={s}");
    }

    #[test]
    fn two_level_case_matches_direct_binomial_sum() {
        // n=2, survival(1) = P(Bin(M, p1) >= a1): check against direct
        // binomial computation.
        let p = PriorityProfile::new(vec![3, 3]).unwrap();
        let d = PriorityDistribution::from_weights(vec![0.4, 0.6]).unwrap();
        let o = AnalysisOptions::sharp();
        let m = 12;
        let direct: f64 = (3..=m)
            .map(|j| {
                let binom = (0..j).fold(1.0, |acc, i| acc * (m - i) as f64 / (i + 1) as f64);
                binom * 0.4f64.powi(j as i32) * 0.6f64.powi((m - j) as i32)
            })
            .sum();
        let got = survival(&p, &d, m, 1, &o);
        assert!((got - direct).abs() < 1e-9, "got={got} direct={direct}");
    }

    #[test]
    fn expected_levels_bounds_and_growth() {
        let (p, d) = uniform(5, 4);
        let o = AnalysisOptions::sharp();
        let mut last = 0.0;
        for m in [0usize, 8, 16, 32, 64, 128] {
            let e = expected_levels(&p, &d, m, &o);
            assert!((0.0..=5.0 + 1e-9).contains(&e));
            assert!(e + 1e-9 >= last, "E(X) not monotone in m");
            last = e;
        }
        // Plenty of blocks: all levels decode.
        assert!(expected_levels(&p, &d, 400, &o) > 4.9);
    }

    #[test]
    fn rank_exact_is_slightly_pessimistic() {
        let (p, d) = uniform(3, 10);
        let sharp = AnalysisOptions::sharp();
        let exact = AnalysisOptions::rank_exact(256.0);
        for m in [30usize, 45, 60] {
            let es = expected_levels(&p, &d, m, &sharp);
            let ee = expected_levels(&p, &d, m, &exact);
            assert!(ee <= es + 1e-12, "m={m}: rank-exact above sharp");
            assert!(es - ee < 0.05, "m={m}: correction too large ({es} vs {ee})");
        }
    }

    #[test]
    fn zero_mass_level_blocks_decoding() {
        // If level 1 never receives coded blocks, it can never decode.
        let p = PriorityProfile::new(vec![2, 2]).unwrap();
        let d = PriorityDistribution::from_weights(vec![0.0, 1.0]).unwrap();
        let o = AnalysisOptions::sharp();
        assert!(survival(&p, &d, 100, 1, &o) < 1e-12);
        assert!(expected_levels(&p, &d, 100, &o) < 1e-9);
    }
}
