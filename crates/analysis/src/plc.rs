//! Decoding-performance analysis for PLC (Sec. 3.3.2 / Theorem 1).
//!
//! Theorem 1 characterises the event "exactly the first `k` levels
//! decode from `M` randomly accumulated coded blocks":
//!
//! * `A_i = { D_{i,k} ≥ b_k − b_{i−1} }` for `i = 1…k` — the first `k`
//!   levels decode (Lemma 2): rows of levels `i..k` are the only ones
//!   whose support lies inside the prefix `b_k` yet reaches past
//!   `b_{i-1}`, so at least `b_k − b_{i−1}` of them are needed;
//! * `A_j = { D_{k+1,j} ≤ b_j − b_k − 1 }` for `j = k+1…m` — decoding
//!   cannot extend to any longer prefix (Lemma 3): once the prefix `b_k`
//!   is known, only rows of levels `k+1..j` constrain the next
//!   `b_j − b_k` unknowns,
//!
//! with `m = argmax_i { b_i ≤ M }` (no longer prefix is countable at
//! all). Note that `Pr(X ≥ k)` is *not* simply Lemma 2's event at `k`:
//! a prefix can decode "through" a longer prefix — e.g. with levels of
//! sizes (2, 1) and three level-2 blocks, level 1 decodes even though no
//! level-1 block was ever collected. The distribution of `X` must
//! therefore be assembled from the exact per-`k` events above.
//!
//! Both event groups constrain *cumulative* counts, so each is computed
//! by a dynamic program over per-level Poissonized generating
//! polynomials (the same Poissonization identity as the SLC analysis):
//! group one processes levels `k…1` clamping suffix sums from below;
//! group two processes levels `k+1…m` clamping prefix sums from above.
//! The paper's technical report resorts to approximations here; the DP
//! below evaluates Theorem 1's events exactly, which is why our analysis
//! tracks the 50-level simulation more closely than the paper's own
//! curves (see EXPERIMENTS.md).

use prlc_core::{PriorityDistribution, PriorityProfile};

use crate::conv::{convolution_coefficient, convolve, Factors};
use crate::model::{AnalysisOptions, DecodabilityModel};
use crate::numeric::{full_rank_probability, poisson_pmf, poisson_point};

/// The probability distribution of `X`, the number of decoded levels:
/// returns `probs` with `probs[k] = Pr(X = k)` for `k = 0..=n`.
///
/// The vector sums to 1 (up to floating point; a useful self-check since
/// each entry evaluates its own event).
///
/// # Panics
///
/// Panics if the distribution's level count differs from the profile's.
pub fn distribution(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    opts: &AnalysisOptions,
) -> Vec<f64> {
    let n = profile.num_levels();
    assert_eq!(
        dist.num_levels(),
        n,
        "distribution level count does not match profile"
    );
    let mut theorem = Theorem1::new(profile, dist, m, opts);

    let mut probs = vec![0.0; n + 1];
    // Work from the likeliest end (large k) down, stopping once the mass
    // is exhausted — for large M only a handful of k carry weight.
    let mut captured = 0.0;
    for k in (0..=theorem.m_lvl).rev() {
        let p = theorem.decode_exactly(k);
        probs[k] = p;
        captured += p;
        if captured >= 1.0 - 1e-12 {
            break;
        }
    }
    probs
}

/// `Pr(X = k)` per Theorem 1.
pub fn decode_exactly(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    k: usize,
    opts: &AnalysisOptions,
) -> f64 {
    let n = profile.num_levels();
    assert!(k <= n, "k={k} exceeds {n} levels");
    if k > decodable_levels(profile, m) {
        return 0.0;
    }
    Theorem1::new(profile, dist, m, opts).decode_exactly(k)
}

/// `Pr(X ≥ k)`.
pub fn survival(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    k: usize,
    opts: &AnalysisOptions,
) -> f64 {
    let n = profile.num_levels();
    assert!(k <= n, "k={k} exceeds {n} levels");
    if k == 0 {
        return 1.0;
    }
    let probs = distribution(profile, dist, m, opts);
    probs[k..].iter().sum::<f64>().min(1.0)
}

/// `E(X)` for PLC.
pub fn expected_levels(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    m: usize,
    opts: &AnalysisOptions,
) -> f64 {
    distribution(profile, dist, m, opts)
        .iter()
        .enumerate()
        .map(|(k, &p)| k as f64 * p)
        .sum()
}

/// `m_lvl = argmax { b_i <= m }`: the longest prefix countably
/// decodable from `m` blocks.
fn decodable_levels(profile: &PriorityProfile, m: usize) -> usize {
    (0..=profile.num_levels())
        .rev()
        .find(|&i| profile.bound(i) <= m)
        .unwrap_or(0)
}

/// Theorem 1 at one block count `M`, evaluated for any number of `k`.
///
/// Each level's Poisson factor is built once per distinct mean, and the
/// rest factor and the Poissonization denominator once per `M`. The two
/// event groups are [`Chain`]s memoised across `k`: when consecutive
/// levels repeat their size and probability, the chain for `k` is a
/// prefix of the chain for `k + 1` (and the other way round for group
/// two), so a whole [`distribution`] costs `O(n)` convolutions instead
/// of `O(n²)`.
struct Theorem1<'a> {
    profile: &'a PriorityProfile,
    dist: &'a PriorityDistribution,
    opts: &'a AnalysisOptions,
    m: usize,
    m_lvl: usize,
    /// `Poisson(M·p_i)` factors, keyed by the mean's bits.
    factors: Factors<u64>,
    /// Group 1: suffix sums clamped from below.
    lower: Chain,
    /// Group 2: prefix sums clamped from above.
    upper: Chain,
    /// The lumped Poisson factor of the unconstrained levels
    /// `m_lvl+1..n`.
    rest: Vec<f64>,
    /// `Pois(M; M)`.
    denominator: f64,
}

impl<'a> Theorem1<'a> {
    fn new(
        profile: &'a PriorityProfile,
        dist: &'a PriorityDistribution,
        m: usize,
        opts: &'a AnalysisOptions,
    ) -> Self {
        let len = m + 1;
        let m_lvl = decodable_levels(profile, m);
        let n = profile.num_levels();
        Theorem1 {
            profile,
            dist,
            opts,
            m,
            m_lvl,
            factors: Factors::new(),
            lower: Chain::new(len, clamp_below),
            upper: Chain::new(len, clamp_above),
            rest: poisson_pmf(m as f64 * dist.mass(m_lvl..n), len),
            denominator: poisson_point(m as f64, m),
        }
    }

    /// Theorem 1's event probability for exactly-`k`. Caller guarantees
    /// `k <= m_lvl`.
    fn decode_exactly(&mut self, k: usize) -> f64 {
        let (profile, dist, m) = (self.profile, self.dist, self.m);
        let b_k = profile.bound(k);
        let mean = |level: usize| m as f64 * dist.p(level);

        // Group 1 (Lemma 2): process levels k..1, clamping suffix sums
        // D_{i,k} >= b_k - b_{i-1} from below.
        let steps = (0..k)
            .rev()
            .map(|level| (mean(level), b_k - profile.bound(level)));
        let Some(v) = self.lower.run(steps, &mut self.factors) else {
            return 0.0;
        };
        // Optional rank refinement on the row count covering the decoded
        // prefix.
        let refined: Vec<f64>;
        let v = match self.opts.model {
            DecodabilityModel::RankExact { q } if k > 0 => {
                refined = v
                    .iter()
                    .enumerate()
                    .map(|(s, &vs)| vs * full_rank_probability(q, s, b_k))
                    .collect();
                &refined
            }
            _ => v,
        };

        // Group 2 (Lemma 3): process levels k+1..m_lvl, clamping prefix
        // sums D_{k+1,j} <= b_j - b_k - 1 from above.
        let steps = (k..self.m_lvl).map(|level| (mean(level), profile.bound(level + 1) - b_k - 1));
        let Some(w) = self.upper.run(steps, &mut self.factors) else {
            return 0.0;
        };

        let vw = convolve(v, w, m + 1);
        let numerator = convolution_coefficient(&vw, &self.rest, m);
        numerator / self.denominator
    }
}

/// One event group of Theorem 1 as a chain of clamped running products,
/// memoised across `k`. A step convolves the running product with one
/// level's Poisson factor and clamps it at a bound; `states[i]` is the
/// product after the steps `keys[..i]`, each keyed by the factor's mean
/// (as bits) and the bound. A query reuses the longest stored prefix
/// whose keys match its own steps and computes only the rest, so it
/// performs exactly the float operations a fresh chain would.
struct Chain {
    keys: Vec<(u64, usize)>,
    states: Vec<Vec<f64>>,
    clamp: fn(&mut [f64], usize),
}

impl Chain {
    /// An empty chain over polynomials of `len` coefficients: its only
    /// state is the point mass at 0.
    fn new(len: usize, clamp: fn(&mut [f64], usize)) -> Self {
        let mut start = vec![0.0; len];
        start[0] = 1.0;
        Chain {
            keys: Vec::new(),
            states: vec![start],
            clamp,
        }
    }

    /// The product after `steps` (`(mean, bound)` pairs), or `None` once
    /// a step leaves it all zero — the event then has probability 0. An
    /// all-zero state is never stored: a query that reaches it recomputes
    /// that one step and ends there, as a fresh chain would.
    fn run(
        &mut self,
        steps: impl Iterator<Item = (f64, usize)>,
        factors: &mut Factors<u64>,
    ) -> Option<&[f64]> {
        let len = self.states[0].len();
        let mut depth = 0;
        for (mean, bound) in steps {
            let key = (mean.to_bits(), bound);
            if self.keys.get(depth) != Some(&key) {
                self.keys.truncate(depth);
                self.states.truncate(depth + 1);
                let factor = factors.get(mean.to_bits(), || poisson_pmf(mean, len));
                let mut next = factor.convolve(&self.states[depth], len);
                (self.clamp)(&mut next, bound);
                if next.iter().all(|&x| x == 0.0) {
                    return None;
                }
                self.keys.push(key);
                self.states.push(next);
            }
            depth += 1;
        }
        Some(&self.states[depth])
    }
}

/// Zeroes the sums below `threshold` (group 1's lower clamp).
fn clamp_below(v: &mut [f64], threshold: usize) {
    for s in v.iter_mut().take(threshold) {
        *s = 0.0;
    }
}

/// Zeroes the sums above `cap` (group 2's upper clamp).
fn clamp_above(w: &mut [f64], cap: usize) {
    for s in w.iter_mut().skip(cap + 1) {
        *s = 0.0;
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
        assert_eq!(survival(&p, &d, 100, 0, &o), 1.0);
        assert_eq!(survival(&p, &d, 9, 1, &o), 0.0); // b_1 = 10 > 9
        assert_eq!(survival(&p, &d, 29, 3, &o), 0.0); // b_3 = 30 > 29
    }

    #[test]
    fn distribution_sums_to_one() {
        let (p, d) = uniform(3, 6);
        let o = AnalysisOptions::sharp();
        for m in [0usize, 6, 15, 18, 40, 80] {
            let probs = distribution(&p, &d, m, &o);
            let total: f64 = probs.iter().sum();
            assert!((total - 1.0).abs() < 1e-8, "m={m} total={total}");
            assert!(probs.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
        }
    }

    #[test]
    fn survival_monotonicity() {
        let (p, d) = uniform(4, 5);
        let o = AnalysisOptions::sharp();
        for m in [10usize, 20, 40, 80] {
            let mut last = 1.0;
            for k in 1..=4 {
                let s = survival(&p, &d, m, k, &o);
                assert!(s <= last + 1e-9, "m={m} k={k}: {s} > {last}");
                assert!((0.0..=1.0 + 1e-9).contains(&s));
                last = s;
            }
        }
    }

    #[test]
    fn hand_computed_two_level_case() {
        // Profile (2, 1), uniform distribution, M = 3. By enumeration of
        // the multinomial (D_1, D_2) (see module tests derivation):
        // Pr(X=1) = Pr(D=(3,0)) = 1/8, Pr(X=2) = 7/8, E(X) = 15/8.
        let p = PriorityProfile::new(vec![2, 1]).unwrap();
        let d = PriorityDistribution::uniform(2);
        let o = AnalysisOptions::sharp();
        let probs = distribution(&p, &d, 3, &o);
        assert!((probs[0] - 0.0).abs() < 1e-9, "P0={}", probs[0]);
        assert!((probs[1] - 0.125).abs() < 1e-9, "P1={}", probs[1]);
        assert!((probs[2] - 0.875).abs() < 1e-9, "P2={}", probs[2]);
        let e = expected_levels(&p, &d, 3, &o);
        assert!((e - 1.875).abs() < 1e-9, "E={e}");
    }

    #[test]
    fn single_level_plc_equals_slc() {
        let p = PriorityProfile::flat(12).unwrap();
        let d = PriorityDistribution::uniform(1);
        let o = AnalysisOptions::sharp();
        for m in [5usize, 11, 12, 20] {
            let plc = survival(&p, &d, m, 1, &o);
            let slc = crate::slc::survival(&p, &d, m, 1, &o);
            assert!((plc - slc).abs() < 1e-9, "m={m}: {plc} vs {slc}");
        }
    }

    #[test]
    fn plc_dominates_slc() {
        let (p, d) = uniform(5, 4);
        let o = AnalysisOptions::sharp();
        for m in [4usize, 8, 12, 16, 20, 24, 30, 40] {
            let e_plc = expected_levels(&p, &d, m, &o);
            let e_slc = crate::slc::expected_levels(&p, &d, m, &o);
            assert!(e_plc + 1e-9 >= e_slc, "m={m}: PLC {e_plc} < SLC {e_slc}");
        }
    }

    #[test]
    fn two_level_survival_matches_direct_enumeration() {
        // n=2, sizes (2,3), p = (0.3, 0.7), M = 7.
        // X >= 2 iff D_{1,2} = 7 >= 5 (always) and D_2 >= 3, i.e. D_1 <= 4.
        // X >= 1 iff D_1 >= 2 (decode via level 1) OR X >= 2; since
        // D_1 <= 4 covers D_1 in {0..4} and D_1 >= 2 covers {2..7}, the
        // union is everything: Pr(X>=1) = 1.
        let p = PriorityProfile::new(vec![2, 3]).unwrap();
        let d = PriorityDistribution::from_weights(vec![0.3, 0.7]).unwrap();
        let o = AnalysisOptions::sharp();
        let m = 7usize;
        let binom = |j: usize| -> f64 {
            let c = (0..j).fold(1.0, |acc, i| acc * (m - i) as f64 / (i + 1) as f64);
            c * 0.3f64.powi(j as i32) * 0.7f64.powi((m - j) as i32)
        };
        let direct_k2: f64 = (0..=4).map(binom).sum();
        let got_k2 = survival(&p, &d, m, 2, &o);
        assert!((got_k2 - direct_k2).abs() < 1e-9, "{got_k2} vs {direct_k2}");
        let got_k1 = survival(&p, &d, m, 1, &o);
        assert!((got_k1 - 1.0).abs() < 1e-9, "{got_k1}");
        // Pr(X = 1) = Pr(D_1 >= 2 and D_1 >= 5) = Pr(D_1 >= 5).
        let direct_x1: f64 = (5..=7).map(binom).sum();
        let got_x1 = decode_exactly(&p, &d, m, 1, &o);
        assert!((got_x1 - direct_x1).abs() < 1e-9, "{got_x1} vs {direct_x1}");
    }

    #[test]
    fn per_level_blocks_insufficient_for_slc_still_decode_plc() {
        // All mass on the last level: PLC decodes everything once enough
        // full-support rows arrive; SLC never decodes level 1.
        let p = PriorityProfile::new(vec![2, 2]).unwrap();
        let d = PriorityDistribution::from_weights(vec![0.0, 1.0]).unwrap();
        let o = AnalysisOptions::sharp();
        let plc = survival(&p, &d, 10, 2, &o);
        assert!((plc - 1.0).abs() < 1e-9, "plc={plc}");
        // And level 1 decodes *through* level 2 even at exactly 4 blocks.
        let plc1 = survival(&p, &d, 4, 1, &o);
        assert!((plc1 - 1.0).abs() < 1e-9, "plc1={plc1}");
        let slc = crate::slc::survival(&p, &d, 10, 2, &o);
        assert!(slc < 1e-12);
    }

    #[test]
    fn rank_exact_close_to_sharp_for_gf256() {
        let (p, d) = uniform(3, 8);
        let sharp = AnalysisOptions::sharp();
        let exact = AnalysisOptions::rank_exact(256.0);
        for m in [24usize, 36, 60] {
            let es = expected_levels(&p, &d, m, &sharp);
            let ee = expected_levels(&p, &d, m, &exact);
            assert!(es - ee < 0.06, "m={m}: {es} vs {ee}");
        }
    }

    #[test]
    fn monte_carlo_agreement_moderate_size() {
        // Direct cross-validation against the real decoder at a size
        // large enough to be meaningful but fast: N=30, 3 levels.
        use prlc_core::{Encoder, PlcDecoder, PriorityDecoder, Scheme};
        use prlc_gf::Gf256;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let p = PriorityProfile::new(vec![5, 10, 15]).unwrap();
        let d = PriorityDistribution::uniform(3);
        let o = AnalysisOptions::sharp();
        let mut rng = StdRng::seed_from_u64(1234);
        for m in [12usize, 24, 36] {
            let runs = 400;
            let mut acc = 0.0;
            for _ in 0..runs {
                let enc = Encoder::new(Scheme::Plc, p.clone());
                let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(p.clone());
                for _ in 0..m {
                    let level = d.sample_level(&mut rng);
                    dec.insert_block(&enc.encode_unpayloaded::<Gf256, _>(level, &mut rng));
                }
                acc += dec.decoded_levels() as f64;
            }
            let sim = acc / runs as f64;
            let ana = expected_levels(&p, &d, m, &o);
            assert!(
                (sim - ana).abs() < 0.25,
                "m={m}: sim {sim} vs analysis {ana}"
            );
        }
    }
}
