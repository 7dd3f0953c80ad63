//! Property tests: probability laws, and agreement between the
//! analytical curves and Monte-Carlo simulation of the real decoders —
//! the same validation Sec. 5.1 of the paper performs at scale.

use proptest::prelude::*;

use prlc_core::{
    Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme, SlcDecoder,
};
use prlc_gf::Gf256;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::AnalysisOptions;
use crate::{curves, plc, slc};

fn profile_strategy() -> impl Strategy<Value = PriorityProfile> {
    prop::collection::vec(1usize..6, 1..5)
        .prop_map(|sizes| PriorityProfile::new(sizes).expect("nonzero sizes"))
}

/// Up to eight levels whose sizes repeat often (multiples of 5), so the
/// memoised DP chains share prefixes across `k`; paired with block
/// counts on both sides of the FFT threshold.
fn repeating_profile_strategy() -> impl Strategy<Value = PriorityProfile> {
    prop::collection::vec(1usize..4, 1..9)
        .prop_map(|units| PriorityProfile::new(units.iter().map(|u| 5 * u).collect()).unwrap())
}

/// Uniform, repeating (weights from {1, 2}) or irregular priority laws.
fn law(n: usize, kind: u8, seed: u64) -> PriorityDistribution {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = match kind {
        0 => return PriorityDistribution::uniform(n),
        1 => (0..n)
            .map(|_| rand::Rng::gen_range(&mut rng, 1..3) as f64)
            .collect(),
        _ => (0..n)
            .map(|_| rand::Rng::gen_range(&mut rng, 0.1..1.0))
            .collect(),
    };
    PriorityDistribution::from_weights(weights).unwrap()
}

/// The paper's sharp model and the rank-exact model over GF(2), GF(2⁸).
fn model(kind: u8) -> AnalysisOptions {
    match kind {
        0 => AnalysisOptions::sharp(),
        1 => AnalysisOptions::rank_exact(2.0),
        _ => AnalysisOptions::rank_exact(256.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn survival_probabilities_form_a_law(
        profile in profile_strategy(),
        m in 0usize..40,
        seed in 0u64..100,
    ) {
        let n = profile.num_levels();
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0.1..1.0)).collect();
        let dist = PriorityDistribution::from_weights(w).unwrap();
        let o = AnalysisOptions::sharp();
        for scheme in Scheme::ALL {
            let mut last = 1.0f64;
            for k in 0..=n {
                let s = curves::survival(scheme, &profile, &dist, m, k, &o);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "{scheme} k={k}: {s}");
                prop_assert!(s <= last + 1e-9, "{scheme}: survival not monotone");
                last = s;
            }
            let total: f64 = (0..=n)
                .map(|k| curves::decode_exactly(scheme, &profile, &dist, m, k, &o))
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-8, "{scheme}: sums to {total}");
            // E(X) equals the survival sum by construction; check it also
            // equals sum k * P(X = k).
            let e = curves::expected_levels(scheme, &profile, &dist, m, &o);
            let e2: f64 = (1..=n)
                .map(|k| k as f64 * curves::decode_exactly(scheme, &profile, &dist, m, k, &o))
                .sum();
            prop_assert!((e - e2).abs() < 1e-7, "{scheme}: {e} vs {e2}");
        }
    }

    #[test]
    fn plc_distribution_entries_are_decode_exactly_bit_for_bit(
        profile in repeating_profile_strategy(),
        m in 0usize..160,
        law_kind in 0u8..3,
        model_kind in 0u8..3,
        seed in 0u64..100,
    ) {
        let n = profile.num_levels();
        let dist = law(n, law_kind, seed);
        let o = model(model_kind);
        let probs = plc::distribution(&profile, &dist, m, &o);
        // The entries `distribution` evaluated: from the longest
        // countable prefix down, until the captured mass reaches
        // 1 − 1e-12 — its own order and stop.
        let m_lvl = (0..=n).rev().find(|&i| profile.bound(i) <= m).unwrap_or(0);
        let mut captured = 0.0;
        for k in (0..=m_lvl).rev() {
            let exact = plc::decode_exactly(&profile, &dist, m, k, &o);
            prop_assert_eq!(probs[k].to_bits(), exact.to_bits(), "k={} m={}", k, m);
            captured += probs[k];
            if captured >= 1.0 - 1e-12 {
                break;
            }
        }
    }

    #[test]
    fn slc_expected_levels_is_the_survival_sum_bit_for_bit(
        profile in repeating_profile_strategy(),
        m in 0usize..160,
        law_kind in 0u8..3,
        model_kind in 0u8..3,
        seed in 0u64..100,
    ) {
        let n = profile.num_levels();
        let dist = law(n, law_kind, seed);
        let o = model(model_kind);
        let mut sum = 0.0;
        for k in 1..=n {
            let s = slc::survival(&profile, &dist, m, k, &o);
            sum += s;
            if s < 1e-12 {
                break;
            }
        }
        let e = slc::expected_levels(&profile, &dist, m, &o);
        prop_assert_eq!(e.to_bits(), sum.to_bits(), "m={}: {} vs {}", m, e, sum);
    }

    #[test]
    fn plc_analysis_matches_monte_carlo(
        sizes in prop::collection::vec(1usize..5, 1..4),
        seed in 0u64..50,
    ) {
        let profile = PriorityProfile::new(sizes).unwrap();
        let n = profile.num_levels();
        let total = profile.total_blocks();
        let dist = PriorityDistribution::uniform(n);
        let o = AnalysisOptions::sharp();
        let m = total; // mid-curve: neither trivially 0 nor saturated

        let runs = 300usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = 0.0f64;
        for _ in 0..runs {
            let enc = Encoder::new(Scheme::Plc, profile.clone());
            let mut dec: PlcDecoder<Gf256, ()> =
                PlcDecoder::coefficients_only(profile.clone());
            for _ in 0..m {
                let level = dist.sample_level(&mut rng);
                let b = enc.encode_unpayloaded::<Gf256, _>(level, &mut rng);
                dec.insert_block(&b);
            }
            acc += dec.decoded_levels() as f64;
        }
        let simulated = acc / runs as f64;
        let analytic = curves::expected_levels(Scheme::Plc, &profile, &dist, m, &o);
        // Monte-Carlo with 300 runs over a [0, n] variable: allow a
        // generous tolerance (plus the GF(256) singular-matrix gap the
        // sharp model ignores).
        let tol = 0.35 + 0.2 * n as f64 / 3.0;
        prop_assert!(
            (simulated - analytic).abs() < tol,
            "sim {simulated} vs analysis {analytic} (profile {:?})",
            profile.sizes()
        );
    }

    #[test]
    fn slc_analysis_matches_monte_carlo(
        sizes in prop::collection::vec(1usize..5, 1..4),
        seed in 0u64..50,
    ) {
        let profile = PriorityProfile::new(sizes).unwrap();
        let n = profile.num_levels();
        let total = profile.total_blocks();
        let dist = PriorityDistribution::uniform(n);
        let o = AnalysisOptions::sharp();
        let m = total + n; // SLC needs a little extra to be mid-curve

        let runs = 300usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = 0.0f64;
        for _ in 0..runs {
            let enc = Encoder::new(Scheme::Slc, profile.clone());
            let mut dec: SlcDecoder<Gf256, ()> =
                SlcDecoder::coefficients_only(profile.clone());
            for _ in 0..m {
                let level = dist.sample_level(&mut rng);
                let b = enc.encode_unpayloaded::<Gf256, _>(level, &mut rng);
                dec.insert_block(&b);
            }
            acc += dec.decoded_levels() as f64;
        }
        let simulated = acc / runs as f64;
        let analytic = curves::expected_levels(Scheme::Slc, &profile, &dist, m, &o);
        let tol = 0.35 + 0.2 * n as f64 / 3.0;
        prop_assert!(
            (simulated - analytic).abs() < tol,
            "sim {simulated} vs analysis {analytic} (profile {:?})",
            profile.sizes()
        );
    }

    #[test]
    fn plc_always_dominates_slc(
        profile in profile_strategy(),
        mult in 1usize..4,
    ) {
        let n = profile.num_levels();
        let dist = PriorityDistribution::uniform(n);
        let o = AnalysisOptions::sharp();
        let m = profile.total_blocks() * mult / 2;
        let plc = curves::expected_levels(Scheme::Plc, &profile, &dist, m, &o);
        let slc = curves::expected_levels(Scheme::Slc, &profile, &dist, m, &o);
        prop_assert!(plc + 1e-9 >= slc, "m={m}: PLC {plc} < SLC {slc}");
    }

    #[test]
    fn distributions_allocate_consistently(
        n in 1usize..6,
        m in 0usize..500,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0.0..1.0) + 1e-6).collect();
        let dist = PriorityDistribution::from_weights(w).unwrap();
        let counts = dist.allocate(m);
        prop_assert_eq!(counts.iter().sum::<usize>(), m);
        for (i, &c) in counts.iter().enumerate() {
            let exact = dist.p(i) * m as f64;
            prop_assert!((c as f64 - exact).abs() < 1.0 + 1e-9,
                "level {}: {} vs exact {}", i, c, exact);
        }
    }
}
