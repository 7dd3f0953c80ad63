//! Property tests over the coding invariants that hold for *every*
//! profile, scheme, field and block stream.

use proptest::prelude::*;

use prlc_gf::{Gf16, Gf256, GfElem};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baseline::{GrowthDecoder, GrowthEncoder};
use crate::decoder::{PlcDecoder, PriorityDecoder, SlcDecoder};
use crate::encoder::Encoder;
use crate::priority::{PriorityDistribution, PriorityProfile};
use crate::scheme::Scheme;
use crate::seeded::SeededEncoder;

fn profile_strategy() -> impl Strategy<Value = PriorityProfile> {
    prop::collection::vec(1usize..6, 1..5)
        .prop_map(|s| PriorityProfile::new(s).expect("nonzero sizes"))
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![Just(Scheme::Rlc), Just(Scheme::Slc), Just(Scheme::Plc)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decoded levels are monotone in the number of blocks, bounded by
    /// the level count, and payloads always verify against the sources.
    #[test]
    fn decoding_invariants_hold_for_any_stream(
        profile in profile_strategy(),
        scheme in scheme_strategy(),
        seed in 0u64..200,
    ) {
        let n = profile.total_blocks();
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<Vec<Gf256>> = (0..n)
            .map(|_| vec![Gf256::random(&mut rng), Gf256::random(&mut rng)])
            .collect();
        let dist = PriorityDistribution::uniform(profile.num_levels());
        let enc = Encoder::new(scheme, profile.clone());

        // Run both decoder shapes over the same stream where possible.
        let mut plc = PlcDecoder::with_payloads(profile.clone());
        let mut slc = SlcDecoder::with_payloads(profile.clone());
        let mut last_levels = 0usize;
        for _ in 0..(2 * n + 4) {
            let level = dist.sample_level(&mut rng);
            let block = enc.encode(level, &sources, &mut rng);
            let levels = match scheme {
                Scheme::Slc => {
                    slc.insert_block(&block);
                    slc.decoded_levels()
                }
                _ => {
                    plc.insert_block(&block);
                    plc.decoded_levels()
                }
            };
            prop_assert!(levels >= last_levels, "decoded levels regressed");
            prop_assert!(levels <= profile.num_levels());
            last_levels = levels;
        }
        // Everything that claims to be recovered matches the source.
        match scheme {
            Scheme::Slc => {
                for (i, s) in sources.iter().enumerate() {
                    if let Some(p) = slc.recovered(i) {
                        prop_assert_eq!(p, &s[..], "block {}", i);
                    }
                }
                prop_assert!(slc.decoded_blocks() <= n);
            }
            _ => {
                for (i, s) in sources.iter().enumerate() {
                    if let Some(p) = plc.recovered(i) {
                        prop_assert_eq!(p, &s[..], "block {}", i);
                    }
                }
                prop_assert!(plc.decoded_blocks() <= n);
                prop_assert!(plc.rank() <= n);
            }
        }
    }

    /// Per-stream domination: feeding the *same* per-level block counts,
    /// PLC decodes at least as many strict-priority levels as SLC.
    #[test]
    fn plc_dominates_slc_per_stream(
        profile in profile_strategy(),
        seed in 0u64..200,
        budget_mult in 1usize..3,
    ) {
        let n = profile.total_blocks();
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = PriorityDistribution::uniform(profile.num_levels());
        let slc_enc = Encoder::new(Scheme::Slc, profile.clone());
        let plc_enc = Encoder::new(Scheme::Plc, profile.clone());
        let mut slc: SlcDecoder<Gf256, ()> = SlcDecoder::coefficients_only(profile.clone());
        let mut plc: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile.clone());
        for _ in 0..(budget_mult * n) {
            // Identical level sequence for both schemes.
            let level = dist.sample_level(&mut rng);
            slc.insert_block(&slc_enc.encode_unpayloaded::<Gf256, _>(level, &mut rng));
            plc.insert_block(&plc_enc.encode_unpayloaded::<Gf256, _>(level, &mut rng));
        }
        // With a large field the block counts determine decodability up
        // to ~1/255 singularities; allow equality but catch systematic
        // inversions.
        prop_assert!(
            plc.decoded_levels() + 1 >= slc.decoded_levels(),
            "PLC {} far below SLC {}",
            plc.decoded_levels(),
            slc.decoded_levels()
        );
    }

    /// Seeded (compact) encoding expands to the identical coded block
    /// stream as direct encoding never loses information.
    #[test]
    fn seeded_expansion_is_lossless(
        profile in profile_strategy(),
        scheme in scheme_strategy(),
        seed in 0u64..500,
    ) {
        let n = profile.total_blocks();
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<Vec<Gf16>> = (0..n)
            .map(|_| vec![Gf16::random(&mut rng)])
            .collect();
        let enc = SeededEncoder::new(scheme, profile.clone());
        let level = (seed as usize) % profile.num_levels();
        let compact = enc.encode::<Gf16>(level, seed ^ 0xABCD, &sources);
        let a = enc.expand(&compact);
        let b = enc.expand(&compact);
        prop_assert_eq!(&a, &b, "expansion must be deterministic");
        // The expanded coefficients reproduce the payload.
        let mut want = vec![Gf16::ZERO; 1];
        for (c, s) in a.coefficients.to_dense_vec().iter().zip(&sources) {
            Gf16::axpy(&mut want, *c, s);
        }
        prop_assert_eq!(want, a.payload);
    }

    /// The growth-codes peeling decoder never reports an incorrect
    /// payload and always terminates.
    #[test]
    fn growth_decoder_is_sound(
        n in 1usize..30,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<Vec<Gf256>> = (0..n)
            .map(|_| vec![Gf256::random(&mut rng)])
            .collect();
        let enc = GrowthEncoder::new(n);
        let mut dec: GrowthDecoder<Gf256> = GrowthDecoder::new(n);
        for _ in 0..(6 * n + 10) {
            let cw = enc.encode(dec.decoded_blocks(), &sources, &mut rng);
            dec.insert(&cw);
            if dec.is_complete() {
                break;
            }
        }
        for (i, s) in sources.iter().enumerate() {
            if let Some(p) = dec.recovered(i) {
                prop_assert_eq!(p, &s[..], "block {}", i);
            }
        }
    }

    /// Distribution allocation and sampling agree: over many samples the
    /// empirical level frequencies approach the distribution.
    #[test]
    fn sampling_and_allocation_are_consistent(
        weights in prop::collection::vec(0.05f64..1.0, 1..6),
        seed in 0u64..100,
    ) {
        let dist = PriorityDistribution::from_weights(weights).unwrap();
        let n = dist.num_levels();
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = 4000usize;
        let mut counts = vec![0usize; n];
        for _ in 0..samples {
            counts[dist.sample_level(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = dist.p(i) * samples as f64;
            // 5-sigma binomial bound.
            let sigma = (samples as f64 * dist.p(i) * (1.0 - dist.p(i))).sqrt();
            prop_assert!(
                (c as f64 - expect).abs() <= 5.0 * sigma + 5.0,
                "level {}: {} vs {}",
                i, c, expect
            );
        }
    }
}
