//! In-memory decoding experiments — the simulation methodology of
//! Sec. 5: "we randomly generate a set of coded blocks according to the
//! priority distribution and the encoding algorithms, and use the
//! partial decoding algorithms to recover the maximal number of source
//! blocks from the coded blocks."
//!
//! One simulated run feeds a stream of randomly generated blocks to a
//! progressive decoder and records the decoded-level count after *every*
//! block — because the stream is i.i.d., the prefix of length `M` is
//! exactly "M randomly accumulated coded blocks", so a single pass
//! yields the entire decoding curve. Runs are averaged with 95%
//! confidence intervals ([`crate::stats`]).

use prlc_core::baseline::{GrowthDecoder, GrowthEncoder, ReplicationDecoder, ReplicationEncoder};
use prlc_core::{
    Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme, SlcDecoder,
};
use prlc_gf::GfElem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::runner::{default_threads, run_parallel_with_threads};
use crate::stats::{summarize_trajectories, Summary};

/// Which persistence scheme an experiment exercises: one of the paper's
/// codes, or a baseline from its related-work comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Persistence {
    /// RLC / SLC / PLC.
    Coding(Scheme),
    /// Priority-aware replication (no coding).
    Replication,
    /// Growth Codes (priority-blind XOR codes with a degree schedule).
    Growth,
}

impl std::fmt::Display for Persistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Persistence::Coding(s) => write!(f, "{s}"),
            Persistence::Replication => write!(f, "Replication"),
            Persistence::Growth => write!(f, "GrowthCodes"),
        }
    }
}

/// Configuration of a decoding-curve experiment.
#[derive(Debug, Clone)]
pub struct CurveConfig {
    /// Scheme under test.
    pub persistence: Persistence,
    /// Level sizes.
    pub profile: PriorityProfile,
    /// Priority distribution for generating coded blocks (ignored by
    /// Growth Codes, which are priority-blind).
    pub distribution: PriorityDistribution,
    /// Maximum number of coded blocks to process per run.
    pub max_blocks: usize,
    /// Number of independent runs (the paper uses 100).
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

/// A simulated decoding curve: `summaries[m]` is the decoded-level
/// statistic after `m` processed blocks (`summaries[0]` is always 0).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecodingCurve {
    /// Per-block-count summaries, indexed by number of processed blocks.
    pub summaries: Vec<Summary>,
}

impl DecodingCurve {
    /// Summaries at selected block counts.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `ms` exceeds the simulated maximum.
    pub fn at(&self, ms: &[usize]) -> Vec<Summary> {
        ms.iter().map(|&m| self.summaries[m]).collect()
    }

    /// The largest simulated block count.
    pub fn max_blocks(&self) -> usize {
        self.summaries.len() - 1
    }
}

/// Runs the decoding-curve experiment over field `F` with the runner's
/// default worker count.
pub fn simulate_decoding_curve<F: GfElem>(cfg: &CurveConfig) -> DecodingCurve {
    simulate_decoding_curve_with_threads::<F>(cfg, default_threads())
}

/// [`simulate_decoding_curve`] with an explicit worker-thread count.
/// Results are independent of `threads`.
pub fn simulate_decoding_curve_with_threads<F: GfElem>(
    cfg: &CurveConfig,
    threads: usize,
) -> DecodingCurve {
    let trajectories = run_parallel_with_threads(cfg.runs, cfg.seed, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        one_trajectory::<F>(cfg, &mut rng)
    });
    DecodingCurve {
        summaries: summarize_trajectories(&trajectories),
    }
}

/// One run: decoded levels after each of `0..=max_blocks` blocks.
fn one_trajectory<F: GfElem>(cfg: &CurveConfig, rng: &mut StdRng) -> Vec<f64> {
    let mut out = Vec::with_capacity(cfg.max_blocks + 1);
    out.push(0.0);
    match cfg.persistence {
        Persistence::Coding(Scheme::Slc) => {
            let enc = Encoder::new(Scheme::Slc, cfg.profile.clone());
            let mut dec: SlcDecoder<F, ()> = SlcDecoder::coefficients_only(cfg.profile.clone());
            for _ in 0..cfg.max_blocks {
                let level = cfg.distribution.sample_level(rng);
                dec.insert_row(level, enc.encode_coefficients(level, rng), ());
                out.push(dec.decoded_levels() as f64);
            }
        }
        Persistence::Coding(scheme) => {
            let enc = Encoder::new(scheme, cfg.profile.clone());
            let mut dec: PlcDecoder<F, ()> = PlcDecoder::coefficients_only(cfg.profile.clone());
            for _ in 0..cfg.max_blocks {
                let level = cfg.distribution.sample_level(rng);
                dec.insert_row(enc.encode_coefficients(level, rng), ());
                out.push(dec.decoded_levels() as f64);
            }
        }
        Persistence::Replication => {
            let n = cfg.profile.total_blocks();
            let sources: Vec<Vec<F>> = vec![Vec::new(); n];
            let enc = ReplicationEncoder::new(cfg.profile.clone());
            let mut dec: ReplicationDecoder<F> = ReplicationDecoder::new(cfg.profile.clone());
            for _ in 0..cfg.max_blocks {
                let r = enc.encode_random_level(&cfg.distribution, &sources, rng);
                dec.insert(&r);
                out.push(dec.decoded_levels() as f64);
            }
        }
        Persistence::Growth => {
            let n = cfg.profile.total_blocks();
            let sources: Vec<Vec<F>> = vec![Vec::new(); n];
            let enc = GrowthEncoder::new(n);
            let mut dec: GrowthDecoder<F> = GrowthDecoder::new(n);
            for _ in 0..cfg.max_blocks {
                let cw = enc.encode(dec.decoded_blocks(), &sources, rng);
                dec.insert(&cw);
                out.push(growth_levels(&cfg.profile, &dec) as f64);
            }
        }
    }
    out
}

/// Strict-priority decoded-level count for a Growth-Codes decoder:
/// consecutive levels whose blocks are all recovered.
pub fn growth_levels<F: GfElem>(profile: &PriorityProfile, dec: &GrowthDecoder<F>) -> usize {
    (0..profile.num_levels())
        .take_while(|&l| profile.blocks_of(l).all(|i| dec.is_decoded(i)))
        .count()
}

/// Configuration of a survivability sweep: blocks are stored, a fraction
/// is destroyed by node failure, and the survivors are decoded — the
/// paper's motivating scenario ("data in the first k levels can survive
/// more severe node failures the smaller M_i is").
#[derive(Debug, Clone)]
pub struct SurvivabilityConfig {
    /// Scheme under test.
    pub persistence: Persistence,
    /// Level sizes.
    pub profile: PriorityProfile,
    /// Priority distribution used when storing.
    pub distribution: PriorityDistribution,
    /// Blocks stored in the network before the failure event.
    pub stored_blocks: usize,
    /// Number of independent runs.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

/// Mean decoded levels (with CI) after destroying each failure fraction,
/// using the runner's default worker count.
pub fn simulate_survivability<F: GfElem>(
    cfg: &SurvivabilityConfig,
    loss_fractions: &[f64],
) -> Vec<Summary> {
    simulate_survivability_with_threads::<F>(cfg, loss_fractions, default_threads())
}

/// [`simulate_survivability`] with an explicit worker-thread count.
/// Results are independent of `threads`.
pub fn simulate_survivability_with_threads<F: GfElem>(
    cfg: &SurvivabilityConfig,
    loss_fractions: &[f64],
    threads: usize,
) -> Vec<Summary> {
    let fractions = loss_fractions.to_vec();
    let trajectories = run_parallel_with_threads(cfg.runs, cfg.seed, threads, move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        fractions
            .iter()
            .map(|&f| one_survival::<F>(cfg, f, &mut rng) as f64)
            .collect::<Vec<f64>>()
    });
    summarize_trajectories(&trajectories)
}

fn one_survival<F: GfElem>(cfg: &SurvivabilityConfig, loss: f64, rng: &mut StdRng) -> usize {
    let keep = |rng: &mut StdRng| !rng.gen_bool(loss);
    match cfg.persistence {
        Persistence::Coding(Scheme::Slc) => {
            let enc = Encoder::new(Scheme::Slc, cfg.profile.clone());
            let mut dec: SlcDecoder<F, ()> = SlcDecoder::coefficients_only(cfg.profile.clone());
            for _ in 0..cfg.stored_blocks {
                let level = cfg.distribution.sample_level(rng);
                let b = enc.encode_unpayloaded::<F, _>(level, rng);
                if keep(rng) {
                    dec.insert_block(&b);
                }
            }
            dec.decoded_levels()
        }
        Persistence::Coding(scheme) => {
            let enc = Encoder::new(scheme, cfg.profile.clone());
            let mut dec: PlcDecoder<F, ()> = PlcDecoder::coefficients_only(cfg.profile.clone());
            for _ in 0..cfg.stored_blocks {
                let level = cfg.distribution.sample_level(rng);
                let b = enc.encode_unpayloaded::<F, _>(level, rng);
                if keep(rng) {
                    dec.insert_block(&b);
                }
            }
            dec.decoded_levels()
        }
        Persistence::Replication => {
            let n = cfg.profile.total_blocks();
            let sources: Vec<Vec<F>> = vec![Vec::new(); n];
            let enc = ReplicationEncoder::new(cfg.profile.clone());
            let mut dec: ReplicationDecoder<F> = ReplicationDecoder::new(cfg.profile.clone());
            for _ in 0..cfg.stored_blocks {
                let r = enc.encode_random_level(&cfg.distribution, &sources, rng);
                if keep(rng) {
                    dec.insert(&r);
                }
            }
            dec.decoded_levels()
        }
        Persistence::Growth => {
            // Codewords are generated against an idealised progress
            // estimate (the shadow decoder sees every stored block), then
            // thinned by the failure — the most favourable reading of the
            // Growth-Codes degree schedule.
            let n = cfg.profile.total_blocks();
            let sources: Vec<Vec<F>> = vec![Vec::new(); n];
            let enc = GrowthEncoder::new(n);
            let mut shadow: GrowthDecoder<F> = GrowthDecoder::new(n);
            let mut dec: GrowthDecoder<F> = GrowthDecoder::new(n);
            for _ in 0..cfg.stored_blocks {
                let cw = enc.encode(shadow.decoded_blocks(), &sources, rng);
                shadow.insert(&cw);
                if keep(rng) {
                    dec.insert(&cw);
                }
            }
            growth_levels(&cfg.profile, &dec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;

    fn base_cfg(p: Persistence) -> CurveConfig {
        CurveConfig {
            persistence: p,
            profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            distribution: PriorityDistribution::uniform(3),
            max_blocks: 30,
            runs: 10,
            seed: 1,
        }
    }

    #[test]
    fn curves_are_monotone_and_bounded() {
        for p in [
            Persistence::Coding(Scheme::Rlc),
            Persistence::Coding(Scheme::Slc),
            Persistence::Coding(Scheme::Plc),
            Persistence::Replication,
            Persistence::Growth,
        ] {
            let curve = simulate_decoding_curve::<Gf256>(&base_cfg(p));
            assert_eq!(curve.summaries.len(), 31);
            assert_eq!(curve.summaries[0].mean, 0.0);
            for w in curve.summaries.windows(2) {
                assert!(w[1].mean + 1e-12 >= w[0].mean, "{p}: not monotone");
            }
            assert!(curve.summaries.iter().all(|s| s.mean <= 3.0));
            assert_eq!(curve.max_blocks(), 30);
        }
    }

    #[test]
    fn plc_curve_dominates_slc_and_rlc() {
        // Domination holds in expectation (Theorem 1 of the technical
        // report); with finite runs allow sampling noise pointwise and
        // require a clear win in the aggregate.
        let mut cfg = base_cfg(Persistence::Coding(Scheme::Plc));
        cfg.runs = 60;
        let plc = simulate_decoding_curve::<Gf256>(&cfg);
        cfg.persistence = Persistence::Coding(Scheme::Slc);
        let slc = simulate_decoding_curve::<Gf256>(&cfg);
        cfg.persistence = Persistence::Coding(Scheme::Rlc);
        let rlc = simulate_decoding_curve::<Gf256>(&cfg);
        let mut plc_wins_rlc = 0;
        let (mut plc_area, mut slc_area) = (0.0, 0.0);
        for m in 1..=30 {
            assert!(
                plc.summaries[m].mean + 0.3 >= slc.summaries[m].mean,
                "m={m}: PLC {} far below SLC {}",
                plc.summaries[m].mean,
                slc.summaries[m].mean
            );
            plc_area += plc.summaries[m].mean;
            slc_area += slc.summaries[m].mean;
            if plc.summaries[m].mean > rlc.summaries[m].mean {
                plc_wins_rlc += 1;
            }
        }
        assert!(plc_area + 1e-9 >= slc_area, "{plc_area} < {slc_area}");
        assert!(plc_wins_rlc > 5, "PLC never beat RLC below N");
    }

    #[test]
    fn curve_at_selects_points() {
        let curve = simulate_decoding_curve::<Gf256>(&base_cfg(Persistence::Coding(Scheme::Plc)));
        let picks = curve.at(&[0, 10, 30]);
        assert_eq!(picks.len(), 3);
        assert_eq!(picks[0].mean, 0.0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = base_cfg(Persistence::Coding(Scheme::Plc));
        let one = simulate_decoding_curve_with_threads::<Gf256>(&cfg, 1);
        let four = simulate_decoding_curve_with_threads::<Gf256>(&cfg, 4);
        for (x, y) in one.summaries.iter().zip(&four.summaries) {
            assert_eq!(x.mean, y.mean);
            assert_eq!(x.ci95, y.ci95);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = base_cfg(Persistence::Coding(Scheme::Plc));
        let a = simulate_decoding_curve::<Gf256>(&cfg);
        let b = simulate_decoding_curve::<Gf256>(&cfg);
        for (x, y) in a.summaries.iter().zip(&b.summaries) {
            assert_eq!(x.mean, y.mean);
        }
    }

    #[test]
    fn simulation_tracks_analysis() {
        // The Sec. 5.1 validation in miniature: simulated PLC curve vs
        // the analytical curve.
        let mut cfg = base_cfg(Persistence::Coding(Scheme::Plc));
        cfg.runs = 60;
        let curve = simulate_decoding_curve::<Gf256>(&cfg);
        let opts = prlc_analysis::AnalysisOptions::sharp();
        for m in [5usize, 10, 15, 20, 25, 30] {
            let analytic = prlc_analysis::curves::expected_levels(
                Scheme::Plc,
                &cfg.profile,
                &cfg.distribution,
                m,
                &opts,
            );
            let sim = curve.summaries[m].mean;
            assert!(
                (sim - analytic).abs() < 0.35,
                "m={m}: sim {sim} vs analysis {analytic}"
            );
        }
    }

    #[test]
    fn survivability_degrades_with_loss() {
        let cfg = SurvivabilityConfig {
            persistence: Persistence::Coding(Scheme::Plc),
            profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            distribution: PriorityDistribution::uniform(3),
            stored_blocks: 40,
            runs: 20,
            seed: 3,
        };
        let out = simulate_survivability::<Gf256>(&cfg, &[0.0, 0.3, 0.6, 0.95]);
        assert_eq!(out.len(), 4);
        // No loss with 4x overhead: everything decodes.
        assert!(out[0].mean > 2.5, "mean at 0 loss: {}", out[0].mean);
        // Heavier loss never helps.
        for w in out.windows(2) {
            assert!(w[1].mean <= w[0].mean + 0.2);
        }
        assert!(out[3].mean < 1.5);
    }

    #[test]
    fn growth_levels_counts_prefix() {
        let profile = PriorityProfile::new(vec![1, 2]).unwrap();
        let mut dec: GrowthDecoder<Gf256> = GrowthDecoder::new(3);
        assert_eq!(growth_levels(&profile, &dec), 0);
        dec.insert(&prlc_core::baseline::growth::Codeword {
            members: vec![0],
            payload: Vec::new(),
        });
        assert_eq!(growth_levels(&profile, &dec), 1);
        dec.insert(&prlc_core::baseline::growth::Codeword {
            members: vec![2],
            payload: Vec::new(),
        });
        assert_eq!(growth_levels(&profile, &dec), 1); // level 2 incomplete
    }

    #[test]
    fn display_names() {
        assert_eq!(Persistence::Coding(Scheme::Plc).to_string(), "PLC");
        assert_eq!(Persistence::Replication.to_string(), "Replication");
        assert_eq!(Persistence::Growth.to_string(), "GrowthCodes");
    }
}
