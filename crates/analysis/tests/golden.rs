//! Golden digests of the Sec. 3.3 closed forms.
//!
//! Each case evaluates `plc::distribution`, `plc::decode_exactly`,
//! `slc::survival`, `slc::expected_levels` and `curves::expected_levels`
//! for RLC, SLC and PLC at a fixed set of block counts, renders every
//! value at `{:.12e}` and pins the FNV-1a digest of the text. The block
//! counts cover `M = 0`, a count below `b_1`, `M = 95, 96, 97` (where a
//! length-`M + 1` convolution switches from the schoolbook to the FFT
//! path), `M = N` and `M = 2N`. A change to how the analysis computes
//! its products must leave every digest unchanged; a deliberate change
//! to its values re-pins the table below.

use prlc_analysis::{curves, plc, slc, AnalysisOptions};
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_obs::baseline::digest64;

/// `(profile name, distribution name, model name, digest)`.
const CASES: &[(&str, &str, &str, &str)] = &[
    ("uniform", "uniform", "sharp", "fnv1a:78d02a788293e9ef"),
    ("uniform", "uniform", "rank2", "fnv1a:05a082a603fc8a35"),
    ("uniform", "uniform", "rank256", "fnv1a:dac457d9eec37c4d"),
    ("uniform", "skewed", "sharp", "fnv1a:4f88bb9bb7e3543c"),
    ("uniform", "skewed", "rank2", "fnv1a:c5327014b73d4f14"),
    ("uniform", "skewed", "rank256", "fnv1a:3522c2037ae6f46e"),
    ("nonuniform", "uniform", "sharp", "fnv1a:fed09bd0d78972d5"),
    ("nonuniform", "uniform", "rank2", "fnv1a:2a2a350f070ce13d"),
    ("nonuniform", "uniform", "rank256", "fnv1a:a991fce4a9f98c6a"),
    ("nonuniform", "skewed", "sharp", "fnv1a:884f4c15602b3146"),
    ("nonuniform", "skewed", "rank2", "fnv1a:466ee9a8ce7f8a68"),
    ("nonuniform", "skewed", "rank256", "fnv1a:7686befcb2fd97ef"),
];

/// Eight levels and `N = 64` either way: equal sizes, or sizes that
/// repeat only in part.
fn profile(name: &str) -> PriorityProfile {
    match name {
        "uniform" => PriorityProfile::uniform(8, 8),
        "nonuniform" => PriorityProfile::new(vec![2, 4, 4, 6, 8, 8, 12, 20]),
        other => panic!("unknown profile {other}"),
    }
    .expect("valid profile")
}

/// Equal probabilities, or a skewed law whose probabilities repeat only
/// in part.
fn distribution(name: &str, levels: usize) -> PriorityDistribution {
    match name {
        "uniform" => PriorityDistribution::uniform(levels),
        "skewed" => {
            let weights = [8.0, 8.0, 6.0, 4.0, 4.0, 2.0, 1.0, 1.0];
            PriorityDistribution::from_weights(weights[..levels].to_vec()).expect("valid weights")
        }
        other => panic!("unknown distribution {other}"),
    }
}

fn options(name: &str) -> AnalysisOptions {
    match name {
        "sharp" => AnalysisOptions::sharp(),
        "rank2" => AnalysisOptions::rank_exact(2.0),
        "rank256" => AnalysisOptions::rank_exact(256.0),
        other => panic!("unknown model {other}"),
    }
}

/// Every value the case pins, one labelled line per function and `M`.
fn render(
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    opts: &AnalysisOptions,
) -> String {
    let n = profile.num_levels();
    let big_n = profile.total_blocks();
    let below_b1 = profile.bound(1) - 1;
    let mut out = String::new();
    let mut line = |label: String, values: &[f64]| {
        out.push_str(&label);
        for v in values {
            out.push_str(&format!(" {v:.12e}"));
        }
        out.push('\n');
    };
    for m in [0, below_b1, 95, 96, 97, big_n, 2 * big_n] {
        line(
            format!("plc::distribution M={m}"),
            &plc::distribution(profile, dist, m, opts),
        );
        let exact: Vec<f64> = (0..=n)
            .map(|k| plc::decode_exactly(profile, dist, m, k, opts))
            .collect();
        line(format!("plc::decode_exactly M={m}"), &exact);
        let survival: Vec<f64> = (0..=n)
            .map(|k| slc::survival(profile, dist, m, k, opts))
            .collect();
        line(format!("slc::survival M={m}"), &survival);
        line(
            format!("slc::expected_levels M={m}"),
            &[slc::expected_levels(profile, dist, m, opts)],
        );
        for scheme in Scheme::ALL {
            line(
                format!("curves::expected_levels {scheme} M={m}"),
                &[curves::expected_levels(scheme, profile, dist, m, opts)],
            );
        }
    }
    out
}

#[test]
fn analysis_outputs_match_their_golden_digests() {
    let mut moved = Vec::new();
    for &(pname, dname, oname, want) in CASES {
        let p = profile(pname);
        let d = distribution(dname, p.num_levels());
        let got = digest64(&render(&p, &d, &options(oname)));
        if got != want {
            moved.push(format!(
                "({pname:?}, {dname:?}, {oname:?}, {got:?}) was {want}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "golden digests moved:\n{}",
        moved.join("\n")
    );
}
