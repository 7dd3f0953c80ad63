//! Golden digests of the Sec. 3.3 closed forms.
//!
//! Each case evaluates `plc::distribution`, `plc::decode_exactly`,
//! `slc::survival`, `slc::expected_levels` and `curves::expected_levels`
//! for RLC, SLC and PLC at a fixed set of block counts, renders every
//! value at `{:.12e}` and pins the FNV-1a digest of the text. The block
//! counts cover `M = 0`, a count below `b_1`, `M = 95, 96, 97` (where a
//! length-`M + 1` convolution switches from the schoolbook to the FFT
//! path), `M = N` and `M = 2N`. The digests are the golden file
//! `analysis_golden.txt`, keyed `<profile>/<distribution>/<model>`. A
//! change to how the analysis computes its products must leave every
//! digest unchanged; a failure writes the current listing to
//! `target/tmp/analysis_golden.txt`, and a deliberate change to its
//! values re-pins by copying it over the golden file.

use prlc_analysis::{curves, plc, slc, AnalysisOptions};
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_obs::{assert_golden, baseline::digest64};
use std::collections::BTreeMap;

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
    // Eight levels and `N = 64` either way: equal sizes, or sizes that
    // repeat only in part.
    let profiles = [
        ("uniform", PriorityProfile::uniform(8, 8)),
        (
            "nonuniform",
            PriorityProfile::new(vec![2, 4, 4, 6, 8, 8, 12, 20]),
        ),
    ];
    // Equal probabilities, or a skewed law whose probabilities repeat
    // only in part.
    let skewed = vec![8.0, 8.0, 6.0, 4.0, 4.0, 2.0, 1.0, 1.0];
    let laws = [
        ("uniform", PriorityDistribution::uniform(8)),
        (
            "skewed",
            PriorityDistribution::from_weights(skewed).expect("valid weights"),
        ),
    ];
    let models = [
        ("sharp", AnalysisOptions::sharp()),
        ("rank2", AnalysisOptions::rank_exact(2.0)),
        ("rank256", AnalysisOptions::rank_exact(256.0)),
    ];
    let mut got = BTreeMap::new();
    for (pname, p) in &profiles {
        let p = p.as_ref().expect("valid profile");
        for (dname, d) in &laws {
            for (oname, o) in &models {
                got.insert(
                    format!("{pname}/{dname}/{oname}"),
                    digest64(&render(p, d, o)),
                );
            }
        }
    }
    assert_golden!("analysis_golden.txt", got);
}
