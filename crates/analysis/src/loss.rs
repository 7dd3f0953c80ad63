//! Survivability analysis: expected decoding after random block loss.
//!
//! The paper's motivating quantity — "the smaller `M_i` is, the more
//! severe node failures that the data in the first `k_i` levels can
//! survive" (Sec. 3.3) — made explicit: if `M` coded blocks were stored
//! and each independently survives a failure event with probability
//! `1 − loss` (uniform node failure destroys each cached block
//! independently), the surviving count is `Binomial(M, 1 − loss)` and
//!
//! `E[X | loss] = Σ_m P(Bin(M, 1−loss) = m) · E(X_m)`.
//!
//! The binomial mass outside ±6σ is negligible, so the mixture is
//! evaluated over that window only.

use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};

use crate::curves;
use crate::model::AnalysisOptions;
use crate::numeric::LnFactorial;

/// Expected decoded levels after storing `stored` blocks and losing each
/// independently with probability `loss`.
///
/// # Panics
///
/// Panics if `loss` is outside `[0, 1]`.
pub fn expected_levels_after_loss(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    stored: usize,
    loss: f64,
    opts: &AnalysisOptions,
) -> f64 {
    mixture(stored, loss, |m| {
        curves::expected_levels(scheme, profile, dist, m, opts)
    })
}

/// `E[X | loss]` over the binomial window, with `E(X_m)` read from
/// `expected`.
fn mixture(stored: usize, loss: f64, mut expected: impl FnMut(usize) -> f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&loss),
        "loss must be in [0,1], got {loss}"
    );
    if loss == 0.0 {
        return expected(stored);
    }
    if loss == 1.0 || stored == 0 {
        return 0.0;
    }
    let keep = 1.0 - loss;
    let mean = stored as f64 * keep;
    let sigma = (stored as f64 * keep * loss).sqrt();
    let lo = (mean - 6.0 * sigma).floor().max(0.0) as usize;
    let hi = (mean + 6.0 * sigma).ceil().min(stored as f64) as usize;

    let lnfact = LnFactorial::up_to(stored);
    let (lk, ll) = (keep.ln(), loss.ln());
    let mut acc = 0.0;
    let mut mass = 0.0;
    for m in lo..=hi {
        let ln_pmf = lnfact.get(stored) - lnfact.get(m) - lnfact.get(stored - m)
            + m as f64 * lk
            + (stored - m) as f64 * ll;
        let p = ln_pmf.exp();
        if p < 1e-14 {
            continue;
        }
        mass += p;
        acc += p * expected(m);
    }
    // Renormalise over the truncated window (mass ≈ 1 − 1e-9).
    if mass > 0.0 {
        acc / mass
    } else {
        0.0
    }
}

/// The largest loss fraction (within `tol`) at which the expected
/// decoded levels still reach each of `targets` — the *survivable
/// failure severity* of a deployment, found by one bisection per target
/// (`E[X | loss]` is non-increasing in the loss).
///
/// `E(X_m)` does not depend on the loss or the target, so each `m` is
/// evaluated once across every bisection.
///
/// Entry `i` is `None` if even lossless storage misses `targets[i]`.
///
/// # Panics
///
/// Panics if `tol` is not positive.
pub fn max_survivable_loss(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    stored: usize,
    targets: &[f64],
    tol: f64,
    opts: &AnalysisOptions,
) -> Vec<Option<f64>> {
    assert!(tol > 0.0, "tolerance must be positive");
    let mut curve = vec![None; stored + 1];
    let mut at = |loss: f64| {
        mixture(stored, loss, |m| {
            *curve[m].get_or_insert_with(|| curves::expected_levels(scheme, profile, dist, m, opts))
        })
    };
    let lossless = at(0.0);
    targets
        .iter()
        .map(|&target| {
            if lossless < target {
                return None;
            }
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            while hi - lo > tol {
                let mid = 0.5 * (lo + hi);
                if at(mid) >= target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Some(lo)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PriorityProfile, PriorityDistribution, AnalysisOptions) {
        (
            PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            PriorityDistribution::uniform(3),
            AnalysisOptions::sharp(),
        )
    }

    #[test]
    fn loss_boundaries() {
        let (p, d, o) = setup();
        let full = expected_levels_after_loss(Scheme::Plc, &p, &d, 40, 0.0, &o);
        assert_eq!(full, curves::expected_levels(Scheme::Plc, &p, &d, 40, &o));
        assert_eq!(
            expected_levels_after_loss(Scheme::Plc, &p, &d, 40, 1.0, &o),
            0.0
        );
        assert_eq!(
            expected_levels_after_loss(Scheme::Plc, &p, &d, 0, 0.5, &o),
            0.0
        );
    }

    #[test]
    fn loss_curve_is_monotone_decreasing() {
        let (p, d, o) = setup();
        for scheme in [Scheme::Slc, Scheme::Plc, Scheme::Rlc] {
            let mut last = f64::INFINITY;
            for loss in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95] {
                let e = expected_levels_after_loss(scheme, &p, &d, 30, loss, &o);
                assert!(e <= last + 1e-9, "{scheme} loss={loss}");
                assert!((0.0..=3.0 + 1e-9).contains(&e));
                last = e;
            }
        }
    }

    #[test]
    fn matches_monte_carlo_thinning() {
        use prlc_core::{Encoder, PlcDecoder, PriorityDecoder};
        use prlc_gf::Gf256;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (p, d, o) = setup();
        let stored = 30;
        let loss = 0.4;
        let runs = 400;
        let mut rng = StdRng::seed_from_u64(11);
        let mut acc = 0.0;
        for _ in 0..runs {
            let enc = Encoder::new(Scheme::Plc, p.clone());
            let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(p.clone());
            for _ in 0..stored {
                let level = d.sample_level(&mut rng);
                let b = enc.encode_unpayloaded::<Gf256, _>(level, &mut rng);
                if !rng.gen_bool(loss) {
                    dec.insert_block(&b);
                }
            }
            acc += dec.decoded_levels() as f64;
        }
        let sim = acc / runs as f64;
        let ana = expected_levels_after_loss(Scheme::Plc, &p, &d, stored, loss, &o);
        assert!((sim - ana).abs() < 0.25, "sim {sim} vs analysis {ana}");
    }

    #[test]
    fn rlc_cliff_is_visible() {
        // 2N stored: RLC holds everything below 50% loss, then falls off
        // a cliff, as the ablation measures.
        let p = PriorityProfile::flat(20).unwrap();
        let d = PriorityDistribution::uniform(1);
        let o = AnalysisOptions::sharp();
        let before = expected_levels_after_loss(Scheme::Rlc, &p, &d, 40, 0.3, &o);
        let after = expected_levels_after_loss(Scheme::Rlc, &p, &d, 40, 0.7, &o);
        assert!(before > 0.95, "before cliff: {before}");
        assert!(after < 0.05, "after cliff: {after}");
    }

    #[test]
    fn max_survivable_loss_brackets() {
        let (p, d, o) = setup();
        let [loss, two] = max_survivable_loss(Scheme::Plc, &p, &d, 40, &[1.0, 2.0], 1e-3, &o)[..]
        else {
            panic!("one answer per target");
        };
        let loss = loss.expect("level 1 survivable at zero loss");
        assert!((0.0..1.0).contains(&loss));
        // Verify the bracket property.
        let at = |l: f64| expected_levels_after_loss(Scheme::Plc, &p, &d, 40, l, &o);
        assert!(at(loss) >= 1.0 - 1e-6);
        assert!(at((loss + 0.05).min(1.0)) < 1.0 + 1e-9);
        // A higher target survives less loss, and sharing the memo with
        // the first target leaves its answer as a lone search finds it.
        let two = two.expect("two levels survivable at zero loss");
        assert!(two < loss, "{two} vs {loss}");
        assert_eq!(
            max_survivable_loss(Scheme::Plc, &p, &d, 40, &[2.0], 1e-3, &o),
            [Some(two)]
        );
        // Unreachable target.
        assert_eq!(
            max_survivable_loss(Scheme::Plc, &p, &d, 5, &[3.0], 1e-2, &o),
            [None]
        );
        // More stored blocks survive strictly harsher loss.
        let small = max_survivable_loss(Scheme::Plc, &p, &d, 20, &[1.0], 1e-3, &o)[0].unwrap();
        let large = max_survivable_loss(Scheme::Plc, &p, &d, 80, &[1.0], 1e-3, &o)[0].unwrap();
        assert!(large > small, "{large} vs {small}");
    }
}
