//! Encoders for RLC, SLC and PLC coded blocks.

use prlc_gf::{kernel, GfElem};
use prlc_linalg::{CoeffRep, CoeffRow};
use rand::seq::index::sample;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::block::CodedBlock;
use crate::priority::{PriorityDistribution, PriorityProfile};
use crate::scheme::Scheme;

/// How many source blocks a coded block combines within its support.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Degree {
    /// Every source block in the support gets a nonzero coefficient —
    /// the textbook construction of Sec. 3.1.
    Full,
    /// Each coded block combines `min(support, ceil(factor · ln N))`
    /// source blocks chosen uniformly within its support — the sparse
    /// construction the pre-distribution protocol relies on (Sec. 4,
    /// after Dimakis et al.'s decentralized erasure codes, where
    /// `O(ln N)` nonzero coefficients per row suffice for decoding with
    /// high probability).
    Sparse {
        /// The constant `c` in `c · ln N`. [`Encoder::sparse`] rejects
        /// non-finite or non-positive values; see
        /// [`nonzeros`](Degree::nonzeros) for how a `Degree` built
        /// directly with a degenerate factor is clamped.
        factor: f64,
    },
}

impl Degree {
    /// The number of nonzero coefficients for a support of `support_len`
    /// source blocks out of `n` total.
    ///
    /// The sparse degree scales with `ln N` of the *total* system, as in
    /// Dimakis et al., but is clamped to the support size and to at
    /// least 1.
    ///
    /// The clamp also disciplines degenerate factors when a
    /// `Degree::Sparse` is constructed directly (bypassing
    /// [`Encoder::sparse`]'s validation): `ceil() as usize` is a
    /// saturating cast, so a NaN or negative product becomes 0 and is
    /// clamped up to 1, while an overflowing product (huge or infinite
    /// factor) saturates to `usize::MAX` and is clamped down to
    /// `support_len`. The result is always in `1..=support_len`.
    pub fn nonzeros(self, support_len: usize, n: usize) -> usize {
        match self {
            Degree::Full => support_len,
            Degree::Sparse { factor } => {
                let d = (factor * (n.max(2) as f64).ln()).ceil() as usize;
                d.clamp(1, support_len)
            }
        }
    }
}

/// Generates coded blocks for one (scheme, profile) pair.
///
/// The encoder itself is stateless; randomness comes from the `Rng`
/// passed to each call, so experiments stay reproducible under a fixed
/// seed. The coefficient *representation* ([`CoeffRep`]) is independent
/// of the degree policy and never consumes randomness, so a pinned seed
/// draws the same values whichever layout the rows are stored in.
#[derive(Debug, Clone)]
pub struct Encoder {
    scheme: Scheme,
    profile: PriorityProfile,
    degree: Degree,
    rep: CoeffRep,
}

impl Encoder {
    /// An encoder producing full-density coded blocks (dense rows).
    pub fn new(scheme: Scheme, profile: PriorityProfile) -> Self {
        Encoder {
            scheme,
            profile,
            degree: Degree::Full,
            rep: CoeffRep::Dense,
        }
    }

    /// An encoder producing sparse coded blocks with `c · ln N` nonzero
    /// coefficients, stored as sparse rows.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not strictly positive — a
    /// NaN, infinite, zero or negative factor has no meaningful degree
    /// and would otherwise be clamped silently (see
    /// [`Degree::nonzeros`]).
    pub fn sparse(scheme: Scheme, profile: PriorityProfile, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "sparse degree factor must be finite and > 0, got {factor}"
        );
        Encoder {
            scheme,
            profile,
            degree: Degree::Sparse { factor },
            rep: CoeffRep::Sparse,
        }
    }

    /// Overrides the coefficient representation the encoder emits.
    /// Orthogonal to the degree policy: a pinned seed produces logically
    /// identical rows in either representation.
    pub fn with_coeff_rep(mut self, rep: CoeffRep) -> Self {
        self.rep = rep;
        self
    }

    /// The scheme this encoder generates.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The priority profile.
    pub fn profile(&self) -> &PriorityProfile {
        &self.profile
    }

    /// The degree policy.
    pub fn degree(&self) -> Degree {
        self.degree
    }

    /// The coefficient representation emitted blocks are stored in.
    pub fn coeff_rep(&self) -> CoeffRep {
        self.rep
    }

    /// Generates the coefficient row of one coded block at `level`.
    /// Coefficients inside the chosen support are uniformly random
    /// *nonzero* field elements; everything else is zero.
    ///
    /// Randomness is drawn in a representation-independent order: the
    /// support indices first (sparse degree only), then one value per
    /// chosen index in draw order. Sparse rows sort their `(index,
    /// value)` pairs *after* all draws, so dense and sparse runs under
    /// the same seed consume identical RNG streams.
    ///
    /// # Panics
    ///
    /// Panics if `level >= profile.num_levels()`.
    pub fn encode_coefficients<F: GfElem, R: Rng + ?Sized>(
        &self,
        level: usize,
        rng: &mut R,
    ) -> CoeffRow<F> {
        let n = self.profile.total_blocks();
        let support = self.scheme.support(&self.profile, level);
        let support_len = support.len();
        let d = self.degree.nonzeros(support_len, n);
        let row = match (self.degree, self.rep) {
            (Degree::Full, CoeffRep::Dense) => CoeffRow::dense_with(n, |coeffs| {
                for c in &mut coeffs[support] {
                    *c = F::random_nonzero(rng);
                }
            }),
            (Degree::Full, CoeffRep::Sparse) => {
                let entries = support
                    .map(|i| (i as u32, F::random_nonzero(rng)))
                    .collect();
                CoeffRow::from_sorted_entries(n, entries)
            }
            (Degree::Sparse { .. }, CoeffRep::Dense) => CoeffRow::dense_with(n, |coeffs| {
                for idx in sample(rng, support_len, d) {
                    coeffs[support.start + idx] = F::random_nonzero(rng);
                }
            }),
            (Degree::Sparse { .. }, CoeffRep::Sparse) => {
                // Values are drawn in the sample's order (identical to the
                // dense branch); sorting happens after all draws and never
                // touches the RNG.
                let mut entries: Vec<(u32, F)> = sample(rng, support_len, d)
                    .into_iter()
                    .map(|idx| ((support.start + idx) as u32, F::random_nonzero(rng)))
                    .collect();
                entries.sort_unstable_by_key(|&(i, _)| i);
                CoeffRow::from_sorted_entries(n, entries)
            }
        };
        if prlc_obs::enabled() {
            prlc_obs::counter!("core.encode.coded_blocks").incr();
            prlc_obs::counter!("core.encode.blocks_combined").add(d as u64);
            // Per-row nonzero volume: with a sparse degree this grows as
            // O(ln N) per block, the bound the representation is sized to.
            prlc_obs::counter!("core.encode.nnz").add(d as u64);
        }
        row
    }

    /// Generates one coded block at `level`, encoding the given source
    /// payloads.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range, if `sources.len()` differs from
    /// the profile's total block count, or if source payload lengths
    /// differ within the support.
    pub fn encode<F: GfElem, R: Rng + ?Sized>(
        &self,
        level: usize,
        sources: &[Vec<F>],
        rng: &mut R,
    ) -> CodedBlock<F> {
        assert_eq!(
            sources.len(),
            self.profile.total_blocks(),
            "source count does not match profile"
        );
        let support = self.scheme.support(&self.profile, level);
        // The payload length comes from the first source *inside* the
        // support: under SLC the support need not start at block 0, and a
        // stray out-of-support length must not drive (or pass) the
        // equal-length check.
        let blk_len = support
            .clone()
            .next()
            .map_or(0, |first| sources[first].len());
        assert!(
            sources[support].iter().all(|s| s.len() == blk_len),
            "source payload lengths differ within the support"
        );
        let coefficients = self.encode_coefficients::<F, R>(level, rng);
        let mut payload = vec![F::ZERO; blk_len];
        for (idx, c) in coefficients.iter_nonzeros() {
            kernel::axpy(&mut payload, c, &sources[idx]);
        }
        CodedBlock {
            level,
            coefficients,
            payload,
        }
    }

    /// Generates one coefficient-only coded block (empty payload) at
    /// `level` — the fast path for decodability experiments.
    pub fn encode_unpayloaded<F: GfElem, R: Rng + ?Sized>(
        &self,
        level: usize,
        rng: &mut R,
    ) -> CodedBlock<F> {
        CodedBlock {
            level,
            coefficients: self.encode_coefficients::<F, R>(level, rng),
            payload: Vec::new(),
        }
    }

    /// Samples a level from `dist` and encodes one block at it — the
    /// random accumulation model of the paper's evaluation (Sec. 5: "we
    /// randomly generate a set of coded blocks according to the priority
    /// distribution").
    ///
    /// # Panics
    ///
    /// Panics if `dist.num_levels() != profile.num_levels()`.
    pub fn encode_random_level<F: GfElem, R: Rng + ?Sized>(
        &self,
        dist: &PriorityDistribution,
        sources: &[Vec<F>],
        rng: &mut R,
    ) -> CodedBlock<F> {
        assert_eq!(
            dist.num_levels(),
            self.profile.num_levels(),
            "distribution level count does not match profile"
        );
        let level = dist.sample_level(rng);
        self.encode(level, sources, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> PriorityProfile {
        PriorityProfile::new(vec![2, 3, 5]).unwrap()
    }

    fn sources(rng: &mut StdRng) -> Vec<Vec<Gf256>> {
        (0..10)
            .map(|_| (0..3).map(|_| Gf256::random(rng)).collect())
            .collect()
    }

    #[test]
    fn full_density_respects_support() {
        let mut rng = StdRng::seed_from_u64(1);
        for scheme in Scheme::ALL {
            let enc = Encoder::new(scheme, profile());
            for level in 0..3 {
                let coeffs: Vec<Gf256> = enc.encode_coefficients(level, &mut rng).to_dense_vec();
                let support = scheme.support(&profile(), level);
                for (i, c) in coeffs.iter().enumerate() {
                    if support.contains(&i) {
                        assert!(!c.is_zero(), "{scheme} level {level} idx {i}");
                    } else {
                        assert!(c.is_zero(), "{scheme} level {level} idx {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_degree_counts() {
        assert_eq!(Degree::Full.nonzeros(7, 100), 7);
        let s = Degree::Sparse { factor: 2.0 };
        // 2 * ln(100) ~ 9.2 -> 10, clamped to support.
        assert_eq!(s.nonzeros(100, 100), 10);
        assert_eq!(s.nonzeros(4, 100), 4);
        assert_eq!(s.nonzeros(1, 100), 1);
        // Degenerate: never zero.
        let tiny = Degree::Sparse { factor: 0.0 };
        assert_eq!(tiny.nonzeros(5, 100), 1);
    }

    #[test]
    fn degenerate_factors_clamp_into_range() {
        // A Degree built directly (bypassing Encoder::sparse validation)
        // still produces a usable degree in 1..=support_len: the
        // saturating float->usize cast maps NaN/negative to 0 (clamped up
        // to 1) and huge/infinite products to usize::MAX (clamped down).
        for factor in [f64::NAN, -3.0, f64::NEG_INFINITY] {
            assert_eq!(Degree::Sparse { factor }.nonzeros(50, 100), 1, "{factor}");
        }
        for factor in [f64::INFINITY, 1e300] {
            assert_eq!(Degree::Sparse { factor }.nonzeros(50, 100), 50, "{factor}");
        }
    }

    #[test]
    fn sparse_encoder_rejects_bad_factors() {
        for factor in [f64::NAN, 0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let r = std::panic::catch_unwind(|| Encoder::sparse(Scheme::Plc, profile(), factor));
            assert!(r.is_err(), "factor {factor} must be rejected");
        }
        // Valid factors construct fine.
        let enc = Encoder::sparse(Scheme::Plc, profile(), 1.5);
        assert_eq!(enc.degree(), Degree::Sparse { factor: 1.5 });
        assert_eq!(enc.coeff_rep(), CoeffRep::Sparse);
    }

    #[test]
    fn sparse_encoding_has_requested_degree() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = PriorityProfile::new(vec![100, 100]).unwrap();
        let enc = Encoder::sparse(Scheme::Plc, p.clone(), 2.0);
        let want = Degree::Sparse { factor: 2.0 }.nonzeros(200, 200);
        for _ in 0..10 {
            let coeffs: CoeffRow<Gf256> = enc.encode_coefficients(1, &mut rng);
            assert_eq!(coeffs.nnz(), want);
            assert_eq!(coeffs.rep(), CoeffRep::Sparse);
        }
        // Level 0 support is 0..100: no nonzero beyond.
        let coeffs: CoeffRow<Gf256> = enc.encode_coefficients(0, &mut rng);
        assert!(coeffs.iter_nonzeros().all(|(i, _)| i < 100));
    }

    #[test]
    fn representations_draw_identical_randomness() {
        // Same seed, same degree, different representation: the logical
        // rows must be identical and the RNG must end in the same state.
        let p = PriorityProfile::new(vec![20, 30]).unwrap();
        for degree_factor in [None, Some(1.5)] {
            let mk = |rep| {
                let enc = match degree_factor {
                    None => Encoder::new(Scheme::Plc, p.clone()),
                    Some(f) => Encoder::sparse(Scheme::Plc, p.clone(), f),
                };
                enc.with_coeff_rep(rep)
            };
            let mut rng_d = StdRng::seed_from_u64(99);
            let mut rng_s = StdRng::seed_from_u64(99);
            for level in [0usize, 1, 0, 1, 1] {
                let d: CoeffRow<Gf256> = mk(CoeffRep::Dense).encode_coefficients(level, &mut rng_d);
                let s: CoeffRow<Gf256> =
                    mk(CoeffRep::Sparse).encode_coefficients(level, &mut rng_s);
                assert_eq!(d.rep(), CoeffRep::Dense);
                assert_eq!(s.rep(), CoeffRep::Sparse);
                assert_eq!(d, s, "factor {degree_factor:?} level {level}");
            }
            use rand::RngCore;
            assert_eq!(rng_d.next_u64(), rng_s.next_u64(), "RNG streams diverged");
        }
    }

    #[test]
    fn payload_is_correct_linear_combination() {
        let mut rng = StdRng::seed_from_u64(3);
        let srcs = sources(&mut rng);
        let enc = Encoder::new(Scheme::Plc, profile());
        let block = enc.encode(2, &srcs, &mut rng);
        let mut want = vec![Gf256::ZERO; 3];
        for (c, s) in block.coefficients.to_dense_vec().iter().zip(&srcs) {
            for (w, &x) in want.iter_mut().zip(s) {
                *w = w.gf_add(c.gf_mul(x));
            }
        }
        assert_eq!(block.payload, want);
        assert_eq!(block.level, 2);
    }

    #[test]
    fn unpayloaded_blocks_are_cheap() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = Encoder::new(Scheme::Slc, profile());
        let b: CodedBlock<Gf256> = enc.encode_unpayloaded(1, &mut rng);
        assert!(b.payload.is_empty());
        assert_eq!(b.degree(), 3); // SLC level 1 has 3 blocks
    }

    #[test]
    fn random_level_follows_distribution() {
        let mut rng = StdRng::seed_from_u64(5);
        let srcs = sources(&mut rng);
        let enc = Encoder::new(Scheme::Slc, profile());
        let dist = PriorityDistribution::from_weights(vec![0.0, 0.0, 1.0]).unwrap();
        for _ in 0..20 {
            let b = enc.encode_random_level(&dist, &srcs, &mut rng);
            assert_eq!(b.level, 2);
        }
    }

    #[test]
    #[should_panic(expected = "source count")]
    fn encode_wrong_source_count_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = Encoder::new(Scheme::Rlc, profile());
        let srcs: Vec<Vec<Gf256>> = vec![vec![Gf256::ONE]; 3];
        enc.encode(0, &srcs, &mut rng);
    }

    #[test]
    #[should_panic(expected = "differ within the support")]
    fn encode_unequal_support_lengths_panics() {
        // SLC level 1's support is blocks 2..5; block 0 (outside the
        // support) may have any length, but a mismatch *inside* the
        // support must panic as documented.
        let mut rng = StdRng::seed_from_u64(7);
        let enc = Encoder::new(Scheme::Slc, profile());
        let mut srcs: Vec<Vec<Gf256>> = vec![vec![Gf256::ONE; 3]; 10];
        srcs[3] = vec![Gf256::ONE; 2];
        enc.encode(1, &srcs, &mut rng);
    }

    #[test]
    fn out_of_support_lengths_are_ignored() {
        // Regression for the blk_len-from-sources[0] bug: a first source
        // outside the support must not drive the payload length.
        let mut rng = StdRng::seed_from_u64(8);
        let enc = Encoder::new(Scheme::Slc, profile());
        let mut srcs: Vec<Vec<Gf256>> = vec![vec![Gf256::ONE; 3]; 10];
        srcs[0] = vec![Gf256::ONE; 7]; // outside SLC level 1's support 2..5
        srcs[1] = vec![Gf256::ONE; 7];
        let b = enc.encode(1, &srcs, &mut rng);
        assert_eq!(b.payload.len(), 3);
    }
}
