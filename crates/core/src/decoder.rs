//! Partial decoders for the three schemes (Sec. 3.2 of the paper).
//!
//! * [`PlcDecoder`] — one progressive Gauss–Jordan machine over all `N`
//!   unknowns; the decoded *prefix* maps to decoded levels through the
//!   profile's boundaries. Also serves RLC (via [`RlcDecoder`]): with
//!   full-support rows the prefix jumps from 0 to `N` at completion,
//!   which is exactly RLC's all-or-nothing behaviour.
//! * [`SlcDecoder`] — one independent RLC decoder per level ("the partial
//!   decoding algorithm is essentially the decoding algorithm of RLC for
//!   the coded blocks in each level").
//!
//! Decoders are generic over the mirrored payload: `Vec<F>` recovers the
//! actual data, `()` tracks decodability only (used by the large
//! decoding-curve experiments, where payload work would double the cost).

use prlc_gf::GfElem;
use prlc_linalg::{CoeffRow, InsertOutcome, ProgressiveRref, RowPayload};

use crate::block::CodedBlock;
use crate::priority::PriorityProfile;

/// Payload types a decoder can extract from a [`CodedBlock`].
///
/// This is a sealed helper that lets one decoder implementation serve
/// both full decoding (`Vec<F>`) and decodability-only tracking (`()`).
pub trait BlockPayload<F: GfElem>: RowPayload<F> + private::Sealed {
    /// Extracts this payload from a coded block.
    fn from_block(block: &CodedBlock<F>) -> Self;
}

impl<F: GfElem> BlockPayload<F> for () {
    fn from_block(_: &CodedBlock<F>) -> Self {}
}

impl<F: GfElem> BlockPayload<F> for Vec<F> {
    fn from_block(block: &CodedBlock<F>) -> Self {
        block.payload.clone()
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for () {}
    impl<F> Sealed for Vec<F> {}
}

/// Common interface over the partial decoders.
pub trait PriorityDecoder<F: GfElem> {
    /// Feeds one coded block to the decoder.
    fn insert_block(&mut self, block: &CodedBlock<F>) -> InsertOutcome;

    /// The number of *consecutive* priority levels decoded, starting from
    /// the most important — the paper's random variable `X` under the
    /// strict priority model.
    fn decoded_levels(&self) -> usize;

    /// Number of source blocks currently recovered: PLC and RLC count
    /// the decoded prefix, SLC the blocks of its complete levels.
    fn decoded_blocks(&self) -> usize;

    /// Whether every source block is recovered.
    fn is_complete(&self) -> bool;

    /// Total number of blocks offered, including redundant ones.
    fn blocks_processed(&self) -> usize;
}

/// A boxed decoder decodes like the decoder inside it, so a caller can
/// pick the scheme's decoder at run time and still hand it to generic
/// code such as collection.
impl<F: GfElem, D: PriorityDecoder<F> + ?Sized> PriorityDecoder<F> for Box<D> {
    fn insert_block(&mut self, block: &CodedBlock<F>) -> InsertOutcome {
        (**self).insert_block(block)
    }

    fn decoded_levels(&self) -> usize {
        (**self).decoded_levels()
    }

    fn decoded_blocks(&self) -> usize {
        (**self).decoded_blocks()
    }

    fn is_complete(&self) -> bool {
        (**self).is_complete()
    }

    fn blocks_processed(&self) -> usize {
        (**self).blocks_processed()
    }
}

/// Progressive decoder for PLC (and RLC) blocks.
///
/// See the [module documentation](self) and the paper's Sec. 3.2: the
/// decoding matrix is maintained in (reverse) row-echelon form, and
/// source blocks become available as soon as the decoded prefix reaches
/// them.
#[derive(Debug, Clone)]
pub struct PlcDecoder<F: GfElem, P: BlockPayload<F> = Vec<F>> {
    rref: ProgressiveRref<F, P>,
    profile: PriorityProfile,
}

impl<F: GfElem> PlcDecoder<F, Vec<F>> {
    /// A decoder that recovers full payloads.
    pub fn with_payloads(profile: PriorityProfile) -> Self {
        PlcDecoder {
            rref: ProgressiveRref::new(profile.total_blocks()),
            profile,
        }
    }

    /// The recovered payload of source block `idx`, if the decoded
    /// prefix covers it.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N`.
    pub fn recovered(&self, idx: usize) -> Option<&[F]> {
        self.rref.recovered(idx).map(Vec::as_slice)
    }
}

impl<F: GfElem> PlcDecoder<F, ()> {
    /// A decodability-only decoder (no payload work).
    pub fn coefficients_only(profile: PriorityProfile) -> Self {
        PlcDecoder {
            rref: ProgressiveRref::new(profile.total_blocks()),
            profile,
        }
    }
}

impl<F: GfElem, P: BlockPayload<F>> PlcDecoder<F, P> {
    /// The priority profile this decoder was built for.
    pub fn profile(&self) -> &PriorityProfile {
        &self.profile
    }

    /// The rank of the accumulated decoding matrix.
    pub fn rank(&self) -> usize {
        self.rref.rank()
    }

    /// The longest decoded prefix of source-block indices.
    pub fn decoded_prefix(&self) -> usize {
        self.rref.decoded_prefix()
    }

    /// Low-level insertion from a dense coefficient vector (used by
    /// callers that assemble coefficients incrementally).
    ///
    /// # Panics
    ///
    /// Panics if `coefficients.len() != N`.
    pub fn insert_parts(&mut self, coefficients: Vec<F>, payload: P) -> InsertOutcome {
        self.insert_row(CoeffRow::from_dense(coefficients), payload)
    }

    /// Low-level insertion from a [`CoeffRow`] in either representation.
    /// The progressive decoder densifies the row at its support, so a
    /// sparse row costs the same elimination as the dense row it equals.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients.len() != N`.
    pub fn insert_row(&mut self, coefficients: CoeffRow<F>, payload: P) -> InsertOutcome {
        let obs = prlc_obs::enabled();
        let tracing = prlc_obs::trace::enabled();
        if !obs && !tracing {
            return self.rref.insert_row(coefficients, payload);
        }
        let prefix_before = self.rref.decoded_prefix();
        let outcome = self.rref.insert_row(coefficients, payload);
        let prefix_after = self.rref.decoded_prefix();
        let before = self.profile.levels_in_prefix(prefix_before);
        let after = self.profile.levels_in_prefix(prefix_after);
        if obs {
            prlc_obs::counter!("core.decode.blocks").incr();
            if after > before {
                prlc_obs::counter!("core.decode.level_completions").add((after - before) as u64);
                prlc_obs::histogram!("core.decode.blocks_at_level_completion")
                    .observe(self.rref.inserted() as u64);
            }
        }
        if tracing {
            // Provenance, read off the decoded prefix: the source blocks
            // it passed on this insert, and any strict-priority levels it
            // thereby unlocked. The tick is the rows-consumed logical
            // clock (`blocks_processed`).
            let tick = self.rref.inserted() as u64;
            for idx in prefix_before..prefix_after {
                prlc_obs::trace_instant!(
                    "core.decode.solved",
                    tick,
                    block: idx as u64,
                    level: self.profile.level_of(idx) as u64,
                );
            }
            for l in before..after {
                prlc_obs::trace_instant!("core.decode.level_unlock", tick, level: l as u64);
            }
        }
        outcome
    }
}

impl<F: GfElem, P: BlockPayload<F>> PriorityDecoder<F> for PlcDecoder<F, P> {
    fn insert_block(&mut self, block: &CodedBlock<F>) -> InsertOutcome {
        self.insert_row(block.coefficients.clone(), P::from_block(block))
    }

    fn decoded_levels(&self) -> usize {
        self.profile.levels_in_prefix(self.rref.decoded_prefix())
    }

    fn decoded_blocks(&self) -> usize {
        self.rref.decoded_prefix()
    }

    fn is_complete(&self) -> bool {
        self.rref.is_complete()
    }

    fn blocks_processed(&self) -> usize {
        self.rref.inserted()
    }
}

/// RLC is the degenerate "priority" code with full supports; its decoder
/// is a [`PlcDecoder`] — the decoded prefix stays 0 until the matrix
/// reaches full rank, reproducing all-or-nothing decoding.
pub type RlcDecoder<F, P = Vec<F>> = PlcDecoder<F, P>;

/// Stacked decoder for SLC blocks: one independent RLC decode per level.
#[derive(Debug, Clone)]
pub struct SlcDecoder<F: GfElem, P: BlockPayload<F> = Vec<F>> {
    levels: Vec<ProgressiveRref<F, P>>,
    profile: PriorityProfile,
    processed: usize,
}

impl<F: GfElem> SlcDecoder<F, Vec<F>> {
    /// A decoder that recovers full payloads.
    pub fn with_payloads(profile: PriorityProfile) -> Self {
        Self::build(profile)
    }

    /// The recovered payload of source block `idx`, if its level's
    /// decoded prefix covers it.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N`.
    pub fn recovered(&self, idx: usize) -> Option<&[F]> {
        let level = self.profile.level_of(idx);
        let offset = idx - self.profile.bound(level);
        self.levels[level].recovered(offset).map(Vec::as_slice)
    }
}

impl<F: GfElem> SlcDecoder<F, ()> {
    /// A decodability-only decoder (no payload work).
    pub fn coefficients_only(profile: PriorityProfile) -> Self {
        Self::build(profile)
    }
}

impl<F: GfElem, P: BlockPayload<F>> SlcDecoder<F, P> {
    fn build(profile: PriorityProfile) -> Self {
        let levels = (0..profile.num_levels())
            .map(|l| ProgressiveRref::new(profile.size(l)))
            .collect();
        SlcDecoder {
            levels,
            profile,
            processed: 0,
        }
    }

    /// The priority profile this decoder was built for.
    pub fn profile(&self) -> &PriorityProfile {
        &self.profile
    }

    /// Whether `level` is fully decoded.
    ///
    /// Unlike PLC, SLC levels decode independently, so a lower-priority
    /// level can complete while a higher one is still missing — the
    /// strict-priority metric [`PriorityDecoder::decoded_levels`] ignores
    /// such islands, but they are observable here.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_complete(&self, level: usize) -> bool {
        self.levels[level].is_complete()
    }

    /// Rank accumulated within `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_rank(&self, level: usize) -> usize {
        self.levels[level].rank()
    }

    /// Low-level insertion from a dense coefficient slice: the vector is
    /// projected onto the block's level range.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range, if `coefficients.len() != N`,
    /// or (debug only) if coefficients stray outside the level's support.
    pub fn insert_parts(&mut self, level: usize, coefficients: &[F], payload: P) -> InsertOutcome {
        let row = CoeffRow::dense_with(coefficients.len(), |d| d.copy_from_slice(coefficients));
        self.insert_row(level, row, payload)
    }

    /// Low-level insertion from a [`CoeffRow`] in either representation;
    /// the row is projected onto the block's level range, and the
    /// level's progressive decoder densifies the projected row.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range, if `coefficients.len() != N`,
    /// or (debug only) if coefficients stray outside the level's support.
    pub fn insert_row(
        &mut self,
        level: usize,
        coefficients: CoeffRow<F>,
        payload: P,
    ) -> InsertOutcome {
        assert_eq!(
            coefficients.len(),
            self.profile.total_blocks(),
            "coefficient width mismatch"
        );
        self.processed += 1;
        let range = self.profile.blocks_of(level);
        debug_assert!(
            coefficients
                .iter_nonzeros()
                .all(|(i, _)| range.contains(&i)),
            "SLC block has coefficients outside its level support"
        );
        let projected = coefficients.project(range);
        let obs = prlc_obs::enabled();
        let tracing = prlc_obs::trace::enabled();
        if !obs && !tracing {
            return self.levels[level].insert_row(projected, payload);
        }
        let decoder = &mut self.levels[level];
        let prefix_before = decoder.decoded_prefix();
        let was_complete = decoder.is_complete();
        let outcome = decoder.insert_row(projected, payload);
        let completed = !was_complete && decoder.is_complete();
        if obs {
            prlc_obs::counter!("core.decode.blocks").incr();
            if completed {
                prlc_obs::counter!("core.decode.level_completions").incr();
                prlc_obs::histogram!("core.decode.blocks_at_level_completion")
                    .observe(self.processed as u64);
            }
        }
        if tracing {
            // Provenance, read off the level's own decoded prefix: the
            // blocks it passed, mapped back to global indices through the
            // level's lower bound. SLC unlocks are per-level (levels
            // complete independently).
            let tick = self.processed as u64;
            let base = self.profile.bound(level);
            for off in prefix_before..decoder.decoded_prefix() {
                prlc_obs::trace_instant!(
                    "core.decode.solved",
                    tick,
                    block: (base + off) as u64,
                    level: level as u64,
                );
            }
            if completed {
                prlc_obs::trace_instant!("core.decode.level_unlock", tick, level: level as u64);
            }
        }
        outcome
    }
}

impl<F: GfElem, P: BlockPayload<F>> PriorityDecoder<F> for SlcDecoder<F, P> {
    fn insert_block(&mut self, block: &CodedBlock<F>) -> InsertOutcome {
        self.insert_row(
            block.level,
            block.coefficients.clone(),
            P::from_block(block),
        )
    }

    fn decoded_levels(&self) -> usize {
        self.levels.iter().take_while(|l| l.is_complete()).count()
    }

    fn decoded_blocks(&self) -> usize {
        // Only count blocks in *complete* levels: within an incomplete
        // level the RLC sub-decoder may hold solved columns by chance,
        // but the paper's SLC decodes a level all-or-nothing.
        self.levels
            .iter()
            .filter(|l| l.is_complete())
            .map(|l| l.width())
            .sum()
    }

    fn is_complete(&self) -> bool {
        self.levels.iter().all(|l| l.is_complete())
    }

    fn blocks_processed(&self) -> usize {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::scheme::Scheme;
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> PriorityProfile {
        PriorityProfile::new(vec![2, 3, 4]).unwrap()
    }

    fn sources(rng: &mut StdRng, n: usize) -> Vec<Vec<Gf256>> {
        (0..n)
            .map(|_| (0..2).map(|_| Gf256::random(rng)).collect())
            .collect()
    }

    #[test]
    fn plc_decodes_levels_progressively() {
        let mut rng = StdRng::seed_from_u64(31);
        let p = profile();
        let srcs = sources(&mut rng, 9);
        let enc = Encoder::new(Scheme::Plc, p.clone());
        let mut dec = PlcDecoder::with_payloads(p);

        assert_eq!(dec.decoded_levels(), 0);
        // Two level-0 blocks decode level 0 (2 source blocks).
        for _ in 0..2 {
            dec.insert_block(&enc.encode(0, &srcs, &mut rng));
        }
        assert_eq!(dec.decoded_levels(), 1);
        assert_eq!(dec.decoded_blocks(), 2);
        assert_eq!(dec.recovered(0).unwrap(), &srcs[0][..]);
        assert_eq!(dec.recovered(1).unwrap(), &srcs[1][..]);
        assert!(!dec.is_complete());

        // Three level-1 blocks bring the prefix to 5 = b_2.
        for _ in 0..3 {
            dec.insert_block(&enc.encode(1, &srcs, &mut rng));
        }
        assert_eq!(dec.decoded_levels(), 2);

        // Four level-2 blocks complete everything.
        for _ in 0..4 {
            dec.insert_block(&enc.encode(2, &srcs, &mut rng));
        }
        assert_eq!(dec.decoded_levels(), 3);
        assert!(dec.is_complete());
        for (i, s) in srcs.iter().enumerate() {
            assert_eq!(dec.recovered(i).unwrap(), &s[..]);
        }
    }

    #[test]
    fn plc_reports_only_the_decoded_prefix() {
        // The row e_3 pins x_3 on its own, but x_0..x_2 are missing: an
        // island past the prefix is neither counted nor recovered.
        let p = PriorityProfile::new(vec![2, 2, 2]).unwrap();
        let mut dec = PlcDecoder::with_payloads(p);
        let mut e3 = vec![Gf256::ZERO; 6];
        e3[3] = Gf256::ONE;
        assert!(dec
            .insert_parts(e3, vec![Gf256::from_index(9)])
            .is_innovative());
        assert_eq!(dec.decoded_prefix(), 0);
        assert_eq!(dec.decoded_blocks(), 0);
        assert_eq!(dec.decoded_levels(), 0);
        assert_eq!(dec.recovered(3), None);
    }

    #[test]
    fn rlc_is_all_or_nothing() {
        let mut rng = StdRng::seed_from_u64(32);
        let p = profile();
        let srcs = sources(&mut rng, 9);
        let enc = Encoder::new(Scheme::Rlc, p.clone());
        let mut dec: RlcDecoder<Gf256> = RlcDecoder::with_payloads(p);
        for i in 0..9 {
            assert_eq!(dec.decoded_levels(), 0, "after {i} blocks");
            dec.insert_block(&enc.encode(0, &srcs, &mut rng));
        }
        // 9 random full-support rows over GF(256) are independent whp.
        assert_eq!(dec.decoded_levels(), 3);
        assert!(dec.is_complete());
    }

    #[test]
    fn slc_levels_decode_independently() {
        let mut rng = StdRng::seed_from_u64(33);
        let p = profile();
        let srcs = sources(&mut rng, 9);
        let enc = Encoder::new(Scheme::Slc, p.clone());
        let mut dec = SlcDecoder::with_payloads(p);

        // Complete level 1 (3 blocks) while level 0 is empty.
        for _ in 0..3 {
            dec.insert_block(&enc.encode(1, &srcs, &mut rng));
        }
        assert!(dec.level_complete(1));
        assert!(!dec.level_complete(0));
        // Strict-priority count is still 0: level 0 missing.
        assert_eq!(dec.decoded_levels(), 0);
        assert_eq!(dec.decoded_blocks(), 3);
        // Level-1 payloads are nonetheless recoverable.
        assert_eq!(dec.recovered(2).unwrap(), &srcs[2][..]);
        assert!(dec.recovered(0).is_none());

        // Now complete level 0.
        for _ in 0..2 {
            dec.insert_block(&enc.encode(0, &srcs, &mut rng));
        }
        assert_eq!(dec.decoded_levels(), 2);

        for _ in 0..4 {
            dec.insert_block(&enc.encode(2, &srcs, &mut rng));
        }
        assert!(dec.is_complete());
        assert_eq!(dec.decoded_levels(), 3);
        assert_eq!(dec.blocks_processed(), 9);
    }

    #[test]
    fn coefficient_only_decoders_track_decodability() {
        let mut rng = StdRng::seed_from_u64(34);
        let p = profile();
        let enc = Encoder::new(Scheme::Plc, p.clone());
        let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(p.clone());
        for _ in 0..2 {
            let b: CodedBlock<Gf256> = enc.encode_unpayloaded(0, &mut rng);
            dec.insert_block(&b);
        }
        assert_eq!(dec.decoded_levels(), 1);

        let enc = Encoder::new(Scheme::Slc, p.clone());
        let mut dec: SlcDecoder<Gf256, ()> = SlcDecoder::coefficients_only(p);
        for _ in 0..2 {
            let b: CodedBlock<Gf256> = enc.encode_unpayloaded(0, &mut rng);
            dec.insert_block(&b);
        }
        assert_eq!(dec.decoded_levels(), 1);
    }

    #[test]
    fn redundant_blocks_do_not_advance_state() {
        let mut rng = StdRng::seed_from_u64(35);
        let p = PriorityProfile::new(vec![1, 1]).unwrap();
        let enc = Encoder::new(Scheme::Slc, p.clone());
        let srcs = sources(&mut rng, 2);
        let mut dec = SlcDecoder::with_payloads(p);
        let b = enc.encode(0, &srcs, &mut rng);
        assert!(dec.insert_block(&b).is_innovative());
        assert_eq!(dec.insert_block(&b), InsertOutcome::Redundant);
        assert_eq!(dec.decoded_levels(), 1);
        assert_eq!(dec.blocks_processed(), 2);
    }

    #[test]
    fn fig1_example_first_block_decodes_level_one() {
        // Fig. 1 commentary: "for both PLC and SLC, as long as the first
        // coded block is received, the first source block is decoded."
        let mut rng = StdRng::seed_from_u64(36);
        let p = PriorityProfile::new(vec![1, 2]).unwrap();
        let srcs = sources(&mut rng, 3);
        for scheme in [Scheme::Slc, Scheme::Plc] {
            let enc = Encoder::new(scheme, p.clone());
            let block = enc.encode(0, &srcs, &mut rng);
            match scheme {
                Scheme::Slc => {
                    let mut d = SlcDecoder::with_payloads(p.clone());
                    d.insert_block(&block);
                    assert_eq!(d.decoded_levels(), 1, "{scheme}");
                }
                _ => {
                    let mut d = PlcDecoder::with_payloads(p.clone());
                    d.insert_block(&block);
                    assert_eq!(d.decoded_levels(), 1, "{scheme}");
                }
            }
        }
        // ... whereas RLC decodes nothing from one block.
        let enc = Encoder::new(Scheme::Rlc, p.clone());
        let mut d = RlcDecoder::with_payloads(p);
        d.insert_block(&enc.encode(0, &srcs, &mut rng));
        assert_eq!(d.decoded_levels(), 0);
    }
}
