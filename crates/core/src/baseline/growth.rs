//! Growth Codes (Kamra et al., SIGCOMM 2006) as a partial-recovery
//! baseline.
//!
//! Growth Codes are XOR codes designed to maximise the number of source
//! blocks recoverable at a sink at *any* point of the collection process:
//! a codeword of degree `d` is the XOR of `d` distinct source blocks, and
//! the degree used "grows" as the sink's decoded count rises — low-degree
//! codewords are immediately useful early on, higher degrees stay
//! innovative later. The decoder is the classic LT-style *peeling*
//! decoder: any codeword reduced to a single unknown member decodes it
//! and cascades.
//!
//! Kamra et al. show a degree-`d` codeword is most useful while the
//! decoded fraction `r/N` lies below `(d-1)/d`; [`GrowthEncoder::degree_for`]
//! implements that switchover schedule.
//!
//! The paper under reproduction contrasts its priority codes against
//! exactly this scheme (Sec. 6): Growth Codes "treat all data
//! equivalently", so important data enjoys no differentiated protection —
//! observable in the failure-sweep ablation benchmarks.

use prlc_gf::GfElem;
use rand::seq::index::sample;
use rand::Rng;

/// Generates Growth-Codes codewords over `n` source blocks.
#[derive(Debug, Clone)]
pub struct GrowthEncoder {
    n: usize,
}

/// One XOR codeword: its member set and the XOR of their payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Codeword<F> {
    /// Sorted indices of the XOR-ed source blocks.
    pub members: Vec<usize>,
    /// XOR of the member payloads (may be empty for decodability-only
    /// experiments).
    pub payload: Vec<F>,
}

impl GrowthEncoder {
    /// An encoder over `n` source blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "GrowthEncoder needs at least one source block");
        GrowthEncoder { n }
    }

    /// Number of source blocks.
    pub fn total_blocks(&self) -> usize {
        self.n
    }

    /// The degree Kamra et al.'s schedule prescribes when the sink has
    /// decoded `decoded` of the `n` blocks: the largest `d` with
    /// `decoded/n <= (d-1)/d`, i.e. `d = floor(n / (n - decoded))`
    /// (clamped to `[1, n]`).
    pub fn degree_for(&self, decoded: usize) -> usize {
        if decoded >= self.n {
            return self.n;
        }
        (self.n / (self.n - decoded)).clamp(1, self.n)
    }

    /// Encodes one codeword of explicit degree `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `d > n`, or if `sources.len() != n`.
    pub fn encode_with_degree<F: GfElem, R: Rng + ?Sized>(
        &self,
        d: usize,
        sources: &[Vec<F>],
        rng: &mut R,
    ) -> Codeword<F> {
        assert!(d >= 1 && d <= self.n, "degree {d} out of range");
        assert_eq!(sources.len(), self.n, "source count mismatch");
        let mut members: Vec<usize> = sample(rng, self.n, d).into_vec();
        members.sort_unstable();
        let blk = members.iter().map(|&m| sources[m].len()).max().unwrap_or(0);
        let mut payload = vec![F::ZERO; blk];
        for &m in &members {
            F::add_slice(&mut payload, &sources[m]);
        }
        Codeword { members, payload }
    }

    /// Encodes one codeword at the schedule degree for a sink that has
    /// decoded `decoded` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != n`.
    pub fn encode<F: GfElem, R: Rng + ?Sized>(
        &self,
        decoded: usize,
        sources: &[Vec<F>],
        rng: &mut R,
    ) -> Codeword<F> {
        self.encode_with_degree(self.degree_for(decoded), sources, rng)
    }
}

/// Peeling decoder for Growth-Codes codewords.
#[derive(Debug, Clone)]
pub struct GrowthDecoder<F> {
    n: usize,
    recovered: Vec<Option<Vec<F>>>,
    decoded_count: usize,
    /// Codewords not yet reduced to degree <= 1. Slots are tombstoned
    /// (`None`) once resolved.
    pending: Vec<Option<Codeword<F>>>,
    /// block index -> indices into `pending` that (may) contain it.
    by_member: Vec<Vec<usize>>,
    processed: usize,
}

impl<F: GfElem> GrowthDecoder<F> {
    /// A decoder over `n` source blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "GrowthDecoder needs at least one source block");
        GrowthDecoder {
            n,
            recovered: vec![None; n],
            decoded_count: 0,
            pending: Vec::new(),
            by_member: vec![Vec::new(); n],
            processed: 0,
        }
    }

    /// Number of source blocks.
    pub fn total_blocks(&self) -> usize {
        self.n
    }

    /// Number of blocks decoded so far (drives the encoder's degree
    /// schedule in closed-loop experiments).
    pub fn decoded_blocks(&self) -> usize {
        self.decoded_count
    }

    /// Whether every block is decoded.
    pub fn is_complete(&self) -> bool {
        self.decoded_count == self.n
    }

    /// Codewords processed so far.
    pub fn blocks_processed(&self) -> usize {
        self.processed
    }

    /// The recovered payload of block `idx`, if decoded.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n`.
    pub fn recovered(&self, idx: usize) -> Option<&[F]> {
        self.recovered[idx].as_deref()
    }

    /// Whether block `idx` is decoded.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n`.
    pub fn is_decoded(&self, idx: usize) -> bool {
        self.recovered[idx].is_some()
    }

    /// Feeds one codeword, peeling as far as possible. Returns the
    /// number of source blocks newly decoded as a result (0 if the
    /// codeword was redundant or still has ≥ 2 unknown members).
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of range.
    pub fn insert(&mut self, codeword: &Codeword<F>) -> usize {
        self.processed += 1;
        let before = self.decoded_count;

        let mut cw = codeword.clone();
        self.reduce(&mut cw);
        match cw.members.len() {
            0 => {} // redundant
            1 => {
                let idx = cw.members[0];
                self.decode_block(idx, cw.payload);
                self.cascade(idx);
            }
            _ => {
                let slot = self.pending.len();
                for &m in &cw.members {
                    assert!(m < self.n, "member {m} out of range");
                    self.by_member[m].push(slot);
                }
                self.pending.push(Some(cw));
            }
        }
        self.decoded_count - before
    }

    /// XORs out all already-decoded members of `cw`.
    fn reduce(&self, cw: &mut Codeword<F>) {
        cw.members.retain(|&m| {
            if let Some(data) = &self.recovered[m] {
                if !cw.payload.is_empty() {
                    F::add_slice(&mut cw.payload, data);
                }
                false
            } else {
                true
            }
        });
    }

    fn decode_block(&mut self, idx: usize, payload: Vec<F>) {
        debug_assert!(self.recovered[idx].is_none());
        self.recovered[idx] = Some(payload);
        self.decoded_count += 1;
    }

    /// Propagates a newly decoded block through the pending codewords,
    /// breadth-first.
    fn cascade(&mut self, start: usize) {
        let mut queue = vec![start];
        while let Some(b) = queue.pop() {
            let slots = std::mem::take(&mut self.by_member[b]);
            for slot in slots {
                let Some(cw) = self.pending[slot].as_mut() else {
                    continue;
                };
                // Remove b from the codeword.
                let Ok(pos) = cw.members.binary_search(&b) else {
                    continue;
                };
                cw.members.remove(pos);
                let data = self.recovered[b]
                    .as_ref()
                    .expect("cascaded block is decoded");
                if !cw.payload.is_empty() {
                    F::add_slice(&mut cw.payload, data);
                }
                if cw.members.len() == 1 {
                    let cw = self.pending[slot].take().expect("slot checked above");
                    let idx = cw.members[0];
                    if self.recovered[idx].is_none() {
                        self.decode_block(idx, cw.payload);
                        queue.push(idx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sources(rng: &mut StdRng, n: usize) -> Vec<Vec<Gf256>> {
        (0..n)
            .map(|_| (0..3).map(|_| Gf256::random(rng)).collect())
            .collect()
    }

    #[test]
    fn degree_schedule_matches_kamra_thresholds() {
        let enc = GrowthEncoder::new(100);
        assert_eq!(enc.degree_for(0), 1);
        assert_eq!(enc.degree_for(49), 1);
        assert_eq!(enc.degree_for(50), 2); // r/N = 1/2 -> switch to d=2
        assert_eq!(enc.degree_for(66), 2);
        assert_eq!(enc.degree_for(67), 3); // r/N = 2/3 -> d=3
        assert_eq!(enc.degree_for(75), 4);
        assert_eq!(enc.degree_for(99), 100);
        assert_eq!(enc.degree_for(100), 100);
    }

    #[test]
    fn degree_one_codeword_decodes_immediately() {
        let mut rng = StdRng::seed_from_u64(50);
        let srcs = sources(&mut rng, 10);
        let enc = GrowthEncoder::new(10);
        let mut dec = GrowthDecoder::new(10);
        let cw = enc.encode_with_degree(1, &srcs, &mut rng);
        assert_eq!(dec.insert(&cw), 1);
        let idx = cw.members[0];
        assert_eq!(dec.recovered(idx).unwrap(), &srcs[idx][..]);
    }

    #[test]
    fn peeling_cascades_through_chains() {
        // Hand-built chain: {0}, {0,1}, {1,2} — inserting in reverse
        // order, then the degree-1 word should unlock everything.
        let srcs: Vec<Vec<Gf256>> = (0..3).map(|i| vec![Gf256::from_index(100 + i)]).collect();
        let xor = |a: &[Gf256], b: &[Gf256]| -> Vec<Gf256> {
            a.iter().zip(b).map(|(&x, &y)| x + y).collect()
        };
        let mut dec = GrowthDecoder::new(3);
        assert_eq!(
            dec.insert(&Codeword {
                members: vec![1, 2],
                payload: xor(&srcs[1], &srcs[2]),
            }),
            0
        );
        assert_eq!(
            dec.insert(&Codeword {
                members: vec![0, 1],
                payload: xor(&srcs[0], &srcs[1]),
            }),
            0
        );
        // The degree-1 word decodes 0, which peels 1, which peels 2.
        assert_eq!(
            dec.insert(&Codeword {
                members: vec![0],
                payload: srcs[0].clone(),
            }),
            3
        );
        assert!(dec.is_complete());
        for (i, s) in srcs.iter().enumerate() {
            assert_eq!(dec.recovered(i).unwrap(), &s[..]);
        }
    }

    #[test]
    fn redundant_codewords_decode_nothing() {
        let srcs: Vec<Vec<Gf256>> = (0..2).map(|i| vec![Gf256::from_index(i)]).collect();
        let mut dec = GrowthDecoder::new(2);
        let cw = Codeword {
            members: vec![0],
            payload: srcs[0].clone(),
        };
        assert_eq!(dec.insert(&cw), 1);
        assert_eq!(dec.insert(&cw), 0);
        assert_eq!(dec.blocks_processed(), 2);
    }

    #[test]
    fn closed_loop_collection_completes() {
        // Drive the encoder with the decoder's progress, as a sink would.
        let mut rng = StdRng::seed_from_u64(51);
        let n = 40;
        let srcs = sources(&mut rng, n);
        let enc = GrowthEncoder::new(n);
        let mut dec = GrowthDecoder::new(n);
        let mut iterations = 0;
        while !dec.is_complete() {
            let cw = enc.encode(dec.decoded_blocks(), &srcs, &mut rng);
            dec.insert(&cw);
            iterations += 1;
            assert!(iterations < 100_000, "growth decoding did not converge");
        }
        for (i, s) in srcs.iter().enumerate() {
            assert_eq!(dec.recovered(i).unwrap(), &s[..], "block {i}");
        }
    }

    #[test]
    fn payloadless_codewords_track_decodability_only() {
        let mut rng = StdRng::seed_from_u64(52);
        let n = 10;
        let enc = GrowthEncoder::new(n);
        let mut dec: GrowthDecoder<Gf256> = GrowthDecoder::new(n);
        let empty_sources: Vec<Vec<Gf256>> = vec![Vec::new(); n];
        let mut iterations = 0;
        while !dec.is_complete() && iterations < 10_000 {
            let cw = enc.encode(dec.decoded_blocks(), &empty_sources, &mut rng);
            dec.insert(&cw);
            iterations += 1;
        }
        assert!(dec.is_complete());
    }

    #[test]
    #[should_panic(expected = "degree 0 out of range")]
    fn zero_degree_panics() {
        let mut rng = StdRng::seed_from_u64(53);
        let enc = GrowthEncoder::new(5);
        let srcs: Vec<Vec<Gf256>> = vec![vec![]; 5];
        enc.encode_with_degree(0, &srcs, &mut rng);
    }
}
