//! Priority random linear codes for differentiated data persistence.
//!
//! This crate implements the central contribution of *"Differentiated Data
//! Persistence with Priority Random Linear Codes"* (Lin, Li, Liang — ICDCS
//! 2007): coding schemes that store periodically-measured data inside an
//! unreliable network such that **more important data survives more node
//! failure**, by making coded blocks for important data linear
//! combinations of *fewer* source blocks.
//!
//! # The schemes
//!
//! Source blocks are divided into priority levels by a
//! [`PriorityProfile`]. Three codes are provided (Sec. 3.1 of the paper,
//! Fig. 1):
//!
//! * **RLC** ([`Scheme::Rlc`]) — classic random linear codes: every coded
//!   block combines *all* `N` source blocks. All-or-nothing decoding.
//! * **SLC** ([`Scheme::Slc`]) — *stacked* linear codes: a level-`k` coded
//!   block combines only the source blocks *in* level `k`. Levels decode
//!   independently.
//! * **PLC** ([`Scheme::Plc`]) — *progressive* linear codes: a level-`k`
//!   coded block combines all source blocks of levels `1..=k`. Decoding is
//!   progressive Gauss–Jordan elimination; higher-priority prefixes decode
//!   first.
//!
//! # Quick start
//!
//! ```
//! use prlc_core::{Encoder, PlcDecoder, PriorityDecoder, PriorityProfile, Scheme};
//! use prlc_gf::{Gf256, GfElem};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), prlc_core::ProfileError> {
//! let mut rng = StdRng::seed_from_u64(1);
//! // 6 source blocks in 2 levels: {x1, x2} critical, {x3..x6} bulk.
//! let profile = PriorityProfile::new(vec![2, 4])?;
//! let sources: Vec<Vec<Gf256>> = (0..6)
//!     .map(|i| vec![Gf256::from_index(i * 17 % 256)])
//!     .collect();
//!
//! let encoder = Encoder::new(Scheme::Plc, profile.clone());
//! let mut decoder = PlcDecoder::with_payloads(profile);
//!
//! // Two level-0 coded blocks suffice to decode the critical level even
//! // though the full system is underdetermined.
//! for _ in 0..2 {
//!     let block = encoder.encode(0, &sources, &mut rng);
//!     decoder.insert_block(&block);
//! }
//! assert_eq!(decoder.decoded_levels(), 1);
//! assert_eq!(decoder.recovered(0).unwrap(), &sources[0][..]);
//! # Ok(())
//! # }
//! ```
//!
//! # Baselines
//!
//! The [`baseline`] module implements the comparators used in the paper's
//! evaluation and related-work discussion: priority-aware replication
//! ("no coding", the degenerate SLC with one block per level) and Growth
//! Codes (Kamra et al., SIGCOMM 2006).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod block;
pub mod decoder;
pub mod encoder;
pub mod priority;
pub mod scheme;
pub mod seeded;
pub mod utility;

pub use block::CodedBlock;
pub use decoder::{PlcDecoder, PriorityDecoder, RlcDecoder, SlcDecoder};
pub use encoder::{Degree, Encoder};
pub use priority::{
    DecodingConstraint, DistributionError, PriorityDistribution, PriorityProfile, ProfileError,
};
pub use scheme::Scheme;
pub use seeded::{CompactBlock, SeededEncoder};
pub use utility::{UtilityError, UtilityFunction};

// Re-exported so downstream code can match on insertion outcomes and
// choose coefficient representations without depending on prlc-linalg
// directly.
pub use prlc_linalg::{CoeffRep, CoeffRow, InsertOutcome};

// Re-exported so the analysis crate records its work counters into the
// same metrics registry through the dependency it already has.
#[doc(hidden)]
pub use prlc_obs;

#[cfg(test)]
mod proptests;
