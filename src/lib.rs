//! # PRLC — Priority Random Linear Codes
//!
//! A full reproduction of *"Differentiated Data Persistence with Priority
//! Random Linear Codes"* (Yunfeng Lin, Baochun Li, Ben Liang — ICDCS
//! 2007) as a Rust workspace:
//!
//! | Module | Crate | Paper section |
//! |--------|-------|---------------|
//! | [`gf`] | `prlc-gf` | GF(2⁸) arithmetic (Sec. 3.1, footnote 1) |
//! | [`linalg`] | `prlc-linalg` | progressive Gauss–Jordan / RREF decoding (Sec. 3.2, Fig. 2) |
//! | [`core`] | `prlc-core` | SLC & PLC codes + RLC/replication/Growth-Codes baselines (Sec. 3.1) |
//! | [`analysis`] | `prlc-analysis` | decoding-performance analysis & feasibility design (Sec. 3.3–3.4) |
//! | [`net`] | `prlc-net` | geometric networks & pre-distribution protocol (Sec. 2, 4) |
//! | [`sim`] | `prlc-sim` | evaluation harness: curves, CIs, tables (Sec. 5) |
//! | [`obs`] | `prlc-obs` | opt-in deterministic metrics/tracing across every layer |
//!
//! The [`prelude`] re-exports the names needed by typical applications;
//! the `examples/` directory contains runnable end-to-end scenarios and
//! `prlc-bench` regenerates every table and figure of the paper's
//! evaluation.
//!
//! # Quick start
//!
//! ```
//! use prlc::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! // 10 source blocks: 2 critical, 8 bulk.
//! let profile = PriorityProfile::new(vec![2, 8])?;
//! let sources: Vec<Vec<Gf256>> =
//!     (0..10).map(|_| vec![Gf256::random(&mut rng)]).collect();
//!
//! let encoder = Encoder::new(Scheme::Plc, profile.clone());
//! let mut decoder = PlcDecoder::with_payloads(profile);
//! // Two critical-level blocks decode the critical data immediately.
//! for _ in 0..2 {
//!     decoder.insert_block(&encoder.encode(0, &sources, &mut rng));
//! }
//! assert_eq!(decoder.decoded_levels(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use prlc_analysis as analysis;
pub use prlc_core as core;
pub use prlc_gf as gf;
pub use prlc_linalg as linalg;
pub use prlc_net as net;
pub use prlc_obs as obs;
pub use prlc_sim as sim;

/// The names most applications need.
pub mod prelude {
    pub use prlc_analysis::{
        curves, design, overhead, solve_feasibility, AnalysisOptions, DecodabilityModel,
        FeasibilityProblem, FullRecoveryConstraint,
    };
    pub use prlc_core::{
        baseline, CodedBlock, CompactBlock, DecodingConstraint, Degree, Encoder, InsertOutcome,
        PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, RlcDecoder, Scheme,
        SeededEncoder, SlcDecoder, UtilityFunction,
    };
    pub use prlc_gf::{Gf16, Gf256, Gf64k, GfElem};
    pub use prlc_linalg::{CoeffRep, CoeffRow, Matrix, ProgressiveRref};
    pub use prlc_net::{
        collect, predistribute, refresh, Churn, CollectionConfig, Network, NodeId, PlaneNetwork,
        ProtocolConfig, RefreshConfig, RingNetwork, SourceFanout,
    };
    pub use prlc_sim::{
        simulate_decoding_curve, simulate_persistence_timeline, simulate_survivability,
        CurveConfig, Persistence, SurvivabilityConfig, TimelineConfig,
    };
}
