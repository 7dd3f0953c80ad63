//! Numerical decoding-performance analysis and priority-distribution
//! design for priority random linear codes.
//!
//! This crate reproduces Sec. 3.3 and Sec. 3.4 of *"Differentiated Data
//! Persistence with Priority Random Linear Codes"* (Lin, Li, Liang —
//! ICDCS 2007):
//!
//! * [`slc`] / [`plc`] — the probability that `M` randomly accumulated
//!   coded blocks decode (at least / exactly) the first `k` priority
//!   levels, and the expected decoded-level count `E(X)`, computed
//!   through a Poissonized multinomial dynamic program with FFT-backed
//!   polynomial convolutions (see [`conv`]).
//! * [`curves`] — scheme-dispatched decoding curves: `E(X)` against the
//!   number of processed coded blocks, the quantity plotted in every
//!   figure of the paper's evaluation.
//! * [`design`] — the feasibility solver of Sec. 3.4: find a priority
//!   distribution meeting a set of decoding constraints (eq. 9–11),
//!   replacing the paper's MATLAB search.
//! * [`model`] — the decodability model: the paper's sharp large-field
//!   idealisation, or a `GF(q)` rank-probability refinement.
//!
//! # Example
//!
//! ```
//! use prlc_analysis::{curves, AnalysisOptions};
//! use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 100 source blocks in 5 levels of 20; uniform priority distribution.
//! let profile = PriorityProfile::uniform(5, 20)?;
//! let dist = PriorityDistribution::uniform(5);
//! let opts = AnalysisOptions::sharp();
//!
//! // At N = 100 collected blocks, PLC has already decoded ~3 of the 5
//! // levels in expectation, while RLC still needs the full N
//! // independent blocks and decodes nothing with one block short.
//! let e = curves::expected_levels(Scheme::Plc, &profile, &dist, 100, &opts);
//! assert!(e > 2.0 && e < 5.0);
//! let rlc = curves::expected_levels(Scheme::Rlc, &profile, &dist, 99, &opts);
//! assert_eq!(rlc, 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod curves;
pub mod design;
pub mod loss;
pub mod model;
pub mod numeric;
pub mod overhead;
pub mod plc;
pub mod slc;

pub use design::{solve_feasibility, FeasibilityProblem, FullRecoveryConstraint, Solution};
pub use model::{AnalysisOptions, DecodabilityModel};

#[cfg(test)]
mod proptests;
