//! Dense linear algebra over binary-extension Galois fields.
//!
//! This crate supplies the decoding machinery of *priority random linear
//! codes* (Lin–Li–Liang, ICDCS 2007, Sec. 3.2):
//!
//! * [`Matrix`] — a dense row-major matrix over any [`prlc_gf::GfElem`]
//!   field, with batch [Gauss–Jordan elimination](elim::rref) to reduced
//!   row-echelon form and its [rank](elim::rank()): the reference the
//!   progressive decoder is checked against.
//! * [`ProgressiveRref`] — the paper's *progressive* decoder: coded blocks
//!   arrive one at a time, each is folded into a maintained reverse
//!   echelon form (rows pivot on their last nonzero, so PLC rows keep
//!   their level's support), and the longest decodable prefix of
//!   unknowns — the run of pivot columns from the first — is available
//!   after every insertion ("the decoding process starts as soon as the
//!   first coded block has arrived").
//!
//! The two paths are implemented independently and cross-checked against
//! each other in the test suite.
//!
//! # Example: partial decoding, Fig. 2 of the paper
//!
//! ```
//! use prlc_gf::{Gf256, GfElem};
//! use prlc_linalg::ProgressiveRref;
//!
//! // Three unknowns; the first coded block touches only x1, so x1 is
//! // decoded immediately even though the system is underdetermined.
//! let mut dec: ProgressiveRref<Gf256, Vec<Gf256>> = ProgressiveRref::new(3);
//! let coeffs = vec![Gf256::from_index(7), Gf256::ZERO, Gf256::ZERO];
//! let payload = vec![Gf256::from_index(7) * Gf256::from_index(0x42)];
//! dec.insert(coeffs, payload);
//! assert_eq!(dec.decoded_prefix(), 1);
//! assert_eq!(dec.recovered(0).unwrap()[0], Gf256::from_index(0x42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coeffrow;
pub mod elim;
pub mod matrix;
pub mod payload;
pub mod progressive;

pub use coeffrow::{CoeffRep, CoeffRow};
pub use elim::{rank, rref, RrefResult};
pub use matrix::Matrix;
pub use payload::RowPayload;
pub use progressive::{InsertOutcome, ProgressiveRref};

#[cfg(test)]
mod proptests;
