//! Geometric network substrate and distributed encoding protocols for
//! priority random linear codes.
//!
//! Implements Sec. 2 (network model) and Sec. 4 (distributed encoding
//! algorithms) of *"Differentiated Data Persistence with Priority Random
//! Linear Codes"* (Lin, Li, Liang — ICDCS 2007):
//!
//! * [`RingNetwork`] — a Chord-like DHT ring (the P2P instantiation).
//! * [`PlaneNetwork`] — a unit-disk sensor field with GPSR-style greedy
//!   geographic routing (the sensor instantiation).
//! * [`protocol`] — the shared-seed pre-distribution protocol with
//!   power-of-two-choices load balancing and incremental in-network
//!   encoding `c ← c + β·x`.
//! * [`mod@collect`] — progressive data collection from surviving caches.
//! * Failure models: independent node failure ([`Network::fail_uniform`]),
//!   correlated regional failure ([`PlaneNetwork::fail_disk`],
//!   [`RingNetwork::fail_arc`]) and session churn ([`Churn`]).
//! * [`fault`] — seeded fault injection for the protocol runs
//!   themselves: lossy links, query timeouts, bounded retry with
//!   backoff, and churn events interleaved with protocol steps
//!   ([`FaultPlan`] / [`collect_with_faults`] /
//!   [`predistribute_with_faults`] / [`refresh_with_faults`]).
//! * [`adversary`] — structured fault adversaries on top of the fault
//!   layer: correlated regional outages, collector eclipse, an adaptive
//!   targeted cache killer, and slow compromise across epochs
//!   ([`Adversary`] / [`AdversaryPlan`]).
//!
//! Each protocol session is one plain loop on the fault session's
//! message-step clock. Per-node session state is instantiated lazily on
//! first touch, so a session's memory is O(active nodes), not O(N); with
//! the array-backed [`RingNetwork`] that scales simulations to N=10⁵ and
//! beyond.
//!
//! # Example: persist and recover through 40% node failure
//!
//! ```
//! use prlc_core::{CoeffRep, PlcDecoder, PriorityDecoder,
//!                 PriorityDistribution, PriorityProfile, Scheme};
//! use prlc_gf::{Gf256, GfElem};
//! use prlc_net::{collect, predistribute, CollectionConfig, Network,
//!                ProtocolConfig, RingNetwork, SourceFanout};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut net = RingNetwork::new(80, &mut rng);
//! let profile = PriorityProfile::new(vec![2, 6])?;
//! let sources: Vec<Vec<Gf256>> =
//!     (0..8).map(|_| vec![Gf256::random(&mut rng)]).collect();
//!
//! let dep = predistribute(&net, &ProtocolConfig {
//!     scheme: Scheme::Plc,
//!     profile: profile.clone(),
//!     distribution: PriorityDistribution::from_weights(vec![0.5, 0.5])?,
//!     locations: 40,
//!     fanout: SourceFanout::All,
//!     coeff_rep: CoeffRep::Dense,
//!     two_choices: true,
//!     node_capacity: None,
//!     shared_seed: 1,
//! }, &sources, &mut rng)?;
//!
//! net.fail_uniform(0.4, &mut rng);
//!
//! let mut decoder = PlcDecoder::with_payloads(profile);
//! let collector = net.random_alive_node(&mut rng).expect("survivors");
//! let report = collect(&net, &dep, &mut decoder, collector,
//!                      &CollectionConfig::default(), &mut rng).expect("alive");
//! // The high-priority level survives heavy failure.
//! assert!(decoder.decoded_levels() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod collect;
pub mod fault;
pub mod network;
pub mod plane;
pub mod protocol;
pub mod refresh;
pub mod ring;
pub mod rounds;

pub use adversary::{
    observe_deployment, Adversary, AdversaryPlan, AdversaryStrategy, SlotObservation,
};
pub use collect::{collect, collect_with_faults, CollectionConfig, CollectionReport, NodeLocator};
pub use fault::{
    ChurnEvent, Delivery, DeliveryOutcome, FaultPlan, FaultSession, LinkModel, RetryPolicy,
};
pub use network::{Churn, Network, NodeId, Route};
pub use plane::{PlaneNetwork, PlanePoint};
pub use protocol::{
    predistribute, predistribute_with_faults, Deployment, DistributionMetrics, ProtocolConfig,
    ProtocolError, SourceFanout, StorageSlot,
};
pub use refresh::{refresh, refresh_with_faults, RefreshConfig, RefreshReport};
pub use ring::RingNetwork;
pub use rounds::{RoundId, RoundStore, RoundStoreConfig};

// Re-exported so protocol configuration is self-contained for callers
// that do not otherwise depend on prlc-core's coding types.
pub use prlc_core::CoeffRep;

#[cfg(test)]
mod proptests;
