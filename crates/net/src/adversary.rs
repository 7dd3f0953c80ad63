//! Structured fault adversaries: seeded, deterministic attack strategies
//! that compose with [`FaultPlan`](crate::FaultPlan)/[`FaultSession`]
//! and the protocol sessions that share them.
//!
//! Every fault plan in the workspace so far is iid — per-message loss,
//! per-node churn — which is the friendliest failure model a persistence
//! layer can face. This module adds the structured failures the
//! robustness literature actually worries about (Singh et al., *Eclipse
//! Attacks on Overlay Networks*; Friedman et al., *On the data
//! persistency of replicated erasure codes*):
//!
//! * [`AdversaryStrategy::Region`] — correlated regional outage:
//!   contiguous ring segments crash together at a scheduled message
//!   step, modelling a data centre or AS failure taking out a whole arc
//!   of the ID space.
//! * [`AdversaryStrategy::Eclipse`] — collector eclipse: loss
//!   concentrated on traffic whose greedy first hop leaves through the
//!   collector's finger neighborhood, modelling an adversary that
//!   surrounds the victim's routing table.
//! * [`AdversaryStrategy::Targeted`] — an *adaptive* cache killer that
//!   observes slot placement metadata and preferentially crashes caches
//!   holding high-level (PLC suffix) blocks.
//! * [`AdversaryStrategy::Creep`] — slow compromise: monotone node
//!   corruption across refresh epochs. Compromised nodes stay alive in
//!   the overlay, so repair neither detects nor fixes their slots — and
//!   may even place fresh blocks onto them.
//!
//! # Observation interface
//!
//! The adaptive strategy is the first adversary that reads protocol
//! state, so what it may see is pinned down explicitly:
//! [`observe_deployment`] exposes *placement metadata only* — which node
//! caches a block of which level ([`SlotObservation`]). Payloads,
//! coefficient rows and the protocol RNG are never visible; an adversary
//! is armed from observations, not from [`Deployment`] internals.
//!
//! # Determinism
//!
//! All adversary randomness comes from a dedicated RNG stream seeded by
//! [`AdversaryPlan::seed`] under its own domain-separation tag
//! (`"PRLC:AD"`), so arming an adversary never perturbs the protocol or
//! fault streams: a run with an adversary of intensity zero is
//! bit-identical to a run without one.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use prlc_gf::GfElem;

use crate::fault::{FaultSession, StrikeKind};
use crate::network::{Network, NodeId};
use crate::protocol::Deployment;
use crate::ring::RingNetwork;

/// SplitMix64-style domain separation for the adversary seed — a third
/// stream alongside the protocol ("PRLC:LO") and fault ("PRLC:FA")
/// domains.
fn mix_adversary_seed(seed: u64) -> u64 {
    let mut z = seed ^ 0x50524C_433A4144; // "PRLC:AD"
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One of the four structured attack strategies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdversaryStrategy {
    /// Correlated regional outage: when the strike fires, every node
    /// still up anchors — with probability `fraction` — a crash of the
    /// `segment_len` contiguous ring positions starting at its own.
    /// Expected crash fraction is roughly `1 - (1 - fraction)^segment_len`;
    /// with `segment_len == 1` this is *exactly* iid churn.
    Region {
        /// Per-node anchor probability.
        fraction: f64,
        /// Contiguous ring positions crashed per anchor (>= 1).
        segment_len: usize,
    },
    /// Collector eclipse: transmissions whose greedy first hop leaves
    /// through the collector's finger neighborhood are lost with
    /// probability `loss` instead of the base link loss.
    Eclipse {
        /// Loss probability on eclipsed traffic.
        loss: f64,
    },
    /// Adaptive cache killer: crashes exactly `kills` caching nodes,
    /// chosen from slot observations. Each pick is, with probability
    /// `focus`, the remaining cache with the highest-level block
    /// (ties broken by smallest node index) and otherwise uniform among
    /// the remaining caches. `focus = 0` degenerates to a uniform
    /// fixed-kill-count model (hypergeometric survivors); `focus = 1`
    /// is fully greedy.
    Targeted {
        /// Exact number of caching nodes to crash (clamped to the
        /// number of observed caches).
        kills: usize,
        /// Probability each pick is greedy rather than uniform.
        focus: f64,
    },
    /// Slow compromise: at every epoch boundary each not-yet-corrupted
    /// node is silently compromised with probability `per_epoch`. The
    /// corrupted set is monotone non-decreasing across epochs.
    Creep {
        /// Per-epoch, per-node compromise probability.
        per_epoch: f64,
    },
}

/// A complete, seeded adversary plan for one protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Which attack to mount.
    pub strategy: AdversaryStrategy,
    /// Message-step delay between arming and the strike firing (crash
    /// strategies only; eclipse bias and creep are not scheduled on the
    /// message clock).
    pub after_messages: usize,
    /// Seed of the adversary RNG stream (independent of both the
    /// protocol and fault streams).
    pub seed: u64,
}

impl AdversaryPlan {
    /// Panics unless every probability is in `[0, 1]` and region
    /// segments are non-empty — same contract style as
    /// [`crate::FaultPlan::session`].
    fn validate(&self) {
        match self.strategy {
            AdversaryStrategy::Region {
                fraction,
                segment_len,
            } => {
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "region fraction must be in [0,1], got {fraction}"
                );
                assert!(segment_len >= 1, "region segment_len must be >= 1");
            }
            AdversaryStrategy::Eclipse { loss } => {
                assert!(
                    (0.0..=1.0).contains(&loss),
                    "eclipse loss must be in [0,1], got {loss}"
                );
            }
            AdversaryStrategy::Targeted { focus, .. } => {
                assert!(
                    (0.0..=1.0).contains(&focus),
                    "targeted focus must be in [0,1], got {focus}"
                );
            }
            AdversaryStrategy::Creep { per_epoch } => {
                assert!(
                    (0.0..=1.0).contains(&per_epoch),
                    "creep per_epoch must be in [0,1], got {per_epoch}"
                );
            }
        }
    }
}

/// What the adaptive adversary may see about one storage slot: placement
/// metadata only — never payloads, coefficients or RNG state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotObservation {
    /// The node caching the block.
    pub node: NodeId,
    /// The block's priority level (for PLC, how deep a prefix it
    /// combines — higher levels carry the lower-priority suffix).
    pub level: usize,
}

/// The adversary's view of a deployment: one observation per stored
/// slot. This is the *entire* observation interface — adversaries are
/// armed from this, not from [`Deployment`] internals.
pub fn observe_deployment<F: GfElem>(deployment: &Deployment<F>) -> Vec<SlotObservation> {
    deployment
        .slots()
        .iter()
        .map(|s| SlotObservation {
            node: s.node,
            level: s.level,
        })
        .collect()
}

/// A seeded adversary for one protocol run. Arm it against the topology
/// and (for the adaptive strategy) a set of slot observations, then let
/// the fault session fire its strikes at attempt boundaries.
#[derive(Debug, Clone)]
pub struct Adversary {
    plan: AdversaryPlan,
    rng: StdRng,
    /// Creep only: nodes this adversary has corrupted so far.
    corrupted: Vec<bool>,
}

impl Adversary {
    /// Creates an adversary over a network of `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if a plan probability is outside `[0, 1]` or a region
    /// segment length is zero.
    pub fn new(plan: AdversaryPlan, node_count: usize) -> Self {
        plan.validate();
        Adversary {
            plan,
            rng: StdRng::seed_from_u64(mix_adversary_seed(plan.seed)),
            corrupted: vec![false; node_count],
        }
    }

    /// The plan this adversary was built from.
    pub fn plan(&self) -> &AdversaryPlan {
        &self.plan
    }

    /// Arms the topology-driven strategies against `session`:
    ///
    /// * `Region` schedules its correlated-outage strike
    ///   `plan.after_messages` steps from now, over the ring order
    ///   observed *at arm time* (later churn does not re-shape the
    ///   segments).
    /// * `Eclipse` installs the per-destination loss bias: a node is
    ///   targeted iff the greedy route from `collector` toward its ID
    ///   leaves through the collector's finger neighborhood — which
    ///   every nonzero-hop route does, so only the collector itself
    ///   (and unroutable nodes) escape the bias.
    ///
    /// `Targeted` and `Creep` are armed elsewhere ([`Self::arm_observed`],
    /// [`Self::advance_epoch`]); for them this is a no-op.
    pub fn arm_topology(
        &mut self,
        net: &RingNetwork,
        collector: NodeId,
        session: &mut FaultSession,
    ) {
        match self.plan.strategy {
            AdversaryStrategy::Region {
                fraction,
                segment_len,
            } => {
                let order = net.ring_order();
                let mut pos = vec![0u32; order.len()];
                for (p, node) in order.iter().enumerate() {
                    pos[node.index()] = p as u32;
                }
                session.schedule_strike(
                    session.steps() + self.plan.after_messages,
                    StrikeKind::Region {
                        fraction,
                        segment_len,
                        order: order.iter().map(|n| n.index() as u32).collect(),
                        pos,
                    },
                );
            }
            AdversaryStrategy::Eclipse { loss } => {
                let fingers = net.finger_neighborhood(collector);
                let mut in_fingers = vec![false; net.node_count()];
                for f in &fingers {
                    in_fingers[f.index()] = true;
                }
                let mut targets = vec![false; net.node_count()];
                for (i, t) in targets.iter_mut().enumerate() {
                    let dest = NodeId::new(i);
                    if let Some(hop) = net.first_hop(collector, net.id_of(dest)) {
                        *t = in_fingers[hop.index()];
                    }
                }
                session.set_eclipse(targets, loss);
            }
            AdversaryStrategy::Targeted { .. } | AdversaryStrategy::Creep { .. } => {}
        }
    }

    /// Arms the adaptive `Targeted` strategy from slot observations:
    /// builds the kill list on the adversary's own RNG stream and
    /// schedules a directed strike `plan.after_messages` steps from now.
    /// Returns the chosen victims (in kill order).
    ///
    /// The list is built pick by pick, independent of the total kill
    /// count, so the `kills = a` list is a prefix of the `kills = b`
    /// list for `a <= b` under the same seed — the coupling the
    /// monotonicity proptests rely on.
    ///
    /// For the other strategies this is a no-op returning an empty list.
    pub fn arm_observed(
        &mut self,
        observations: &[SlotObservation],
        session: &mut FaultSession,
    ) -> Vec<NodeId> {
        let AdversaryStrategy::Targeted { kills, focus } = self.plan.strategy else {
            return Vec::new();
        };
        // Per-cache value: the highest block level it holds (BTreeMap so
        // the candidate list is ordered by node index).
        let mut value: BTreeMap<usize, usize> = BTreeMap::new();
        for obs in observations {
            let v = value.entry(obs.node.index()).or_insert(0);
            *v = (*v).max(obs.level);
        }
        let mut candidates: Vec<(usize, usize)> = value.into_iter().collect();
        let kills = kills.min(candidates.len());
        let mut chosen = Vec::with_capacity(kills);
        for _ in 0..kills {
            let pick = if self.rng.gen_bool(focus) {
                // Greedy: highest-value cache, smallest node index wins
                // ties (candidates stay sorted by node index).
                let mut best = 0;
                for (j, c) in candidates.iter().enumerate() {
                    if c.1 > candidates[best].1 {
                        best = j;
                    }
                }
                best
            } else {
                self.rng.gen_range(0..candidates.len())
            };
            let (node, _) = candidates.remove(pick);
            chosen.push(NodeId::new(node));
        }
        session.schedule_strike(
            session.steps() + self.plan.after_messages,
            StrikeKind::Directed {
                nodes: chosen.iter().map(|n| n.index() as u32).collect(),
            },
        );
        chosen
    }

    /// Advances the `Creep` strategy one epoch: every not-yet-corrupted
    /// node is compromised with probability `per_epoch`. Returns how
    /// many nodes were newly taken down. The corrupted set only grows —
    /// monotone across epochs by construction.
    ///
    /// For the other strategies this is a no-op returning zero.
    pub fn advance_epoch(&mut self, session: &mut FaultSession) -> usize {
        let AdversaryStrategy::Creep { per_epoch } = self.plan.strategy else {
            return 0;
        };
        if per_epoch <= 0.0 {
            return 0;
        }
        let mut newly = 0;
        for i in 0..self.corrupted.len() {
            if !self.corrupted[i] && self.rng.gen_bool(per_epoch) {
                self.corrupted[i] = true;
                if session.mark_compromised(i) {
                    newly += 1;
                }
            }
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    fn ring(n: usize, seed: u64) -> RingNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        RingNetwork::new(n, &mut rng)
    }

    #[test]
    fn region_strike_crashes_contiguous_ring_segments() {
        let net = ring(64, 3);
        let plan = AdversaryPlan {
            strategy: AdversaryStrategy::Region {
                fraction: 0.1,
                segment_len: 4,
            },
            after_messages: 0,
            seed: 9,
        };
        let mut adv = Adversary::new(plan, 64);
        let mut session = FaultPlan::none().session(64);
        adv.arm_topology(&net, NodeId::new(0), &mut session);
        session.advance_steps(1);
        assert!(session.crashed_nodes() > 0);
        // Every crashed node belongs to a run of >= 1 crashed nodes whose
        // predecessor-run start anchors a full segment: check that the
        // crash set is a union of ring-contiguous segments by verifying
        // each crashed node has a crashed neighbor within segment_len on
        // the ring (trivially true for any segment of length >= 2).
        let order = net.ring_order();
        let down: Vec<bool> = (0..64).map(|i| session.is_down(NodeId::new(i))).collect();
        let crashed_positions: Vec<usize> = (0..64).filter(|&p| down[order[p].index()]).collect();
        for &p in &crashed_positions {
            let next = order[(p + 1) % 64].index();
            let prev = order[(p + 63) % 64].index();
            assert!(
                down[next] || down[prev],
                "crashed ring position {p} is isolated"
            );
        }
    }

    #[test]
    fn zero_intensity_adversary_is_inert() {
        let net = ring(32, 4);
        for strategy in [
            AdversaryStrategy::Region {
                fraction: 0.0,
                segment_len: 3,
            },
            AdversaryStrategy::Targeted {
                kills: 0,
                focus: 1.0,
            },
            AdversaryStrategy::Creep { per_epoch: 0.0 },
        ] {
            let plan = AdversaryPlan {
                strategy,
                after_messages: 0,
                seed: 1,
            };
            let mut adv = Adversary::new(plan, 32);
            let mut session = FaultPlan::none().session(32);
            adv.arm_topology(&net, NodeId::new(0), &mut session);
            adv.arm_observed(
                &[SlotObservation {
                    node: NodeId::new(1),
                    level: 2,
                }],
                &mut session,
            );
            adv.advance_epoch(&mut session);
            session.advance_steps(10);
            assert_eq!(session.crashed_nodes(), 0);
            assert_eq!(session.compromised_nodes(), 0);
        }
    }

    #[test]
    fn targeted_greedy_kills_highest_level_caches_first() {
        let obs: Vec<SlotObservation> = (0..10)
            .map(|i| SlotObservation {
                node: NodeId::new(i),
                level: i % 3 + 1,
            })
            .collect();
        let plan = AdversaryPlan {
            strategy: AdversaryStrategy::Targeted {
                kills: 3,
                focus: 1.0,
            },
            after_messages: 0,
            seed: 2,
        };
        let mut adv = Adversary::new(plan, 10);
        let mut session = FaultPlan::none().session(10);
        let chosen = adv.arm_observed(&obs, &mut session);
        // Level-3 caches are nodes 2, 5, 8 — greedy picks them in index
        // order.
        assert_eq!(chosen, vec![NodeId::new(2), NodeId::new(5), NodeId::new(8)]);
        session.advance_steps(1);
        assert_eq!(session.crashed_nodes(), 3);
        assert!(session.is_down(NodeId::new(2)));
        assert!(session.is_down(NodeId::new(5)));
        assert!(session.is_down(NodeId::new(8)));
    }

    #[test]
    fn targeted_kill_lists_are_prefix_consistent() {
        let obs: Vec<SlotObservation> = (0..20)
            .map(|i| SlotObservation {
                node: NodeId::new(i),
                level: (i * 7) % 5 + 1,
            })
            .collect();
        let lists: Vec<Vec<NodeId>> = [3usize, 8, 15]
            .iter()
            .map(|&k| {
                let plan = AdversaryPlan {
                    strategy: AdversaryStrategy::Targeted {
                        kills: k,
                        focus: 0.5,
                    },
                    after_messages: 0,
                    seed: 11,
                };
                let mut adv = Adversary::new(plan, 20);
                let mut session = FaultPlan::none().session(20);
                adv.arm_observed(&obs, &mut session)
            })
            .collect();
        assert_eq!(lists[0][..], lists[1][..3]);
        assert_eq!(lists[1][..], lists[2][..8]);
    }

    #[test]
    fn eclipse_targets_everything_but_the_collector() {
        let net = ring(48, 7);
        let collector = NodeId::new(5);
        let plan = AdversaryPlan {
            strategy: AdversaryStrategy::Eclipse { loss: 1.0 },
            after_messages: 0,
            seed: 3,
        };
        let mut adv = Adversary::new(plan, 48);
        let mut session = FaultPlan::none().session(48);
        adv.arm_topology(&net, collector, &mut session);
        // Eclipsed traffic at loss 1.0 always gives up; the collector's
        // own slot is reachable (zero-hop route is not eclipsed).
        let to_self = session.attempt(collector, 0);
        assert_eq!(to_self.outcome, crate::DeliveryOutcome::Delivered);
        let mut gave_up = 0;
        for i in 0..48 {
            if i == collector.index() {
                continue;
            }
            if session.attempt(NodeId::new(i), 2).outcome == crate::DeliveryOutcome::GaveUp {
                gave_up += 1;
            }
        }
        assert_eq!(gave_up, 47);
    }

    #[test]
    fn creep_compromise_is_monotone_and_invisible_to_the_overlay() {
        let plan = AdversaryPlan {
            strategy: AdversaryStrategy::Creep { per_epoch: 0.3 },
            after_messages: 0,
            seed: 5,
        };
        let mut adv = Adversary::new(plan, 100);
        let mut session = FaultPlan::none().session(100);
        let mut total = 0;
        let mut prev: Vec<bool> = vec![false; 100];
        for _ in 0..5 {
            total += adv.advance_epoch(&mut session);
            let now: Vec<bool> = (0..100).map(|i| session.is_down(NodeId::new(i))).collect();
            for i in 0..100 {
                assert!(!prev[i] || now[i], "compromise must be monotone");
            }
            prev = now;
        }
        assert_eq!(session.compromised_nodes(), total);
        assert_eq!(session.crashed_nodes(), 0);
        assert!(total > 0);
    }
}
