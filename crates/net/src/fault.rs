//! Fault injection for the protocol layer: lossy links, query timeouts
//! and node churn interleaved with protocol steps.
//!
//! The paper's protocols are evaluated against a *failure event* — nodes
//! die, then collection happens over a perfect transport. A deployed
//! persistence layer faces the opposite regime (Friedman et al., *On the
//! data persistency of replicated erasure codes*; Dimakis et al.,
//! *Network Coding for Distributed Storage Systems*): messages are lost
//! and nodes depart *while* the protocol runs. This module injects those
//! faults deterministically so every protocol entry point can degrade
//! gracefully instead of simulating an infallible network:
//!
//! * [`LinkModel`] — per-message loss probability and a hop-count query
//!   timeout;
//! * [`ChurnEvent`] — nodes crashing after a scheduled number of
//!   protocol messages, interleaved with the run;
//! * [`RetryPolicy`] — a bounded retry budget with a per-retry hop
//!   surcharge (the hop-metric stand-in for backoff, since the
//!   simulation has no clock);
//! * [`FaultPlan`] — the seeded, deterministic bundle of all three;
//! * [`FaultSession`] — per-run state: the fault RNG stream, the set of
//!   crashed nodes and the message-step counter.
//!
//! The fault RNG is derived from the plan's own seed (domain-separated),
//! never from the caller's protocol RNG — so threading a
//! [`FaultPlan::none`] session through a protocol run consumes nothing
//! and the run is bit-identical to the fault-free code path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::network::NodeId;

/// Behaviour of an individual message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Probability that one transmission is lost in transit.
    pub loss: f64,
    /// Queries routed over more than this many hops time out (every
    /// attempt — the route does not shrink by retrying). `None` disables
    /// timeouts.
    pub timeout_hops: Option<usize>,
}

impl LinkModel {
    /// A perfect link: no loss, no timeout.
    pub fn perfect() -> Self {
        LinkModel {
            loss: 0.0,
            timeout_hops: None,
        }
    }

    /// Whether this link can never drop a message.
    pub fn is_perfect(&self) -> bool {
        self.loss <= 0.0 && self.timeout_hops.is_none()
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::perfect()
    }
}

/// A scheduled churn event: once the session has processed
/// `after_messages` transmission attempts, every node not yet crashed
/// goes down independently with probability `fraction`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Message-step count at which the event fires.
    pub after_messages: usize,
    /// Independent per-node crash probability.
    pub fraction: f64,
}

/// Bounded retry with a hop-metric backoff surcharge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total transmission attempts per message (>= 1; the first send
    /// plus `max_attempts - 1` retries).
    pub max_attempts: usize,
    /// Extra hops charged per retry — the cost model's stand-in for
    /// exponential backoff in a clockless simulation.
    pub backoff_hops: usize,
}

impl RetryPolicy {
    /// Send once, never retry.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_hops: 0,
        }
    }

    /// `retries` retries after the first attempt, each charged
    /// `backoff_hops` extra hops.
    pub fn with_retries(retries: usize, backoff_hops: usize) -> Self {
        RetryPolicy {
            max_attempts: retries + 1,
            backoff_hops,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// A complete, seeded fault plan for one protocol run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Link behaviour for every message.
    pub link: LinkModel,
    /// Retry budget applied to lossy/timed-out transmissions.
    pub retry: RetryPolicy,
    /// Churn events, fired in `after_messages` order.
    pub churn: Vec<ChurnEvent>,
    /// Seed of the fault RNG stream (independent of the protocol RNG).
    pub seed: u64,
}

impl FaultPlan {
    /// The no-fault plan: perfect links, no churn. Protocol runs under
    /// this plan are bit-identical to the fault-free entry points.
    pub fn none() -> Self {
        FaultPlan {
            link: LinkModel::perfect(),
            retry: RetryPolicy::none(),
            churn: Vec::new(),
            seed: 0,
        }
    }

    /// A plain lossy-link plan: every transmission is independently lost
    /// with probability `loss` (uniform across destinations — unless an
    /// adversary installs an eclipse bias on the session, which
    /// overrides the loss rate per destination), retried per `retry`.
    /// Churn and adversary strikes fire at *attempt boundaries*: see the
    /// ordering contract on [`FaultSession::attempt`] and DESIGN.md's
    /// fault-model section.
    pub fn lossy(loss: f64, retry: RetryPolicy, seed: u64) -> Self {
        FaultPlan {
            link: LinkModel {
                loss,
                timeout_hops: None,
            },
            retry,
            churn: Vec::new(),
            seed,
        }
    }

    /// Whether this plan can never perturb a run.
    pub fn is_none(&self) -> bool {
        self.link.is_perfect() && self.churn.iter().all(|e| e.fraction <= 0.0)
    }

    /// Starts a session over a network of `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `loss` or any churn fraction is outside `[0, 1]`, or if
    /// `max_attempts` is zero.
    pub fn session(&self, node_count: usize) -> FaultSession {
        assert!(
            (0.0..=1.0).contains(&self.link.loss),
            "loss must be in [0,1], got {}",
            self.link.loss
        );
        assert!(
            self.churn.iter().all(|e| (0.0..=1.0).contains(&e.fraction)),
            "churn fractions must be in [0,1]"
        );
        assert!(self.retry.max_attempts >= 1, "max_attempts must be >= 1");
        let mut churn = self.churn.clone();
        churn.sort_by_key(|e| e.after_messages);
        let events = churn
            .into_iter()
            .map(|e| ScheduledStrike {
                after_messages: e.after_messages,
                kind: StrikeKind::Churn {
                    fraction: e.fraction,
                },
            })
            .collect();
        FaultSession {
            link: self.link,
            retry: self.retry,
            events,
            next_event: 0,
            // Same SplitMix64-style separation as the protocol's location
            // seed, under a distinct tag: the fault stream must alias
            // neither the protocol RNG nor the location stream.
            rng: StdRng::seed_from_u64(mix_fault_seed(self.seed)),
            down: vec![false; node_count],
            eclipse: None,
            step: 0,
            crashed: 0,
            compromised: 0,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// SplitMix64-style domain separation for the fault seed.
fn mix_fault_seed(seed: u64) -> u64 {
    let mut z = seed ^ 0x50524C_433A4641; // "PRLC:FA"
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How one message exchange ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The message got through (possibly after retries).
    Delivered,
    /// Every attempt was lost or timed out; the retry budget is spent.
    GaveUp,
    /// The destination is crashed; no transmission can succeed.
    Unreachable,
}

/// The accounting record of one message exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// How the exchange ended.
    pub outcome: DeliveryOutcome,
    /// Physical transmissions attempted (0 when the destination was
    /// already down).
    pub attempts: usize,
    /// Transmissions lost in transit (loss or timeout).
    pub lost: usize,
    /// Total hop cost incurred: route hops per attempt plus the backoff
    /// surcharge per retry.
    pub cost_hops: usize,
}

/// A strike pending on the session's message-step clock. `Churn` strikes
/// come from the plan's public [`ChurnEvent`] list; the structured kinds
/// are scheduled by [`crate::adversary::Adversary`]. All of them fire at
/// attempt boundaries through the same `fire_due_events` dispatch, so
/// the ordering contract on [`FaultSession::attempt`] covers every kind.
#[derive(Debug, Clone)]
pub(crate) struct ScheduledStrike {
    pub(crate) after_messages: usize,
    pub(crate) kind: StrikeKind,
}

/// What a strike does when it fires.
#[derive(Debug, Clone)]
pub(crate) enum StrikeKind {
    /// iid per-node crash with probability `fraction` — the public
    /// [`ChurnEvent`] model.
    Churn { fraction: f64 },
    /// Correlated regional outage: every node still up anchors, with
    /// probability `fraction`, a crash of the `segment_len` contiguous
    /// ring positions starting at its own. `order[p]` is the node at
    /// clockwise ring position `p`; `pos` is its inverse permutation.
    /// With `segment_len == 1` the anchor draws *and* the crash set are
    /// identical to a `Churn` strike of the same fraction.
    Region {
        fraction: f64,
        segment_len: usize,
        order: Vec<u32>,
        pos: Vec<u32>,
    },
    /// Crash exactly the listed nodes. Consumes no randomness — the
    /// adversary chose the victims at arm time on its own RNG stream.
    Directed { nodes: Vec<u32> },
}

/// Per-destination loss bias installed by a collector-eclipse adversary:
/// transmissions to a targeted destination are lost with probability
/// `loss` instead of the base link loss.
#[derive(Debug, Clone)]
pub(crate) struct EclipseBias {
    pub(crate) targets: Vec<bool>,
    pub(crate) loss: f64,
}

/// Per-run fault state: the crashed-node overlay, the fault RNG and the
/// message-step counter driving churn events and adversary strikes.
#[derive(Debug, Clone)]
pub struct FaultSession {
    link: LinkModel,
    retry: RetryPolicy,
    events: Vec<ScheduledStrike>,
    next_event: usize,
    rng: StdRng,
    down: Vec<bool>,
    eclipse: Option<EclipseBias>,
    step: usize,
    crashed: usize,
    compromised: usize,
}

impl FaultSession {
    /// Whether `node` has crashed during this session. Crashes overlay
    /// the network's own alive state: a node the substrate still routes
    /// to may have departed mid-run.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.get(node.index()).copied().unwrap_or(false)
    }

    /// Nodes crashed by churn events and adversary strikes so far
    /// (excluding silently compromised nodes).
    pub fn crashed_nodes(&self) -> usize {
        self.crashed
    }

    /// Nodes silently compromised by a slow-compromise adversary so far.
    pub fn compromised_nodes(&self) -> usize {
        self.compromised
    }

    /// Transmission attempts processed so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Advances the message-step clock by `n` without transmitting —
    /// equivalent to `n` idle attempt boundaries — and fires every
    /// strike that falls due. Simulations call this at epoch boundaries
    /// so strikes scheduled past the last transmission of an epoch still
    /// fire before the next one begins.
    pub fn advance_steps(&mut self, n: usize) {
        self.step += n;
        self.fire_due_events();
    }

    /// Inserts a strike into the pending schedule, keeping
    /// `after_messages` order with FIFO among ties: a strike scheduled
    /// later fires after already-pending strikes due at the same step.
    pub(crate) fn schedule_strike(&mut self, after_messages: usize, kind: StrikeKind) {
        let mut at = self.events.len();
        for j in self.next_event..self.events.len() {
            if self.events[j].after_messages > after_messages {
                at = j;
                break;
            }
        }
        self.events.insert(
            at,
            ScheduledStrike {
                after_messages,
                kind,
            },
        );
    }

    /// Installs (or replaces) an eclipse bias: transmissions to targeted
    /// destinations are lost with probability `loss` instead of the base
    /// link loss.
    pub(crate) fn set_eclipse(&mut self, targets: Vec<bool>, loss: f64) {
        self.eclipse = Some(EclipseBias { targets, loss });
    }

    /// Marks `node` as compromised: it is treated as down for every
    /// future delivery, but nothing else in the system is told — the
    /// overlay still routes to it, so repair neither detects nor fixes
    /// its slots. Returns whether the node was newly compromised.
    pub(crate) fn mark_compromised(&mut self, node: usize) -> bool {
        match self.down.get_mut(node) {
            Some(d) if !*d => {
                *d = true;
                self.compromised += 1;
                if prlc_obs::enabled() {
                    prlc_obs::counter!("net.adversary.compromised").incr();
                }
                if prlc_obs::trace::enabled() {
                    prlc_obs::trace_instant!(
                        "net.adversary.crash",
                        self.step as u64,
                        node: node as u64,
                    );
                }
                true
            }
            _ => false,
        }
    }

    /// Crashes `node` on behalf of an adversary strike, emitting the
    /// `net.adversary.*` observability keys. No-op if already down.
    fn crash_adversary(&mut self, node: usize) {
        if let Some(d) = self.down.get_mut(node) {
            if !*d {
                *d = true;
                self.crashed += 1;
                if prlc_obs::enabled() {
                    prlc_obs::counter!("net.adversary.crashed").incr();
                }
                if prlc_obs::trace::enabled() {
                    prlc_obs::trace_instant!(
                        "net.adversary.crash",
                        self.step as u64,
                        node: node as u64,
                    );
                }
            }
        }
    }

    /// Fires every strike scheduled at or before the current step.
    fn fire_due_events(&mut self) {
        while self.next_event < self.events.len()
            && self.events[self.next_event].after_messages <= self.step
        {
            let idx = self.next_event;
            self.next_event += 1;
            // Move the kind out so the borrow on `events` ends before the
            // dispatch mutates `down`/`rng`; the slot is spent anyway.
            let kind = std::mem::replace(
                &mut self.events[idx].kind,
                StrikeKind::Churn { fraction: 0.0 },
            );
            match kind {
                StrikeKind::Churn { fraction } => {
                    if fraction <= 0.0 {
                        continue;
                    }
                    for (i, d) in self.down.iter_mut().enumerate() {
                        if !*d && self.rng.gen_bool(fraction) {
                            *d = true;
                            self.crashed += 1;
                            if prlc_obs::enabled() {
                                prlc_obs::counter!("net.churn.crashed").incr();
                            }
                            if prlc_obs::trace::enabled() {
                                prlc_obs::trace_instant!(
                                    "net.fault.crash",
                                    self.step as u64,
                                    node: i as u64,
                                );
                            }
                        }
                    }
                }
                StrikeKind::Region {
                    fraction,
                    segment_len,
                    order,
                    pos,
                } => {
                    if fraction <= 0.0 || segment_len == 0 || order.is_empty() {
                        continue;
                    }
                    if prlc_obs::enabled() {
                        prlc_obs::counter!("net.adversary.strikes").incr();
                    }
                    // Anchor draws are snapshotted against the pre-strike
                    // down set, so the gen_bool stream is independent of
                    // the segment crashes this strike applies: with
                    // `segment_len == 1` the stream and crash set are
                    // byte-identical to a `Churn` strike, and across
                    // intensities the draw sequences stay aligned (the
                    // monotone-coupling argument the proptests rely on).
                    let mut anchors = Vec::new();
                    for i in 0..self.down.len() {
                        if !self.down[i] && self.rng.gen_bool(fraction) {
                            anchors.push(i);
                        }
                    }
                    let n = order.len();
                    for i in anchors {
                        let p = pos.get(i).map(|&p| p as usize).unwrap_or(0);
                        for t in 0..segment_len.min(n) {
                            self.crash_adversary(order[(p + t) % n] as usize);
                        }
                    }
                }
                StrikeKind::Directed { nodes } => {
                    if prlc_obs::enabled() {
                        prlc_obs::counter!("net.adversary.strikes").incr();
                    }
                    for n in nodes {
                        self.crash_adversary(n as usize);
                    }
                }
            }
        }
    }

    /// One request/response exchange with `dest` over a route of `hops`
    /// hops: attempts transmissions under the link model until one gets
    /// through or the retry budget is spent, advancing the churn
    /// schedule one step per attempt.
    ///
    /// Ordering contract (the adversary layer depends on this): strikes
    /// scheduled after `k` messages fire at the attempt boundary *before*
    /// transmission `k + 1`, i.e. after exactly `k` transmissions have
    /// completed — never retroactively. Within one boundary, pending
    /// strikes fire in `after_messages` order, FIFO among ties.
    ///
    /// This is the single choke point every protocol's messages flow
    /// through, so it also feeds the observability counters
    /// (`net.messages.*`, `net.retries`, `net.gave_up`,
    /// `net.unreachable`). Per physical transmission the identity
    /// `sent == delivered + lost` holds, and per exchange
    /// `retries <= lost <= retries + gave_up + unreachable`.
    pub fn attempt(&mut self, dest: NodeId, hops: usize) -> Delivery {
        let delivery = self.attempt_uncounted(dest, hops);
        if prlc_obs::enabled() {
            prlc_obs::counter!("net.messages.sent").add(delivery.attempts as u64);
            prlc_obs::counter!("net.messages.lost").add(delivery.lost as u64);
            prlc_obs::counter!("net.retries").add(delivery.attempts.saturating_sub(1) as u64);
            match delivery.outcome {
                DeliveryOutcome::Delivered => prlc_obs::counter!("net.messages.delivered").incr(),
                DeliveryOutcome::GaveUp => prlc_obs::counter!("net.gave_up").incr(),
                DeliveryOutcome::Unreachable => prlc_obs::counter!("net.unreachable").incr(),
            }
        }
        if delivery.attempts > 1 && prlc_obs::trace::enabled() {
            // The exchange needed retries: tick is the message-step clock
            // after the final attempt completed.
            prlc_obs::trace_instant!(
                "net.fault.retry",
                self.step as u64,
                dest: dest.index() as u64,
                retries: (delivery.attempts - 1) as u64,
                delivered: u64::from(delivery.outcome == DeliveryOutcome::Delivered),
            );
        }
        delivery
    }

    fn attempt_uncounted(&mut self, dest: NodeId, hops: usize) -> Delivery {
        let timed_out = self.link.timeout_hops.is_some_and(|t| hops > t);
        // Per-destination loss: an eclipse bias overrides the base link
        // loss for targeted destinations. With no eclipse armed this is
        // exactly the base loss and the RNG stream is unchanged.
        let (eclipsed, loss) = match &self.eclipse {
            Some(e) if e.targets.get(dest.index()).copied().unwrap_or(false) => (true, e.loss),
            _ => (false, self.link.loss),
        };
        let mut attempts = 0usize;
        let mut lost = 0usize;
        let mut cost_hops = 0usize;
        loop {
            if attempts == self.retry.max_attempts {
                return Delivery {
                    outcome: DeliveryOutcome::GaveUp,
                    attempts,
                    lost,
                    cost_hops,
                };
            }
            // Churn and adversary strikes fire at attempt boundaries,
            // driven by the count of *completed* transmissions — an event
            // scheduled after k messages never retroactively kills
            // message k itself.
            self.fire_due_events();
            if self.is_down(dest) {
                return Delivery {
                    outcome: DeliveryOutcome::Unreachable,
                    attempts,
                    lost,
                    cost_hops,
                };
            }
            self.step += 1;
            attempts += 1;
            cost_hops += hops;
            if attempts > 1 {
                cost_hops += self.retry.backoff_hops;
            }
            if eclipsed && prlc_obs::enabled() {
                prlc_obs::counter!("net.adversary.eclipse.messages").incr();
            }
            let dropped = timed_out || (loss > 0.0 && self.rng.gen_bool(loss));
            if !dropped {
                return Delivery {
                    outcome: DeliveryOutcome::Delivered,
                    attempts,
                    lost,
                    cost_hops,
                };
            }
            lost += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_always_delivers_at_route_cost() {
        let mut s = FaultPlan::none().session(10);
        for hops in [0usize, 1, 5, 100] {
            let d = s.attempt(NodeId::new(3), hops);
            assert_eq!(d.outcome, DeliveryOutcome::Delivered);
            assert_eq!(d.attempts, 1);
            assert_eq!(d.lost, 0);
            assert_eq!(d.cost_hops, hops);
        }
        assert_eq!(s.crashed_nodes(), 0);
    }

    #[test]
    fn total_loss_burns_the_retry_budget() {
        let plan = FaultPlan::lossy(1.0, RetryPolicy::with_retries(3, 2), 7);
        let mut s = plan.session(4);
        let d = s.attempt(NodeId::new(0), 5);
        assert_eq!(d.outcome, DeliveryOutcome::GaveUp);
        assert_eq!(d.attempts, 4);
        assert_eq!(d.lost, 4);
        // 4 traversals of 5 hops + 3 retries x 2 backoff hops.
        assert_eq!(d.cost_hops, 4 * 5 + 3 * 2);
    }

    #[test]
    fn retries_recover_lossy_links() {
        let mut delivered_none = 0;
        let mut delivered_retry = 0;
        for seed in 0..200u64 {
            let mut s = FaultPlan::lossy(0.5, RetryPolicy::none(), seed).session(2);
            if s.attempt(NodeId::new(1), 1).outcome == DeliveryOutcome::Delivered {
                delivered_none += 1;
            }
            let mut s = FaultPlan::lossy(0.5, RetryPolicy::with_retries(4, 0), seed).session(2);
            if s.attempt(NodeId::new(1), 1).outcome == DeliveryOutcome::Delivered {
                delivered_retry += 1;
            }
        }
        assert!(
            delivered_retry > delivered_none + 50,
            "retries {delivered_retry} vs none {delivered_none}"
        );
    }

    #[test]
    fn timeout_fails_long_routes_only() {
        let plan = FaultPlan {
            link: LinkModel {
                loss: 0.0,
                timeout_hops: Some(8),
            },
            retry: RetryPolicy::with_retries(1, 0),
            churn: Vec::new(),
            seed: 1,
        };
        let mut s = plan.session(4);
        assert_eq!(
            s.attempt(NodeId::new(0), 8).outcome,
            DeliveryOutcome::Delivered
        );
        let d = s.attempt(NodeId::new(0), 9);
        assert_eq!(d.outcome, DeliveryOutcome::GaveUp);
        assert_eq!(d.lost, 2);
    }

    #[test]
    fn churn_events_fire_in_step_order_and_are_deterministic() {
        let plan = FaultPlan {
            link: LinkModel::perfect(),
            retry: RetryPolicy::none(),
            churn: vec![ChurnEvent {
                after_messages: 3,
                fraction: 1.0,
            }],
            seed: 5,
        };
        let mut s = plan.session(6);
        // Steps 1..3: nothing down yet.
        for _ in 0..3 {
            assert_eq!(
                s.attempt(NodeId::new(2), 1).outcome,
                DeliveryOutcome::Delivered
            );
        }
        // Event fired at step 3: everyone is down now.
        let d = s.attempt(NodeId::new(2), 1);
        assert_eq!(d.outcome, DeliveryOutcome::Unreachable);
        assert_eq!(s.crashed_nodes(), 6);
        assert!(s.is_down(NodeId::new(0)));

        // Determinism: the same plan crashes the same nodes.
        let partial = FaultPlan {
            churn: vec![ChurnEvent {
                after_messages: 0,
                fraction: 0.5,
            }],
            ..plan
        };
        let mut a = partial.session(64);
        let mut b = partial.session(64);
        a.attempt(NodeId::new(0), 1);
        b.attempt(NodeId::new(0), 1);
        for i in 0..64 {
            assert_eq!(a.is_down(NodeId::new(i)), b.is_down(NodeId::new(i)));
        }
    }

    #[test]
    fn is_none_classifies_plans() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::lossy(0.1, RetryPolicy::none(), 0).is_none());
        let churny = FaultPlan {
            churn: vec![ChurnEvent {
                after_messages: 0,
                fraction: 0.2,
            }],
            ..FaultPlan::none()
        };
        assert!(!churny.is_none());
    }

    #[test]
    #[should_panic(expected = "loss")]
    fn invalid_loss_rejected() {
        FaultPlan::lossy(1.5, RetryPolicy::none(), 0).session(1);
    }
}
