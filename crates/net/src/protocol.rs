//! The pre-distribution protocol (Sec. 4 of the paper).
//!
//! All nodes share a random seed, from which everyone derives the same
//! `M` random points of the geometric space; each point stores exactly
//! one coded block at the node owning it. The `M` locations are split
//! into `n` parts sized by the priority distribution (Fig. 3); a source
//! block of level `i` is geometrically routed only to the locations of:
//!
//! * part `i` (SLC — coded blocks of a level combine only that level), or
//! * parts `i..n` (PLC — a level-`k` coded block combines levels `1..=k`),
//!
//! where each receiving cache performs the incremental encoding step
//! `c ← c + β·x`. Load across nodes is balanced with "the power of two
//! choices" (Byers et al.): each slot derives *two* candidate points and
//! keeps the one whose owner currently holds fewer blocks.
//!
//! Bandwidth efficiency comes from the Dimakis et al. result the paper
//! invokes: `O(ln N)` nonzero coefficients per coded block suffice, so a
//! source block need only reach `Θ(ln N)` of its eligible locations
//! ([`SourceFanout::Log`]) instead of all of them.

use prlc_core::{CodedBlock, CoeffRep, PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::GfElem;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::fault::{DeliveryOutcome, FaultPlan, FaultSession};
use crate::network::{Network, NodeId};

/// How many of its eligible storage locations each source block visits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SourceFanout {
    /// Every eligible location (the dense construction).
    All,
    /// `ceil(factor · ln N)` locations chosen uniformly among the
    /// eligible ones (clamped to `[1, eligible]`) — the sparse protocol.
    Log {
        /// The constant `c` in `c · ln N`.
        factor: f64,
    },
}

impl SourceFanout {
    pub(crate) fn count(self, eligible: usize, n_total: usize) -> usize {
        match self {
            SourceFanout::All => eligible,
            SourceFanout::Log { factor } => {
                let d = (factor * (n_total.max(2) as f64).ln()).ceil() as usize;
                d.clamp(1, eligible)
            }
        }
    }
}

/// Configuration of one pre-distribution run.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// The coding scheme (SLC, PLC, or RLC as the non-priority baseline).
    pub scheme: Scheme,
    /// Level sizes of the source data.
    pub profile: PriorityProfile,
    /// The designed priority distribution sizing the location parts.
    pub distribution: PriorityDistribution,
    /// Total number of storage locations `M` (bounded by the network's
    /// aggregate cache budget `W · d`).
    pub locations: usize,
    /// Source dissemination fanout (dense or `Θ(ln N)`).
    pub fanout: SourceFanout,
    /// Coefficient-row storage for the cached coded blocks: dense
    /// vectors or sorted `(index, value)` pairs. Purely a physical
    /// representation choice — every decode result, report, metric and
    /// trace is identical either way (pinned by
    /// `tests/coeffrep_equivalence.rs`).
    pub coeff_rep: CoeffRep,
    /// Whether to balance node load with the power of two choices.
    pub two_choices: bool,
    /// Per-node cache capacity `d` (Sec. 4: "if there are W nodes in the
    /// network, and each node can store d coded blocks, M should be
    /// smaller than W·d"). `None` leaves capacity unbounded. A full node
    /// bounces the location to the next derived point.
    pub node_capacity: Option<usize>,
    /// The network-wide shared seed from which the storage locations are
    /// derived.
    pub shared_seed: u64,
}

/// Errors reported by the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The network has no alive nodes to store anything on.
    NetworkEmpty,
    /// The source count does not match the profile.
    SourceCountMismatch {
        /// Blocks implied by the profile.
        expected: usize,
        /// Blocks supplied.
        got: usize,
    },
    /// Profile and distribution disagree on the number of levels.
    LevelMismatch,
    /// The aggregate cache budget `W·d` cannot hold `M` coded blocks.
    InsufficientCapacity {
        /// Locations requested (`M`).
        needed: usize,
        /// Aggregate capacity of the alive nodes (`W·d`).
        available: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NetworkEmpty => write!(f, "no alive nodes in the network"),
            ProtocolError::SourceCountMismatch { expected, got } => {
                write!(f, "expected {expected} source blocks, got {got}")
            }
            ProtocolError::LevelMismatch => {
                write!(f, "profile and priority distribution level counts differ")
            }
            ProtocolError::InsufficientCapacity { needed, available } => write!(
                f,
                "network cache capacity {available} cannot hold {needed} coded blocks"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// SplitMix64-style domain separation for the shared location seed.
pub(crate) fn mix_seed(seed: u64) -> u64 {
    let mut z = seed ^ 0x50524C_433A4C4F; // "PRLC:LO"
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One storage location: a derived point, its owning node and the coded
/// block accumulated there.
#[derive(Debug, Clone)]
pub struct StorageSlot<F: GfElem> {
    /// The node caching this block.
    pub node: NodeId,
    /// The priority level of the coded block stored here (which part of
    /// the `M` locations this slot belongs to).
    pub level: usize,
    /// The incrementally accumulated coded block.
    pub block: CodedBlock<F>,
}

/// Cost and balance metrics of one pre-distribution run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DistributionMetrics {
    /// Messages sent (one per source-block delivery attempt that found a
    /// route).
    pub messages: usize,
    /// Total hops across all delivered messages.
    pub total_hops: usize,
    /// Deliveries that failed (no route to the location's owner, or the
    /// owner crashed mid-run).
    pub failed_deliveries: usize,
    /// Maximum number of coded blocks cached on any single node.
    pub max_node_load: usize,
    /// Transmissions lost in transit or timed out (fault injection).
    pub lost_messages: usize,
    /// Retransmissions spent recovering lost deliveries.
    pub retries: usize,
    /// Caching nodes found crashed by the fault plan when a delivery was
    /// attempted (a subset of `failed_deliveries`).
    pub unreachable_nodes: usize,
    /// Deliveries abandoned after exhausting the retry budget (their
    /// slot never folds the source block in).
    pub gave_up: usize,
}

impl DistributionMetrics {
    /// Mean hops per delivered message.
    pub fn mean_hops(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.messages as f64
        }
    }
}

/// The in-network state after pre-distribution: every storage slot with
/// its accumulated coded block, plus run metrics.
#[derive(Debug, Clone)]
pub struct Deployment<F: GfElem> {
    slots: Vec<StorageSlot<F>>,
    metrics: DistributionMetrics,
    profile: PriorityProfile,
}

impl<F: GfElem> Deployment<F> {
    /// Builds a deployment directly from hand-made storage slots, with
    /// empty run metrics.
    ///
    /// This bypasses the protocol entirely; it exists so tests and
    /// validation harnesses can place arbitrary coded blocks on
    /// arbitrary nodes (e.g. iid-sampled levels, which the real
    /// protocol's deterministic `allocate` split never produces) and
    /// then drive [`collect_with_faults`](crate::collect_with_faults)
    /// over them.
    pub fn from_slots(slots: Vec<StorageSlot<F>>, profile: PriorityProfile) -> Self {
        Deployment {
            slots,
            metrics: DistributionMetrics::default(),
            profile,
        }
    }

    /// All storage slots (one per derived location).
    pub fn slots(&self) -> &[StorageSlot<F>] {
        &self.slots
    }

    /// Mutable slot access for the repair protocol.
    pub(crate) fn slots_mut(&mut self) -> &mut [StorageSlot<F>] {
        &mut self.slots
    }

    /// The profile the deployment was encoded for.
    pub fn profile(&self) -> &PriorityProfile {
        &self.profile
    }

    /// Run metrics.
    pub fn metrics(&self) -> &DistributionMetrics {
        &self.metrics
    }

    /// Indices of slots whose caching node is still alive in `net`.
    pub fn surviving_slots<N: Network>(&self, net: &N) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| net.is_alive(s.node))
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-node cached-block counts (index = dense node id).
    pub fn load_per_node(&self, node_count: usize) -> Vec<usize> {
        let mut load = vec![0usize; node_count];
        for s in &self.slots {
            load[s.node.index()] += 1;
        }
        load
    }
}

/// Runs the pre-distribution protocol over `net`.
///
/// `sources[j]` is the payload of source block `j` (levels are assigned
/// by `cfg.profile`; payloads may be empty for decodability-only runs).
/// Each source block originates at a uniformly random alive node, as in
/// the paper's model where "each node produces measurement data over
/// time".
///
/// # Errors
///
/// Returns a [`ProtocolError`] when the network is empty or the
/// configuration is inconsistent.
pub fn predistribute<N: Network, F: GfElem, R: Rng + ?Sized>(
    net: &N,
    cfg: &ProtocolConfig,
    sources: &[Vec<F>],
    rng: &mut R,
) -> Result<Deployment<F>, ProtocolError> {
    let mut faults = FaultPlan::none().session(net.node_count());
    predistribute_with_faults(net, cfg, sources, &mut faults, rng)
}

/// [`predistribute`] over a faulty transport: every source-block
/// delivery is subject to the session's link model and retry budget, and
/// churn events fire between deliveries. A delivery that is lost beyond
/// its retry budget leaves its slot without that source's contribution
/// (the coded block simply misses one term — still a valid, if thinner,
/// random combination); a delivery to a crashed owner fails outright.
/// The metrics account for every lost transmission, retry and abandoned
/// delivery.
///
/// Under [`FaultPlan::none`] this is bit-identical to [`predistribute`]:
/// the shared-seed location derivation is never subject to faults (it is
/// a local computation every node performs independently), and the fault
/// RNG stream is separate from `rng`.
///
/// # Errors
///
/// Returns a [`ProtocolError`] when the network is empty or the
/// configuration is inconsistent.
pub fn predistribute_with_faults<N: Network, F: GfElem, R: Rng + ?Sized>(
    net: &N,
    cfg: &ProtocolConfig,
    sources: &[Vec<F>],
    faults: &mut FaultSession,
    rng: &mut R,
) -> Result<Deployment<F>, ProtocolError> {
    let n_blocks = cfg.profile.total_blocks();
    if sources.len() != n_blocks {
        return Err(ProtocolError::SourceCountMismatch {
            expected: n_blocks,
            got: sources.len(),
        });
    }
    if cfg.profile.num_levels() != cfg.distribution.num_levels() {
        return Err(ProtocolError::LevelMismatch);
    }
    if net.alive_count() == 0 {
        return Err(ProtocolError::NetworkEmpty);
    }
    let span_start = faults.steps() as u64;

    // Phase 1: derive the M storage locations from the shared seed.
    // Every node can reproduce this sequence, which is how the protocol
    // "memorizes the same set of caching nodes without actually storing
    // the addresses of all of them". The seed is domain-separated so the
    // location stream can never alias another StdRng stream a caller
    // happens to have seeded with the same integer (e.g. the RNG that
    // drew the ring's node IDs).
    let mut seed_rng = StdRng::seed_from_u64(mix_seed(cfg.shared_seed));
    if let Some(d) = cfg.node_capacity {
        if net.alive_count().saturating_mul(d) < cfg.locations {
            return Err(ProtocolError::InsufficientCapacity {
                needed: cfg.locations,
                available: net.alive_count().saturating_mul(d),
            });
        }
    }
    let capacity = cfg.node_capacity.unwrap_or(usize::MAX);
    // Per-node load is instantiated lazily on first touch: a session
    // placing M locations touches O(M) nodes, never the full table.
    let mut load = NodeScratch::default();
    let mut points: Vec<N::Point> = Vec::with_capacity(cfg.locations);
    let mut owners: Vec<NodeId> = Vec::with_capacity(cfg.locations);
    for _ in 0..cfg.locations {
        // Derive candidate points until one lands on a node with spare
        // capacity; with total capacity >= M this terminates (each draw
        // succeeds with probability >= 1 - (M-1)/(W·d) over the owner
        // distribution, and every node deriving the same seed walks the
        // identical rejection sequence).
        let (point, owner) = loop {
            let p1 = net.random_point(&mut seed_rng);
            let o1 = net.owner_of(p1).ok_or(ProtocolError::NetworkEmpty)?;
            if cfg.two_choices {
                let p2 = net.random_point(&mut seed_rng);
                let o2 = net.owner_of(p2).ok_or(ProtocolError::NetworkEmpty)?;
                let c1 = load.load(o1) < capacity;
                let c2 = load.load(o2) < capacity;
                match (c1, c2) {
                    (true, true) => {
                        if load.load(o2) < load.load(o1) {
                            break (p2, o2);
                        }
                        break (p1, o1);
                    }
                    (true, false) => break (p1, o1),
                    (false, true) => break (p2, o2),
                    (false, false) => continue,
                }
            }
            if load.load(o1) < capacity {
                break (p1, o1);
            }
        };
        load.bump(owner);
        points.push(point);
        owners.push(owner);
    }

    // Phase 2: split the locations into per-level parts (Fig. 3).
    let counts = cfg.distribution.allocate(cfg.locations);
    let mut slot_level = Vec::with_capacity(cfg.locations);
    for (level, &c) in counts.iter().enumerate() {
        slot_level.extend(std::iter::repeat_n(level, c));
    }
    let mut slots: Vec<StorageSlot<F>> = owners
        .iter()
        .zip(&slot_level)
        .map(|(&node, &level)| StorageSlot {
            node,
            level,
            block: CodedBlock::empty_with(level, n_blocks, cfg.coeff_rep),
        })
        .collect();

    // Part boundaries in slot index space.
    let mut part_start = vec![0usize; counts.len() + 1];
    for (i, &c) in counts.iter().enumerate() {
        part_start[i + 1] = part_start[i] + c;
    }

    // Phase 3: disseminate each source block to its eligible locations;
    // each receiving cache folds it in with a fresh random coefficient.
    // This is the only phase that sends messages.
    let mut metrics = DistributionMetrics::default();
    let n_levels = cfg.profile.num_levels();
    for (j, data) in sources.iter().enumerate() {
        let level = cfg.profile.level_of(j);
        let eligible: std::ops::Range<usize> = match cfg.scheme {
            // SLC: only part `level` may contain this block.
            Scheme::Slc => part_start[level]..part_start[level + 1],
            // PLC: parts `level..n` (Fig. 3(b)).
            Scheme::Plc => part_start[level]..part_start[n_levels],
            // RLC baseline: every coded block combines everything.
            Scheme::Rlc => 0..cfg.locations,
        };
        let eligible_len = eligible.len();
        if eligible_len == 0 {
            continue; // a zero-mass part: nothing stores this level
        }
        let origin = net
            .random_alive_node(rng)
            .ok_or(ProtocolError::NetworkEmpty)?;
        let fanout = cfg.fanout.count(eligible_len, n_blocks);
        for pick in sample(rng, eligible_len, fanout) {
            let slot_idx = eligible.start + pick;
            match net.route(origin, points[slot_idx]) {
                Some(route) => {
                    debug_assert_eq!(route.owner, slots[slot_idx].node);
                    let delivery = faults.attempt(slots[slot_idx].node, route.hops);
                    metrics.lost_messages += delivery.lost;
                    metrics.retries += delivery.attempts.saturating_sub(1);
                    match delivery.outcome {
                        DeliveryOutcome::Delivered => {
                            metrics.messages += 1;
                            metrics.total_hops += delivery.cost_hops;
                            let beta = F::random_nonzero(rng);
                            slots[slot_idx].block.accumulate(j, beta, data);
                        }
                        DeliveryOutcome::Unreachable => {
                            metrics.failed_deliveries += 1;
                            metrics.unreachable_nodes += 1;
                        }
                        DeliveryOutcome::GaveUp => {
                            metrics.failed_deliveries += 1;
                            metrics.gave_up += 1;
                        }
                    }
                }
                None => metrics.failed_deliveries += 1,
            }
        }
    }

    metrics.max_node_load = load.max_load();
    emit_predistribute_obs(&metrics, load.touched(), span_start, faults.steps() as u64);

    Ok(Deployment {
        slots,
        metrics,
        profile: cfg.profile.clone(),
    })
}

/// Per-session metric and trace emission of [`predistribute_with_faults`].
fn emit_predistribute_obs(
    metrics: &DistributionMetrics,
    nodes_touched: usize,
    span_start: u64,
    span_end: u64,
) {
    if prlc_obs::enabled() {
        // Per-session fault accounting, mirroring the metrics struct.
        prlc_obs::counter!("net.predistribute.sessions").incr();
        prlc_obs::counter!("net.predistribute.messages").add(metrics.messages as u64);
        prlc_obs::counter!("net.predistribute.failed_deliveries")
            .add(metrics.failed_deliveries as u64);
        prlc_obs::counter!("net.predistribute.lost_messages").add(metrics.lost_messages as u64);
        prlc_obs::counter!("net.predistribute.retries").add(metrics.retries as u64);
        prlc_obs::counter!("net.predistribute.gave_up").add(metrics.gave_up as u64);
        prlc_obs::counter!("net.predistribute.unreachable_nodes")
            .add(metrics.unreachable_nodes as u64);
        prlc_obs::histogram!("net.predistribute.max_node_load")
            .observe(metrics.max_node_load as u64);
        // Lazily instantiated node entries this session — the memory
        // bound of `NodeScratch` (O(active), not O(N)).
        prlc_obs::counter!("net.event.nodes_touched").add(nodes_touched as u64);
    }
    if prlc_obs::trace::enabled() {
        // Causal span on the session's message-step clock.
        prlc_obs::trace_span!(
            "net.predistribute.session",
            span_start,
            span_end,
            messages: metrics.messages as u64,
            failed: metrics.failed_deliveries as u64,
        );
    }
}

/// Per-node load counters of one session, instantiated on first
/// write. Reads of untouched nodes return the zero a dense
/// `vec![0; node_count]` table would have held without creating an
/// entry, so session memory is O(active nodes), not O(N). The number of
/// instantiated entries is reported as the `net.event.nodes_touched`
/// counter.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    load: BTreeMap<NodeId, usize>,
}

impl NodeScratch {
    /// The load of `node`: zero for untouched nodes, without
    /// instantiating an entry.
    fn load(&self, node: NodeId) -> usize {
        self.load.get(&node).copied().unwrap_or(0)
    }

    /// Increments the load of `node`, instantiating its entry on first
    /// touch.
    fn bump(&mut self, node: NodeId) {
        *self.load.entry(node).or_insert(0) += 1;
    }

    /// Nodes whose state has been instantiated this session.
    fn touched(&self) -> usize {
        self.load.len()
    }

    /// The maximum per-node load (untouched nodes hold 0).
    fn max_load(&self) -> usize {
        self.load.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingNetwork;
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(scheme: Scheme, m: usize) -> ProtocolConfig {
        ProtocolConfig {
            scheme,
            profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            distribution: PriorityDistribution::uniform(3),
            locations: m,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: 42,
        }
    }

    fn sources(rng: &mut StdRng) -> Vec<Vec<Gf256>> {
        (0..10)
            .map(|_| (0..2).map(|_| Gf256::random(rng)).collect())
            .collect()
    }

    #[test]
    fn none_plan_is_bit_identical_to_plain_predistribute() {
        use crate::fault::FaultPlan;
        for scheme in Scheme::ALL {
            let mut rng = StdRng::seed_from_u64(91);
            let net = RingNetwork::new(50, &mut rng);
            let srcs = sources(&mut rng);

            let mut rng_a = StdRng::seed_from_u64(7);
            let dep_a = predistribute(&net, &config(scheme, 30), &srcs, &mut rng_a).unwrap();

            let mut rng_b = StdRng::seed_from_u64(7);
            let mut faults = FaultPlan::none().session(net.node_count());
            let dep_b = predistribute_with_faults(
                &net,
                &config(scheme, 30),
                &srcs,
                &mut faults,
                &mut rng_b,
            )
            .unwrap();

            assert_eq!(dep_a.metrics(), dep_b.metrics(), "{scheme}");
            assert_eq!(
                format!("{:?}", dep_a.slots()),
                format!("{:?}", dep_b.slots()),
                "{scheme}: slot state diverged under the none plan"
            );
            use rand::Rng;
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "{scheme}");
        }
    }

    #[test]
    fn lossy_predistribution_accounts_for_failures() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let mut rng = StdRng::seed_from_u64(92);
        let net = RingNetwork::new(50, &mut rng);
        let srcs = sources(&mut rng);

        let mut faults = FaultPlan::lossy(0.6, RetryPolicy::none(), 13).session(net.node_count());
        let mut rng_l = StdRng::seed_from_u64(8);
        let dep = predistribute_with_faults(
            &net,
            &config(Scheme::Plc, 30),
            &srcs,
            &mut faults,
            &mut rng_l,
        )
        .unwrap();
        let m = dep.metrics();
        assert!(m.gave_up > 0, "{m:?}");
        assert_eq!(m.lost_messages, m.gave_up + m.retries);
        assert_eq!(m.failed_deliveries, m.gave_up + m.unreachable_nodes);
        // Abandoned deliveries leave some slots thinner than the dense
        // fanout would: total accumulation messages dropped.
        let mut rng_c = StdRng::seed_from_u64(8);
        let clean = predistribute(&net, &config(Scheme::Plc, 30), &srcs, &mut rng_c).unwrap();
        assert!(m.messages < clean.metrics().messages);
    }

    #[test]
    fn slc_slots_only_hold_their_level() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = RingNetwork::new(50, &mut rng);
        let srcs = sources(&mut rng);
        let dep = predistribute(&net, &config(Scheme::Slc, 30), &srcs, &mut rng).unwrap();
        assert_eq!(dep.slots().len(), 30);
        let profile = dep.profile().clone();
        for slot in dep.slots() {
            for idx in slot.block.support() {
                assert_eq!(
                    profile.level_of(idx),
                    slot.level,
                    "SLC slot at level {} contains block {}",
                    slot.level,
                    idx
                );
            }
        }
    }

    #[test]
    fn plc_slots_hold_prefix_levels_only() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = RingNetwork::new(50, &mut rng);
        let srcs = sources(&mut rng);
        let dep = predistribute(&net, &config(Scheme::Plc, 30), &srcs, &mut rng).unwrap();
        let profile = dep.profile().clone();
        for slot in dep.slots() {
            for idx in slot.block.support() {
                assert!(
                    profile.level_of(idx) <= slot.level,
                    "PLC slot at level {} contains block {} of a lower level",
                    slot.level,
                    idx
                );
            }
        }
    }

    #[test]
    fn dense_fanout_fills_every_eligible_slot() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = RingNetwork::new(50, &mut rng);
        let srcs = sources(&mut rng);
        let dep = predistribute(&net, &config(Scheme::Plc, 30), &srcs, &mut rng).unwrap();
        // On a healthy ring every delivery succeeds, so a PLC slot of
        // level l combines *all* blocks of levels 0..=l (coefficients can
        // cancel to zero only with probability 10/255 per entry; allow a
        // a little slack by checking total degree).
        assert_eq!(dep.metrics().failed_deliveries, 0);
        let profile = dep.profile().clone();
        let mut exact = 0;
        for slot in dep.slots() {
            let expect = profile.bound(slot.level + 1);
            if slot.block.degree() == expect {
                exact += 1;
            }
        }
        assert!(exact * 10 >= dep.slots().len() * 9, "{exact}/30 slots full");
    }

    #[test]
    fn payloads_are_consistent_linear_combinations() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = RingNetwork::new(40, &mut rng);
        let srcs = sources(&mut rng);
        let dep = predistribute(&net, &config(Scheme::Plc, 20), &srcs, &mut rng).unwrap();
        for slot in dep.slots() {
            if slot.block.is_empty() {
                continue;
            }
            let mut want = vec![Gf256::ZERO; 2];
            for (c, s) in slot.block.coefficients.to_dense_vec().iter().zip(&srcs) {
                Gf256::axpy(&mut want, *c, s);
            }
            assert_eq!(slot.block.payload, want);
        }
    }

    #[test]
    fn two_choices_reduces_max_load() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = RingNetwork::new(64, &mut rng);
        let srcs = sources(&mut rng);
        let mut one = config(Scheme::Slc, 256);
        one.two_choices = false;
        let mut two = config(Scheme::Slc, 256);
        two.two_choices = true;
        // Average over several seeds to keep the comparison stable.
        let mut sum_one = 0usize;
        let mut sum_two = 0usize;
        for seed in 0..5u64 {
            one.shared_seed = seed;
            two.shared_seed = seed;
            let d1 = predistribute(&net, &one, &srcs, &mut rng).unwrap();
            let d2 = predistribute(&net, &two, &srcs, &mut rng).unwrap();
            sum_one += d1.metrics().max_node_load;
            sum_two += d2.metrics().max_node_load;
        }
        assert!(
            sum_two < sum_one,
            "two choices {sum_two} not better than one {sum_one}"
        );
    }

    #[test]
    fn sparse_fanout_sends_fewer_messages() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = RingNetwork::new(50, &mut rng);
        let srcs = sources(&mut rng);
        let dense = predistribute(&net, &config(Scheme::Plc, 40), &srcs, &mut rng).unwrap();
        let mut sparse_cfg = config(Scheme::Plc, 40);
        sparse_cfg.fanout = SourceFanout::Log { factor: 1.0 };
        let sparse = predistribute(&net, &sparse_cfg, &srcs, &mut rng).unwrap();
        assert!(
            sparse.metrics().messages < dense.metrics().messages,
            "sparse {} >= dense {}",
            sparse.metrics().messages,
            dense.metrics().messages
        );
    }

    #[test]
    fn config_errors_are_reported() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = RingNetwork::new(10, &mut rng);
        let srcs = sources(&mut rng);

        let bad_sources: Vec<Vec<Gf256>> = srcs[..5].to_vec();
        assert_eq!(
            predistribute(&net, &config(Scheme::Slc, 10), &bad_sources, &mut rng).unwrap_err(),
            ProtocolError::SourceCountMismatch {
                expected: 10,
                got: 5
            }
        );

        let mut bad = config(Scheme::Slc, 10);
        bad.distribution = PriorityDistribution::uniform(2);
        assert_eq!(
            predistribute(&net, &bad, &srcs, &mut rng).unwrap_err(),
            ProtocolError::LevelMismatch
        );

        let mut dead = RingNetwork::new(4, &mut rng);
        dead.fail_arc(0, 1.0);
        assert_eq!(
            predistribute(&dead, &config(Scheme::Slc, 10), &srcs, &mut rng).unwrap_err(),
            ProtocolError::NetworkEmpty
        );
    }

    #[test]
    fn surviving_slots_track_failures() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = RingNetwork::new(30, &mut rng);
        let srcs = sources(&mut rng);
        let dep = predistribute(&net, &config(Scheme::Plc, 25), &srcs, &mut rng).unwrap();
        assert_eq!(dep.surviving_slots(&net).len(), 25);
        net.fail_uniform(0.5, &mut rng);
        let surviving = dep.surviving_slots(&net);
        assert!(surviving.len() < 25);
        for &i in &surviving {
            assert!(net.is_alive(dep.slots()[i].node));
        }
    }

    #[test]
    fn capacity_limits_are_enforced() {
        let mut rng = StdRng::seed_from_u64(10);
        let net = RingNetwork::new(16, &mut rng);
        let srcs = sources(&mut rng);

        // Budget too small: W*d = 16 < 30 locations.
        let mut cfg = config(Scheme::Plc, 30);
        cfg.node_capacity = Some(1);
        assert_eq!(
            predistribute(&net, &cfg, &srcs, &mut rng).unwrap_err(),
            ProtocolError::InsufficientCapacity {
                needed: 30,
                available: 16
            }
        );

        // Exactly enough: every node ends at its cap.
        let mut cfg = config(Scheme::Plc, 16);
        cfg.node_capacity = Some(1);
        let dep = predistribute(&net, &cfg, &srcs, &mut rng).unwrap();
        let load = dep.load_per_node(net.node_count());
        assert!(load.iter().all(|&l| l <= 1), "{load:?}");
        assert_eq!(dep.metrics().max_node_load, 1);

        // Loose cap: respected but not binding.
        let mut cfg = config(Scheme::Plc, 20);
        cfg.node_capacity = Some(3);
        cfg.two_choices = false;
        let dep = predistribute(&net, &cfg, &srcs, &mut rng).unwrap();
        assert!(dep.metrics().max_node_load <= 3);
        assert_eq!(dep.slots().len(), 20);
    }

    #[test]
    fn deployment_is_reproducible_from_shared_seed() {
        // Same shared seed + same network -> identical location/owner
        // assignment (the protocol's core trick). Source-side randomness
        // differs, so compare slot owners and levels only.
        let mut rng1 = StdRng::seed_from_u64(9);
        let net = RingNetwork::new(30, &mut rng1);
        let srcs = sources(&mut rng1);
        let cfg = config(Scheme::Slc, 20);
        let mut rng_a = StdRng::seed_from_u64(100);
        let mut rng_b = StdRng::seed_from_u64(200);
        let a = predistribute(&net, &cfg, &srcs, &mut rng_a).unwrap();
        let b = predistribute(&net, &cfg, &srcs, &mut rng_b).unwrap();
        for (sa, sb) in a.slots().iter().zip(b.slots()) {
            assert_eq!(sa.node, sb.node);
            assert_eq!(sa.level, sb.level);
        }
    }

    #[test]
    fn reads_do_not_instantiate() {
        let s = NodeScratch::default();
        assert_eq!(s.load(NodeId::new(123_456)), 0);
        assert_eq!(s.touched(), 0);
        assert_eq!(s.max_load(), 0);
    }

    #[test]
    fn bumps_instantiate_and_count() {
        let mut s = NodeScratch::default();
        s.bump(NodeId::new(3));
        s.bump(NodeId::new(3));
        s.bump(NodeId::new(9));
        assert_eq!(s.load(NodeId::new(3)), 2);
        assert_eq!(s.load(NodeId::new(9)), 1);
        assert_eq!(s.load(NodeId::new(4)), 0);
        assert_eq!(s.touched(), 2);
        assert_eq!(s.max_load(), 2);
    }
}
