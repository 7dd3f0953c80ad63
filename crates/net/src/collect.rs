//! Data collection: a server gathers surviving coded blocks and decodes
//! progressively.
//!
//! The paper's model (Sec. 2): "measured data stored at a random subset
//! of existing nodes will be retrieved for analysis"; with progressive
//! decoding, "the data collecting server can stop collecting coded data
//! once the partial decoded data fulfill the application requirement"
//! (Sec. 3.2).
//!
//! The collector visits surviving caching nodes in random order,
//! retrieves every coded block each node holds, and feeds them to a
//! partial decoder in arrival order, recording the decoded-level
//! trajectory and the message/hop cost.

use prlc_gf::GfElem;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use prlc_core::PriorityDecoder;

use crate::fault::{DeliveryOutcome, FaultPlan, FaultSession};
use crate::network::{Network, NodeId};
use crate::protocol::Deployment;

/// Networks that can name a point a given node owns (its own location) —
/// needed to route queries *to a node* through a point-addressed
/// substrate.
pub trait NodeLocator: Network {
    /// A point owned by `node` (the node's own position or ring ID).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn locate(&self, node: NodeId) -> Self::Point;
}

impl NodeLocator for crate::ring::RingNetwork {
    fn locate(&self, node: NodeId) -> u64 {
        self.id_of(node)
    }
}

impl NodeLocator for crate::plane::PlaneNetwork {
    fn locate(&self, node: NodeId) -> crate::plane::PlanePoint {
        self.position(node)
    }
}

/// Options for a collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Stop as soon as this many priority levels are decoded (`None`
    /// collects until complete or exhausted) — the early-stop behaviour
    /// progressive decoding enables.
    pub target_levels: Option<usize>,
}

/// The outcome of a collection run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectionReport {
    /// Decoded-levels trajectory: entry `i` is the decoder state after
    /// `i + 1` collected blocks (the simulated decoding curve).
    pub levels_after_block: Vec<usize>,
    /// Coded blocks fed to the decoder.
    pub blocks_collected: usize,
    /// Caching nodes visited.
    pub nodes_queried: usize,
    /// Total routing hops spent on queries (one query per visited node,
    /// including retried transmissions and their backoff surcharge).
    pub query_hops: usize,
    /// Whether the target (or full decode) was reached.
    pub target_reached: bool,
    /// Query transmissions lost in transit or timed out.
    pub lost_messages: usize,
    /// Retransmissions spent recovering lost queries.
    pub retries: usize,
    /// Caching nodes skipped because no route exists to them (network
    /// partition) or they crashed mid-run — their blocks contribute
    /// nothing.
    pub unreachable_nodes: usize,
    /// Queries abandoned after exhausting the retry budget.
    pub gave_up: usize,
}

impl CollectionReport {
    /// The decoded-level count at the end of collection.
    pub fn final_levels(&self) -> usize {
        self.levels_after_block.last().copied().unwrap_or(0)
    }
}

/// Collects surviving blocks from `deployment` into `decoder`.
///
/// The collector is itself a node; query cost to each visited caching
/// node is the routing hop count from `collector` to that node's own
/// location (the response travels the same path back; one direction is
/// counted, keeping the metric comparable across network types).
///
/// Returns `None` if `collector` is dead.
pub fn collect<N, F, D, R>(
    net: &N,
    deployment: &Deployment<F>,
    decoder: &mut D,
    collector: NodeId,
    cfg: &CollectionConfig,
    rng: &mut R,
) -> Option<CollectionReport>
where
    N: NodeLocator,
    F: GfElem,
    D: PriorityDecoder<F>,
    R: Rng + ?Sized,
{
    let mut faults = FaultPlan::none().session(net.node_count());
    collect_with_faults(net, deployment, decoder, collector, cfg, &mut faults, rng)
}

/// [`collect`] over a faulty transport: each per-node query is subject
/// to the session's link model (loss, timeout) and retry budget, and
/// churn events fire between queries. A node whose query cannot be
/// delivered — unroutable, crashed mid-run, or retry budget exhausted —
/// is skipped and its blocks contribute nothing; the report accounts for
/// every lost transmission, retry and abandoned query instead of
/// pretending success. If the *collector* crashes mid-run, collection
/// stops with the partial report.
///
/// Under [`FaultPlan::none`] this is bit-identical to [`collect`].
///
/// Returns `None` if `collector` is dead or already crashed.
pub fn collect_with_faults<N, F, D, R>(
    net: &N,
    deployment: &Deployment<F>,
    decoder: &mut D,
    collector: NodeId,
    cfg: &CollectionConfig,
    faults: &mut FaultSession,
    rng: &mut R,
) -> Option<CollectionReport>
where
    N: NodeLocator,
    F: GfElem,
    D: PriorityDecoder<F>,
    R: Rng + ?Sized,
{
    if !net.is_alive(collector) || faults.is_down(collector) {
        return None;
    }
    let span_start = faults.steps() as u64;
    // Group surviving slots by caching node; visit nodes in random order.
    let surviving = deployment.surviving_slots(net);
    let mut by_node: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for idx in surviving {
        by_node
            .entry(deployment.slots()[idx].node)
            .or_default()
            .push(idx);
    }
    let mut nodes: Vec<NodeId> = by_node.keys().copied().collect();
    nodes.shuffle(rng);

    let target = cfg.target_levels;
    let mut report = CollectionReport::default();

    'outer: for node in nodes {
        if faults.is_down(collector) {
            // The collector itself departed: stop with what we have.
            break;
        }
        report.nodes_queried += 1;
        let Some(route) = net.route(collector, net.locate(node)) else {
            // Unroutable cache (partitioned plane, greedy local minimum):
            // its blocks never reach the collector.
            report.unreachable_nodes += 1;
            continue;
        };
        let delivery = faults.attempt(node, route.hops);
        report.query_hops += delivery.cost_hops;
        report.lost_messages += delivery.lost;
        report.retries += delivery.attempts.saturating_sub(1);
        match delivery.outcome {
            DeliveryOutcome::Delivered => {}
            DeliveryOutcome::Unreachable => {
                report.unreachable_nodes += 1;
                continue;
            }
            DeliveryOutcome::GaveUp => {
                report.gave_up += 1;
                continue;
            }
        }
        for &idx in &by_node[&node] {
            let slot = &deployment.slots()[idx];
            if slot.block.is_empty() {
                continue;
            }
            decoder.insert_block(&slot.block);
            report.blocks_collected += 1;
            report.levels_after_block.push(decoder.decoded_levels());
            let reached = match target {
                Some(t) => decoder.decoded_levels() >= t,
                None => decoder.is_complete(),
            };
            if reached {
                report.target_reached = true;
                break 'outer;
            }
        }
    }
    if target.is_none() && decoder.is_complete() {
        report.target_reached = true;
    }
    emit_collect_obs(
        &report,
        decoder.decoded_levels(),
        span_start,
        faults.steps() as u64,
    );
    Some(report)
}

/// Per-session metric and trace emission of [`collect_with_faults`].
fn emit_collect_obs(
    report: &CollectionReport,
    decoded_levels: usize,
    span_start: u64,
    span_end: u64,
) {
    if prlc_obs::enabled() {
        // Per-session fault accounting, mirroring the report fields so a
        // metrics dump can be reconciled against the returned struct.
        prlc_obs::counter!("net.collect.sessions").incr();
        prlc_obs::counter!("net.collect.blocks").add(report.blocks_collected as u64);
        prlc_obs::counter!("net.collect.nodes_queried").add(report.nodes_queried as u64);
        prlc_obs::counter!("net.collect.lost_messages").add(report.lost_messages as u64);
        prlc_obs::counter!("net.collect.retries").add(report.retries as u64);
        prlc_obs::counter!("net.collect.gave_up").add(report.gave_up as u64);
        prlc_obs::counter!("net.collect.unreachable_nodes").add(report.unreachable_nodes as u64);
        prlc_obs::histogram!("net.collect.query_hops").observe(report.query_hops as u64);
    }
    if prlc_obs::trace::enabled() {
        // Causal span on the session's message-step clock.
        prlc_obs::trace_span!(
            "net.collect.session",
            span_start,
            span_end,
            blocks: report.blocks_collected as u64,
            nodes: report.nodes_queried as u64,
            levels: decoded_levels as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::PlaneNetwork;
    use crate::protocol::{predistribute, ProtocolConfig, SourceFanout};
    use crate::ring::RingNetwork;
    use prlc_core::{
        CoeffRep, PlcDecoder, PriorityDistribution, PriorityProfile, Scheme, SlcDecoder,
    };
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        seed: u64,
        scheme: Scheme,
        m: usize,
    ) -> (RingNetwork, Deployment<Gf256>, Vec<Vec<Gf256>>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = RingNetwork::new(60, &mut rng);
        let profile = PriorityProfile::new(vec![2, 3, 5]).unwrap();
        let sources: Vec<Vec<Gf256>> = (0..10)
            .map(|_| (0..2).map(|_| Gf256::random(&mut rng)).collect())
            .collect();
        let cfg = ProtocolConfig {
            scheme,
            profile,
            distribution: PriorityDistribution::uniform(3),
            locations: m,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        };
        let dep = predistribute(&net, &cfg, &sources, &mut rng).unwrap();
        (net, dep, sources, rng)
    }

    #[test]
    fn full_collection_recovers_everything() {
        let (net, dep, sources, mut rng) = setup(1, Scheme::Plc, 40);
        let mut dec = PlcDecoder::with_payloads(dep.profile().clone());
        let collector = net.random_alive_node(&mut rng).unwrap();
        let report = collect(
            &net,
            &dep,
            &mut dec,
            collector,
            &CollectionConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(report.target_reached, "collected {report:?}");
        assert_eq!(report.final_levels(), 3);
        for (i, s) in sources.iter().enumerate() {
            assert_eq!(dec.recovered(i).unwrap(), &s[..], "block {i}");
        }
        // Early stop: we should not have needed all 40 blocks.
        assert!(report.blocks_collected <= 40);
    }

    #[test]
    fn early_stop_at_target_level() {
        let (net, dep, _, mut rng) = setup(2, Scheme::Plc, 40);
        let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(dep.profile().clone());
        let collector = net.random_alive_node(&mut rng).unwrap();
        let report = collect(
            &net,
            &dep,
            &mut dec,
            collector,
            &CollectionConfig {
                target_levels: Some(1),
            },
            &mut rng,
        )
        .unwrap();
        assert!(report.target_reached);
        assert!(dec.decoded_levels() >= 1);
        assert!(
            report.blocks_collected < 40,
            "early stop should save blocks: {report:?}"
        );
    }

    #[test]
    fn failures_degrade_gracefully_by_priority() {
        // After heavy failure, whatever decodes must be a prefix
        // (strict-priority semantics) — and with SLC the level-0 part
        // alone often still decodes.
        let (mut net, dep, _, mut rng) = setup(3, Scheme::Slc, 50);
        net.fail_uniform(0.5, &mut rng);
        let mut dec: SlcDecoder<Gf256, ()> = SlcDecoder::coefficients_only(dep.profile().clone());
        let collector = net.random_alive_node(&mut rng).unwrap();
        let report = collect(
            &net,
            &dep,
            &mut dec,
            collector,
            &CollectionConfig::default(),
            &mut rng,
        )
        .unwrap();
        // The trajectory is monotone non-decreasing.
        for w in report.levels_after_block.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(report.nodes_queried <= net.alive_count());
    }

    #[test]
    fn dead_collector_returns_none() {
        let (mut net, dep, _, mut rng) = setup(4, Scheme::Plc, 20);
        let victim = crate::network::NodeId::new(0);
        while net.is_alive(victim) {
            net.fail_uniform(0.3, &mut rng);
        }
        let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(dep.profile().clone());
        assert!(collect(
            &net,
            &dep,
            &mut dec,
            victim,
            &CollectionConfig::default(),
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn partitioned_plane_counts_unreachable_caches() {
        // Regression: collect() used to fall through when `net.route()`
        // returned None and feed the unreachable node's blocks to the
        // decoder anyway — "collecting" data across a partition. Now the
        // node is skipped and counted.
        let mut rng = StdRng::seed_from_u64(17);
        // Far below the connectivity radius: the field is a scatter of
        // small islands.
        let net = PlaneNetwork::new(50, 0.12, &mut rng);
        let profile = PriorityProfile::new(vec![2, 4]).unwrap();
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); 6];
        let cfg = ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(2),
            locations: 30,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: false,
            node_capacity: None,
            shared_seed: 17,
        };
        let dep = predistribute(&net, &cfg, &sources, &mut rng).unwrap();
        let collector = net.random_alive_node(&mut rng).unwrap();
        let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile);
        let report = collect(
            &net,
            &dep,
            &mut dec,
            collector,
            &CollectionConfig::default(),
            &mut rng,
        )
        .unwrap();

        // Recompute reachability from the collector's side.
        let mut reachable_blocks = 0usize;
        let mut unreachable_caches = 0usize;
        let mut caches = std::collections::BTreeMap::new();
        for &idx in &dep.surviving_slots(&net) {
            let slot = &dep.slots()[idx];
            caches
                .entry(slot.node)
                .or_insert_with(Vec::new)
                .push(!slot.block.is_empty());
        }
        for (node, blocks) in caches {
            if net.route(collector, net.locate(node)).is_some() {
                reachable_blocks += blocks.iter().filter(|&&b| b).count();
            } else {
                unreachable_caches += 1;
            }
        }
        assert!(
            unreachable_caches > 0,
            "seed produced a connected plane; pick a sparser one"
        );
        assert_eq!(report.unreachable_nodes, unreachable_caches);
        assert_eq!(report.blocks_collected, reachable_blocks);
        assert_eq!(report.blocks_collected, report.levels_after_block.len());
        // A perfect transport loses nothing even across a partition.
        assert_eq!(report.lost_messages, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.gave_up, 0);
    }

    #[test]
    fn none_plan_is_bit_identical_to_plain_collect() {
        let (mut net, dep, _, _) = setup(7, Scheme::Plc, 40);
        let mut rng = StdRng::seed_from_u64(77);
        net.fail_uniform(0.3, &mut rng);
        let collector = net.random_alive_node(&mut rng).unwrap();

        let mut rng_a = StdRng::seed_from_u64(123);
        let mut dec_a: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(dep.profile().clone());
        let report_a = collect(
            &net,
            &dep,
            &mut dec_a,
            collector,
            &CollectionConfig::default(),
            &mut rng_a,
        )
        .unwrap();

        let mut rng_b = StdRng::seed_from_u64(123);
        let mut dec_b: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(dep.profile().clone());
        let mut faults = crate::fault::FaultPlan::none().session(net.node_count());
        let report_b = collect_with_faults(
            &net,
            &dep,
            &mut dec_b,
            collector,
            &CollectionConfig::default(),
            &mut faults,
            &mut rng_b,
        )
        .unwrap();

        assert_eq!(report_a, report_b);
        assert_eq!(dec_a.decoded_levels(), dec_b.decoded_levels());
        // And both rngs are left in the same state.
        use rand::Rng;
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn lossy_queries_degrade_and_account() {
        let (net, dep, _, mut rng) = setup(8, Scheme::Plc, 40);
        let collector = net.random_alive_node(&mut rng).unwrap();

        let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(dep.profile().clone());
        let mut faults = crate::fault::FaultPlan::lossy(0.7, crate::fault::RetryPolicy::none(), 99)
            .session(net.node_count());
        let mut rng_l = StdRng::seed_from_u64(5);
        let lossy = collect_with_faults(
            &net,
            &dep,
            &mut dec,
            collector,
            &CollectionConfig::default(),
            &mut faults,
            &mut rng_l,
        )
        .unwrap();
        assert!(lossy.gave_up > 0, "{lossy:?}");
        assert_eq!(lossy.lost_messages, lossy.gave_up + lossy.retries);
        assert!(lossy.nodes_queried >= lossy.unreachable_nodes + lossy.gave_up);

        // Same loss with a retry budget recovers queries.
        let mut dec2: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(dep.profile().clone());
        let mut faults2 =
            crate::fault::FaultPlan::lossy(0.7, crate::fault::RetryPolicy::with_retries(6, 1), 99)
                .session(net.node_count());
        let mut rng_r = StdRng::seed_from_u64(5);
        let retried = collect_with_faults(
            &net,
            &dep,
            &mut dec2,
            collector,
            &CollectionConfig::default(),
            &mut faults2,
            &mut rng_r,
        )
        .unwrap();
        // (Not blocks_collected: a retried run can decode fully and
        // early-stop with *fewer* blocks than the starved lossy run.)
        assert!(retried.final_levels() >= lossy.final_levels());
        assert!(retried.gave_up < lossy.gave_up);
        assert!(retried.retries > 0);
        assert!(retried.target_reached, "{retried:?}");
    }

    #[test]
    fn collection_works_on_plane_networks() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = PlaneNetwork::with_connectivity_radius(120, &mut rng);
        let profile = PriorityProfile::new(vec![2, 4]).unwrap();
        let sources: Vec<Vec<Gf256>> = (0..6).map(|_| vec![Gf256::random(&mut rng)]).collect();
        let cfg = ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(2),
            locations: 24,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: false,
            node_capacity: None,
            shared_seed: 99,
        };
        let dep = predistribute(&net, &cfg, &sources, &mut rng).unwrap();
        let mut dec = PlcDecoder::with_payloads(profile);
        let collector = net.random_alive_node(&mut rng).unwrap();
        let report = collect(
            &net,
            &dep,
            &mut dec,
            collector,
            &CollectionConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(report.target_reached, "{report:?}");
        for (i, s) in sources.iter().enumerate() {
            assert_eq!(dec.recovered(i).unwrap(), &s[..]);
        }
    }
}
