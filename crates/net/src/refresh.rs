//! In-network repair: re-creating coded blocks lost to node failure from
//! surviving coded blocks.
//!
//! The paper persists data through *one* failure event; over longer
//! horizons redundancy erodes as nodes keep churning. Because the codes
//! are linear, a lost coded block can be replaced *without touching the
//! original sources*: a random linear combination of surviving coded
//! blocks is itself a valid coded block (functional repair, in the
//! spirit of Dimakis et al.'s network coding for distributed storage —
//! reference \[6\] of the paper). Scheme constraints carry over directly:
//!
//! * **SLC** — donors must come from the *same* level part (their
//!   supports are confined to that level);
//! * **PLC** — donors of level `≤ L` are valid for a level-`L` slot
//!   (their supports lie inside the level-`L` prefix);
//! * **RLC** — any donor works.
//!
//! Repair is an extension beyond the paper (documented in DESIGN.md);
//! the `ablation_refresh` benchmark measures how much persistence it
//! buys across repeated churn epochs.

use prlc_core::{CodedBlock, Scheme};
use prlc_gf::GfElem;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::collect::NodeLocator;
use crate::fault::{DeliveryOutcome, FaultPlan, FaultSession};
use crate::protocol::Deployment;

/// Configuration of one repair pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefreshConfig {
    /// Scheme the deployment was encoded with (constrains donor
    /// eligibility).
    pub scheme: Scheme,
    /// How many surviving donors are combined into each repaired block.
    /// More donors make the repaired block "more random" (closer to a
    /// fresh encoding) at proportional bandwidth cost.
    pub donors_per_slot: usize,
}

/// Outcome of a repair pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefreshReport {
    /// Slots whose block was re-created on a new alive node.
    pub repaired: usize,
    /// Slots with no eligible surviving donor (their data stays lost
    /// until sources are re-disseminated).
    pub unrepairable: usize,
    /// Donor-fetch messages sent.
    pub messages: usize,
    /// Total hops across donor fetches (including retried transmissions
    /// and their backoff surcharge).
    pub total_hops: usize,
    /// Donor-fetch transmissions lost in transit or timed out.
    pub lost_messages: usize,
    /// Retransmissions spent recovering lost fetches.
    pub retries: usize,
    /// Donor fetches skipped because the donor was unroutable or crashed
    /// mid-run (the repaired block misses that donor's contribution).
    pub unreachable_nodes: usize,
    /// Donor fetches abandoned after exhausting the retry budget.
    pub gave_up: usize,
}

/// Repairs every slot of `deployment` whose caching node has failed,
/// placing the re-created block on a live node chosen by the same
/// owner-of-a-random-point rule as the original protocol.
///
/// Returns `None` when the network has no alive nodes at all.
pub fn refresh<N, F, R>(
    net: &N,
    deployment: &mut Deployment<F>,
    cfg: &RefreshConfig,
    rng: &mut R,
) -> Option<RefreshReport>
where
    N: NodeLocator,
    F: GfElem,
    R: Rng + ?Sized,
{
    let mut faults = FaultPlan::none().session(net.node_count());
    refresh_with_faults(net, deployment, cfg, &mut faults, rng)
}

/// [`refresh`] over a faulty transport: each donor fetch is subject to
/// the session's link model and retry budget, and churn events fire
/// between fetches. A donor whose fetch fails — unroutable, crashed, or
/// retry budget spent — contributes nothing to the repaired block; a
/// slot for which *no* donor could be fetched stays unrepaired (counted
/// in `unrepairable`) instead of silently acquiring an empty block.
///
/// Under [`FaultPlan::none`] this is bit-identical to [`refresh`] on any
/// connected network.
///
/// Returns `None` when the network has no alive nodes at all.
pub fn refresh_with_faults<N, F, R>(
    net: &N,
    deployment: &mut Deployment<F>,
    cfg: &RefreshConfig,
    faults: &mut FaultSession,
    rng: &mut R,
) -> Option<RefreshReport>
where
    N: NodeLocator,
    F: GfElem,
    R: Rng + ?Sized,
{
    if net.alive_count() == 0 {
        return None;
    }
    let span_start = faults.steps() as u64;
    let mut report = RefreshReport::default();

    // Index surviving slots by level for donor lookup.
    let dead: Vec<usize> = (0..deployment.slots().len())
        .filter(|&i| !net.is_alive(deployment.slots()[i].node))
        .collect();
    let alive_slots: Vec<usize> = (0..deployment.slots().len())
        .filter(|&i| net.is_alive(deployment.slots()[i].node))
        .collect();

    for slot_idx in dead {
        let level = deployment.slots()[slot_idx].level;
        // Eligible donors under the scheme's support rules.
        let mut donors: Vec<usize> = alive_slots
            .iter()
            .copied()
            .filter(|&j| {
                let donor = &deployment.slots()[j];
                if donor.block.is_empty() {
                    return false;
                }
                match cfg.scheme {
                    Scheme::Slc => donor.level == level,
                    Scheme::Plc => donor.level <= level,
                    Scheme::Rlc => true,
                }
            })
            .collect();
        if donors.is_empty() {
            report.unrepairable += 1;
            continue;
        }
        donors.shuffle(rng);
        donors.truncate(cfg.donors_per_slot.max(1));

        // Place the repaired block at the owner of a fresh random point.
        let point = net.random_point(rng);
        let Some(new_node) = net.owner_of(point) else {
            // alive_count > 0 was checked on entry and the substrate is
            // immutable during the session; count the slot unrepairable
            // rather than panicking if that ever breaks.
            report.unrepairable += 1;
            continue;
        };

        let width = deployment.profile().total_blocks();
        // The repaired block inherits the dead slot's coefficient
        // representation, so a sparse deployment stays sparse across
        // repair generations.
        let rep = deployment.slots()[slot_idx].block.coefficients.rep();
        let mut block: CodedBlock<F> = CodedBlock::empty_with(level, width, rep);
        let mut fetched = 0usize;
        for &j in &donors {
            let donor_slot = &deployment.slots()[j];
            // Fetch the donor block: route from the repairing node to the
            // donor's cache.
            let Some(route) = net.route(new_node, net.locate(donor_slot.node)) else {
                report.unreachable_nodes += 1;
                continue;
            };
            let delivery = faults.attempt(donor_slot.node, route.hops);
            report.lost_messages += delivery.lost;
            report.retries += delivery.attempts.saturating_sub(1);
            report.total_hops += delivery.cost_hops;
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
            report.messages += 1;
            let beta = F::random_nonzero(rng);
            let donor_block = donor_slot.block.clone();
            block.combine(&donor_block, beta);
            fetched += 1;
        }

        if fetched == 0 {
            // Every donor fetch failed: the slot stays lost rather than
            // acquiring an empty block on a new node.
            report.unrepairable += 1;
            continue;
        }
        let slot = &mut deployment.slots_mut()[slot_idx];
        slot.node = new_node;
        slot.block = block;
        report.repaired += 1;
    }
    emit_refresh_obs(&report, span_start, faults.steps() as u64);
    Some(report)
}

/// Per-session metric and trace emission of [`refresh_with_faults`].
fn emit_refresh_obs(report: &RefreshReport, span_start: u64, span_end: u64) {
    if prlc_obs::enabled() {
        // Per-session fault accounting, mirroring the report fields.
        prlc_obs::counter!("net.refresh.sessions").incr();
        prlc_obs::counter!("net.refresh.repaired").add(report.repaired as u64);
        prlc_obs::counter!("net.refresh.unrepairable").add(report.unrepairable as u64);
        prlc_obs::counter!("net.refresh.messages").add(report.messages as u64);
        prlc_obs::counter!("net.refresh.lost_messages").add(report.lost_messages as u64);
        prlc_obs::counter!("net.refresh.retries").add(report.retries as u64);
        prlc_obs::counter!("net.refresh.gave_up").add(report.gave_up as u64);
        prlc_obs::counter!("net.refresh.unreachable_nodes").add(report.unreachable_nodes as u64);
    }
    if prlc_obs::trace::enabled() {
        // Causal span on the session's message-step clock.
        prlc_obs::trace_span!(
            "net.refresh.session",
            span_start,
            span_end,
            repaired: report.repaired as u64,
            unrepairable: report.unrepairable as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::protocol::{predistribute, ProtocolConfig, SourceFanout};
    use crate::ring::RingNetwork;
    use prlc_core::{CoeffRep, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile};
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        seed: u64,
        scheme: Scheme,
    ) -> (RingNetwork, Deployment<Gf256>, Vec<Vec<Gf256>>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = RingNetwork::new(60, &mut rng);
        let profile = PriorityProfile::new(vec![3, 4, 5]).unwrap();
        let sources: Vec<Vec<Gf256>> = (0..12)
            .map(|_| (0..2).map(|_| Gf256::random(&mut rng)).collect())
            .collect();
        let dep = predistribute(
            &net,
            &ProtocolConfig {
                scheme,
                profile,
                distribution: PriorityDistribution::uniform(3),
                locations: 48,
                fanout: SourceFanout::All,
                coeff_rep: CoeffRep::Dense,
                two_choices: true,
                node_capacity: None,
                shared_seed: seed,
            },
            &sources,
            &mut rng,
        )
        .unwrap();
        (net, dep, sources, rng)
    }

    #[test]
    fn refresh_moves_dead_slots_to_live_nodes() {
        let (mut net, mut dep, _, mut rng) = setup(1, Scheme::Plc);
        net.fail_uniform(0.4, &mut rng);
        let dead_before = dep.slots().iter().filter(|s| !net.is_alive(s.node)).count();
        assert!(dead_before > 0, "seed produced no failures");
        let report = refresh(
            &net,
            &mut dep,
            &RefreshConfig {
                scheme: Scheme::Plc,
                donors_per_slot: 3,
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.repaired + report.unrepairable, dead_before);
        assert!(report.repaired > 0);
        // Every slot now lives on an alive node (unrepairable ones were
        // re-placed too? No: unrepairable slots keep their dead node).
        let still_dead = dep.slots().iter().filter(|s| !net.is_alive(s.node)).count();
        assert_eq!(still_dead, report.unrepairable);
    }

    #[test]
    fn repaired_blocks_respect_scheme_supports() {
        for scheme in [Scheme::Slc, Scheme::Plc] {
            let (mut net, mut dep, _, mut rng) = setup(2, scheme);
            net.fail_uniform(0.5, &mut rng);
            refresh(
                &net,
                &mut dep,
                &RefreshConfig {
                    scheme,
                    donors_per_slot: 2,
                },
                &mut rng,
            )
            .unwrap();
            let profile = dep.profile().clone();
            for slot in dep.slots() {
                for idx in slot.block.support() {
                    match scheme {
                        Scheme::Slc => assert_eq!(profile.level_of(idx), slot.level),
                        _ => assert!(profile.level_of(idx) <= slot.level),
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_restores_decodability_after_repeated_churn() {
        // Two churn epochs with repair in between: data stays decodable
        // far more often than without repair.
        let mut with_repair = 0usize;
        let mut without_repair = 0usize;
        for seed in 0..6u64 {
            for repair in [true, false] {
                let (mut net, mut dep, sources, mut rng) = setup(100 + seed, Scheme::Plc);
                for _ in 0..3 {
                    net.fail_uniform(0.25, &mut rng);
                    if net.alive_count() == 0 {
                        break;
                    }
                    if repair {
                        refresh(
                            &net,
                            &mut dep,
                            &RefreshConfig {
                                scheme: Scheme::Plc,
                                donors_per_slot: 4,
                            },
                            &mut rng,
                        );
                    }
                }
                let Some(collector) = net.random_alive_node(&mut rng) else {
                    continue;
                };
                let mut dec = PlcDecoder::with_payloads(dep.profile().clone());
                crate::collect::collect(
                    &net,
                    &dep,
                    &mut dec,
                    collector,
                    &crate::collect::CollectionConfig::default(),
                    &mut rng,
                );
                if dec.is_complete() {
                    // Verify payloads really survive repeated re-coding.
                    for (i, s) in sources.iter().enumerate() {
                        assert_eq!(dec.recovered(i).unwrap(), &s[..], "block {i}");
                    }
                    if repair {
                        with_repair += 1;
                    } else {
                        without_repair += 1;
                    }
                }
            }
        }
        assert!(
            with_repair >= without_repair,
            "repair should not hurt: {with_repair} vs {without_repair}"
        );
        assert!(
            with_repair >= 4,
            "repair preserved data only {with_repair}/6"
        );
    }

    #[test]
    fn none_plan_is_bit_identical_to_plain_refresh() {
        let (mut net, dep, _, mut rng) = setup(5, Scheme::Plc);
        net.fail_uniform(0.4, &mut rng);
        let cfg = RefreshConfig {
            scheme: Scheme::Plc,
            donors_per_slot: 3,
        };

        let mut dep_a = dep.clone();
        let mut rng_a = StdRng::seed_from_u64(55);
        let report_a = refresh(&net, &mut dep_a, &cfg, &mut rng_a).unwrap();

        let mut dep_b = dep;
        let mut rng_b = StdRng::seed_from_u64(55);
        let mut faults = FaultPlan::none().session(net.node_count());
        let report_b =
            refresh_with_faults(&net, &mut dep_b, &cfg, &mut faults, &mut rng_b).unwrap();

        assert_eq!(report_a, report_b);
        assert_eq!(
            format!("{:?}", dep_a.slots()),
            format!("{:?}", dep_b.slots())
        );
        use rand::Rng;
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn failed_donor_fetches_leave_slots_unrepaired() {
        use crate::fault::RetryPolicy;
        let (mut net, mut dep, _, mut rng) = setup(6, Scheme::Plc);
        net.fail_uniform(0.4, &mut rng);
        let dead = dep.slots().iter().filter(|s| !net.is_alive(s.node)).count();
        assert!(dead > 0);
        // Total loss, no retries: every donor fetch is abandoned, so
        // nothing is repaired — and no slot acquires an empty block.
        let mut faults = FaultPlan::lossy(1.0, RetryPolicy::none(), 3).session(net.node_count());
        let report = refresh_with_faults(
            &net,
            &mut dep,
            &RefreshConfig {
                scheme: Scheme::Plc,
                donors_per_slot: 3,
            },
            &mut faults,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, dead);
        assert_eq!(report.messages, 0);
        assert!(report.gave_up > 0);
        assert_eq!(report.lost_messages, report.gave_up + report.retries);
    }

    #[test]
    fn empty_network_returns_none() {
        let (mut net, mut dep, _, mut rng) = setup(3, Scheme::Plc);
        net.fail_arc(0, 1.0);
        assert!(refresh(
            &net,
            &mut dep,
            &RefreshConfig {
                scheme: Scheme::Plc,
                donors_per_slot: 2
            },
            &mut rng
        )
        .is_none());
    }
}
