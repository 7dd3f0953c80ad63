//! Property tests for the network substrate and protocol invariants.

use proptest::prelude::*;

use prlc_core::{CoeffRep, PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::Gf256;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::collect::{collect_with_faults, CollectionConfig};
use crate::fault::{ChurnEvent, FaultPlan, LinkModel, RetryPolicy};
use crate::network::{Network, NodeId};
use crate::plane::PlaneNetwork;
use crate::protocol::{predistribute, ProtocolConfig, SourceFanout};
use crate::ring::RingNetwork;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_routing_always_reaches_the_owner(
        nodes in 2usize..120,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = RingNetwork::new(nodes, &mut rng);
        for _ in 0..10 {
            let from = net.random_alive_node(&mut rng).unwrap();
            let p = net.random_point(&mut rng);
            let r = net.route(from, p).expect("healthy ring routes");
            prop_assert_eq!(Some(r.owner), net.owner_of(p));
            prop_assert!(r.hops <= 2 * 64);
        }
    }

    #[test]
    fn ring_survives_partial_failure(
        nodes in 10usize..100,
        seed in 0u64..500,
        fraction in 0.0f64..0.9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = RingNetwork::new(nodes, &mut rng);
        let killed = net.fail_uniform(fraction, &mut rng);
        prop_assert_eq!(net.alive_count(), nodes - killed);
        if net.alive_count() > 0 {
            let from = net.random_alive_node(&mut rng).unwrap();
            let p = net.random_point(&mut rng);
            let r = net.route(from, p).expect("ring with survivors routes");
            prop_assert!(net.is_alive(r.owner));
        }
    }

    #[test]
    fn plane_owner_is_nearest_alive(
        nodes in 5usize..80,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = PlaneNetwork::with_connectivity_radius(nodes, &mut rng);
        let p = net.random_point(&mut rng);
        let owner = net.owner_of(p).unwrap();
        let d = net.position(owner).distance(p);
        for i in 0..nodes {
            prop_assert!(net.position(NodeId::new(i)).distance(p) >= d - 1e-12);
        }
    }

    #[test]
    fn protocol_slot_supports_respect_scheme(
        seed in 0u64..300,
        scheme_idx in 0usize..3,
        m in 5usize..40,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let net = RingNetwork::new(30, &mut rng);
        let profile = PriorityProfile::new(vec![2, 3, 4]).unwrap();
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); 9];
        let cfg = ProtocolConfig {
            scheme,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(3),
            locations: m,
            fanout: SourceFanout::Log { factor: 1.5 },
            coeff_rep: CoeffRep::Dense,
            two_choices: seed % 2 == 0,
            node_capacity: None,
            shared_seed: seed,
        };
        let dep = predistribute(&net, &cfg, &sources, &mut rng).unwrap();
        prop_assert_eq!(dep.slots().len(), m);
        for slot in dep.slots() {
            for idx in slot.block.support() {
                let lvl = profile.level_of(idx);
                match scheme {
                    Scheme::Slc => prop_assert_eq!(lvl, slot.level),
                    Scheme::Plc => prop_assert!(lvl <= slot.level),
                    Scheme::Rlc => {} // anything goes
                }
            }
        }
        // Load accounting is consistent.
        let load = dep.load_per_node(net.node_count());
        prop_assert_eq!(load.iter().sum::<usize>(), m);
        prop_assert_eq!(
            load.iter().copied().max().unwrap_or(0),
            dep.metrics().max_node_load
        );
    }

    #[test]
    fn fault_accounting_is_internally_consistent(
        seed in 0u64..500,
        loss in 0.0f64..1.0,
        retries in 0usize..5,
        node_failure in 0.0f64..0.6,
        churn_after in 0usize..60,
        churn_fraction in 0.0f64..0.5,
    ) {
        use prlc_core::{PlcDecoder, PriorityDecoder};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = RingNetwork::new(40, &mut rng);
        let profile = PriorityProfile::new(vec![2, 3, 4]).unwrap();
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); 9];
        let dep = predistribute(&net, &ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(3),
            locations: 25,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        }, &sources, &mut rng).unwrap();
        net.fail_uniform(node_failure, &mut rng);
        // 40 nodes at <60% failure: survivors exist (p > 1 - 1e-8).
        prop_assume!(net.alive_count() > 0);
        let collector = net.random_alive_node(&mut rng).unwrap();

        let plan = FaultPlan {
            link: LinkModel { loss, timeout_hops: None },
            retry: RetryPolicy::with_retries(retries, 1),
            churn: vec![ChurnEvent { after_messages: churn_after, fraction: churn_fraction }],
            seed,
        };
        let mut faults = plan.session(net.node_count());
        let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile);
        let report = collect_with_faults(
            &net, &dep, &mut dec, collector, &CollectionConfig::default(),
            &mut faults, &mut rng,
        ).expect("collector is alive and a fresh session has no crashes");

        // Report accounting must be internally consistent under ANY
        // seeded fault plan.
        prop_assert_eq!(report.blocks_collected, report.levels_after_block.len());
        for w in report.levels_after_block.windows(2) {
            prop_assert!(w[1] >= w[0], "trajectory not monotone");
        }
        prop_assert!(report.nodes_queried <= net.alive_count());
        prop_assert!(report.unreachable_nodes + report.gave_up <= report.nodes_queried);
        // retries = attempts - 1 per query, at most `retries` each.
        prop_assert!(report.retries <= report.nodes_queried * retries);
        // Delivered queries lose exactly their retries; abandoned ones
        // one more; crashed-mid-query ones had every attempt lost.
        prop_assert!(report.retries <= report.lost_messages);
        prop_assert!(
            report.lost_messages
                <= report.retries + report.gave_up + report.unreachable_nodes,
            "lost {} vs retries {} gave_up {} unreachable {}",
            report.lost_messages, report.retries, report.gave_up,
            report.unreachable_nodes
        );
        prop_assert_eq!(report.final_levels(), dec.decoded_levels());
    }

    #[test]
    fn targeted_adversary_intensity_monotonically_degrades_decoding(
        seed in 0u64..300,
        kills in 1usize..12,
        extra in 1usize..8,
        focus in 0.0f64..1.0,
    ) {
        use prlc_core::{PlcDecoder, PriorityDecoder};

        use crate::adversary::{
            observe_deployment, Adversary, AdversaryPlan, AdversaryStrategy,
        };

        let profile = PriorityProfile::new(vec![2, 3, 4]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let net = RingNetwork::new(40, &mut rng);
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); 9];
        let dep = predistribute(&net, &ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(3),
            locations: 25,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        }, &sources, &mut rng).unwrap();
        let collector = net.random_alive_node(&mut rng).unwrap();

        // Same adversary seed at two kill budgets. Kill lists are built
        // pick-by-pick on the adversary RNG, so the smaller budget's
        // list is a prefix of the larger one's: crash sets are nested
        // and decoding can only get (weakly) worse per run — not just
        // on average.
        let run_with_kills = |k: usize| {
            let mut session = FaultPlan::none().session(net.node_count());
            let mut adv = Adversary::new(AdversaryPlan {
                strategy: AdversaryStrategy::Targeted { kills: k, focus },
                after_messages: 0,
                seed,
            }, net.node_count());
            let chosen = adv.arm_observed(&observe_deployment(&dep), &mut session);
            session.advance_steps(0);
            let mut dec: PlcDecoder<Gf256, ()> =
                PlcDecoder::coefficients_only(profile.clone());
            let mut crng = StdRng::seed_from_u64(seed ^ 0x0517);
            let _ = collect_with_faults(
                &net, &dep, &mut dec, collector,
                &CollectionConfig { target_levels: Some(4) },
                &mut session, &mut crng,
            );
            (chosen, dec.decoded_levels())
        };
        let (few_list, few_levels) = run_with_kills(kills);
        let (many_list, many_levels) = run_with_kills(kills + extra);
        prop_assert!(many_list.len() >= few_list.len());
        prop_assert_eq!(&many_list[..few_list.len()], &few_list[..]);
        prop_assert!(
            many_levels <= few_levels,
            "kills {} decoded {} but kills {} decoded {}",
            kills, few_levels, kills + extra, many_levels
        );
        // Level-index monotonicity of the reported survival indicators:
        // PLC decodes prefixes, so surviving level k+1 implies level k.
        let survival: Vec<bool> = (1..=3).map(|k| many_levels >= k).collect();
        for w in survival.windows(2) {
            prop_assert!(w[0] || !w[1]);
        }
    }

    #[test]
    fn region_adversary_fraction_coupling_is_monotone(
        seed in 0u64..300,
        frac_lo in 0.0f64..0.5,
        bump in 0.0f64..0.5,
        segment_len in 1usize..6,
    ) {
        use prlc_core::{PlcDecoder, PriorityDecoder};

        use crate::adversary::{Adversary, AdversaryPlan, AdversaryStrategy};
        use crate::fault::FaultSession;

        let profile = PriorityProfile::new(vec![2, 3, 4]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let net = RingNetwork::new(40, &mut rng);
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); 9];
        let dep = predistribute(&net, &ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(3),
            locations: 25,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        }, &sources, &mut rng).unwrap();
        let collector = net.random_alive_node(&mut rng).unwrap();

        // Same fault seed at two outage intensities. Anchor draws are
        // snapshotted against the pre-strike down set on the session
        // RNG, so gen_bool(lo) true implies gen_bool(hi) true on the
        // same draw: the lo crash set is a subset of the hi crash set.
        let run_with_fraction = |fraction: f64| {
            let mut session: FaultSession = FaultPlan::none().session(net.node_count());
            let mut adv = Adversary::new(AdversaryPlan {
                strategy: AdversaryStrategy::Region { fraction, segment_len },
                after_messages: 0,
                seed,
            }, net.node_count());
            adv.arm_topology(&net, collector, &mut session);
            session.advance_steps(0);
            let down: Vec<bool> =
                (0..net.node_count()).map(|i| session.is_down(NodeId::new(i))).collect();
            let mut dec: PlcDecoder<Gf256, ()> =
                PlcDecoder::coefficients_only(profile.clone());
            let mut crng = StdRng::seed_from_u64(seed ^ 0x0517);
            let _ = collect_with_faults(
                &net, &dep, &mut dec, collector,
                &CollectionConfig { target_levels: Some(4) },
                &mut session, &mut crng,
            );
            (down, dec.decoded_levels())
        };
        let (down_lo, levels_lo) = run_with_fraction(frac_lo);
        let (down_hi, levels_hi) = run_with_fraction((frac_lo + bump).min(1.0));
        for i in 0..down_lo.len() {
            prop_assert!(!down_lo[i] || down_hi[i], "crash sets not nested at node {}", i);
        }
        prop_assert!(
            levels_hi <= levels_lo,
            "fraction {} decoded {} but fraction {} decoded {}",
            frac_lo, levels_lo, (frac_lo + bump).min(1.0), levels_hi
        );
    }

    #[test]
    fn fanout_counts_are_within_bounds(
        factor in 0.1f64..5.0,
        eligible in 1usize..200,
        total in 2usize..2000,
    ) {
        let d = SourceFanout::Log { factor }.count(eligible, total);
        prop_assert!(d >= 1);
        prop_assert!(d <= eligible);
        let all = SourceFanout::All.count(eligible, total);
        prop_assert_eq!(all, eligible);
    }
}
