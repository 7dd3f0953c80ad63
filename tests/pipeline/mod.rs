//! The pinned-seed protocol pipeline — deploy, churn, repair, collect —
//! through the public faulty entry points (`predistribute_with_faults`,
//! `refresh_with_faults`, `collect_with_faults`) with metrics and
//! tracing on. `event_equivalence` pins its outputs by digest, and
//! `coeffrep_equivalence` runs it once per coefficient-row
//! representation and compares the two.

use prlc::net::{
    collect_with_faults, observe_deployment, predistribute_with_faults, refresh_with_faults,
    Adversary, AdversaryPlan, AdversaryStrategy, ChurnEvent, CollectionConfig, FaultPlan,
    LinkModel, Network, NodeId, ProtocolConfig, RefreshConfig, RetryPolicy, RingNetwork,
    SourceFanout,
};
use prlc::obs;
use prlc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// The obs registry and tracer are process-global; runs that reset and
/// snapshot them must not interleave.
pub static GUARD: Mutex<()> = Mutex::new(());

/// One pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub scheme: Scheme,
    /// `None` runs under `FaultPlan::none()`, `Some(s)` under
    /// [`lossy_plan`]`(s)`.
    pub lossy: Option<u64>,
    /// Arms all four adversary strategies on the session.
    pub adversary: bool,
    pub nodes: usize,
    pub seed: u64,
    pub fanout: SourceFanout,
    pub rep: CoeffRep,
}

impl Case {
    /// No faults, no adversary, the dense fanout and dense rows.
    pub fn new(scheme: Scheme, nodes: usize, seed: u64) -> Case {
        Case {
            scheme,
            lossy: None,
            adversary: false,
            nodes,
            seed,
            fanout: SourceFanout::All,
            rep: CoeffRep::Dense,
        }
    }
}

/// Everything observable about one pipeline run.
pub struct Run {
    /// `(field, rendering)` of the predistribution metrics, the storage
    /// slots, the repair and collection reports, the decoded level
    /// count, the trace dump JSON and the caller's RNG end state.
    pub fields: [(&'static str, String); 7],
    /// The metrics snapshot at the end of the run.
    pub metrics: obs::Snapshot,
    /// Every source block's recovered payload.
    #[allow(dead_code)] // read by coeffrep_equivalence only
    pub recovered: Vec<Option<Vec<Gf256>>>,
}

/// Runs the pipeline once, recording metrics and trace from a reset.
pub fn run(case: Case) -> Run {
    obs::enable();
    obs::trace::enable();
    obs::reset();
    obs::trace::reset();

    let Case {
        scheme,
        lossy,
        adversary,
        nodes,
        seed,
        fanout,
        rep,
    } = case;
    let plan = lossy.map_or_else(FaultPlan::none, lossy_plan);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = RingNetwork::new(nodes, &mut rng);
    let profile = PriorityProfile::new(vec![2, 3, 5]).unwrap();
    let sources: Vec<Vec<Gf256>> = (0..profile.total_blocks())
        .map(|_| (0..2).map(|_| Gf256::random(&mut rng)).collect())
        .collect();
    let cfg = ProtocolConfig {
        scheme,
        profile: profile.clone(),
        distribution: PriorityDistribution::uniform(profile.num_levels()),
        locations: (nodes / 2).min(60),
        fanout,
        coeff_rep: rep,
        two_choices: true,
        node_capacity: None,
        shared_seed: seed,
    };
    let node_count = net.node_count();
    let mut session = plan.session(node_count);

    // Each adversary draws from the case seed and its own tag.
    let attacker = |strategy, after_messages, tag: u64| {
        let plan = AdversaryPlan {
            strategy,
            after_messages,
            seed: seed ^ tag,
        };
        Adversary::new(plan, node_count)
    };

    // Topology-armed adversaries (regional outage + collector eclipse)
    // go in before any protocol traffic, like a real pre-positioned
    // attacker. Adversary strikes and eclipse bias live inside the
    // fault session the three entry points share.
    if adversary {
        let region = AdversaryStrategy::Region {
            fraction: 0.05,
            segment_len: 3,
        };
        attacker(region, 60, 0xA1).arm_topology(&net, NodeId::new(0), &mut session);
        let eclipse = AdversaryStrategy::Eclipse { loss: 0.4 };
        attacker(eclipse, 0, 0xA2).arm_topology(&net, NodeId::new(0), &mut session);
    }

    let mut dep = predistribute_with_faults(&net, &cfg, &sources, &mut session, &mut rng)
        .expect("fresh network accepts the protocol");
    let predistribute_metrics = format!("{:?}", dep.metrics());

    net.fail_uniform(0.3, &mut rng);
    assert!(net.alive_count() > 0, "seed killed the whole overlay");

    // Observation-armed adversaries (targeted cache killer + slow
    // compromise) act on the deployed slot metadata before repair.
    if adversary {
        let targeted = AdversaryStrategy::Targeted {
            kills: 5,
            focus: 0.7,
        };
        attacker(targeted, 30, 0xA3).arm_observed(&observe_deployment(&dep), &mut session);
        let creep = AdversaryStrategy::Creep { per_epoch: 0.02 };
        attacker(creep, 0, 0xA4).advance_epoch(&mut session);
    }

    let refresh_cfg = RefreshConfig {
        scheme,
        donors_per_slot: 3,
    };
    let refresh_report = refresh_with_faults(&net, &mut dep, &refresh_cfg, &mut session, &mut rng);

    let collector = net
        .random_alive_node(&mut rng)
        .expect("alive_count > 0 was asserted");
    let collect_cfg = CollectionConfig::default();
    let n = profile.total_blocks();
    let (collect_report, levels, recovered) = if scheme == Scheme::Slc {
        let mut dec = SlcDecoder::<Gf256, Vec<Gf256>>::with_payloads(profile);
        let report = collect_with_faults(
            &net,
            &dep,
            &mut dec,
            collector,
            &collect_cfg,
            &mut session,
            &mut rng,
        );
        let recovered = (0..n).map(|i| dec.recovered(i).map(<[_]>::to_vec));
        (report, dec.decoded_levels(), recovered.collect())
    } else {
        let mut dec = PlcDecoder::<Gf256, Vec<Gf256>>::with_payloads(profile);
        let report = collect_with_faults(
            &net,
            &dep,
            &mut dec,
            collector,
            &collect_cfg,
            &mut session,
            &mut rng,
        );
        let recovered = (0..n).map(|i| dec.recovered(i).map(<[_]>::to_vec));
        (report, dec.decoded_levels(), recovered.collect())
    };

    Run {
        fields: [
            ("predistribute", predistribute_metrics),
            ("slots", format!("{:?}", dep.slots())),
            ("refresh", format!("{refresh_report:?}")),
            ("collect", format!("{collect_report:?}")),
            ("levels", levels.to_string()),
            ("trace", obs::trace::snapshot().to_json()),
            ("rng", rng.gen::<u64>().to_string()),
        ],
        metrics: obs::snapshot(),
        recovered,
    }
}

/// A lossy link with retries and one churn event, seeded from `seed`.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        link: LinkModel {
            loss: 0.25,
            timeout_hops: None,
        },
        retry: RetryPolicy::with_retries(2, 1),
        churn: vec![ChurnEvent {
            after_messages: 40,
            fraction: 0.1,
        }],
        seed: seed ^ 0xFA,
    }
}
