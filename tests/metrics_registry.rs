//! Runtime registry coverage: every metric key and trace name
//! documented in `docs/METRICS.md` must actually register in an obs
//! (or trace) snapshot during one full SLC+PLC workload.
//!
//! The static L3 lint proves every *call site* uses a documented key,
//! but it cannot prove the call site is reachable — a key whose
//! instrumented block is dead code would pass the lint while never
//! appearing in real snapshots. This test closes that gap: keys
//! register with `prlc-obs` on first call-site execution (even with a
//! zero value), so presence in the snapshot is exactly "the
//! instrumented block ran".

use prlc::analysis::{curves, AnalysisOptions};
use prlc::gf::kernel;
use prlc::obs;
use prlc::prelude::*;
use prlc_lint::registry::{parse_metrics_md, MetricKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use prlc::net::{
    collect_with_faults, observe_deployment, predistribute_with_faults, refresh_with_faults,
    Adversary, AdversaryPlan, AdversaryStrategy, ChurnEvent, FaultPlan, LinkModel, NodeId,
    RefreshConfig, RetryPolicy,
};
use prlc::sim::{
    simulate_decoding_curve, simulate_persistence_timeline, CurveConfig, Persistence,
    TimelineConfig,
};

/// One predistribute → collect round under the given fault knobs.
/// Executes the instrumented session blocks in `protocol.rs`,
/// `collect.rs` and `fault.rs`.
fn net_round(seed: u64, loss: f64, retries: usize, churn_fraction: f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = RingNetwork::new(50, &mut rng);
    let profile = PriorityProfile::new(vec![2, 4]).expect("valid profile");
    let data: Vec<Vec<Gf256>> = vec![Vec::new(); profile.total_blocks()];
    let plan = FaultPlan {
        link: LinkModel {
            loss,
            timeout_hops: None,
        },
        retry: RetryPolicy::with_retries(retries, 1),
        churn: vec![ChurnEvent {
            after_messages: 15,
            fraction: churn_fraction,
        }],
        seed: seed ^ 0x0B5,
    };
    let mut faults = plan.session(net.node_count());
    let dep = predistribute_with_faults(
        &net,
        &ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(2),
            locations: 24,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        },
        &data,
        &mut faults,
        &mut rng,
    )
    .expect("predistribution on a fresh network succeeds");
    let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile);
    if let Some(collector) = net.random_alive_node(&mut rng) {
        if !faults.is_down(collector) {
            let _ = collect_with_faults(
                &net,
                &dep,
                &mut dec,
                collector,
                &CollectionConfig::default(),
                &mut faults,
                &mut rng,
            );
        }
    }
}

/// A fault-free deployment, a node-failure event, then a repair pass —
/// executes the instrumented session block in `refresh.rs`.
fn refresh_round(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = RingNetwork::new(40, &mut rng);
    let profile = PriorityProfile::new(vec![2, 3]).expect("valid profile");
    let data: Vec<Vec<Gf256>> = vec![Vec::new(); profile.total_blocks()];
    let mut faults = FaultPlan::none().session(net.node_count());
    let mut dep = predistribute_with_faults(
        &net,
        &ProtocolConfig {
            scheme: Scheme::Slc,
            profile,
            distribution: PriorityDistribution::uniform(2),
            locations: 20,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: false,
            node_capacity: None,
            shared_seed: seed,
        },
        &data,
        &mut faults,
        &mut rng,
    )
    .expect("predistribution on a fresh network succeeds");
    net.fail_uniform(0.3, &mut rng);
    let mut faults = FaultPlan::none().session(net.node_count());
    let report = refresh_with_faults(
        &net,
        &mut dep,
        &RefreshConfig {
            scheme: Scheme::Slc,
            donors_per_slot: 2,
        },
        &mut faults,
        &mut rng,
    );
    assert!(report.is_some(), "network still has alive nodes");
}

/// A deployment attacked by all four adversary strategies — executes
/// the `net.adversary.*` instrumentation in `fault.rs`: strike events
/// (region + directed), adversary crashes, creep compromise, and the
/// per-transmission eclipse loss bias during collection.
fn adversary_round(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = RingNetwork::new(40, &mut rng);
    let profile = PriorityProfile::new(vec![2, 3]).expect("valid profile");
    let data: Vec<Vec<Gf256>> = vec![Vec::new(); profile.total_blocks()];
    let mut faults = FaultPlan::none().session(net.node_count());
    let dep = predistribute_with_faults(
        &net,
        &ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(2),
            locations: 20,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        },
        &data,
        &mut faults,
        &mut rng,
    )
    .expect("predistribution on a fresh network succeeds");

    let collector = NodeId::new(0);
    let strategies = [
        AdversaryStrategy::Region {
            fraction: 0.3,
            segment_len: 2,
        },
        AdversaryStrategy::Eclipse { loss: 0.6 },
        AdversaryStrategy::Targeted {
            kills: 3,
            focus: 1.0,
        },
        AdversaryStrategy::Creep { per_epoch: 0.3 },
    ];
    for (i, strategy) in strategies.into_iter().enumerate() {
        let mut adv = Adversary::new(
            AdversaryPlan {
                strategy,
                after_messages: 0,
                seed: seed ^ i as u64,
            },
            net.node_count(),
        );
        adv.arm_topology(&net, collector, &mut faults);
        adv.arm_observed(&observe_deployment(&dep), &mut faults);
        adv.advance_epoch(&mut faults);
    }
    faults.advance_steps(0);
    // Collect from a survivor: every destination except node 0 carries
    // the eclipse bias, so the queries themselves fire
    // `net.adversary.eclipse.messages`.
    let surviving_collector = (0..net.node_count())
        .map(NodeId::new)
        .find(|n| !faults.is_down(*n))
        .expect("bounded strikes leave survivors");
    let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile);
    let _ = collect_with_faults(
        &net,
        &dep,
        &mut dec,
        surviving_collector,
        &CollectionConfig::default(),
        &mut faults,
        &mut rng,
    );
}

/// Decoding-curve rounds for both priority schemes — executes the
/// encoder, decoder, progressive-RREF and runner instrumentation.
/// `max_blocks` comfortably exceeds the profile size so redundant rows
/// and level completions both occur.
fn curve_rounds(seed: u64) {
    for scheme in [Scheme::Slc, Scheme::Plc] {
        let profile = PriorityProfile::new(vec![2, 3]).expect("valid profile");
        let cfg = CurveConfig {
            persistence: Persistence::Coding(scheme),
            profile,
            distribution: PriorityDistribution::uniform(2),
            max_blocks: 15,
            runs: 2,
            seed,
        };
        let curve = simulate_decoding_curve::<Gf256>(&cfg);
        assert_eq!(curve.summaries.len(), 16);
    }
}

/// A short churn timeline with repair — executes the epoch
/// instrumentation in `timeline.rs` on top of the refresh path.
fn timeline_round(seed: u64) {
    let profile = PriorityProfile::new(vec![2, 3]).expect("valid profile");
    let summaries = simulate_persistence_timeline::<Gf256>(&TimelineConfig {
        scheme: Scheme::Plc,
        profile,
        distribution: PriorityDistribution::uniform(2),
        nodes: 30,
        locations: 15,
        churn_per_epoch: 0.2,
        epochs: 2,
        repair_donors: Some(2),
        faults: FaultPlan::none(),
        fanout: SourceFanout::All,
        coeff_rep: CoeffRep::Dense,
        runs: 1,
        seed,
    })
    .expect("timeline simulation");
    assert_eq!(summaries.len(), 3);
}

/// The SLC and PLC closed forms at one block count — executes the
/// convolution counter in the analysis layer.
fn analysis_rounds() {
    let profile = PriorityProfile::new(vec![2, 3]).expect("valid profile");
    let dist = PriorityDistribution::uniform(2);
    for scheme in [Scheme::Slc, Scheme::Plc] {
        let e = curves::expected_levels(scheme, &profile, &dist, 6, &AnalysisOptions::sharp());
        assert!((0.0..=2.0).contains(&e), "{scheme}: E(X) = {e}");
    }
}

/// Directly exercise all five dispatched GF kernel entry points so the
/// `gf.<op>.bytes` counters register even if the decoding path above
/// happens to skip one.
fn kernel_rounds() {
    let a: Vec<Gf256> = (1u8..=64).map(Gf256::new).collect();
    let mut d = a.clone();
    let c = Gf256::new(7);
    kernel::axpy(&mut d, c, &a);
    kernel::scale_slice(&mut d, c);
    kernel::add_slice(&mut d, &a);
    kernel::mul_slice(&mut d, &a);
    let _ = kernel::dot(&d, &a);
}

#[test]
fn every_documented_key_registers_at_runtime() {
    obs::enable();
    obs::trace::enable();
    obs::trace::reset();

    curve_rounds(0xC0FFEE);
    analysis_rounds();
    kernel_rounds();
    // Delivered traffic plus heavy churn: unreachable targets and
    // crashed nodes.
    net_round(11, 0.0, 1, 0.6);
    // Near-total loss with no retry budget: gave-up deliveries.
    net_round(12, 0.95, 0, 0.0);
    // Moderate loss with retry budget: exchanges that succeed only
    // after re-sends, firing the retry trace point.
    net_round(14, 0.5, 3, 0.0);
    refresh_round(13);
    timeline_round(15);
    adversary_round(16);

    let snap = obs::snapshot();
    let trace_snap = obs::trace::snapshot();
    let trace_names = trace_snap.names();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/METRICS.md"))
        .expect("docs/METRICS.md exists");
    let reg = parse_metrics_md(&text);
    assert!(
        reg.problems.is_empty(),
        "registry document problems: {:?}",
        reg.problems
    );
    assert!(
        reg.entries.len() >= 50,
        "registry suspiciously small: {} entries",
        reg.entries.len()
    );

    let mut missing: Vec<String> = Vec::new();
    for e in &reg.entries {
        let present = match e.kind {
            MetricKind::Counter => snap.counters.iter().any(|(n, _)| *n == e.key),
            MetricKind::Histogram => snap.histograms.iter().any(|(n, _)| *n == e.key),
            MetricKind::Timer => snap.timers.iter().any(|(n, _)| *n == e.key),
            MetricKind::Span | MetricKind::Point => trace_names.contains(&e.key.as_str()),
        };
        if !present {
            missing.push(format!("{} ({})", e.key, e.kind.name()));
        }
    }
    assert!(
        missing.is_empty(),
        "documented keys never registered during the SLC+PLC workload \
         (dead instrumentation or unreachable path): {missing:#?}"
    );
}
