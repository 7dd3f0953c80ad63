//! Cross-validation between the three independent implementations of
//! "how many levels decode": the analytical model (`prlc-analysis`), the
//! in-memory simulation (`prlc-sim` over the real decoders), and the
//! networked pipeline (`prlc-net`). This is the integration-level
//! version of the paper's Sec. 5.1 validation.

use prlc::prelude::*;
use prlc::sim::{simulate_decoding_curve, CurveConfig, Persistence};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Analysis and simulation agree along the whole curve for both priority
/// schemes (paper Figs. 4 and 5 at reduced scale).
#[test]
fn analysis_matches_simulation_along_the_curve() {
    let profile = PriorityProfile::uniform(5, 12).unwrap();
    let dist = PriorityDistribution::uniform(5);
    let opts = AnalysisOptions::sharp();
    for scheme in [Scheme::Slc, Scheme::Plc] {
        let curve = simulate_decoding_curve::<Gf256>(&CurveConfig {
            persistence: Persistence::Coding(scheme),
            profile: profile.clone(),
            distribution: dist.clone(),
            max_blocks: 120,
            runs: 80,
            seed: 21,
        });
        for m in (0..=120).step_by(12) {
            let analytic = curves::expected_levels(scheme, &profile, &dist, m, &opts);
            let sim = curve.summaries[m].mean;
            assert!(
                (sim - analytic).abs() < 0.3,
                "{scheme} m={m}: sim {sim} vs analysis {analytic}"
            );
        }
    }
}

/// The rank-exact model is a strictly better predictor than the sharp
/// model can be at the completion knee (where GF(256) singularities
/// actually bite), and never optimistic relative to sharp.
#[test]
fn rank_exact_model_is_consistent() {
    let profile = PriorityProfile::flat(40).unwrap();
    let dist = PriorityDistribution::uniform(1);
    let sharp = AnalysisOptions::sharp();
    let exact = AnalysisOptions::rank_exact(256.0);
    for m in 40..=50 {
        let ps = curves::prob_complete(Scheme::Plc, &profile, &dist, m, &sharp);
        let pe = curves::prob_complete(Scheme::Plc, &profile, &dist, m, &exact);
        assert!(pe <= ps + 1e-12, "m={m}");
        assert!(ps - pe < 0.01, "m={m}: correction too large");
    }
    // At exactly m = N the sharp model says certainty; reality (and the
    // rank model) say slightly less.
    assert_eq!(
        curves::prob_complete(Scheme::Plc, &profile, &dist, 40, &sharp),
        1.0
    );
    let pe = curves::prob_complete(Scheme::Plc, &profile, &dist, 40, &exact);
    assert!(pe < 1.0 && pe > 0.98);
}

/// A distribution designed by the feasibility solver delivers its
/// promised decoding behaviour in simulation with the real decoder.
#[test]
fn designed_distribution_validates_in_simulation() {
    let profile = PriorityProfile::new(vec![5, 10, 35]).unwrap();
    let problem = FeasibilityProblem {
        scheme: Scheme::Plc,
        profile: profile.clone(),
        constraints: vec![
            DecodingConstraint::new(30, 1.0),
            DecodingConstraint::new(60, 2.0),
        ],
        full_recovery: Some(FullRecoveryConstraint {
            alpha: 2.0,
            epsilon: 0.01,
        }),
        options: AnalysisOptions::sharp(),
        tolerance: 0.0,
    };
    let sol = solve_feasibility(&problem);
    assert!(sol.feasible, "solver failed: penalty {}", sol.penalty);

    let curve = simulate_decoding_curve::<Gf256>(&CurveConfig {
        persistence: Persistence::Coding(Scheme::Plc),
        profile,
        distribution: sol.distribution.clone(),
        max_blocks: 100,
        runs: 100,
        seed: 31,
    });
    // Simulated means at the constraint points honour the constraints
    // (tolerance: CI of 100 runs plus the sharp-model gap).
    assert!(
        curve.summaries[30].mean > 1.0 - 0.2,
        "E(X_30) simulated {}",
        curve.summaries[30].mean
    );
    assert!(
        curve.summaries[60].mean > 2.0 - 0.2,
        "E(X_60) simulated {}",
        curve.summaries[60].mean
    );
}

/// The networked pipeline and the in-memory simulation tell the same
/// story: mean decoded levels after collecting M blocks from the ring
/// match the in-memory curve at M (they use the very same decoder).
#[test]
fn network_collection_matches_in_memory_curve() {
    let profile = PriorityProfile::new(vec![4, 8, 12]).unwrap();
    let dist = PriorityDistribution::uniform(3);
    let locations = 48usize;

    // In-memory curve.
    let curve = simulate_decoding_curve::<Gf256>(&CurveConfig {
        persistence: Persistence::Coding(Scheme::Plc),
        profile: profile.clone(),
        distribution: dist.clone(),
        max_blocks: locations,
        runs: 60,
        seed: 77,
    });

    // Networked: collect everything from a healthy ring, record the
    // trajectory, average over seeds.
    let runs = 30usize;
    let mut traj_sum = vec![0.0f64; locations + 1];
    let mut counted = vec![0usize; locations + 1];
    for seed in 0..runs as u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let net = RingNetwork::new(120, &mut rng);
        let data: Vec<Vec<Gf256>> = vec![Vec::new(); profile.total_blocks()];
        let dep = predistribute(
            &net,
            &ProtocolConfig {
                scheme: Scheme::Plc,
                profile: profile.clone(),
                distribution: dist.clone(),
                locations,
                fanout: SourceFanout::All,
                coeff_rep: CoeffRep::Dense,
                two_choices: true,
                node_capacity: None,
                shared_seed: seed,
            },
            &data,
            &mut rng,
        )
        .unwrap();
        let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile.clone());
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
        for (i, &lvl) in report.levels_after_block.iter().enumerate() {
            traj_sum[i + 1] += lvl as f64;
            counted[i + 1] += 1;
        }
    }
    for m in [16usize, 32, 48] {
        if counted[m] < runs / 2 {
            continue; // early-stopped trajectories do not reach here
        }
        let net_mean = traj_sum[m] / counted[m] as f64;
        let mem_mean = curve.summaries[m].mean;
        assert!(
            (net_mean - mem_mean).abs() < 0.45,
            "m={m}: network {net_mean} vs in-memory {mem_mean}"
        );
    }
}

/// The fault path agrees with the analysis closed-forms: per-level
/// decode frequencies of lossy collection (30% loss, one retry) over
/// iid-level deployments match `curves::survival` — the SLC
/// eq. 1–6 / PLC Theorem 1 probabilities evaluated at each run's
/// delivered block count — within binomial-CI tolerance.
///
/// The real protocol's `allocate` split produces deterministic level
/// counts, which the multinomial closed forms do not model; the
/// deployment here is built by hand via `Deployment::from_slots` with
/// iid-sampled levels on distinct nodes, so that conditional on the
/// number of delivered blocks the delivered composition is exactly the
/// iid sampling model the analysis assumes (losses are independent of
/// block levels).
#[test]
fn lossy_collection_matches_analysis_survival() {
    use prlc::net::{collect_with_faults, Deployment, FaultPlan, NodeId, RetryPolicy, StorageSlot};
    use rand::seq::SliceRandom;

    let profile = PriorityProfile::new(vec![2, 2]).unwrap();
    let n = profile.num_levels();
    let dist = PriorityDistribution::from_weights(vec![0.45, 0.55]).unwrap();
    let opts = AnalysisOptions::rank_exact(256.0);
    let nodes = 32usize;
    let locations = 12usize; // M
    let runs = 400usize;

    for scheme in [Scheme::Slc, Scheme::Plc] {
        let encoder = Encoder::new(scheme, profile.clone());
        let mut empirical = vec![0.0f64; n + 1];
        let mut analytic = vec![0.0f64; n + 1];
        for run in 0..runs as u64 {
            let mut rng = StdRng::seed_from_u64(0xC0DE + run);
            let net = RingNetwork::new(nodes, &mut rng);
            let mut ids: Vec<usize> = (0..nodes).collect();
            ids.shuffle(&mut rng);
            let slots: Vec<StorageSlot<Gf256>> = ids[..locations]
                .iter()
                .map(|&node| {
                    let level = dist.sample_level(&mut rng);
                    StorageSlot {
                        node: NodeId::new(node),
                        level,
                        block: encoder.encode_unpayloaded(level, &mut rng),
                    }
                })
                .collect();
            let dep = Deployment::from_slots(slots, profile.clone());

            let plan = FaultPlan::lossy(0.3, RetryPolicy::with_retries(1, 1), 0xFA17 + run);
            let mut faults = plan.session(net.node_count());
            // A target above the level count disables early stopping, so
            // every delivered block reaches the decoder and
            // `blocks_collected` is exactly the closed forms' m.
            let cfg = CollectionConfig {
                target_levels: Some(n + 1),
            };
            let collector = net.random_alive_node(&mut rng).unwrap();
            let (m, levels) = match scheme {
                Scheme::Slc => {
                    let mut dec: SlcDecoder<Gf256, ()> =
                        SlcDecoder::coefficients_only(profile.clone());
                    let r = collect_with_faults(
                        &net,
                        &dep,
                        &mut dec,
                        collector,
                        &cfg,
                        &mut faults,
                        &mut rng,
                    )
                    .unwrap();
                    (r.blocks_collected, dec.decoded_levels())
                }
                _ => {
                    let mut dec: PlcDecoder<Gf256, ()> =
                        PlcDecoder::coefficients_only(profile.clone());
                    let r = collect_with_faults(
                        &net,
                        &dep,
                        &mut dec,
                        collector,
                        &cfg,
                        &mut faults,
                        &mut rng,
                    )
                    .unwrap();
                    (r.blocks_collected, dec.decoded_levels())
                }
            };
            for k in 1..=n {
                if levels >= k {
                    empirical[k] += 1.0;
                }
                analytic[k] += curves::survival(scheme, &profile, &dist, m, k, &opts);
            }
        }
        for k in 1..=n {
            let emp = empirical[k] / runs as f64;
            let ana = analytic[k] / runs as f64;
            // 3σ binomial CI on the empirical frequency, plus a small
            // model-mismatch allowance.
            let p = ana.clamp(0.05, 0.95);
            let tol = 3.0 * (p * (1.0 - p) / runs as f64).sqrt() + 0.03;
            assert!(
                (emp - ana).abs() < tol,
                "{scheme} Pr(X>={k}): empirical {emp:.4} vs analytic {ana:.4} (tol {tol:.4})"
            );
        }
    }
}
