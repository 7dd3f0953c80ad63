//! Golden digests of the protocol sessions.
//!
//! Each case runs one pinned-seed pipeline — deploy, churn, repair,
//! collect — through the public faulty entry points
//! (`predistribute_with_faults`, `refresh_with_faults`,
//! `collect_with_faults`) with metrics and tracing on, and pins an
//! FNV-1a digest of every observable field: the predistribution
//! metrics, the storage slots, the repair and collection reports, the
//! decoded level count, the deterministic metrics snapshot JSON, the
//! full trace dump JSON and the caller's RNG end state. Any change in
//! operation order, RNG consumption or observability emission moves a
//! digest, under every kernel backend and thread count.
//!
//! The matrix covers SLC, PLC and RLC; no faults, a lossy plan with
//! churn, and both of those under all four adversary strategies; N=200
//! and N=1000; plus one sparse-fanout, sparse-row case. A refactor of
//! the sessions must leave every digest unchanged; a deliberate output
//! change re-pins the table below.

use prlc::net::{
    collect_with_faults, observe_deployment, predistribute_with_faults, refresh_with_faults,
    Adversary, AdversaryPlan, AdversaryStrategy, ChurnEvent, CollectionConfig, FaultPlan,
    LinkModel, Network, NodeId, ProtocolConfig, RefreshConfig, RetryPolicy, RingNetwork,
    SourceFanout,
};
use prlc::obs;
use prlc::obs::baseline::digest64;
use prlc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// The obs registry and tracer are process-global; runs that reset and
/// snapshot them must not interleave.
static GUARD: Mutex<()> = Mutex::new(());

/// `(case, digests of [predistribute metrics, slots, refresh report,
/// collect report, decoded levels, metrics JSON, trace JSON, RNG end])`.
const GOLDEN: &[(&str, [&str; 8])] = &[
    (
        "Slc/none/n200/seed11",
        [
            "fnv1a:9a3cc0528b58869b",
            "fnv1a:cdb892cfdaf0e6f5",
            "fnv1a:0ba5e8e9be7fb40a",
            "fnv1a:eea0492df5c23a5e",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:72614876f388c67f",
            "fnv1a:900aab76000d4a69",
            "fnv1a:7a7ca55f7e0e35f7",
        ],
    ),
    (
        "Plc/none/n200/seed11",
        [
            "fnv1a:f8821d0d47df37cb",
            "fnv1a:eb2e5674eb459d77",
            "fnv1a:5fde39827219c664",
            "fnv1a:5080610c9e170121",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:b252f36ce3266591",
            "fnv1a:3c78736f2e2eae38",
            "fnv1a:165375fc5cca99f9",
        ],
    ),
    (
        "Rlc/none/n200/seed11",
        [
            "fnv1a:bfdd47fc6156ed9c",
            "fnv1a:090621f456264733",
            "fnv1a:82ab6b1427a30a39",
            "fnv1a:05efd56ad7661795",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:b00112da9b2c4859",
            "fnv1a:579738005303fbbf",
            "fnv1a:5cc776649955880c",
        ],
    ),
    (
        "Slc/lossy7/n200/seed12",
        [
            "fnv1a:8bda7f61a956c517",
            "fnv1a:792a7e7e394e5a1f",
            "fnv1a:94ad73f3970fe916",
            "fnv1a:e1e987af48a2119c",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:c3c41fdfb0b57a5e",
            "fnv1a:66e30c156c270a78",
            "fnv1a:8f0fb30ef121aa87",
        ],
    ),
    (
        "Plc/lossy7/n200/seed12",
        [
            "fnv1a:7a8f4b16784a1607",
            "fnv1a:3023e1be123ec228",
            "fnv1a:93e8f056e5e42aad",
            "fnv1a:9c56ebd97b4fdd69",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:900f0cd757b36379",
            "fnv1a:69ca004bef3f4935",
            "fnv1a:88b7ea53dc22c724",
        ],
    ),
    (
        "Rlc/lossy7/n200/seed12",
        [
            "fnv1a:157f61b31ec46d50",
            "fnv1a:ad2efcf939bf57cd",
            "fnv1a:89b2503f21b767d4",
            "fnv1a:d2de44c6ab7e34bb",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:4b44676352a00621",
            "fnv1a:76a60659036d1f55",
            "fnv1a:3f0fa882c94c2dd5",
        ],
    ),
    (
        "Slc/lossy9+adversary/n200/seed14",
        [
            "fnv1a:3421f82c24f728cd",
            "fnv1a:bb7bb59e28060540",
            "fnv1a:7b644201d96d8423",
            "fnv1a:ce20186e3cbe1c24",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:a481782c1ddb7b40",
            "fnv1a:5d870e29b074e48f",
            "fnv1a:05d6ab71b656db45",
        ],
    ),
    (
        "Plc/lossy9+adversary/n200/seed14",
        [
            "fnv1a:d8d1b25c828ae853",
            "fnv1a:81b1b893d700ea64",
            "fnv1a:afb1f46c91db4e40",
            "fnv1a:23496cb163c34e71",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:1af629c4433636a4",
            "fnv1a:21fbbf1e01249525",
            "fnv1a:30d77cc11bd89286",
        ],
    ),
    (
        "Rlc/lossy9+adversary/n200/seed14",
        [
            "fnv1a:dcab06fd192e3083",
            "fnv1a:479a15e34010749d",
            "fnv1a:a4dbba4fab85575d",
            "fnv1a:de1c93aefd9c09eb",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:129433e40a771bc4",
            "fnv1a:acaeef5443c22478",
            "fnv1a:2496ca73af437b95",
        ],
    ),
    (
        "Slc/none+adversary/n200/seed14",
        [
            "fnv1a:63affc31b44ad171",
            "fnv1a:d0c63bd7881a018b",
            "fnv1a:31128bab0c30c3f5",
            "fnv1a:94ebf08b73f60967",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:f6dcf3780362cac3",
            "fnv1a:ce59c5c5ae1a423e",
            "fnv1a:58a8a696136d2ec8",
        ],
    ),
    (
        "Plc/none+adversary/n200/seed14",
        [
            "fnv1a:f886a4e11080a3b0",
            "fnv1a:c2cb8f2a7566cf29",
            "fnv1a:0be30b949086100c",
            "fnv1a:710e60d4e2f1617b",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:6649c8ccb8b264a4",
            "fnv1a:dbedd4f9eed4530b",
            "fnv1a:44608cf037615aac",
        ],
    ),
    (
        "Rlc/none+adversary/n200/seed14",
        [
            "fnv1a:fa2ea8419ed7e297",
            "fnv1a:68a08869fd0f09c3",
            "fnv1a:a74fd2134edef819",
            "fnv1a:58a55621e96bca9b",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:47ba12cba0545d81",
            "fnv1a:56292c9de24e2189",
            "fnv1a:ca95c921de2c468c",
        ],
    ),
    (
        "Slc/none/n1000/seed13",
        [
            "fnv1a:d2ec7e26d0c534f9",
            "fnv1a:33839bb25413ae89",
            "fnv1a:7bd23884923a9727",
            "fnv1a:f2c5c5da2b859fe0",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:cbe739620f7c40fd",
            "fnv1a:862e57729509e7d5",
            "fnv1a:ecc2176e46868e67",
        ],
    ),
    (
        "Plc/none/n1000/seed13",
        [
            "fnv1a:27edd4ca36347da2",
            "fnv1a:bdc277122540a07b",
            "fnv1a:2e669a4c8412f341",
            "fnv1a:8b8c1887f502cb40",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:4fbbcae038be2fe3",
            "fnv1a:85d7d49bacb0f0ba",
            "fnv1a:b1254913231f057b",
        ],
    ),
    (
        "Rlc/none/n1000/seed13",
        [
            "fnv1a:81da7c022a25b37e",
            "fnv1a:67976fb5adfd2698",
            "fnv1a:edec9c5f364bb192",
            "fnv1a:2ac13309a6f5e780",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:153d1c5ee6bd04f5",
            "fnv1a:6f3f476db7012df2",
            "fnv1a:9ab2ac591d4cb96e",
        ],
    ),
    (
        "Slc/lossy3/n1000/seed13",
        [
            "fnv1a:9af833b88a2680e8",
            "fnv1a:3bcd2ce46bd47594",
            "fnv1a:e3c8ee098ba1d472",
            "fnv1a:2e3196672c89092f",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:d50d0a2d9589e171",
            "fnv1a:42ae45495de2f4f8",
            "fnv1a:ecc2176e46868e67",
        ],
    ),
    (
        "Plc/lossy3/n1000/seed13",
        [
            "fnv1a:6faff31887f32aab",
            "fnv1a:5030c3708dd21b5c",
            "fnv1a:6bd9bab6f1722627",
            "fnv1a:6ca870a101f4a0f5",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:feb05dd38066f84b",
            "fnv1a:c9eab3197ab572a3",
            "fnv1a:8c9e28a24ed7fa89",
        ],
    ),
    (
        "Rlc/lossy3/n1000/seed13",
        [
            "fnv1a:5bf11506b681cffd",
            "fnv1a:1d5998485a86e694",
            "fnv1a:7cd0aa3c18833760",
            "fnv1a:d3d7f9503078596d",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:3f47a544a0e12620",
            "fnv1a:42278a569e1ced0b",
            "fnv1a:3e568cbac6a29b95",
        ],
    ),
    (
        "Slc/none+adversary/n1000/seed13",
        [
            "fnv1a:3b6ee91fecd9d9d3",
            "fnv1a:08f897709a78405d",
            "fnv1a:69fef41205cd98b7",
            "fnv1a:c0943d9ff9040aa6",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:d97900480b4438c7",
            "fnv1a:04a18b308564ed12",
            "fnv1a:224cfe57cb12b638",
        ],
    ),
    (
        "Plc/none+adversary/n1000/seed13",
        [
            "fnv1a:426a1ba5506998ed",
            "fnv1a:3a3787267912104c",
            "fnv1a:ab01192217c47ee4",
            "fnv1a:84bad8f440199cbb",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:968c8b18d7743917",
            "fnv1a:4c0c707056ee6701",
            "fnv1a:948ad25e321661f9",
        ],
    ),
    (
        "Rlc/none+adversary/n1000/seed13",
        [
            "fnv1a:4b52228ef1e8c18a",
            "fnv1a:24c49be32cff61b0",
            "fnv1a:98cf96c89ad65cdc",
            "fnv1a:669b18c6d2d9c95b",
            "fnv1a:af63ad4c86019caf",
            "fnv1a:b368fe24e378f199",
            "fnv1a:70411088d3c8c468",
            "fnv1a:07c1694d3eac06e7",
        ],
    ),
    (
        "Slc/lossy3+adversary/n1000/seed13",
        [
            "fnv1a:c6065c3686aa2764",
            "fnv1a:97c1200d9c5cfd88",
            "fnv1a:b61f49fad34617fc",
            "fnv1a:54b6ebcee2b9086c",
            "fnv1a:af63ae4c86019e62",
            "fnv1a:dc7f4d8fca9ca9b1",
            "fnv1a:fb8787d9121aa95e",
            "fnv1a:36b6f0f518eef293",
        ],
    ),
    (
        "Plc/lossy3+adversary/n1000/seed13",
        [
            "fnv1a:56d23608fc9d74cb",
            "fnv1a:c6c83fdf39ebf3f9",
            "fnv1a:7e482061eedb7000",
            "fnv1a:669b18c6d2d9c95b",
            "fnv1a:af63ad4c86019caf",
            "fnv1a:cb55347672c396ed",
            "fnv1a:088b15b52c4b6562",
            "fnv1a:95f45fb0d56dccd8",
        ],
    ),
    (
        "Rlc/lossy3+adversary/n1000/seed13",
        [
            "fnv1a:315a7eaedaf0583b",
            "fnv1a:0ab08fd41df1c623",
            "fnv1a:26dbfe649fcad62d",
            "fnv1a:669b18c6d2d9c95b",
            "fnv1a:af63ad4c86019caf",
            "fnv1a:b720f5823663d832",
            "fnv1a:16f1b7abdfe7554c",
            "fnv1a:d9a758bf9546d1a2",
        ],
    ),
    (
        "Plc/lossy5+adversary/n1000/seed15/log2-sparse",
        [
            "fnv1a:d40b8607dbc6fd1a",
            "fnv1a:ad84b638314fe24e",
            "fnv1a:222bfa75a537e985",
            "fnv1a:5dcf381be9478092",
            "fnv1a:af63af4c8601a015",
            "fnv1a:f58fe1a0656ac38c",
            "fnv1a:2ad78be45e90f132",
            "fnv1a:1ba4177de516bdf4",
        ],
    ),
];

/// One pipeline configuration of the matrix.
#[derive(Clone, Copy)]
struct Case {
    scheme: Scheme,
    /// `None` runs under `FaultPlan::none()`, `Some(s)` under
    /// `lossy_plan(s)`.
    lossy: Option<u64>,
    /// Arms all four adversary strategies on the session.
    adversary: bool,
    nodes: usize,
    seed: u64,
    /// `SourceFanout::Log { factor: 2.0 }` with sparse rows instead of
    /// the dense fanout and dense rows.
    sparse: bool,
}

impl Case {
    fn name(&self) -> String {
        format!(
            "{:?}/{}{}/n{}/seed{}{}",
            self.scheme,
            match self.lossy {
                None => "none".to_string(),
                Some(s) => format!("lossy{s}"),
            },
            if self.adversary { "+adversary" } else { "" },
            self.nodes,
            self.seed,
            if self.sparse { "/log2-sparse" } else { "" },
        )
    }
}

/// Everything observable about one pipeline run, digested field by
/// field in the order of the [`GOLDEN`] table.
fn run_pipeline(case: Case) -> [String; 8] {
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
        sparse,
    } = case;
    let plan = lossy.map_or_else(FaultPlan::none, lossy_plan);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = RingNetwork::new(nodes, &mut rng);
    let profile = PriorityProfile::new(vec![2, 3, 5]).unwrap();
    let sources: Vec<Vec<Gf256>> = (0..profile.total_blocks())
        .map(|_| (0..2).map(|_| Gf256::random(&mut rng)).collect())
        .collect();
    let (fanout, coeff_rep) = if sparse {
        (SourceFanout::Log { factor: 2.0 }, CoeffRep::Sparse)
    } else {
        (SourceFanout::All, CoeffRep::Dense)
    };
    let cfg = ProtocolConfig {
        scheme,
        profile: profile.clone(),
        distribution: PriorityDistribution::uniform(profile.num_levels()),
        locations: (nodes / 2).min(60),
        fanout,
        coeff_rep,
        two_choices: true,
        node_capacity: None,
        shared_seed: seed,
    };
    let mut session = plan.session(net.node_count());

    // Topology-armed adversaries (regional outage + collector eclipse)
    // go in before any protocol traffic, like a real pre-positioned
    // attacker. Adversary strikes and eclipse bias live inside the
    // fault session the three entry points share.
    if adversary {
        let mut region = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Region {
                    fraction: 0.05,
                    segment_len: 3,
                },
                after_messages: 60,
                seed: seed ^ 0xA1,
            },
            net.node_count(),
        );
        region.arm_topology(&net, NodeId::new(0), &mut session);
        let mut eclipse = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Eclipse { loss: 0.4 },
                after_messages: 0,
                seed: seed ^ 0xA2,
            },
            net.node_count(),
        );
        eclipse.arm_topology(&net, NodeId::new(0), &mut session);
    }

    let mut dep = predistribute_with_faults(&net, &cfg, &sources, &mut session, &mut rng)
        .expect("fresh network accepts the protocol");
    let predistribute_metrics = format!("{:?}", dep.metrics());

    net.fail_uniform(0.3, &mut rng);
    assert!(net.alive_count() > 0, "seed killed the whole overlay");

    // Observation-armed adversaries (targeted cache killer + slow
    // compromise) act on the deployed slot metadata before repair.
    if adversary {
        let mut targeted = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Targeted {
                    kills: 5,
                    focus: 0.7,
                },
                after_messages: 30,
                seed: seed ^ 0xA3,
            },
            net.node_count(),
        );
        targeted.arm_observed(&observe_deployment(&dep), &mut session);
        let mut creep = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Creep { per_epoch: 0.02 },
                after_messages: 0,
                seed: seed ^ 0xA4,
            },
            net.node_count(),
        );
        creep.advance_epoch(&mut session);
    }

    let refresh_cfg = RefreshConfig {
        scheme,
        donors_per_slot: 3,
    };
    let refresh_report = refresh_with_faults(&net, &mut dep, &refresh_cfg, &mut session, &mut rng);

    let collector = net
        .random_alive_node(&mut rng)
        .expect("alive_count > 0 was asserted");
    let mut dec: Box<dyn PriorityDecoder<Gf256>> = if scheme == Scheme::Slc {
        Box::new(SlcDecoder::<Gf256, Vec<Gf256>>::with_payloads(profile))
    } else {
        Box::new(PlcDecoder::<Gf256, Vec<Gf256>>::with_payloads(profile))
    };
    let collect_cfg = CollectionConfig::default();
    let collect_report = collect_with_faults(
        &net,
        &dep,
        &mut dec,
        collector,
        &collect_cfg,
        &mut session,
        &mut rng,
    );

    [
        predistribute_metrics,
        format!("{:?}", dep.slots()),
        format!("{refresh_report:?}"),
        format!("{collect_report:?}"),
        dec.decoded_levels().to_string(),
        metrics_json(),
        obs::trace::snapshot().to_json(),
        rng.gen::<u64>().to_string(),
    ]
    .map(|field| digest64(&field))
}

/// The deterministic metrics snapshot, with each
/// `gf.<op>.bytes.<backend>` counter merged under `gf.<op>.bytes`: the
/// digest pins the byte volume the kernels moved, not which backend
/// moved it.
fn metrics_json() -> String {
    let mut snap = obs::snapshot();
    for (name, _) in &mut snap.counters {
        if name.starts_with("gf.") {
            if let Some(stem) = [".scalar", ".table", ".simd"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
            {
                *name = stem;
            }
        }
    }
    snap.counters.sort_by_key(|&(name, _)| name);
    snap.to_deterministic_json()
}

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

/// Runs every case and fails with the table rows of all that moved (or
/// have no row yet), ready to paste into [`GOLDEN`].
fn assert_golden(cases: &[Case]) {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let mut moved = Vec::new();
    for &case in cases {
        let name = case.name();
        let pinned = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d.map(str::to_string));
        let got = run_pipeline(case);
        if pinned.as_ref() != Some(&got) {
            moved.push(format!("(\"{name}\", {got:?}),"));
        }
    }
    assert!(
        moved.is_empty(),
        "protocol digests moved:\n{}",
        moved.join("\n")
    );
}

/// Every scheme under one plan configuration.
fn all_schemes(lossy: Option<u64>, adversary: bool, nodes: usize, seed: u64) -> Vec<Case> {
    [Scheme::Slc, Scheme::Plc, Scheme::Rlc]
        .map(|scheme| Case {
            scheme,
            lossy,
            adversary,
            nodes,
            seed,
            sparse: false,
        })
        .to_vec()
}

#[test]
fn pipeline_matches_golden_digests_without_faults() {
    assert_golden(&all_schemes(None, false, 200, 11));
}

#[test]
fn pipeline_matches_golden_digests_under_faults() {
    assert_golden(&all_schemes(Some(7), false, 200, 12));
}

/// All four adversary strategies at once — pre-positioned region +
/// eclipse, deployment-observed targeted killer, and one creep epoch —
/// with and without a lossy plan underneath.
#[test]
fn pipeline_matches_golden_digests_under_adversary_plan() {
    let mut cases = all_schemes(Some(9), true, 200, 14);
    cases.extend(all_schemes(None, true, 200, 14));
    assert_golden(&cases);
}

#[test]
fn pipeline_matches_golden_digests_at_n_1000() {
    let mut cases = Vec::new();
    for adversary in [false, true] {
        cases.extend(all_schemes(None, adversary, 1000, 13));
        cases.extend(all_schemes(Some(3), adversary, 1000, 13));
    }
    assert_golden(&cases);
}

/// The sparse protocol: `Θ(ln N)` fanout and sparse coefficient rows,
/// under a lossy plan and every adversary.
#[test]
fn pipeline_matches_golden_digests_with_log_fanout_and_sparse_rows() {
    assert_golden(&[Case {
        scheme: Scheme::Plc,
        lossy: Some(5),
        adversary: true,
        nodes: 1000,
        seed: 15,
        sparse: true,
    }]);
}
