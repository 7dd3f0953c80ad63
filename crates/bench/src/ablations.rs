//! The ablations of DESIGN.md (A1–A7) and the sparse-row memory
//! evidence: each tests one claim the paper makes in passing, or one
//! extension past it.

use prlc_analysis::{loss, AnalysisOptions};
use prlc_core::{
    CodedBlock, Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile,
    Scheme, SlcDecoder,
};
use prlc_gf::{Gf16, Gf256, Gf64k, GfElem};
use prlc_net::{
    predistribute, CoeffRep, FaultPlan, Network, PlaneNetwork, ProtocolConfig, RingNetwork,
    SourceFanout,
};
use prlc_sim::{
    fmt_f, run_parallel, simulate_persistence_timeline, simulate_survivability, summarize,
    Persistence, SurvivabilityConfig, Table, TimelineConfig,
};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

use crate::{paper_table1_distributions, table1_profile, Csv, RunOpts};

/// The protocol's sparsification of `blocks` coded blocks: each source
/// block is folded into `ceil(factor · ln N)` random eligible coded
/// blocks (Sec. 4's per-source fanout, after Dimakis et al.), so every
/// unknown is covered by ~`factor · ln N` rows regardless of scheme —
/// unlike row-wise sparsity, where PLC's tail unknowns are only touched
/// by last-level rows.
fn source_fanout_blocks(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    factor: f64,
    blocks: usize,
    rng: &mut StdRng,
) -> Vec<CodedBlock<Gf256>> {
    let n = profile.total_blocks();
    let levels = profile.num_levels();
    // Assign block levels by the distribution, grouped into parts.
    let counts = dist.allocate(blocks);
    let mut part_start = vec![0usize; levels + 1];
    for (i, &c) in counts.iter().enumerate() {
        part_start[i + 1] = part_start[i] + c;
    }
    let mut coded: Vec<CodedBlock<Gf256>> = counts
        .iter()
        .enumerate()
        .flat_map(|(lvl, &c)| (0..c).map(move |_| CodedBlock::empty(lvl, n)))
        .collect();
    let d = ((factor * (n.max(2) as f64).ln()).ceil() as usize).max(1);
    for j in 0..n {
        let level = profile.level_of(j);
        let eligible = match scheme {
            Scheme::Slc => part_start[level]..part_start[level + 1],
            Scheme::Plc => part_start[level]..part_start[levels],
            Scheme::Rlc => 0..blocks,
        };
        let len = eligible.len();
        if len == 0 {
            continue;
        }
        for pick in sample(rng, len, d.min(len)) {
            let beta = Gf256::random_nonzero(rng);
            coded[eligible.start + pick].accumulate(j, beta, &[]);
        }
    }
    coded
}

/// Probability that `blocks` coded blocks of density `factor` decode
/// every source block: rows of `factor · ln N` nonzeros, or with
/// `source_fanout` the protocol's per-source sparsification.
fn completion_rate(
    scheme: Scheme,
    profile: &PriorityProfile,
    dist: &PriorityDistribution,
    factor: f64,
    blocks: usize,
    source_fanout: bool,
    opts: &RunOpts,
) -> f64 {
    let outcomes = run_parallel(opts.runs, opts.seed, |s| {
        let mut rng = StdRng::seed_from_u64(s);
        let coded = if source_fanout {
            source_fanout_blocks(scheme, profile, dist, factor, blocks, &mut rng)
        } else {
            let enc = Encoder::sparse(scheme, profile.clone(), factor);
            (0..blocks)
                .map(|_| {
                    let level = dist.sample_level(&mut rng);
                    enc.encode_unpayloaded(level, &mut rng)
                })
                .collect()
        };
        // SLC decodes level by level; PLC's decoder also decodes RLC.
        let mut dec: Box<dyn PriorityDecoder<Gf256>> = match scheme {
            Scheme::Slc => Box::new(SlcDecoder::<Gf256, ()>::coefficients_only(profile.clone())),
            _ => Box::new(PlcDecoder::<Gf256, ()>::coefficients_only(profile.clone())),
        };
        for b in coded.iter().filter(|b| !b.is_empty()) {
            dec.insert_block(b);
        }
        if dec.is_complete() {
            1.0
        } else {
            0.0
        }
    });
    summarize(&outcomes).mean
}

/// Ablation A1 — sparsity sweep.
///
/// The pre-distribution protocol leans on Dimakis et al.'s result that
/// `O(ln N)` nonzero coefficients per coded block suffice for decoding
/// with high probability (Sec. 4: "This reduces the number of source
/// blocks need to be disseminated from N locations to O(ln N)
/// locations"). This sweep varies the density constant `c` in `c · ln N`
/// and measures the completion probability from `1.2 N` coded blocks for
/// RLC, SLC and PLC.
pub(crate) fn sparsity(opts: &RunOpts) -> Vec<Csv> {
    let profile = PriorityProfile::uniform(5, 40).expect("valid");
    let blocks = 240;
    let n = profile.total_blocks();
    let dist = PriorityDistribution::uniform(profile.num_levels());
    let factors = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0];

    let mut table = Table::new([
        "density factor c",
        "degree (~c ln N)",
        "RLC row-sparse",
        "SLC row-sparse",
        "PLC row-sparse",
        "SLC src-fanout",
        "PLC src-fanout",
    ]);
    for &c in &factors {
        eprintln!("[ablation_sparsity] c = {c} ...");
        let degree = (c * (n as f64).ln()).ceil() as usize;
        let mut row = vec![fmt_f(c, 2), degree.to_string()];
        for (scheme, source_fanout) in [
            (Scheme::Rlc, false),
            (Scheme::Slc, false),
            (Scheme::Plc, false),
            (Scheme::Slc, true),
            (Scheme::Plc, true),
        ] {
            let rate = completion_rate(scheme, &profile, &dist, c, blocks, source_fanout, opts);
            row.push(fmt_f(rate, 3));
        }
        table.push_row(row);
    }
    vec![Csv::new(
        "ablation_sparsity",
        format!(
            "Ablation A1: completion probability vs sparsity (N={n}, M={blocks} blocks); \
             row-sparse = c·lnN nonzeros per coded block, src-fanout = each source \
             reaches c·lnN eligible blocks (the Sec. 4 protocol)"
        ),
        table,
    )]
}

/// Ablation A2 — survivability sweep.
///
/// The paper's motivating claim: "important data can be recovered with
/// much fewer coded blocks compared with random linear codes, hence they
/// are more likely to survive under severe network instability." This
/// sweep stores `2N` blocks with each scheme, destroys an increasing
/// fraction of them, and reports the decoded levels — including the
/// related-work baselines (priority-blind Growth Codes and plain
/// replication).
pub(crate) fn failure(opts: &RunOpts) -> Vec<Csv> {
    let profile = PriorityProfile::new(vec![20, 60, 120]).expect("valid profile");
    let n = profile.total_blocks();
    let dist = PriorityDistribution::from_weights(vec![0.3, 0.3, 0.4]).expect("valid");
    let stored = 2 * n;
    let fractions: Vec<f64> = (0..=9).map(|i| i as f64 * 0.1).collect();

    let schemes = [
        Persistence::Coding(Scheme::Plc),
        Persistence::Coding(Scheme::Slc),
        Persistence::Coding(Scheme::Rlc),
        Persistence::Replication,
        Persistence::Growth,
    ];
    let results: Vec<_> = schemes
        .into_iter()
        .map(|p| {
            eprintln!("[ablation_failure] {p}: storing {stored} blocks, sweeping loss ...");
            simulate_survivability::<Gf256>(
                &SurvivabilityConfig {
                    persistence: p,
                    profile: profile.clone(),
                    distribution: dist.clone(),
                    stored_blocks: stored,
                    runs: opts.runs,
                    seed: opts.seed.wrapping_add(21),
                },
                &fractions,
            )
        })
        .collect();

    let mut table = Table::new([
        "loss fraction",
        "PLC",
        "PLC analysis",
        "SLC",
        "SLC analysis",
        "RLC",
        "Replication",
        "GrowthCodes",
    ]);
    let ana = AnalysisOptions::sharp();
    for (i, &f) in fractions.iter().enumerate() {
        let analysis = |scheme| {
            let e = loss::expected_levels_after_loss(scheme, &profile, &dist, stored, f, &ana);
            fmt_f(e, 3)
        };
        let sim = |k: usize| fmt_f(results[k][i].mean, 3);
        table.push_row([
            fmt_f(f, 1),
            sim(0),
            analysis(Scheme::Plc),
            sim(1),
            analysis(Scheme::Slc),
            sim(2),
            sim(3),
            sim(4),
        ]);
    }
    vec![Csv::new(
        "ablation_failure",
        format!("Ablation A2: decoded levels vs block-loss fraction (N={n}, {stored} stored)"),
        table,
    )]
}

/// Blocks processed until a PLC decoder over `F` completes, divided by
/// `N`: mean and 95% CI.
fn field_overhead<F: GfElem>(profile: &PriorityProfile, runs: usize, seed: u64) -> (f64, f64) {
    let n = profile.total_blocks();
    let dist = PriorityDistribution::uniform(profile.num_levels());
    let samples = run_parallel(runs, seed, |s| {
        let mut rng = StdRng::seed_from_u64(s);
        let enc = Encoder::new(Scheme::Plc, profile.clone());
        let mut dec: PlcDecoder<F, ()> = PlcDecoder::coefficients_only(profile.clone());
        let mut processed = 0usize;
        while !dec.is_complete() {
            let level = dist.sample_level(&mut rng);
            dec.insert_block(&enc.encode_unpayloaded::<F, _>(level, &mut rng));
            processed += 1;
            assert!(processed < 100 * n, "decode failed to converge");
        }
        processed as f64 / n as f64
    });
    let s = summarize(&samples);
    (s.mean, s.ci95)
}

/// Ablation A3 — field-size sensitivity.
///
/// The paper assumes "a sufficiently large Galois field such as GF(2^8)"
/// (footnote 1). Smaller fields make random rows linearly dependent more
/// often, inflating the number of coded blocks needed. This ablation
/// measures the decoding overhead — blocks processed until completion,
/// divided by `N` — for GF(2⁴), GF(2⁸) and GF(2¹⁶), against the
/// analytical redundancy bound.
pub(crate) fn field(opts: &RunOpts) -> Vec<Csv> {
    let profile = PriorityProfile::flat(200).expect("valid");
    let n = profile.total_blocks();

    let mut table = Table::new([
        "field",
        "measured overhead M*/N",
        "ci95",
        "analytic E[M*]/N (uniform rows)",
    ]);
    // Analytic column: collecting uniformly random q-ary rows, the
    // expected draws to reach rank N are
    //   E[M*] = sum_{r=0}^{N-1} 1 / (1 - q^{r-N})
    //         = N + sum_{k=1}^{N} q^{-k} / (1 - q^{-k}),
    // an upper bound here because SLC/PLC coefficients are nonzero
    // within their support, which only helps.
    let expected_overhead = |q: f64| -> f64 {
        let extra: f64 = (1..=n)
            .map(|k| {
                let qk = q.powi(-(k as i32));
                qk / (1.0 - qk)
            })
            .sum();
        (n as f64 + extra) / n as f64
    };
    type Overhead = fn(&PriorityProfile, usize, u64) -> (f64, f64);
    let rows: [(&str, f64, Overhead); 3] = [
        ("GF(2^4)", 16.0, field_overhead::<Gf16>),
        ("GF(2^8)", 256.0, field_overhead::<Gf256>),
        ("GF(2^16)", 65536.0, field_overhead::<Gf64k>),
    ];
    for (name, q, f) in rows {
        eprintln!("[ablation_field] {name} ...");
        let (mean, ci) = f(&profile, opts.runs, opts.seed);
        table.push_row([
            name.to_string(),
            fmt_f(mean, 5),
            fmt_f(ci, 5),
            fmt_f(expected_overhead(q), 5),
        ]);
    }
    vec![Csv::new(
        "ablation_field",
        format!("Ablation A3: decoding overhead vs field size (N={n}, RLC-shaped PLC)"),
        table,
    )]
}

/// Mean maximum node load after placing `m` locations on the networks
/// `build` makes.
fn max_load<N: Network, B: Fn(&mut StdRng) -> N + Sync>(
    build: B,
    m: usize,
    two_choices: bool,
    runs: usize,
    seed: u64,
) -> f64 {
    let profile = PriorityProfile::flat(4).expect("valid");
    let samples = run_parallel(runs, seed, |s| {
        let mut rng = StdRng::seed_from_u64(s);
        let net = build(&mut rng);
        let cfg = ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(1),
            locations: m,
            fanout: SourceFanout::Log { factor: 1.0 },
            coeff_rep: CoeffRep::Dense,
            two_choices,
            node_capacity: None,
            shared_seed: s,
        };
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); 4];
        let dep = predistribute(&net, &cfg, &sources, &mut rng).expect("protocol runs");
        dep.metrics().max_node_load as f64
    });
    summarize(&samples).mean
}

/// Ablation A4 — power-of-two-choices load balance.
///
/// Sec. 4: "We can utilize 'the power of two choices' to balance the load
/// on nodes [Byers et al.], where the maximal load on all nodes is
/// Θ(ln ln M / ln 2)." This ablation places `M` storage locations on
/// ring and plane networks with one vs two choices and reports the
/// maximum node load next to the `ln M / ln ln M` (one choice) and
/// `ln ln M / ln 2` (two choices) growth predictions.
pub(crate) fn loadbalance(opts: &RunOpts) -> Vec<Csv> {
    let mut table = Table::new([
        "network",
        "M (= W)",
        "max load, 1 choice",
        "max load, 2 choices",
        "ln M/ln ln M",
        "ln ln M/ln 2",
    ]);
    // M locations over W = M nodes: the classic balls-into-bins regime.
    for m in [128, 512, 2048] {
        eprintln!("[ablation_loadbalance] M = {m} ...");
        let ring = |two| max_load(|rng| RingNetwork::new(m, rng), m, two, opts.runs, opts.seed);
        let plane = |two| {
            max_load(
                |rng| PlaneNetwork::with_connectivity_radius(m, rng),
                m,
                two,
                opts.runs,
                opts.seed,
            )
        };
        let lm = (m as f64).ln();
        for (network, one, two) in [
            ("ring", ring(false), ring(true)),
            ("plane", plane(false), plane(true)),
        ] {
            table.push_row([
                network.to_string(),
                m.to_string(),
                fmt_f(one, 2),
                fmt_f(two, 2),
                fmt_f(lm / lm.ln(), 2),
                fmt_f(lm.ln() / 2f64.ln(), 2),
            ]);
        }
    }
    vec![Csv::new(
        "ablation_loadbalance",
        "Ablation A4: max node load, one vs two choices",
        table,
    )]
}

/// Ablation A5 — protocol bandwidth.
///
/// Sec. 4 claims the pre-distribution protocol is bandwidth-efficient:
/// "The ideal protocol will disseminate a source block to a node only if
/// the source block will be encoded with the coded blocks on that node",
/// and sparsity cuts per-source fanout from all eligible locations to
/// `Θ(ln N)`. This ablation measures messages and hops for dense vs
/// sparse fanout under SLC and PLC on a ring DHT, against the naive
/// flooding cost (`N` sources × `W` nodes).
pub(crate) fn bandwidth(opts: &RunOpts) -> Vec<Csv> {
    let (w, m) = (400, 400);
    let profile = PriorityProfile::new(vec![40, 60, 100]).expect("valid");
    let n = profile.total_blocks();
    let dist = PriorityDistribution::uniform(profile.num_levels());

    let mut table = Table::new([
        "scheme",
        "fanout",
        "messages",
        "mean hops",
        "total hop-msgs",
        "failed",
    ]);
    for scheme in [Scheme::Slc, Scheme::Plc] {
        for (fanout_name, fanout) in [
            ("dense (all eligible)", SourceFanout::All),
            ("sparse (1.5 ln N)", SourceFanout::Log { factor: 1.5 }),
        ] {
            eprintln!("[ablation_bandwidth] {scheme} / {fanout_name} ...");
            let samples = run_parallel(opts.runs.min(20), opts.seed, |s| {
                let mut rng = StdRng::seed_from_u64(s);
                let net = RingNetwork::new(w, &mut rng);
                let cfg = ProtocolConfig {
                    scheme,
                    profile: profile.clone(),
                    distribution: dist.clone(),
                    locations: m,
                    fanout,
                    coeff_rep: CoeffRep::Dense,
                    two_choices: true,
                    node_capacity: None,
                    shared_seed: s,
                };
                let sources: Vec<Vec<Gf256>> = vec![Vec::new(); n];
                let dep = predistribute(&net, &cfg, &sources, &mut rng).expect("runs");
                let metr = dep.metrics();
                vec![
                    metr.messages as f64,
                    metr.mean_hops(),
                    metr.total_hops as f64,
                    metr.failed_deliveries as f64,
                ]
            });
            let col = |i: usize| -> f64 {
                summarize(&samples.iter().map(|r| r[i]).collect::<Vec<_>>()).mean
            };
            table.push_row([
                scheme.to_string(),
                fanout_name.to_string(),
                fmt_f(col(0), 1),
                fmt_f(col(1), 2),
                fmt_f(col(2), 1),
                fmt_f(col(3), 1),
            ]);
        }
    }
    table.push_row([
        "flooding".to_string(),
        "every node".to_string(),
        fmt_f((n * w) as f64, 1),
        "-".to_string(),
        "-".to_string(),
        "0".to_string(),
    ]);
    vec![Csv::new(
        "ablation_bandwidth",
        format!("Ablation A5: dissemination cost on a {w}-node ring (N={n}, M={m} locations)"),
        table,
    )]
}

/// Ablation A6 — in-network repair over repeated churn epochs (an
/// extension past the paper).
///
/// The paper persists data through one failure event; under continuous
/// churn stored redundancy decays. This ablation runs the persistence
/// timeline with no repair vs functional repair (2 and 4 donors per
/// repaired block) and reports decodable levels after each epoch.
pub(crate) fn refresh(opts: &RunOpts) -> Vec<Csv> {
    let (nodes, locations) = (200, 180);

    let base = TimelineConfig {
        scheme: Scheme::Plc,
        profile: PriorityProfile::new(vec![10, 20, 40]).expect("valid"),
        distribution: PriorityDistribution::uniform(3),
        nodes,
        locations,
        churn_per_epoch: 0.15,
        epochs: 8,
        repair_donors: None,
        faults: FaultPlan::none(),
        fanout: SourceFanout::All,
        coeff_rep: CoeffRep::Dense,
        runs: opts.runs,
        seed: opts.seed.wrapping_add(99),
    };
    let variants: [(&str, Option<usize>); 3] = [
        ("no repair", None),
        ("repair r=2", Some(2)),
        ("repair r=4", Some(4)),
    ];
    let results: Vec<_> = variants
        .into_iter()
        .map(|(name, donors)| {
            eprintln!("[ablation_refresh] {name} ...");
            let mut cfg = base.clone();
            cfg.repair_donors = donors;
            simulate_persistence_timeline::<Gf256>(&cfg).expect("timeline simulation")
        })
        .collect();

    let mut table = Table::new(["epoch", "no repair", "repair r=2", "repair r=4"]);
    for (e, ((none, r2), r4)) in results[0]
        .iter()
        .zip(&results[1])
        .zip(&results[2])
        .enumerate()
    {
        table.push_row([
            e.to_string(),
            fmt_f(none.mean, 3),
            fmt_f(r2.mean, 3),
            fmt_f(r4.mean, 3),
        ]);
    }
    vec![Csv::new(
        "ablation_refresh",
        format!(
            "Ablation A6: decodable levels over churn epochs (PLC, {nodes} nodes, \
             15% churn/epoch, M={locations})"
        ),
        table,
    )]
}

/// Ablation A7 — storage-budget planning tables (an extension past the
/// paper).
///
/// The deployer's view of Sec. 3.3: for a given profile and priority
/// distribution, how many surviving coded blocks buy each recovery
/// target, and how much node failure a given storage budget survives.
/// All values are analytical (`prlc-analysis::overhead` / `::loss`),
/// cross-validated against simulation by the library's test suite.
pub(crate) fn overhead(_: &RunOpts) -> Vec<Csv> {
    let profile = table1_profile();
    let n = profile.total_blocks();
    let ana = AnalysisOptions::sharp();

    let [case1, _, case3] = paper_table1_distributions();
    let dists = [
        ("uniform", PriorityDistribution::uniform(3)),
        ("paper case 1", case1),
        ("paper case 3", case3),
    ];

    // Blocks needed per target.
    let mut budgets = Table::new([
        "distribution",
        "scheme",
        "E(X)>=1",
        "E(X)>=2",
        "complete @99%",
    ]);
    let fmt_m = |m: Option<usize>| -> String { m.map_or("-".into(), |v| v.to_string()) };
    for (name, dist) in &dists {
        for scheme in [Scheme::Slc, Scheme::Plc] {
            eprintln!("[ablation_overhead] budgets: {name} / {scheme} ...");
            let levels = |k| {
                prlc_analysis::overhead::blocks_for_expected_levels(scheme, &profile, dist, k, &ana)
            };
            budgets.push_row([
                name.to_string(),
                scheme.to_string(),
                fmt_m(levels(1.0)),
                fmt_m(levels(2.0)),
                fmt_m(prlc_analysis::overhead::blocks_for_complete(
                    scheme, &profile, dist, 0.99, &ana,
                )),
            ]);
        }
    }

    // Survivable loss per storage multiple.
    let mut surv = Table::new([
        "distribution",
        "stored",
        "max loss for E(X)>=1 (PLC)",
        "max loss for E(X)>=2 (PLC)",
    ]);
    let fmt_l = |l: Option<f64>| -> String { l.map_or("-".into(), |v| fmt_f(v, 3)) };
    for (name, dist) in &dists {
        for mult in [1.5f64, 2.0, 3.0] {
            eprintln!("[ablation_overhead] survivable loss: {name} x{mult} ...");
            let stored = (mult * n as f64) as usize;
            let survivable = loss::max_survivable_loss(
                Scheme::Plc,
                &profile,
                dist,
                stored,
                &[1.0, 2.0],
                1e-3,
                &ana,
            );
            surv.push_row([
                name.to_string(),
                format!("{stored} ({mult}N)"),
                fmt_l(survivable[0]),
                fmt_l(survivable[1]),
            ]);
        }
    }
    vec![
        Csv::new(
            "ablation_overhead_budgets",
            format!("Ablation A7a: block budgets per recovery target (N={n})"),
            budgets,
        ),
        Csv::new(
            "ablation_overhead_survivable",
            format!("Ablation A7b: survivable loss fraction per storage budget (N={n})"),
            surv,
        ),
    ]
}

/// Sparse coefficient rows — per-block coefficient memory against `N`.
///
/// The paper leans on Dimakis et al.: `O(ln N)` nonzero coefficients per
/// coded block suffice, so neither the encoder nor the caches should pay
/// `O(N)` per block. This measures what the code actually stores at
/// `N ∈ {10^3, 10^4, 10^5}`:
///
/// * the encoder path — `Encoder::sparse(·, 2.0)` rows in both
///   representations (mean nonzeros and heap bytes per row), and
/// * the protocol path — cached slot blocks after a sparse-fanout
///   predistribution (dense rows cost `N` bytes each regardless of how
///   few sources reached the slot; sparse rows cost `5 · nnz`).
///
/// The protocol path predistributes once per `N`, with sparse rows, and
/// reads its dense cells off each slot row densified one at a time: the
/// two representations carry the same nonzeros (`coeffrep_equivalence`),
/// so a whole deployment of dense rows would report the same numbers.
///
/// Dense per-row bytes grow linearly with `N`; sparse per-row bytes must
/// track `ln N` times a constant — the committed CSV is the evidence.
pub(crate) fn sparse_rows(opts: &RunOpts) -> Vec<Csv> {
    const FACTOR: f64 = 2.0;
    const REPS: [CoeffRep; 2] = [CoeffRep::Dense, CoeffRep::Sparse];

    // Mean (nnz, storage bytes) over `rows` encoder rows at size `n`.
    let encoder_row_cost = |n: usize, rep: CoeffRep, rows: usize| -> (f64, f64) {
        let profile = PriorityProfile::flat(n).expect("valid profile");
        let enc = Encoder::sparse(Scheme::Rlc, profile, FACTOR).with_coeff_rep(rep);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut nnz = 0usize;
        let mut bytes = 0usize;
        for _ in 0..rows {
            let row = enc.encode_coefficients::<Gf256, _>(0, &mut rng);
            nnz += row.nnz();
            bytes += row.storage_bytes();
        }
        (nnz as f64 / rows as f64, bytes as f64 / rows as f64)
    };

    // Mean (nnz, storage bytes) per representation, in `REPS` order, over
    // the non-empty slot blocks of one sparse-fanout predistribution at
    // size `n`.
    let slot_row_costs = |n: usize| -> [(f64, f64); 2] {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let profile = PriorityProfile::flat(n).expect("valid profile");
        let net = RingNetwork::new((n / 2).max(50), &mut rng);
        let cfg = ProtocolConfig {
            scheme: Scheme::Rlc,
            profile,
            distribution: PriorityDistribution::uniform(1),
            locations: (n / 4).max(10),
            fanout: SourceFanout::Log { factor: FACTOR },
            coeff_rep: CoeffRep::Sparse,
            two_choices: true,
            node_capacity: None,
            shared_seed: opts.seed,
        };
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); n];
        let dep = predistribute(&net, &cfg, &sources, &mut rng).expect("fresh network");
        let mut sums = [(0usize, 0usize); 2];
        let mut count = 0usize;
        for slot in dep.slots().iter().filter(|s| !s.block.is_empty()) {
            let mut dense = slot.block.coefficients.clone();
            dense.densify();
            for (sum, row) in sums.iter_mut().zip([&dense, &slot.block.coefficients]) {
                sum.0 += row.nnz();
                sum.1 += row.storage_bytes();
            }
            count += 1;
        }
        sums.map(|(nnz, bytes)| (nnz as f64 / count as f64, bytes as f64 / count as f64))
    };

    let mut table = Table::new([
        "N",
        "path",
        "rep",
        "nnz/row",
        "bytes/row",
        "ln N",
        "bytes / ln N",
    ]);
    for n in [1_000, 10_000, 100_000] {
        let ln_n = (n as f64).ln();
        eprintln!("[sparse_rows] N={n} ...");
        let encoder = REPS.map(|rep| encoder_row_cost(n, rep, 50));
        for (path, costs) in [("encoder", encoder), ("protocol", slot_row_costs(n))] {
            for (rep, (nnz, bytes)) in REPS.into_iter().zip(costs) {
                table.push_row([
                    n.to_string(),
                    path.to_string(),
                    format!("{rep:?}").to_lowercase(),
                    fmt_f(nnz, 1),
                    fmt_f(bytes, 1),
                    fmt_f(ln_n, 2),
                    fmt_f(bytes / ln_n, 1),
                ]);
            }
        }
    }
    vec![Csv::new(
        "sparse_rows",
        format!(
            "Sparse rows: per-block coefficient memory, factor {FACTOR} \
             (dense grows with N; sparse tracks ln N)"
        ),
        table,
    )]
}
