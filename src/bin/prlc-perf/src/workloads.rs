//! The four workloads. Each one builds its inputs from the seed, runs op
//! `i` seeded by `run_seed(seed, i)` on one thread, and can run the same
//! op again as a traced composition of public calls with spans around
//! each layer. Both runs of an op must produce the same output.

use prlc::analysis::{curves, AnalysisOptions};
use prlc::core::{
    CoeffRep, Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme,
};
use prlc::gf::Gf256;
use prlc::net::{
    collect_with_faults, predistribute, predistribute_with_faults, refresh_with_faults,
    CollectionConfig, CollectionReport, Deployment, FaultPlan, Network, NodeLocator,
    ProtocolConfig, RefreshConfig, RetryPolicy, RingNetwork, SourceFanout,
};
use prlc::obs::baseline::digest64;
use prlc::sim::{
    measure_wall_ms, run_seed, simulate_decoding_curve_with_threads,
    simulate_persistence_timeline_with_threads, splitmix64, CurveConfig, Persistence,
    TimelineConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spans::{Spans, TimedDecoder, TimedNet};
use crate::{metric, quantile, Metric};

/// Every library call runs on one worker thread, whatever
/// `PRLC_THREADS` says.
const THREADS: usize = 1;

pub trait Workload: Sized {
    type Out;
    /// Timed ops of a fixed-count run (`--quick` divides it by 50).
    const OPS: usize;
    /// Slice length of the workload's GF `axpy` calls, for the kernel
    /// probe behind `gf.axpy.gb_s`.
    const AXPY_LEN: usize;

    fn setup(seed: u64) -> Result<Self, String>;
    fn op(&mut self, i: usize) -> Self::Out;
    fn traced_op(&mut self, i: usize, spans: &Spans) -> Self::Out;
    /// The output's digest and whether the op's own check passed.
    fn check(&self, out: &Self::Out) -> (String, bool);
    /// Accumulates a timed op's output for [`Workload::gate`] and
    /// [`Workload::extra_metrics`].
    fn observe(&mut self, _out: &Self::Out) {}
    /// A check over all timed ops.
    fn gate(&self) -> Result<(), String> {
        Ok(())
    }
    /// End-to-end metrics only this workload has.
    fn extra_metrics(&self) -> Vec<Metric> {
        Vec::new()
    }
}

fn profile(sizes: &[usize]) -> Result<PriorityProfile, String> {
    PriorityProfile::new(sizes.to_vec()).map_err(|e| format!("profile {sizes:?}: {e}"))
}

fn weights(w: &[f64]) -> Result<PriorityDistribution, String> {
    PriorityDistribution::from_weights(w.to_vec()).map_err(|e| format!("weights {w:?}: {e}"))
}

/// Runs `f` inside span `name` when tracing, directly otherwise.
fn span<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.span(name, f).0,
        None => f(),
    }
}

// ---------------------------------------------------------------------------
// codec: persist and recover one object
// ---------------------------------------------------------------------------

const CODEC_LEVELS: [usize; 3] = [10, 30, 60];
const CODEC_WEIGHTS: [f64; 3] = [0.1, 0.3, 0.6];
const CODEC_BLOCK_BYTES: usize = 4096;
const CODEC_CODED_BLOCKS: usize = 130;
const CODEC_POOL: usize = 8;
const CODEC_OBJECT_MB: f64 = (100 * CODEC_BLOCK_BYTES) as f64 / 1e6;

/// The library user's path: encode a 400 KiB object into 130 PLC blocks
/// (13/39/78 per level, the allocation of weights 0.1/0.3/0.6), shuffle
/// them, decode until complete and compare bit for bit.
pub struct Codec {
    seed: u64,
    encoder: Encoder,
    per_level: Vec<usize>,
    pool: Vec<Vec<Vec<Gf256>>>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
}

pub struct CodecOut {
    blocks_fed: usize,
    exact: bool,
    encode_ms: f64,
    decode_ms: f64,
}

impl Codec {
    /// Encodes, shuffles and feeds object `i % 8` to `dec` until it is
    /// complete; `recovered` reads a source block back out of `dec`.
    fn persist<D: PriorityDecoder<Gf256>>(
        &self,
        i: usize,
        dec: &mut D,
        recovered: impl Fn(&D, usize) -> Option<&[Gf256]>,
        spans: Option<&Spans>,
    ) -> CodecOut {
        let sources = &self.pool[i % CODEC_POOL];
        let mut rng = StdRng::seed_from_u64(run_seed(self.seed, i));
        let (mut blocks, encode_ms) = measure_wall_ms(|| {
            span(spans, "core.encode", || {
                let mut blocks = Vec::with_capacity(CODEC_CODED_BLOCKS);
                for (level, &count) in self.per_level.iter().enumerate() {
                    for _ in 0..count {
                        blocks.push(self.encoder.encode(level, sources, &mut rng));
                    }
                }
                blocks
            })
        });
        blocks.shuffle(&mut rng);
        let (blocks_fed, decode_ms) = measure_wall_ms(|| {
            let mut fed = 0;
            for b in &blocks {
                if dec.is_complete() {
                    break;
                }
                dec.insert_block(b);
                fed += 1;
            }
            fed
        });
        let exact = dec.is_complete()
            && sources
                .iter()
                .enumerate()
                .all(|(k, s)| recovered(dec, k) == Some(&s[..]));
        CodecOut {
            blocks_fed,
            exact,
            encode_ms,
            decode_ms,
        }
    }
}

impl Workload for Codec {
    type Out = CodecOut;
    const OPS: usize = 2500;
    const AXPY_LEN: usize = CODEC_BLOCK_BYTES;

    fn setup(seed: u64) -> Result<Self, String> {
        let profile = profile(&CODEC_LEVELS)?;
        let per_level = weights(&CODEC_WEIGHTS)?.allocate(CODEC_CODED_BLOCKS);
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..CODEC_POOL)
            .map(|_| {
                (0..profile.total_blocks())
                    .map(|_| {
                        (0..CODEC_BLOCK_BYTES)
                            .map(|_| Gf256::new(rng.gen()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Ok(Codec {
            seed,
            encoder: Encoder::new(Scheme::Plc, profile),
            per_level,
            pool,
            encode_ms: Vec::new(),
            decode_ms: Vec::new(),
        })
    }

    fn op(&mut self, i: usize) -> CodecOut {
        let mut dec = PlcDecoder::with_payloads(self.encoder.profile().clone());
        self.persist(i, &mut dec, |d, k| d.recovered(k), None)
    }

    fn traced_op(&mut self, i: usize, spans: &Spans) -> CodecOut {
        let payloads = PlcDecoder::with_payloads(self.encoder.profile().clone());
        let mut dec = TimedDecoder::new(payloads, spans);
        self.persist(i, &mut dec, |d, k| d.inner().recovered(k), Some(spans))
    }

    fn check(&self, out: &CodecOut) -> (String, bool) {
        let text = format!("fed={} exact={}", out.blocks_fed, out.exact);
        (digest64(&text), out.exact)
    }

    fn observe(&mut self, out: &CodecOut) {
        self.encode_ms.push(out.encode_ms);
        self.decode_ms.push(out.decode_ms);
    }

    fn extra_metrics(&self) -> Vec<Metric> {
        let mb_s = |ms: &[f64]| CODEC_OBJECT_MB / (quantile(ms, 0.5) / 1e3);
        vec![
            metric("encode_mb_s", mb_s(&self.encode_ms), "MB/s"),
            metric("decode_mb_s", mb_s(&self.decode_ms), "MB/s"),
        ]
    }
}

// ---------------------------------------------------------------------------
// curve: one Fig. 6-style decoding trajectory
// ---------------------------------------------------------------------------

const CURVE_LEVELS: usize = 10;
const CURVE_PER_LEVEL: usize = 50;
const CURVE_BLOCKS: usize = 550;
const CURVE_CHECKPOINTS: [usize; 6] = [100, 200, 300, 400, 500, 550];

/// Dense progressive RREF on coefficient-only rows: PLC, 10 levels × 50,
/// 550 blocks, uniform priority distribution.
pub struct Curve {
    seed: u64,
    cfg: CurveConfig,
    /// `E(X)` at each checkpoint under the rank-exact GF(2⁸) model.
    expected: Vec<f64>,
    /// Set-up time spent in the analysis layer.
    expected_levels_ms: f64,
    at_checkpoints: Vec<Vec<f64>>,
}

impl Workload for Curve {
    type Out = Vec<u8>;
    const OPS: usize = 300;
    const AXPY_LEN: usize = CURVE_LEVELS * CURVE_PER_LEVEL;

    fn setup(seed: u64) -> Result<Self, String> {
        let profile = PriorityProfile::uniform(CURVE_LEVELS, CURVE_PER_LEVEL)
            .map_err(|e| format!("curve profile: {e}"))?;
        let distribution = PriorityDistribution::uniform(CURVE_LEVELS);
        let opts = AnalysisOptions::rank_exact(256.0);
        let (expected, expected_levels_ms) = measure_wall_ms(|| {
            CURVE_CHECKPOINTS
                .iter()
                .map(|&m| curves::expected_levels(Scheme::Plc, &profile, &distribution, m, &opts))
                .collect()
        });
        Ok(Curve {
            seed,
            cfg: CurveConfig {
                persistence: Persistence::Coding(Scheme::Plc),
                profile,
                distribution,
                max_blocks: CURVE_BLOCKS,
                runs: 1,
                seed: 0,
            },
            expected,
            expected_levels_ms,
            at_checkpoints: vec![Vec::new(); CURVE_CHECKPOINTS.len()],
        })
    }

    fn op(&mut self, i: usize) -> Vec<u8> {
        self.cfg.seed = run_seed(self.seed, i);
        let curve = simulate_decoding_curve_with_threads::<Gf256>(&self.cfg, THREADS);
        curve.summaries.iter().map(|s| s.mean as u8).collect()
    }

    fn traced_op(&mut self, i: usize, spans: &Spans) -> Vec<u8> {
        // The runner derives run 0's seed from the op seed.
        let mut rng = StdRng::seed_from_u64(run_seed(run_seed(self.seed, i), 0));
        let encoder = Encoder::new(Scheme::Plc, self.cfg.profile.clone());
        let mut dec = TimedDecoder::new(
            PlcDecoder::<Gf256, ()>::coefficients_only(self.cfg.profile.clone()),
            spans,
        );
        let mut levels = Vec::with_capacity(CURVE_BLOCKS + 1);
        levels.push(0);
        for _ in 0..CURVE_BLOCKS {
            let level = self.cfg.distribution.sample_level(&mut rng);
            let (block, _) = spans.span("core.encode", || {
                encoder.encode_unpayloaded::<Gf256, _>(level, &mut rng)
            });
            dec.insert_block(&block);
            levels.push(dec.decoded_levels() as u8);
        }
        levels
    }

    fn check(&self, out: &Vec<u8>) -> (String, bool) {
        let monotone = out.windows(2).all(|w| w[0] <= w[1]);
        let ok =
            out.len() == CURVE_BLOCKS + 1 && monotone && out[CURVE_BLOCKS] as usize <= CURVE_LEVELS;
        (digest64(&format!("{out:?}")), ok)
    }

    fn observe(&mut self, out: &Vec<u8>) {
        for (k, &m) in CURVE_CHECKPOINTS.iter().enumerate() {
            self.at_checkpoints[k].push(f64::from(out.get(m).copied().unwrap_or(0)));
        }
    }

    fn extra_metrics(&self) -> Vec<Metric> {
        vec![metric(
            "analysis.expected_levels_ms",
            self.expected_levels_ms,
            "ms",
        )]
    }

    /// The mean decoded levels at each checkpoint must sit within
    /// `5σ + 0.05` of the analysis, σ being the standard error. (At 3σ,
    /// six checkpoints per run failed about one run in ten by chance;
    /// the rank-exact analysis itself is within 0.05 of a 4000-run
    /// simulation at every checkpoint.) Decoded levels are integers, so
    /// their variance is at least `f(1 − f)`, `f` the fractional part of
    /// the mean; that floor keeps a few ops that happen to agree from
    /// claiming σ = 0.
    fn gate(&self) -> Result<(), String> {
        for (k, &m) in CURVE_CHECKPOINTS.iter().enumerate() {
            let v = &self.at_checkpoints[k];
            let n = v.len() as f64;
            let mean = v.iter().sum::<f64>() / n;
            let expected = self.expected[k];
            let frac = expected.fract();
            let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
            let tol = 5.0 * (var.max(frac * (1.0 - frac)) / n).sqrt() + 0.05;
            // Written so that a NaN mean fails too.
            let within = (mean - expected).abs() <= tol;
            if !within {
                return Err(format!(
                    "curve M={m}: mean {mean:.4} over {n} ops vs analysis {expected:.4} (tolerance {tol:.4})"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// timeline: the network's write path
// ---------------------------------------------------------------------------

/// Donors combined into each repaired block.
const TIMELINE_DONORS: usize = 3;

/// One run of the `BENCH_timeline.json` configuration per op.
pub struct Timeline {
    seed: u64,
}

fn timeline_config(seed: u64) -> Result<TimelineConfig, String> {
    Ok(TimelineConfig {
        scheme: Scheme::Plc,
        profile: profile(&[2, 3, 5])?,
        distribution: PriorityDistribution::uniform(3),
        nodes: 100_000,
        locations: 80,
        churn_per_epoch: 0.15,
        epochs: 8,
        repair_donors: Some(TIMELINE_DONORS),
        faults: FaultPlan::lossy(0.1, RetryPolicy::with_retries(2, 1), 42),
        fanout: SourceFanout::Log { factor: 2.0 },
        coeff_rep: CoeffRep::Sparse,
        runs: 1,
        seed,
    })
}

/// Levels decodable from the blocks surviving on `net`: every surviving
/// block offered to a fresh decoder.
fn decodable_levels<N: Network>(net: &N, dep: &Deployment<Gf256>, spans: &Spans) -> u8 {
    let mut dec = TimedDecoder::new(
        PlcDecoder::<Gf256, ()>::coefficients_only(dep.profile().clone()),
        spans,
    );
    for i in dep.surviving_slots(net) {
        let block = &dep.slots()[i].block;
        if !block.is_empty() {
            dec.insert_block(block);
        }
    }
    dec.decoded_levels() as u8
}

impl Workload for Timeline {
    type Out = Result<Vec<u8>, String>;
    const OPS: usize = 240;
    const AXPY_LEN: usize = 10;

    fn setup(seed: u64) -> Result<Self, String> {
        timeline_config(seed)?;
        Ok(Timeline { seed })
    }

    fn op(&mut self, i: usize) -> Self::Out {
        let cfg = timeline_config(run_seed(self.seed, i))?;
        let summaries = simulate_persistence_timeline_with_threads::<Gf256>(&cfg, THREADS)
            .map_err(|e| e.to_string())?;
        Ok(summaries.iter().map(|s| s.mean as u8).collect())
    }

    /// The library's run loop rebuilt step by step, with the ring behind
    /// [`TimedNet`] and decoding behind [`TimedDecoder`].
    fn traced_op(&mut self, i: usize, spans: &Spans) -> Self::Out {
        let cfg = timeline_config(run_seed(self.seed, i))?;
        let seed = run_seed(cfg.seed, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut ring, _) = spans.span("net.ring.build", || RingNetwork::new(cfg.nodes, &mut rng));
        let mut net = TimedNet::new(&mut ring, spans);
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); cfg.profile.total_blocks()];
        let mut plan = cfg.faults.clone();
        plan.seed = splitmix64(seed ^ plan.seed);
        let mut session = plan.session(cfg.nodes);
        let protocol = ProtocolConfig {
            scheme: cfg.scheme,
            profile: cfg.profile.clone(),
            distribution: cfg.distribution.clone(),
            locations: cfg.locations,
            fanout: cfg.fanout,
            coeff_rep: cfg.coeff_rep,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        };
        let (dep, _) = spans.span("net.predistribute", || {
            predistribute_with_faults(&net, &protocol, &sources, &mut session, &mut rng)
        });
        let mut dep = dep.map_err(|e| e.to_string())?;
        let repair = RefreshConfig {
            scheme: cfg.scheme,
            donors_per_slot: TIMELINE_DONORS,
        };
        let mut levels = vec![
            spans
                .span("core.decode", || decodable_levels(&net, &dep, spans))
                .0,
        ];
        for _ in 0..cfg.epochs {
            net.fail_uniform(cfg.churn_per_epoch, &mut rng);
            if net.alive_count() == 0 {
                levels.push(0);
                continue;
            }
            spans.span("net.refresh", || {
                refresh_with_faults(&net, &mut dep, &repair, &mut session, &mut rng)
            });
            levels.push(
                spans
                    .span("core.decode", || decodable_levels(&net, &dep, spans))
                    .0,
            );
        }
        Ok(levels)
    }

    fn check(&self, out: &Self::Out) -> (String, bool) {
        (digest64(&format!("{out:?}")), out.is_ok())
    }
}

// ---------------------------------------------------------------------------
// collect: the network's read path
// ---------------------------------------------------------------------------

const COLLECT_NODES: usize = 10_000;
const COLLECT_RINGS: usize = 4;
/// Seeded 50% failure patterns per predistributed ring. Which blocks
/// survive sets how much an op decodes: over 8 seeds, 32 patterns kept
/// the rows decoded per op within a 3% range, where 8 deployments
/// spread it over 8%.
const COLLECT_FAILURES: usize = 8;

/// One lossy collection into a coefficient-only decoder per op, from a
/// seeded alive collector on one of 32 half-failed deployments (4
/// predistributed rings × 8 failure patterns).
pub struct Collect {
    seed: u64,
    deployments: Vec<Deployment<Gf256>>,
    /// `failed[k]` is ring `k / COLLECT_FAILURES` after failure pattern
    /// `k % COLLECT_FAILURES`.
    failed: Vec<RingNetwork>,
}

/// Op `op_seed`: a seeded alive collector on `net` gathers `dep` into
/// `dec` over links losing 20% of messages, with 2 retries.
fn collect_op<N: NodeLocator, D: PriorityDecoder<Gf256>>(
    op_seed: u64,
    net: &N,
    dep: &Deployment<Gf256>,
    dec: &mut D,
    spans: Option<&Spans>,
) -> Option<CollectionReport> {
    let mut rng = StdRng::seed_from_u64(op_seed);
    let collector = net.random_alive_node(&mut rng)?;
    let plan = FaultPlan::lossy(0.2, RetryPolicy::with_retries(2, 1), rng.gen());
    let mut faults = plan.session(net.node_count());
    span(spans, "net.collect", || {
        let cfg = CollectionConfig::default();
        collect_with_faults(net, dep, dec, collector, &cfg, &mut faults, &mut rng)
    })
}

impl Workload for Collect {
    type Out = Option<CollectionReport>;
    const OPS: usize = 6000;
    const AXPY_LEN: usize = 100;

    fn setup(seed: u64) -> Result<Self, String> {
        let protocol = ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile(&CODEC_LEVELS)?,
            distribution: weights(&CODEC_WEIGHTS)?,
            locations: 200,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: 0,
        };
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); protocol.profile.total_blocks()];
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut deployments, mut failed) = (Vec::new(), Vec::new());
        for _ in 0..COLLECT_RINGS {
            let ring = RingNetwork::new(COLLECT_NODES, &mut rng);
            let cfg = ProtocolConfig {
                shared_seed: rng.gen(),
                ..protocol.clone()
            };
            let dep = predistribute(&ring, &cfg, &sources, &mut rng)
                .map_err(|e| format!("collect deployment: {e}"))?;
            for _ in 0..COLLECT_FAILURES {
                let mut half = ring.clone();
                half.fail_uniform(0.5, &mut rng);
                failed.push(half);
            }
            deployments.push(dep);
        }
        Ok(Collect {
            seed,
            deployments,
            failed,
        })
    }

    fn op(&mut self, i: usize) -> Self::Out {
        let k = i % self.failed.len();
        let dep = &self.deployments[k / COLLECT_FAILURES];
        let mut dec = PlcDecoder::<Gf256, ()>::coefficients_only(dep.profile().clone());
        collect_op(run_seed(self.seed, i), &self.failed[k], dep, &mut dec, None)
    }

    fn traced_op(&mut self, i: usize, spans: &Spans) -> Self::Out {
        let k = i % self.failed.len();
        let dep = &self.deployments[k / COLLECT_FAILURES];
        let decoder = PlcDecoder::<Gf256, ()>::coefficients_only(dep.profile().clone());
        let mut dec = TimedDecoder::new(decoder, spans);
        let net = TimedNet::new(&mut self.failed[k], spans);
        collect_op(run_seed(self.seed, i), &net, dep, &mut dec, Some(spans))
    }

    fn check(&self, out: &Self::Out) -> (String, bool) {
        (digest64(&format!("{out:?}")), out.is_some())
    }
}
