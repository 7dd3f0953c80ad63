//! The `prlc bench` probe suite: canonical pinned-seed workloads whose
//! envelopes are committed at the repository root as `BENCH_<probe>.json`
//! baselines and re-checked by `prlc bench --check` (the differ lives in
//! [`prlc_obs::baseline`]).
//!
//! Four probes cover the claims the paper makes quantitatively, three
//! end to end and one per layer:
//!
//! * `lossy` — the collection sweep over loss × retry budgets
//!   (the trace-determinism CI workload, widened to a 2×2 grid).
//! * `timeline` — the fault-injected, churned, repaired `N = 10^5`
//!   persistence timeline with `O(ln N)` fanout and sparse rows (the
//!   large-n-smoke CI workload).
//! * `adversary` — the targeted cache-killer sweep at `N = 10^4`
//!   (the adversary-smoke CI workload).
//! * `layers` — one micro-benchmark row per hot path of each layer
//!   (GF arithmetic, encoding, decoding, analysis, protocol): a fixed
//!   iteration count, an exact-gated digest of the outputs and a banded
//!   wall time (throughput for the GF slice kernels).
//!
//! Every envelope's `run_metadata.symbol_throughput_mb_s` is the
//! dispatched GF(2⁸) `axpy` throughput, banded like any wall time; the
//! per-row coefficient memory against `ln N` lives in the full-size
//! `results/sparse_rows.csv`.
//!
//! Every probe resets the global recorders through
//! [`run_probe_and_reset`] — the same helper `prlc sim` uses — so its
//! metrics block reflects only the probe's own deterministic work.
//! Span timers (wall-clock) never enter an envelope; the `gf.<op>.bytes`
//! counters carry no backend, so envelopes agree across `PRLC_KERNEL`
//! settings.

use std::fmt;

use prlc_analysis::{conv, curves, AnalysisOptions};
use prlc_core::baseline::GrowthEncoder;
use prlc_core::{
    Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme, SlcDecoder,
};
use prlc_gf::{kernel, Gf16, Gf256, Gf64k, GfElem};
use prlc_net::{
    predistribute, AdversaryPlan, AdversaryStrategy, CoeffRep, FaultPlan, Network, NodeId,
    PlaneNetwork, ProtocolConfig, RetryPolicy, RingNetwork, SourceFanout,
};
use prlc_obs::baseline::{digest64, envelope_json, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metadata::{measure_wall_ms, run_probe_and_reset};
use crate::scenario::{every_epoch, results_json, Event, Measure, Scenario, TimelineConfig};

/// The canonical probe names, in suite order.
pub const BENCH_PROBES: &[&str] = &["lossy", "timeline", "adversary", "layers"];

/// The committed baseline file for a probe: `BENCH_<probe>.json` at the
/// repository root.
pub fn bench_file_name(probe: &str) -> String {
    format!("BENCH_{probe}.json")
}

/// Runs one probe on `threads` workers and returns its envelope as one
/// JSON document (a trailing newline, matching the `--bench-out`
/// writers).
///
/// # Errors
///
/// Returns `Err` for an unknown probe name or a probe-level simulation
/// failure.
pub fn run_bench_probe(probe: &str, threads: usize) -> Result<String, String> {
    match probe {
        "lossy" => probe_lossy(threads),
        "timeline" => probe_timeline(threads),
        "adversary" => probe_adversary(threads),
        "layers" => probe_layers(threads),
        other => Err(format!(
            "unknown probe {other:?} (want one of {})",
            BENCH_PROBES.join(", ")
        )),
    }
}

// ---------------------------------------------------------------------------
// The probes
// ---------------------------------------------------------------------------

/// The pinned `[2,3,5]` PLC code every simulation probe runs on. The
/// level sizes are compile-time constants, so the only way this errs is
/// a future regression in `PriorityProfile::new` — propagated, per the
/// workspace panic-hygiene rule, rather than asserted.
fn plc_profile() -> Result<(PriorityProfile, PriorityDistribution), String> {
    let profile =
        PriorityProfile::new(vec![2, 3, 5]).map_err(|e| format!("pinned [2,3,5] profile: {e}"))?;
    let distribution = PriorityDistribution::uniform(profile.num_levels());
    Ok((profile, distribution))
}

/// The lossy-collection sweep: the trace-determinism CI workload
/// (`--scheme plc --loss 0.3 --retries 2 --runs 40 --seed 7`) widened to
/// a loss × retry grid.
fn probe_lossy(threads: usize) -> Result<String, String> {
    let (profile, distribution) = plc_profile()?;
    let scenario = Scenario {
        scheme: Scheme::Plc,
        profile,
        distribution,
        nodes: 80,
        locations: 40,
        fanout: SourceFanout::All,
        coeff_rep: CoeffRep::Dense,
        faults: FaultPlan::none(),
        adversary: None,
        epochs: vec![vec![Event::Churn(0.3)]],
        measure: Measure::Grid {
            losses: vec![0.0, 0.3],
            retry_budgets: vec![0, 2],
        },
        runs: 40,
        seed: 7,
    };
    run_scenario_probe(
        "lossy",
        "{\"scheme\":\"plc\",\"levels\":[2,3,5],\"nodes\":80,\
         \"locations\":40,\"node_failure\":0.3,\"backoff_hops\":1,\
         \"runs\":40,\"seed\":7,\"losses\":[0.0,0.3],\"retry_budgets\":[0,2]}",
        &scenario,
        threads,
    )
}

/// The `N = 10^5` persistence timeline with `O(ln N)` fanout and sparse
/// coefficient rows — the large-n-smoke CI workload.
fn probe_timeline(threads: usize) -> Result<String, String> {
    let (profile, distribution) = plc_profile()?;
    let cfg = TimelineConfig {
        scheme: Scheme::Plc,
        profile,
        distribution,
        nodes: 100_000,
        locations: 80,
        churn_per_epoch: 0.15,
        epochs: 8,
        repair_donors: Some(3),
        faults: FaultPlan::lossy(0.1, RetryPolicy::with_retries(2, 1), 42),
        fanout: SourceFanout::Log { factor: 2.0 },
        coeff_rep: CoeffRep::Sparse,
        runs: 20,
        seed: 42,
    };
    run_scenario_probe(
        "timeline",
        "{\"scheme\":\"plc\",\"levels\":[2,3,5],\"nodes\":100000,\
         \"locations\":80,\"churn_per_epoch\":0.15,\"epochs\":8,\
         \"repair_donors\":3,\"loss\":0.1,\"retry_budget\":2,\
         \"fanout\":\"log:2\",\"coeff_rep\":\"sparse\",\
         \"runs\":20,\"seed\":42}",
        &cfg.scenario(),
        threads,
    )
}

/// The targeted cache-killer sweep at `N = 10^4` — the adversary-smoke
/// CI workload.
fn probe_adversary(threads: usize) -> Result<String, String> {
    let (profile, distribution) = plc_profile()?;
    let scenario = Scenario {
        scheme: Scheme::Plc,
        profile,
        distribution,
        nodes: 10_000,
        locations: 200,
        fanout: SourceFanout::All,
        coeff_rep: CoeffRep::Dense,
        faults: FaultPlan::none(),
        adversary: Some(AdversaryPlan {
            strategy: AdversaryStrategy::Targeted {
                kills: 192,
                focus: 1.0,
            },
            after_messages: 0,
            seed: 42,
        }),
        epochs: every_epoch(2, &[Event::Strike]),
        measure: Measure::Collect,
        runs: 10,
        seed: 42,
    };
    run_scenario_probe(
        "adversary",
        "{\"scheme\":\"plc\",\"levels\":[2,3,5],\"nodes\":10000,\
         \"locations\":200,\"adversary\":\"targeted\",\"kills\":192,\
         \"focus\":1.0,\"epochs\":2,\"churn_per_epoch\":0.0,\
         \"runs\":10,\"seed\":42}",
        &scenario,
        threads,
    )
}

/// Runs a scenario probe. See [`run_probe`].
fn run_scenario_probe(
    probe: &'static str,
    config_json: &str,
    scenario: &Scenario,
    threads: usize,
) -> Result<String, String> {
    run_probe(probe, config_json.to_string(), threads, || {
        let rows = scenario.run::<Gf256>(threads);
        let rows = rows.map_err(|e| format!("{probe} probe: {e}"))?;
        Ok(results_json(&rows))
    })
}

/// Runs `work` on freshly reset recorders and renders the probe's
/// envelope: `probe`, `config`, `run_metadata`, then — when the
/// recorders are on — the deterministic `metrics` block and the
/// `trace_digest`, then the `results` array `work` returns, and last the
/// work's `wall_ms`.
fn run_probe(
    probe: &str,
    config_json: String,
    threads: usize,
    work: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    let mut meta = run_probe_and_reset(threads);
    let (results_json, wall_ms) = measure_wall_ms(work);
    let results_json = results_json?;
    meta.aggregate_obs_timing();
    let mut members = vec![
        ("probe", Json::Str(probe.to_string()).render()),
        ("config", config_json),
        ("run_metadata", meta.to_json()),
    ];
    if prlc_obs::enabled() {
        members.push(("metrics", prlc_obs::snapshot().to_deterministic_json()));
    }
    if prlc_obs::trace::enabled() {
        let digest = digest64(&prlc_obs::trace::snapshot().to_json());
        members.push(("trace_digest", Json::Str(digest).render()));
    }
    members.extend([
        ("results", results_json),
        ("wall_ms", Json::fixed(wall_ms, 1).render()),
    ]);
    Ok(envelope_json(&members) + "\n")
}

/// One row per hot-path case of every layer the paper's claims cross —
/// GF arithmetic, encoding, progressive decoding, the analysis kernels
/// and the protocol — each running its body a fixed number of times on
/// pinned inputs. A row's `digest` covers everything its body produced:
/// it is exact-gated and keeps the work observable to the optimiser. Its
/// `wall_ms` (`mb_s` for the GF slice kernels, see [`slice_row`]) is
/// banded. GF rows name their backend (`scalar`, `table`,
/// `dispatched`), never a SIMD level, so the row set is the same on
/// every machine.
fn probe_layers(threads: usize) -> Result<String, String> {
    const SLICE: usize = 4096;
    const SEED: u64 = 0x1A7E;
    let config_json = Json::obj([
        ("slice_len", Json::uint(SLICE as u64)),
        ("seed", Json::uint(SEED)),
    ])
    .render();
    run_probe("layers", config_json, threads, || {
        let profile = |levels, per| {
            PriorityProfile::uniform(levels, per).map_err(|e| format!("layers probe: {e}"))
        };
        let rng = |salt: u64| StdRng::seed_from_u64(SEED ^ salt);
        let mut rows = Vec::new();

        // GF arithmetic: per-field scalar multiply chains, the slice
        // kernels at 4 KiB per backend (axpy is timed per backend by the
        // `axpy_sum` rows below, and dispatched by every envelope's
        // `run_metadata.symbol_throughput_mb_s`), and GF(2⁸) inversion.
        let mut r = rng(1);
        let a16: Vec<Gf16> = (0..1024).map(|_| Gf16::random(&mut r)).collect();
        let a256: Vec<Gf256> = (0..1024).map(|_| Gf256::random(&mut r)).collect();
        let a64k: Vec<Gf64k> = (0..1024).map(|_| Gf64k::random(&mut r)).collect();
        rows.push(layer_row("gf/mul_chain_gf16", 200, || mul_chain(&a16)));
        rows.push(layer_row("gf/mul_chain_gf256", 200, || mul_chain(&a256)));
        rows.push(layer_row("gf/mul_chain_gf64k", 200, || mul_chain(&a64k)));
        let src: Vec<Gf256> = (0..SLICE).map(|_| Gf256::random_nonzero(&mut r)).collect();
        let dst: Vec<Gf256> = (0..SLICE).map(|_| Gf256::random(&mut r)).collect();
        let c = Gf256::from_index(0xA7);
        for (name, backend, iters) in [
            ("scalar", Some(kernel::Backend::Scalar), 400),
            ("table", Some(kernel::Backend::Table), 1000),
            ("dispatched", None, 4000),
        ] {
            rows.push(slice_row(
                &format!("gf/scale_{SLICE}_{name}"),
                iters,
                1,
                dst.clone(),
                |d| match backend {
                    Some(b) => kernel::scale_slice_with(b, d, c),
                    None => kernel::scale_slice(d, c),
                },
            ));
            rows.push(slice_row(
                &format!("gf/mul_slice_{SLICE}_{name}"),
                iters,
                1,
                dst.clone(),
                |d| match backend {
                    Some(b) => kernel::mul_slice_with(b, d, &src),
                    None => kernel::mul_slice(d, &src),
                },
            ));
        }
        rows.push(layer_row("gf/inv_gf256_1024", 1000, || {
            a256.iter()
                .filter_map(|x| x.gf_inv())
                .fold(Gf256::ONE, GfElem::gf_add)
        }));

        // Encoding: one coded block of a 5×40 code with 64-symbol
        // payloads, dense, sparse and coefficients-only, and the Growth
        // baseline at degree 4.
        let code = profile(5, 40)?;
        let mut r = rng(2);
        let sources: Vec<Vec<Gf256>> = (0..code.total_blocks())
            .map(|_| (0..64).map(|_| Gf256::random(&mut r)).collect())
            .collect();
        for (name, enc) in [
            ("plc_dense", Encoder::new(Scheme::Plc, code.clone())),
            (
                "plc_sparse_2lnN",
                Encoder::sparse(Scheme::Plc, code.clone(), 2.0),
            ),
            ("slc_dense", Encoder::new(Scheme::Slc, code.clone())),
        ] {
            rows.push(layer_row(&format!("encode/n200_{name}"), 1000, || {
                enc.encode(4, &sources, &mut r)
            }));
        }
        let enc = Encoder::new(Scheme::Plc, code.clone());
        rows.push(layer_row("encode/n200_plc_coefficients_only", 1000, || {
            enc.encode_unpayloaded::<Gf256, _>(4, &mut r)
        }));
        let growth = GrowthEncoder::new(code.total_blocks());
        rows.push(layer_row("encode/growth_d4", 1000, || {
            growth.encode_with_degree(4, &sources, &mut r)
        }));

        // Decoding: a full decode of 2N blocks per scheme, and one
        // insertion into a half-full PLC decoder (the clones are made
        // before the clock starts).
        let dist = PriorityDistribution::uniform(code.num_levels());
        let blocks = |scheme, salt| {
            let enc = Encoder::new(scheme, code.clone());
            let mut r = rng(salt);
            (0..2 * code.total_blocks())
                .map(|_| enc.encode_unpayloaded::<Gf256, _>(dist.sample_level(&mut r), &mut r))
                .collect::<Vec<_>>()
        };
        for (name, scheme) in [
            ("rlc", Scheme::Rlc),
            ("slc", Scheme::Slc),
            ("plc", Scheme::Plc),
        ] {
            let blocks = blocks(scheme, 3);
            rows.push(layer_row(&format!("decode/full_n200_{name}"), 4, || {
                let mut dec: Box<dyn PriorityDecoder<Gf256>> = match scheme {
                    Scheme::Slc => {
                        Box::new(SlcDecoder::<Gf256, ()>::coefficients_only(code.clone()))
                    }
                    _ => Box::new(PlcDecoder::<Gf256, ()>::coefficients_only(code.clone())),
                };
                for b in &blocks {
                    dec.insert_block(b);
                }
                dec.decoded_levels()
            }));
        }
        let plc_blocks = blocks(Scheme::Plc, 4);
        let mut half = PlcDecoder::<Gf256, ()>::coefficients_only(code.clone());
        for b in &plc_blocks[..code.total_blocks()] {
            half.insert_block(b);
        }
        let probe = &plc_blocks[plc_blocks.len() - 1];
        const INSERTS: usize = 200;
        let mut clones = vec![half; INSERTS];
        rows.push(layer_row("decode/plc_insert_half_full", INSERTS, || {
            clones.pop().map(|mut d| d.insert_block(probe))
        }));

        // Analysis: E(X) for SLC and PLC at 5×200 and 50×20 with
        // m = 1000, and both convolution kernels on 2000 terms — the two
        // sides of the FFT threshold.
        let opts = AnalysisOptions::sharp();
        for (name, levels, per) in [("5x200", 5, 200), ("50x20", 50, 20)] {
            let p = profile(levels, per)?;
            let d = PriorityDistribution::uniform(levels);
            for (sname, scheme) in [("slc", Scheme::Slc), ("plc", Scheme::Plc)] {
                rows.push(layer_row(
                    &format!("analysis/expected_levels_{sname}_{name}_m1000"),
                    1,
                    || Rounded(vec![curves::expected_levels(scheme, &p, &d, 1000, &opts)]),
                ));
            }
        }
        let xa: Vec<f64> = (0..2000).map(|i| 1.0 / (i + 1) as f64).collect();
        let xb: Vec<f64> = (0..2000).map(|i| 1.0 / (2 * i + 1) as f64).collect();
        rows.push(layer_row("analysis/convolve_2000_naive", 4, || {
            Rounded(conv::convolve_naive(&xa, &xb, 2001))
        }));
        rows.push(layer_row("analysis/convolve_2000_fft", 4, || {
            Rounded(conv::convolve_fft(&xa, &xb, 2001))
        }));

        // Protocol: one route on each substrate at 1000 nodes, and a
        // whole pre-distribution of a 5×20 code onto a 200-node ring.
        let mut r = rng(5);
        let ring = RingNetwork::new(1000, &mut r);
        let plane = PlaneNetwork::with_connectivity_radius(1000, &mut r);
        rows.push(layer_row("protocol/route_ring_1000", 2000, || {
            let from = ring.random_alive_node(&mut r);
            from.and_then(|from| ring.route(from, ring.random_point(&mut r)))
        }));
        rows.push(layer_row("protocol/route_plane_1000", 2000, || {
            let from = plane.random_alive_node(&mut r);
            from.and_then(|from| plane.route(from, plane.random_point(&mut r)))
        }));
        let ring = RingNetwork::new(200, &mut r);
        let small = profile(5, 20)?;
        let sources: Vec<Vec<Gf256>> = (0..small.total_blocks())
            .map(|_| (0..32).map(|_| Gf256::random(&mut r)).collect())
            .collect();
        for (name, fanout) in [
            ("dense", SourceFanout::All),
            ("sparse_1.5lnN", SourceFanout::Log { factor: 1.5 }),
        ] {
            let cfg = ProtocolConfig {
                scheme: Scheme::Plc,
                profile: small.clone(),
                distribution: PriorityDistribution::uniform(5),
                locations: 200,
                fanout,
                coeff_rep: CoeffRep::Dense,
                two_choices: true,
                node_capacity: None,
                shared_seed: 9,
            };
            rows.push(layer_row(
                &format!("protocol/predistribute_ring200_{name}"),
                4,
                || predistribute(&ring, &cfg, &sources, &mut r),
            ));
        }

        // The multi-term payload kernel: one 4 KiB coded payload from 100
        // terms per step, on the two backends `PRLC_KERNEL` does not
        // change. A `dispatched` row is left out: the fused `gfni` kernel
        // runs about 200 times faster than `scalar`, too close to the
        // scalar leg's 250x band. Last, so the rows above keep their
        // places. `axpy_sum_with` counts no bytes, so these rows leave
        // the probe's metrics alone. An odd step count keeps the final
        // slice from cancelling back to its start in characteristic 2.
        let mut r = rng(6);
        let sources: Vec<Vec<Gf256>> = (0..100)
            .map(|_| (0..SLICE).map(|_| Gf256::random(&mut r)).collect())
            .collect();
        let terms: Vec<(Gf256, &[Gf256])> = sources
            .iter()
            .map(|s| (Gf256::random(&mut r), s.as_slice()))
            .collect();
        let dst: Vec<Gf256> = (0..SLICE).map(|_| Gf256::random(&mut r)).collect();
        for (name, backend, iters) in [
            ("scalar", kernel::Backend::Scalar, 5),
            ("table", kernel::Backend::Table, 11),
        ] {
            rows.push(slice_row(
                &format!("gf/axpy_sum_{}x{SLICE}_{name}", terms.len()),
                iters,
                terms.len(),
                dst.clone(),
                |d| kernel::axpy_sum_with(backend, d, terms.iter().copied()),
            ));
        }

        // Progressive decoding at K = 1000: a PLC 10×100 code fed 1,100
        // coefficient-only rows, dense and sparse (`Encoder::sparse`,
        // factor 2), encoded before the clock starts. The digest covers
        // the decoded-levels trajectory. Last, like the rows above.
        let big = profile(10, 100)?;
        let dist = PriorityDistribution::uniform(big.num_levels());
        for (name, enc) in [
            ("dense", Encoder::new(Scheme::Plc, big.clone())),
            ("sparse", Encoder::sparse(Scheme::Plc, big.clone(), 2.0)),
        ] {
            let mut r = rng(7);
            let blocks: Vec<_> = (0..1100)
                .map(|_| enc.encode_unpayloaded::<Gf256, _>(dist.sample_level(&mut r), &mut r))
                .collect();
            rows.push(layer_row(&format!("decode/plc_k1000_{name}"), 1, || {
                let mut dec = PlcDecoder::<Gf256, ()>::coefficients_only(big.clone());
                blocks
                    .iter()
                    .map(|b| {
                        dec.insert_block(b);
                        dec.decoded_levels()
                    })
                    .collect::<Vec<_>>()
            }));
        }

        // Routing at N = 10^6, where the ring no longer fits in cache:
        // 2000 routes from random nodes to random points, on an RNG of
        // its own. Every node is alive, so the origin is a plain index
        // draw, not `random_alive_node`'s scan of the liveness bitset,
        // which would take longer than the route. Last, like the rows
        // above.
        const BIG_RING: usize = 1_000_000;
        let mut r = rng(8);
        let ring = RingNetwork::new(BIG_RING, &mut r);
        rows.push(layer_row(
            &format!("protocol/route_ring_{BIG_RING}"),
            2000,
            || {
                let from = NodeId::new(r.gen_range(0..BIG_RING));
                ring.route(from, ring.random_point(&mut r))
            },
        ));
        Ok(Json::Arr(rows).render())
    })
}

/// Runs `body` `iters` times and renders the row: its name, the
/// iteration count, the digest of every output and the wall time.
fn layer_row<T: fmt::Debug>(name: &str, iters: usize, mut body: impl FnMut() -> T) -> Json {
    let (outs, wall_ms) = measure_wall_ms(|| (0..iters).map(|_| body()).collect::<Vec<T>>());
    Json::obj([
        ("row", Json::Str(name.to_string())),
        ("iters", Json::uint(iters as u64)),
        ("digest", Json::Str(digest64(&format!("{outs:?}")))),
        ("wall_ms", Json::fixed(wall_ms, 3)),
    ])
}

/// A GF(2⁸) slice-kernel row: `step` runs `iters` times in place on
/// `dst`, reading `operands` slices of its length each time, and the
/// digest covers the slice it ends as. It reports throughput (`mb_s`,
/// over every operand read), not wall time, so the scalar leg's widened
/// throughput band covers the `dispatched` row changing backend under
/// `PRLC_KERNEL`.
fn slice_row(
    name: &str,
    iters: usize,
    operands: usize,
    mut dst: Vec<Gf256>,
    mut step: impl FnMut(&mut [Gf256]),
) -> Json {
    let ((), wall_ms) = measure_wall_ms(|| (0..iters).for_each(|_| step(&mut dst)));
    let mb_s = (iters * operands * dst.len()) as f64 / wall_ms / 1e3;
    Json::obj([
        ("row", Json::Str(name.to_string())),
        ("iters", Json::uint(iters as u64)),
        ("digest", Json::Str(digest64(&format!("{dst:?}")))),
        ("mb_s", Json::fixed(mb_s, 1)),
    ])
}

/// `acc ← acc·x + 1` over `xs`: a dependent chain of scalar multiplies.
fn mul_chain<F: GfElem>(xs: &[F]) -> F {
    xs.iter()
        .fold(F::ONE, |acc, &x| acc.gf_mul(x).gf_add(F::ONE))
}

/// Floating-point results digested at nine significant digits, so a
/// last-place difference in a platform's `libm` (the FFT twiddles, the
/// analysis's `ln`/`exp`) cannot move an exact-gated digest.
struct Rounded(Vec<f64>);

impl fmt::Debug for Rounded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|x| write!(f, "{x:.8e},"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_and_probe_list() {
        assert_eq!(bench_file_name("lossy"), "BENCH_lossy.json");
        assert_eq!(BENCH_PROBES.len(), 4);
        assert!(run_bench_probe("nope", 1).is_err());
    }
}
