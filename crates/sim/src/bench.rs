//! The `prlc bench` probe suite: canonical pinned-seed workloads whose
//! envelopes are committed at the repository root as `BENCH_<probe>.json`
//! baselines and re-checked by `prlc bench --check` (the differ lives in
//! [`prlc_obs::baseline`]).
//!
//! Five probes cover the claims the paper makes quantitatively:
//!
//! * `kernel` — GF(2⁸) `axpy` throughput per backend (scalar, table,
//!   and whatever the dispatcher picks). Purely environmental.
//! * `lossy` — the collection sweep over loss × retry budgets
//!   (the trace-determinism CI workload, widened to a 2×2 grid).
//! * `timeline` — the fault-injected, churned, repaired `N = 10^5`
//!   persistence timeline with `O(ln N)` fanout and sparse rows (the
//!   large-n-smoke CI workload).
//! * `adversary` — the targeted cache-killer sweep at `N = 10^4`
//!   (the adversary-smoke CI workload).
//! * `sparse` — per-row coefficient memory vs `ln N` on the encoder
//!   path, with the generator's end state pinned.
//!
//! Every probe resets the global recorders through
//! [`run_probe_and_reset`] — the same helper `prlc sim` uses — so its
//! metrics block reflects only the probe's own deterministic work.
//! Span timers (wall-clock) never enter an envelope, and the
//! backend-suffixed `gf.<op>.bytes.<backend>` counters are merged to
//! `gf.<op>.bytes` so envelopes agree across `PRLC_KERNEL` settings.

use std::collections::BTreeMap;

use prlc_core::{Encoder, PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::{kernel, Gf256};
use prlc_net::{AdversaryPlan, AdversaryStrategy, CoeffRep, FaultPlan, RetryPolicy, SourceFanout};
use prlc_obs::baseline::{digest64, envelope_json, Json};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::metadata::{
    measure_symbol_throughput_mb_s, measure_symbol_throughput_mb_s_with, measure_wall_ms,
    run_probe_and_reset,
};
use crate::scenario::{every_epoch, results_json, Event, Measure, Scenario, TimelineConfig};

/// The canonical probe names, in suite order.
pub const BENCH_PROBES: &[&str] = &["kernel", "lossy", "timeline", "adversary", "sparse"];

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
        "kernel" => probe_kernel(threads),
        "lossy" => probe_lossy(threads),
        "timeline" => probe_timeline(threads),
        "adversary" => probe_adversary(threads),
        "sparse" => probe_sparse(threads),
        other => Err(format!(
            "unknown probe {other:?} (want one of {})",
            BENCH_PROBES.join(", ")
        )),
    }
}

// ---------------------------------------------------------------------------
// Metrics block
// ---------------------------------------------------------------------------

/// The metrics block a baseline can hold: counters, histogram bounds and
/// histograms (with their percentile fields), no timers (wall-clock).
/// The per-backend `gf.<op>.bytes.<backend>` counters are merged to
/// `gf.<op>.bytes`: the byte volume is recorded at dispatch entry and is
/// identical whichever backend runs, only the key differs. Zero-valued
/// counters and empty histograms are dropped: the global registry keeps
/// names registered by *earlier* probes (reset zeroes values but not
/// names), so including them would make an envelope depend on which
/// probes ran before it in the same process.
fn deterministic_metrics_json(snap: &prlc_obs::Snapshot) -> String {
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    for &(name, v) in &snap.counters {
        if v != 0 {
            *counters.entry(merge_backend_suffix(name)).or_insert(0) += v;
        }
    }
    prlc_obs::Snapshot {
        counters: counters.into_iter().collect(),
        histograms: snap
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .cloned()
            .collect(),
        timers: Vec::new(),
    }
    .to_deterministic_json()
}

/// `gf.<op>.bytes.<backend>` → `gf.<op>.bytes`; anything else unchanged.
fn merge_backend_suffix(name: &'static str) -> &'static str {
    if name.starts_with("gf.") {
        for suffix in [".scalar", ".table", ".simd"] {
            if let Some(stem) = name.strip_suffix(suffix) {
                return stem;
            }
        }
    }
    name
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

/// GF(2⁸) `axpy` throughput on 64 KiB slices: one row per fixed backend
/// plus a `dispatched` row labelled with what the dispatcher picked.
/// Entirely environmental — no metrics/trace blocks (the iteration
/// counts are wall-clock-bounded and could never match a baseline). The
/// byte counters its loops leave behind are cleared by the reset every
/// probe starts with.
fn probe_kernel(threads: usize) -> Result<String, String> {
    let config_json = "{\"slice_len\":65536,\"budget_ms\":20}".to_string();
    run_probe("kernel", config_json, threads, false, || {
        let mut rows = Vec::new();
        for backend in [kernel::Backend::Scalar, kernel::Backend::Table] {
            let mb_s = measure_symbol_throughput_mb_s_with(backend);
            rows.push(format!(
                "{{\"backend\":{},\"mb_s\":{}}}",
                Json::Str(backend.name().to_string()).render(),
                Json::fixed(mb_s, 1).render()
            ));
        }
        rows.push(format!(
            "{{\"backend\":\"dispatched\",\"description\":{},\"mb_s\":{}}}",
            Json::Str(kernel::active_backend_description()).render(),
            Json::fixed(measure_symbol_throughput_mb_s(), 1).render()
        ));
        Ok((format!("[{}]", rows.join(",")), None))
    })
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
    run_probe(probe, config_json.to_string(), threads, true, || {
        let rows = scenario.run::<Gf256>(threads);
        let rows = rows.map_err(|e| format!("{probe} probe: {e}"))?;
        Ok((results_json(&rows), None))
    })
}

/// Runs `work` on freshly reset recorders and renders the probe's
/// envelope: `probe`, `config`, `run_metadata`, then — when `recorded`
/// and the recorders are on — the deterministic `metrics` block and the
/// `trace_digest`, then what `work` returns (the `results` array and an
/// optional `rng_end_state`), and last the work's `wall_ms`.
fn run_probe(
    probe: &str,
    config_json: String,
    threads: usize,
    recorded: bool,
    work: impl FnOnce() -> Result<(String, Option<String>), String>,
) -> Result<String, String> {
    let mut meta = run_probe_and_reset(threads);
    let (out, wall_ms) = measure_wall_ms(work);
    let (results_json, rng_end_state) = out?;
    meta.aggregate_obs_timing();
    let mut members = vec![
        ("probe", Json::Str(probe.to_string()).render()),
        ("config", config_json),
        ("run_metadata", meta.to_json()),
    ];
    if recorded && prlc_obs::enabled() {
        members.push(("metrics", deterministic_metrics_json(&prlc_obs::snapshot())));
    }
    if recorded && prlc_obs::trace::enabled() {
        let digest = digest64(&prlc_obs::trace::snapshot().to_json());
        members.push(("trace_digest", Json::Str(digest).render()));
    }
    members.push(("results", results_json));
    if let Some(state) = rng_end_state {
        members.push(("rng_end_state", Json::Str(state).render()));
    }
    members.push(("wall_ms", Json::fixed(wall_ms, 1).render()));
    Ok(envelope_json(&members) + "\n")
}

/// Per-row coefficient memory on the encoder path at
/// `N ∈ {10^3, 10^4, 10^5}`, dense vs sparse rows: integer nonzero and
/// byte totals over 50 rows each, the `bytes / ln N` ratio the paper's
/// `O(ln N)` claim rests on, and the shared generator's end state.
fn probe_sparse(threads: usize) -> Result<String, String> {
    const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
    const ROWS: usize = 50;
    const FACTOR: f64 = 2.0;
    const SEED: u64 = 0xC0DE;
    let config_json = format!(
        "{{\"sizes\":[1000,10000,100000],\"rows_per_cell\":{ROWS},\
         \"factor\":{FACTOR},\"scheme\":\"rlc\",\"seed\":{SEED}}}"
    );
    run_probe("sparse", config_json, threads, true, || {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut rows = Vec::new();
        for n in SIZES {
            let profile =
                PriorityProfile::flat(n).map_err(|e| format!("sparse probe N={n}: {e}"))?;
            for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
                let enc = Encoder::sparse(Scheme::Rlc, profile.clone(), FACTOR).with_coeff_rep(rep);
                let mut nnz_total = 0usize;
                let mut bytes_total = 0usize;
                for _ in 0..ROWS {
                    let row = enc.encode_coefficients::<Gf256, _>(0, &mut rng);
                    nnz_total += row.nnz();
                    bytes_total += row.storage_bytes();
                }
                let ln_n = (n as f64).ln();
                rows.push(format!(
                    "{{\"n\":{n},\"rep\":\"{}\",\"rows\":{ROWS},\
                     \"nnz_total\":{nnz_total},\"bytes_total\":{bytes_total},\
                     \"bytes_per_row\":{:.2},\"bytes_per_row_per_ln_n\":{:.4}}}",
                    match rep {
                        CoeffRep::Dense => "dense",
                        CoeffRep::Sparse => "sparse",
                    },
                    bytes_total as f64 / ROWS as f64,
                    bytes_total as f64 / ROWS as f64 / ln_n,
                ));
            }
        }
        let end_state = format!("{:#018x}", rng.next_u64());
        Ok((format!("[{}]", rows.join(",")), Some(end_state)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_and_probe_list() {
        assert_eq!(bench_file_name("kernel"), "BENCH_kernel.json");
        assert_eq!(BENCH_PROBES.len(), 5);
        assert!(run_bench_probe("nope", 1).is_err());
    }

    #[test]
    fn merge_backend_suffix_only_rewrites_gf_byte_counters() {
        assert_eq!(merge_backend_suffix("gf.axpy.bytes.simd"), "gf.axpy.bytes");
        assert_eq!(
            merge_backend_suffix("gf.scale.bytes.scalar"),
            "gf.scale.bytes"
        );
        assert_eq!(
            merge_backend_suffix("net.messages.sent"),
            "net.messages.sent"
        );
        assert_eq!(merge_backend_suffix("gf.axpy.bytes"), "gf.axpy.bytes");
    }

    #[test]
    fn metrics_block_drops_zero_entries_and_merges_backends() {
        let empty = prlc_obs::HistogramSnapshot {
            counts: vec![0; 15],
            sum: 0,
            count: 0,
        };
        let mut full = empty.clone();
        full.counts[0] = 2;
        full.sum = 2;
        full.count = 2;
        let snap = prlc_obs::Snapshot {
            counters: vec![
                ("gf.axpy.bytes.scalar", 0),
                ("gf.axpy.bytes.simd", 7),
                ("net.stale", 0),
                ("net.used", 3),
            ],
            histograms: vec![("h.stale", empty), ("h.used", full)],
            timers: vec![],
        };
        let json = deterministic_metrics_json(&snap);
        // Zero-valued counters and empty histograms are registry
        // residue from earlier probes in the same process — their
        // presence must not depend on suite order or --probe subsets.
        assert!(!json.contains("stale"), "{json}");
        assert!(json.contains("\"gf.axpy.bytes\":7"), "{json}");
        assert!(json.contains("\"net.used\":3"), "{json}");
        assert!(
            json.contains("\"h.used\":{\"counts\":[2,") && json.contains("\"p50\":1"),
            "{json}"
        );
    }
}
