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
use prlc_obs::baseline::{digest64, BENCH_SCHEMA_VERSION, SCHEMA_VERSION_KEY};
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
        "kernel" => Ok(probe_kernel(threads)),
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
// Envelope assembly
// ---------------------------------------------------------------------------

/// Everything a probe contributes beyond its run metadata.
struct ProbeOutput {
    /// Probe name (the `"probe"` field).
    probe: &'static str,
    /// Probe configuration as a JSON object (deterministic).
    config_json: String,
    /// Deterministic metrics block, when the recorder was enabled.
    metrics_json: Option<String>,
    /// FNV-1a digest of the full trace dump, when tracing was enabled.
    trace_digest: Option<String>,
    /// Result rows as a JSON array (deterministic).
    results_json: String,
    /// Pinned RNG end state, for probes that own their generator.
    rng_end_state: Option<String>,
    /// Elapsed wall-clock of the workload, in milliseconds.
    wall_ms: f64,
}

/// Renders the versioned envelope:
/// `{"bench_schema_version":1,"probe":...,"config":...,"run_metadata":...`
/// `[,"metrics":...][,"trace_digest":...],"results":...`
/// `[,"rng_end_state":...],"wall_ms":...}`.
fn envelope(meta: &crate::RunMetadata, out: &ProbeOutput) -> String {
    let mut s = format!(
        "{{\"{}\":{},\"probe\":\"{}\",\"config\":{},\"run_metadata\":{}",
        SCHEMA_VERSION_KEY,
        BENCH_SCHEMA_VERSION,
        out.probe,
        out.config_json,
        meta.to_json()
    );
    if let Some(m) = &out.metrics_json {
        s.push_str(",\"metrics\":");
        s.push_str(m);
    }
    if let Some(d) = &out.trace_digest {
        s.push_str(&format!(",\"trace_digest\":\"{d}\""));
    }
    s.push_str(",\"results\":");
    s.push_str(&out.results_json);
    if let Some(r) = &out.rng_end_state {
        s.push_str(&format!(",\"rng_end_state\":\"{r}\""));
    }
    if out.wall_ms.is_finite() {
        s.push_str(&format!(",\"wall_ms\":{:.1}}}\n", out.wall_ms));
    } else {
        s.push_str(",\"wall_ms\":null}\n");
    }
    s
}

/// Snapshot of the recorders after a probe, ready for the envelope:
/// `Some((metrics_json, trace_digest))` per enabled recorder.
fn recorder_blocks() -> (Option<String>, Option<String>) {
    let metrics = if prlc_obs::enabled() {
        Some(deterministic_metrics_json(&prlc_obs::snapshot()))
    } else {
        None
    };
    let trace = if prlc_obs::trace::enabled() {
        Some(digest64(&prlc_obs::trace::snapshot().to_json()))
    } else {
        None
    };
    (metrics, trace)
}

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
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (name, v) in &snap.counters {
        if *v == 0 {
            continue;
        }
        *counters.entry(merge_backend_suffix(name)).or_insert(0) += v;
    }
    let mut s = String::from("{\"counters\":{");
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{name}\":{v}"));
    }
    s.push_str("},\"histogram_bounds\":[");
    for (i, b) in prlc_obs::BUCKET_BOUNDS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&b.to_string());
    }
    s.push_str("],\"histograms\":{");
    let mut first = true;
    for (name, h) in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\"{name}\":{{\"counts\":["));
        for (j, c) in h.counts.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&c.to_string());
        }
        s.push_str(&format!("],\"sum\":{},\"count\":{}", h.sum, h.count));
        for (key, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            match h.percentile(q) {
                Some(v) => s.push_str(&format!(",\"{key}\":{v}")),
                None => s.push_str(&format!(",\"{key}\":null")),
            }
        }
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// `gf.<op>.bytes.<backend>` → `gf.<op>.bytes`; anything else unchanged.
fn merge_backend_suffix(name: &str) -> String {
    if name.starts_with("gf.") {
        for suffix in [".scalar", ".table", ".simd"] {
            if let Some(stem) = name.strip_suffix(suffix) {
                return stem.to_string();
            }
        }
    }
    name.to_string()
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
/// counts are wall-clock-bounded and could never match a baseline).
fn probe_kernel(threads: usize) -> String {
    let mut meta = run_probe_and_reset(threads);
    let (rows, wall_ms) = measure_wall_ms(|| {
        let mut rows = Vec::new();
        for backend in [kernel::Backend::Scalar, kernel::Backend::Table] {
            let mb_s = measure_symbol_throughput_mb_s_with(backend);
            rows.push(format!(
                "{{\"backend\":\"{}\",\"mb_s\":{}}}",
                backend.name(),
                fmt_mb_s(mb_s)
            ));
        }
        rows.push(format!(
            "{{\"backend\":\"dispatched\",\"description\":\"{}\",\"mb_s\":{}}}",
            kernel::active_backend_description(),
            fmt_mb_s(measure_symbol_throughput_mb_s())
        ));
        rows
    });
    // The probe's own kernel loops polluted the recorders; clear them so
    // a stale state never leaks into a later probe even if the suite
    // order changes.
    let _ = run_probe_and_reset(threads);
    meta.aggregate_obs_timing();
    envelope(
        &meta,
        &ProbeOutput {
            probe: "kernel",
            config_json: "{\"slice_len\":65536,\"budget_ms\":20}".to_string(),
            metrics_json: None,
            trace_digest: None,
            results_json: format!("[{}]", rows.join(",")),
            rng_end_state: None,
            wall_ms,
        },
    )
}

/// Non-finite throughput measurements become `null`, mirroring
/// `RunMetadata::to_json` (the differ treats a lost measurement against
/// a numeric baseline as out-of-band).
fn fmt_mb_s(mb_s: f64) -> String {
    if mb_s.is_finite() {
        format!("{mb_s:.1}")
    } else {
        "null".to_string()
    }
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
        Ok((results_json(&rows), None))
    })
}

/// Runs `work` on freshly reset recorders and wraps what it returns —
/// the results array and an optional RNG end state — in an envelope
/// with the recorder blocks and the work's wall-clock time.
fn run_probe(
    probe: &'static str,
    config_json: String,
    threads: usize,
    work: impl FnOnce() -> Result<(String, Option<String>), String>,
) -> Result<String, String> {
    let mut meta = run_probe_and_reset(threads);
    let (out, wall_ms) = measure_wall_ms(work);
    let (results_json, rng_end_state) = out?;
    let (metrics_json, trace_digest) = recorder_blocks();
    meta.aggregate_obs_timing();
    Ok(envelope(
        &meta,
        &ProbeOutput {
            probe,
            config_json,
            metrics_json,
            trace_digest,
            results_json,
            rng_end_state,
            wall_ms,
        },
    ))
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
    run_probe("sparse", config_json, threads, || {
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
