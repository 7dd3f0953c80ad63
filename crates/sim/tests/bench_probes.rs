//! The `prlc bench` probes, run end to end.
//!
//! Every probe resets and snapshots the process-global obs recorders,
//! so two probes running at once (or any other workload recording
//! metrics, as every simulation does under `PRLC_OBS=1`) would corrupt
//! each other's envelopes. The probe tests therefore live in this
//! binary of their own and hold one lock while they run.

use std::sync::{Mutex, MutexGuard};

use prlc_obs::baseline::{diff_envelopes, parse_json, Json, Tolerances};
use prlc_sim::run_bench_probe;

/// Serialises the tests of this binary over the global recorders. A
/// test that failed while holding the lock poisons it; the others still
/// run.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static RECORDER: Mutex<()> = Mutex::new(());
    RECORDER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn kernel_probe_envelope_is_versioned_and_self_checks() {
    let _recorder = recorder_lock();
    let env = run_bench_probe("kernel", 1).expect("kernel probe");
    let doc = parse_json(&env).expect("envelope parses");
    assert_eq!(
        doc.get("bench_schema_version").and_then(|v| match v {
            Json::Num(n) => Some(n.value),
            _ => None,
        }),
        Some(1.0)
    );
    assert_eq!(doc.get("probe"), Some(&Json::Str("kernel".to_string())));
    // Self-diff is clean: deterministic fields match byte-for-byte,
    // environmental fields sit at zero delta.
    let report = diff_envelopes("kernel", &env, &env, &Tolerances::default()).expect("diff");
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn sparse_probe_is_deterministic_and_tracks_ln_n() {
    let _recorder = recorder_lock();
    let a = run_bench_probe("sparse", 1).expect("sparse probe");
    let b = run_bench_probe("sparse", 4).expect("sparse probe");
    let report = diff_envelopes("sparse", &a, &b, &Tolerances::default()).expect("diff");
    assert!(
        report.clean(),
        "sparse probe differs across thread counts: {:?}",
        report.findings
    );
    let doc = parse_json(&a).expect("parse");
    assert!(doc.get("rng_end_state").is_some());
    // Dense rows pay O(N) bytes; sparse rows pay O(ln N). At
    // N = 10^5 the gap must be enormous.
    let results = match doc.get("results") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("bad results: {other:?}"),
    };
    let bytes = |rep: &str| -> f64 {
        results
            .iter()
            .find(|r| {
                r.get("n")
                    .is_some_and(|n| matches!(n, Json::Num(v) if v.value == 1e5))
                    && r.get("rep") == Some(&Json::Str(rep.to_string()))
            })
            .and_then(|r| r.get("bytes_per_row"))
            .and_then(|v| match v {
                Json::Num(n) => Some(n.value),
                _ => None,
            })
            .expect("row present")
    };
    assert!(bytes("dense") > 50.0 * bytes("sparse"));
}

#[test]
fn lossy_probe_is_thread_count_invariant() {
    let _recorder = recorder_lock();
    let a = run_bench_probe("lossy", 1).expect("lossy probe");
    let b = run_bench_probe("lossy", 2).expect("lossy probe");
    let report = diff_envelopes("lossy", &a, &b, &Tolerances::default()).expect("diff");
    assert!(
        report.clean(),
        "lossy probe differs across thread counts: {:?}",
        report.findings
    );
}

#[test]
fn layers_probe_is_thread_count_invariant() {
    let _recorder = recorder_lock();
    // Recorders on, as under `prlc bench`: the metrics block and the
    // trace digest are deterministic fields too. Restored afterwards,
    // so the other probes here keep the `PRLC_OBS` setting.
    let was_on = (prlc_obs::enabled(), prlc_obs::trace::enabled());
    prlc_obs::enable();
    prlc_obs::trace::enable();
    let a = run_bench_probe("layers", 1);
    let b = run_bench_probe("layers", 4);
    if !was_on.0 {
        prlc_obs::disable();
    }
    if !was_on.1 {
        prlc_obs::trace::disable();
    }
    let (a, b) = (a.expect("layers probe"), b.expect("layers probe"));
    // Only the deterministic fields are under test: the wall-clock and
    // throughput bands are opened all the way.
    let any_speed = Tolerances {
        throughput_factor: f64::INFINITY,
        wall_factor: f64::INFINITY,
    };
    let report = diff_envelopes("layers", &a, &b, &any_speed).expect("diff");
    assert!(
        report.clean(),
        "layers probe differs across thread counts: {:?}",
        report.findings
    );
    let doc = parse_json(&a).expect("parse");
    assert!(doc.get("metrics").is_some() && doc.get("trace_digest").is_some());
    // The envelope reads back to its own bytes (bar the final newline).
    assert_eq!(format!("{}\n", doc.render()), a);
    let Some(Json::Arr(rows)) = doc.get("results") else {
        panic!("layers results are not an array")
    };
    let names: Vec<String> = rows
        .iter()
        .map(|r| match r.get("row") {
            Some(Json::Str(name)) => name.clone(),
            other => panic!("row without a name: {other:?}"),
        })
        .collect();
    for layer in ["gf/", "encode/", "decode/", "analysis/", "protocol/"] {
        assert!(names.iter().any(|n| n.starts_with(layer)), "{names:?}");
    }
    // The row set must not depend on the machine's SIMD level.
    assert!(names.iter().all(|n| !n.contains("simd")), "{names:?}");
}
