//! Tier-1 gate: the committed perf baselines must stay well-formed and
//! self-consistent, and the `prlc bench --check` differ must keep
//! failing the right way.
//!
//! This test deliberately re-runs **no** probes (an `N = 10^5` timeline
//! in a debug-profile test run would dominate the suite); the CI
//! `bench-regression` job does the live re-run in release mode. What is
//! checked here:
//!
//! * every committed `BENCH_<probe>.json` parses, carries schema
//!   version 1, and names the probe it claims to be;
//! * each baseline diffed against itself is clean with all-zero
//!   environmental deltas;
//! * a perturbed deterministic field, an out-of-band throughput, and a
//!   bumped schema version each fail with their distinct
//!   machine-readable finding;
//! * the reader never panics on hostile text: arbitrary strings and
//!   byte-mutated copies of the baselines parse to `Ok` or `Err`.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use prlc_obs::baseline::{
    diff_envelopes, findings_json, parse_json, FindingKind, Json, Tolerances,
};
use prlc_sim::{bench_file_name, BENCH_PROBES};
use proptest::prelude::*;

fn baseline_path(probe: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(bench_file_name(probe))
}

fn baseline_text(probe: &str) -> String {
    let path = baseline_path(probe);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()))
}

#[test]
fn committed_baselines_are_versioned_and_complete() {
    for probe in BENCH_PROBES {
        let text = baseline_text(probe);
        let doc = parse_json(&text)
            .unwrap_or_else(|e| panic!("baseline for {probe} is not valid JSON: {e}"));
        let version = doc.get("bench_schema_version").cloned();
        assert!(
            matches!(version, Some(Json::Num(ref n)) if n.value == 1.0),
            "{probe}: bad bench_schema_version {version:?}"
        );
        assert_eq!(
            doc.get("probe"),
            Some(&Json::Str((*probe).to_string())),
            "{probe}: envelope names the wrong probe"
        );
        for key in ["config", "run_metadata", "results", "wall_ms"] {
            assert!(doc.get(key).is_some(), "{probe}: missing {key:?}");
        }
    }
}

#[test]
fn baselines_self_check_clean() {
    for probe in BENCH_PROBES {
        let text = baseline_text(probe);
        let report =
            diff_envelopes(probe, &text, &text, &Tolerances::default()).expect("well-formed");
        assert!(
            report.clean(),
            "{probe}: self-diff has findings {:?}",
            report.findings
        );
        assert!(
            report
                .deltas
                .iter()
                .all(|d| d.delta_pct.is_none() || d.delta_pct == Some(0.0)),
            "{probe}: self-diff has nonzero deltas {:?}",
            report.deltas
        );
    }
}

/// Rewrites the first deterministic number found under `results` in a
/// parsed envelope, returning the rendered mutant.
fn perturb_first_result_number(doc: &mut Json) -> String {
    fn bump(v: &mut Json) -> bool {
        match v {
            Json::Num(n) => {
                n.value += 1.0;
                n.raw = format!("{}", n.value);
                true
            }
            Json::Arr(items) => items.iter_mut().any(bump),
            Json::Obj(members) => members.iter_mut().any(|(_, v)| bump(v)),
            _ => false,
        }
    }
    let results = doc.get_mut("results").expect("results block");
    assert!(bump(results), "no number to perturb under results");
    doc.render()
}

#[test]
fn perturbed_deterministic_field_fails_with_drift() {
    // The lossy baseline has dense numeric result rows; one is enough —
    // the differ walks every envelope through the same code path.
    let text = baseline_text("lossy");
    let mut doc = parse_json(&text).expect("parses");
    let mutant = perturb_first_result_number(&mut doc);
    let report = diff_envelopes("lossy", &text, &mutant, &Tolerances::default()).expect("diff");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DeterministicDrift),
        "expected deterministic-drift, got {:?}",
        report.findings
    );
    let json = findings_json(&[report]);
    assert!(json.contains("\"kind\":\"deterministic-drift\""));
}

#[test]
fn drifted_work_counter_fails_at_its_path() {
    // The metrics block is gated exactly like results: one bumped
    // counter is one deterministic-drift finding, named by its path.
    let text = baseline_text("timeline");
    let mut doc = parse_json(&text).expect("parses");
    let Some(Json::Num(n)) = doc
        .get_mut("metrics")
        .and_then(|m| m.get_mut("counters"))
        .and_then(|c| c.get_mut("gf.axpy.bytes"))
    else {
        panic!("timeline baseline has no gf.axpy.bytes counter")
    };
    n.value += 1.0;
    n.raw = format!("{}", n.value);
    let mutant = doc.render();
    let report = diff_envelopes("timeline", &text, &mutant, &Tolerances::default()).expect("diff");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].kind, FindingKind::DeterministicDrift);
    assert_eq!(report.findings[0].path, "metrics.counters.gf.axpy.bytes");
}

#[test]
fn moved_layers_row_is_reported_under_its_name() {
    // Layer rows carry a `row` name; findings and deltas address the row
    // by it, not by its position in the results array.
    const ROW: &str = "gf/scale_4096_dispatched";
    let text = baseline_text("layers");
    let mut doc = parse_json(&text).expect("parses");
    let Some(Json::Arr(rows)) = doc.get_mut("results") else {
        panic!("layers baseline has no results array")
    };
    let row = rows
        .iter_mut()
        .find(|r| r.get("row") == Some(&Json::Str(ROW.to_string())))
        .unwrap_or_else(|| panic!("layers baseline has no {ROW} row"));
    let Some(Json::Num(n)) = row.get_mut("mb_s") else {
        panic!("{ROW} has no mb_s")
    };
    n.value /= 1000.0;
    n.raw = format!("{}", n.value);
    let mutant = doc.render();
    let report = diff_envelopes("layers", &text, &mutant, &Tolerances::default()).expect("diff");
    let path = format!("results[{ROW}].mb_s");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].kind, FindingKind::ThroughputOutOfBand);
    assert_eq!(report.findings[0].path, path);
    assert!(report.deltas.iter().any(|d| d.path == path && !d.in_band));
}

#[test]
fn moved_kernel_row_is_reported_under_its_backend() {
    // Kernel-probe rows carry no `row` name; findings address them by
    // their `backend` instead of their position in the results array.
    let text = baseline_text("kernel");
    let mut doc = parse_json(&text).expect("parses");
    let Some(Json::Arr(rows)) = doc.get_mut("results") else {
        panic!("kernel baseline has no results array")
    };
    let row = rows
        .iter_mut()
        .find(|r| r.get("backend") == Some(&Json::Str("dispatched".to_string())))
        .expect("kernel baseline has a dispatched row");
    let Some(Json::Num(n)) = row.get_mut("mb_s") else {
        panic!("dispatched row has no mb_s")
    };
    n.value *= 1000.0;
    n.raw = format!("{}", n.value);
    let mutant = doc.render();
    let report = diff_envelopes("kernel", &text, &mutant, &Tolerances::default()).expect("diff");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].path, "results[dispatched].mb_s");
}

#[test]
fn out_of_band_throughput_fails_with_its_own_kind() {
    let text = baseline_text("kernel");
    let mut doc = parse_json(&text).expect("parses");
    // Push the dispatched backend's throughput far outside the widest
    // sane band.
    let results = doc.get_mut("results").expect("results");
    let Json::Arr(rows) = results else {
        panic!("results is not an array")
    };
    let mut bumped = false;
    for row in rows {
        if let Some(Json::Num(n)) = row.get_mut("mb_s") {
            n.value *= 1000.0;
            n.raw = format!("{}", n.value);
            bumped = true;
        }
    }
    assert!(bumped, "kernel baseline has no mb_s row");
    let mutant = doc.render();
    let report = diff_envelopes("kernel", &text, &mutant, &Tolerances::default()).expect("diff");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::ThroughputOutOfBand),
        "expected throughput-out-of-band, got {:?}",
        report.findings
    );
    // The same drift is visible as a signed out-of-band delta row.
    assert!(report
        .deltas
        .iter()
        .any(|d| !d.in_band && d.delta_pct.is_some_and(|p| p > 0.0)));
    let json = findings_json(&[report]);
    assert!(json.contains("\"kind\":\"throughput-out-of-band\""));
}

#[test]
fn unknown_schema_version_is_rejected() {
    let text = baseline_text("sparse");
    let mut doc = parse_json(&text).expect("parses");
    if let Some(Json::Num(n)) = doc.get_mut("bench_schema_version") {
        n.value = 99.0;
        n.raw = "99".to_string();
    } else {
        panic!("baseline has no schema version");
    }
    let mutant = doc.render();
    let report = diff_envelopes("sparse", &text, &mutant, &Tolerances::default()).expect("diff");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].kind, FindingKind::SchemaVersion);
}

#[test]
fn legacy_results_layout_is_retired() {
    // The pre-unification dumps lived in results/BENCH_*.json without a
    // schema version; the committed layout is root-level and versioned.
    let results_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for probe in BENCH_PROBES {
        let legacy = results_dir.join(bench_file_name(probe));
        assert!(
            !legacy.exists(),
            "legacy unversioned baseline still present: {}",
            legacy.display()
        );
    }
}

/// Parses `text`; a document that parses must render and re-parse to
/// itself. A panic anywhere fails the calling property.
fn parse_survives(text: &str) {
    if let Ok(doc) = parse_json(text) {
        assert_eq!(parse_json(&doc.render()), Ok(doc), "input {text:?}");
    }
}

/// Fragments that steer random strings into the parser's deeper states:
/// structure, escapes, literals, number syntax and multi-byte scalars.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "\\",
    "\\u",
    "\\u00e9",
    "\\n",
    "0",
    "17",
    "-",
    ".",
    "e",
    "E+",
    "true",
    "false",
    "null",
    "tru",
    "nul",
    " ",
    "\n",
    "é",
    "€",
    "\u{0}",
    "\u{1f}",
    "\u{10ffff}",
    "\"k\":",
    "1e999",
    "-0.5e-3",
];

/// Each `u32` becomes a fragment (three times in four) or an arbitrary
/// Unicode scalar.
fn hostile_text(picks: &[u32]) -> String {
    picks
        .iter()
        .map(|&x| match x % 4 {
            0 => char::from_u32((x / 4) % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string(),
            _ => FRAGMENTS[(x / 4) as usize % FRAGMENTS.len()].to_string(),
        })
        .collect()
}

fn baseline_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| BENCH_PROBES.iter().map(|p| baseline_text(p)).collect())
}

/// Applies `(kind, position, byte)` edits to a copy of `text`: flip a
/// bit, insert a byte, delete a byte, or truncate. Inserted bytes below
/// 128 are drawn from the JSON punctuation so edits break structure,
/// not just string contents. Non-UTF-8 results decode lossily.
fn mutate(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, pos, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
            1 => {
                const PUNCT: &[u8] = b"{}[]\",:\\-.e0 ";
                let b = if byte < 128 {
                    PUNCT[usize::from(byte) % PUNCT.len()]
                } else {
                    byte
                };
                bytes.insert(at, b);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn parse_json_never_panics_on_arbitrary_text(
        picks in prop::collection::vec(any::<u32>(), 0..96),
    ) {
        parse_survives(&hostile_text(&picks));
    }

    #[test]
    fn parse_json_never_panics_on_mutated_baselines(
        file in 0..BENCH_PROBES.len(),
        edits in prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..6),
    ) {
        let original = &baseline_texts()[file];
        let mutant = mutate(original, &edits);
        parse_survives(&mutant);
        let _ = diff_envelopes(BENCH_PROBES[file], original, &mutant, &Tolerances::default());
    }
}
