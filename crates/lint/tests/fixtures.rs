//! Fixture corpus: one minimal bad snippet per lint plus a clean twin,
//! and edge cases targeting the lexer (raw strings, byte strings,
//! lifetimes-vs-char-literals, `#[cfg(test)]` regions).
//!
//! Each bad fixture must fire *exactly* its lint; each clean twin and
//! every edge fixture must stay silent under the *whole* suite. The
//! fixture directory is excluded from the workspace scan (`fixtures`
//! is in `SKIP_DIRS`), so these snippets never reach a workspace run
//! of `prlc-lint`.

use std::fs;
use std::path::Path;

use prlc_lint::lints::{self, Finding, Lint};
use prlc_lint::registry::{parse_metrics_md, parse_rng_domains_md, DomainRegistry, Registry};
use prlc_lint::tree::{classify, SourceModel};

fn fixture(name: &str, rel: &str) -> SourceModel {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let text = fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    SourceModel::parse(rel, classify(rel), &text)
}

fn metrics_registry() -> Registry {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    parse_metrics_md(&fs::read_to_string(dir.join("METRICS.md")).expect("fixture METRICS.md"))
}

fn domains_registry() -> DomainRegistry {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    parse_rng_domains_md(
        &fs::read_to_string(dir.join("RNG_DOMAINS.md")).expect("fixture RNG_DOMAINS.md"),
    )
}

/// Runs every pass over `files` the way `prlc_lint::run` does, with the
/// fixture registries standing in for the docs, and `root` (if any) as
/// the lone crate root for the L2b check.
fn run_all(files: &[SourceModel], root: Option<&SourceModel>) -> Vec<Finding> {
    let mut out = Vec::new();
    lints::l1_determinism(files, &mut out);
    lints::l2_unsafe_comments(files, &mut out);
    if let Some(r) = root {
        lints::l2_forbid_unsafe(&[r], &mut out);
    }
    lints::l3_metric_registry(files, "fixtures/METRICS.md", &metrics_registry(), &mut out);
    lints::l4_rng_domain(files, &mut out);
    lints::l5_panic_hygiene(files, &mut out);
    lints::l6_rng_registry(
        files,
        "fixtures/RNG_DOMAINS.md",
        &domains_registry(),
        &mut out,
    );
    lints::l7_kernel_dispatch(files, &mut out);
    // Each call sees one or two fixtures, never the whole corpus, so
    // registry rows anchored by *other* fixtures read as dead here.
    // Dead-row detection itself is covered by the lints unit tests.
    out.retain(|f| !f.message.starts_with("dead registry"));
    out
}

/// Asserts `findings` is non-empty and every finding carries `lint`.
fn assert_fires_exactly(findings: &[Finding], lint: Lint, fixture_name: &str) {
    assert!(
        !findings.is_empty(),
        "{fixture_name}: expected {} findings, got none",
        lint.id()
    );
    for f in findings {
        assert_eq!(
            f.lint,
            lint,
            "{fixture_name}: stray {} finding: {} ({}:{})",
            f.lint.id(),
            f.message,
            f.file,
            f.line
        );
    }
}

#[test]
fn l1_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l1_bad.rs", "crates/core/src/fixture.rs");
    let mut out = Vec::new();
    lints::l1_determinism(&[bad], &mut out);
    assert_fires_exactly(&out, Lint::Determinism, "l1_bad.rs");

    let clean = fixture("l1_clean.rs", "crates/core/src/fixture.rs");
    assert_eq!(run_all(&[clean], None), vec![]);
}

#[test]
fn l2_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l2_bad.rs", "crates/gf/src/fixture.rs");
    let mut out = Vec::new();
    lints::l2_unsafe_comments(&[bad], &mut out);
    assert_fires_exactly(&out, Lint::UnsafeAudit, "l2_bad.rs");

    // The clean twin lives in prlc-gf (the one crate allowed unsafe),
    // so the full suite must accept it — L2a satisfied by the comment.
    let clean = fixture("l2_clean.rs", "crates/gf/src/fixture.rs");
    assert_eq!(run_all(&[clean], None), vec![]);
}

#[test]
fn l2_forbid_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l2_forbid_bad.rs", "crates/core/src/lib.rs");
    let mut out = Vec::new();
    lints::l2_forbid_unsafe(&[&bad], &mut out);
    assert_fires_exactly(&out, Lint::UnsafeAudit, "l2_forbid_bad.rs");

    let clean = fixture("l2_forbid_clean.rs", "crates/core/src/lib.rs");
    assert_eq!(run_all(std::slice::from_ref(&clean), Some(&clean)), vec![]);
}

#[test]
fn l3_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l3_bad.rs", "crates/core/src/fixture.rs");
    let mut out = Vec::new();
    lints::l3_metric_registry(&[bad], "fixtures/METRICS.md", &metrics_registry(), &mut out);
    assert_fires_exactly(&out, Lint::MetricRegistry, "l3_bad.rs");

    let clean = fixture("l3_clean.rs", "crates/core/src/fixture.rs");
    assert_eq!(run_all(&[clean], None), vec![]);
}

#[test]
fn l4_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l4_bad.rs", "crates/net/src/fixture.rs");
    let mut out = Vec::new();
    lints::l4_rng_domain(&[bad], &mut out);
    assert_fires_exactly(&out, Lint::RngDomain, "l4_bad.rs");

    // The clean twin's mix helper is registered in the fixture domain
    // registry, so the full suite (L6 included) accepts it; the L6
    // fixture below supplies the registry's other row.
    let clean = fixture("l4_clean.rs", "crates/net/src/fixture.rs");
    let other = fixture("l6_clean.rs", "crates/sim/src/fixture.rs");
    assert_eq!(run_all(&[clean, other], None), vec![]);
}

#[test]
fn l5_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l5_bad.rs", "crates/core/src/fixture.rs");
    let mut out = Vec::new();
    lints::l5_panic_hygiene(&[bad], &mut out);
    assert_fires_exactly(&out, Lint::PanicHygiene, "l5_bad.rs");
    assert_eq!(out.len(), 2, "one per panicking extractor: {out:?}");

    let clean = fixture("l5_clean.rs", "crates/core/src/fixture.rs");
    assert_eq!(run_all(&[clean], None), vec![]);
}

#[test]
fn l6_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l6_bad.rs", "crates/sim/src/fixture.rs");
    let mut out = Vec::new();
    // An empty registry: the findings must come from the code itself
    // (no decodable tag in the helper; inline tag at the call site).
    lints::l6_rng_registry(
        &[bad],
        "fixtures/RNG_DOMAINS.md",
        &parse_rng_domains_md(""),
        &mut out,
    );
    assert_fires_exactly(&out, Lint::RngRegistry, "l6_bad.rs");
    assert!(
        out.iter()
            .any(|f| f.message.contains("no ASCII domain tag")),
        "{out:?}"
    );
    assert!(out.iter().any(|f| f.message.contains("hoist")), "{out:?}");

    let clean = fixture("l6_clean.rs", "crates/sim/src/fixture.rs");
    let other = fixture("l4_clean.rs", "crates/net/src/fixture.rs");
    assert_eq!(run_all(&[clean, other], None), vec![]);
}

#[test]
fn l7_fixture_fires_and_clean_twin_is_silent() {
    let bad = fixture("l7_bad.rs", "crates/linalg/src/fixture.rs");
    let mut out = Vec::new();
    lints::l7_kernel_dispatch(&[bad], &mut out);
    assert_fires_exactly(&out, Lint::KernelDispatch, "l7_bad.rs");

    let clean = fixture("l7_clean.rs", "crates/linalg/src/fixture.rs");
    assert_eq!(run_all(&[clean], None), vec![]);
}

#[test]
fn raw_string_decoys_stay_silent_under_the_whole_suite() {
    // Hot-crate rel on purpose: L7's loop scan must also ignore the
    // `.gf_add(`/`.gf_mul(` spelled inside the loop's string operands.
    let f = fixture("edge_raw_strings.rs", "crates/core/src/fixture.rs");
    assert_eq!(run_all(&[f], None), vec![]);
}

#[test]
fn cfg_test_regions_stay_silent_under_the_whole_suite() {
    let f = fixture("edge_cfg_test.rs", "crates/core/src/fixture.rs");
    assert_eq!(run_all(&[f], None), vec![]);
}

#[test]
fn lifetimes_do_not_derail_the_lexer() {
    let f = fixture("edge_lifetimes.rs", "crates/core/src/fixture.rs");
    // The code after the char literals was actually lexed: its string
    // literal is present as a token, proving the lexer never stalled.
    assert!(f.text.contains("still lexing"), "fixture changed underfoot");
    let lexed_past = (0..f.sig_len()).any(|si| f.text_of(si).contains("still lexing"));
    assert!(lexed_past, "lexer swallowed the tail of the file");
    assert_eq!(run_all(&[f], None), vec![]);
}
