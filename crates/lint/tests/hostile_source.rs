//! No-panic properties on hostile input: the lexer, the token-tree model
//! and every lint pass take arbitrary bytes and byte-mutated real
//! sources without panicking, and every token spans a valid slice. The
//! allowlist and both registry parsers take arbitrary and mutated
//! documents the same way.
//!
//! The linter depends on nothing but `std`, so the cases come from a
//! SplitMix64 generator here rather than from the proptest shim.

use std::fs;
use std::path::Path;

use prlc_lint::lexer::lex;
use prlc_lint::lints;
use prlc_lint::registry::{parse_metrics_md, parse_rng_domains_md, DomainRegistry, Registry};
use prlc_lint::tree::{classify, SourceModel};
use prlc_lint::Allowlist;

/// Cases per property.
const CASES: usize = 10_000;

/// SplitMix64: small, seedable and std-only.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Fragments that open, close or confuse the lexer's special forms and
/// the model's attribute and bracket scans.
const FRAGMENTS: &[&str] = &[
    "r#\"",
    "\"#",
    "r##\"",
    "br#\"",
    "b\"",
    "\"",
    "'",
    "'a",
    "'\\u{",
    "b'",
    "\\",
    "/*",
    "*/",
    "//",
    "///",
    "//!",
    "#[cfg(test)]",
    "#[test]",
    "#[cfg(all(test",
    "#[cfg(not(test))]",
    "#[",
    "mod t",
    "fn f()",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    "unsafe",
    "// SAFETY:",
    "0x",
    "1e",
    "1.",
    "r#",
    "counter!(\"",
    "mix_",
    "unwrap()",
    "é",
    "\u{0}",
    "\u{FEFF}",
    "\n",
    "\r\n",
    "\t",
];

/// Workspace-relative paths covering every file kind and the pass
/// scopes keyed on path (`prlc-net` for RNG domains, `prlc-gf` for
/// unsafe, crate roots, the CLI exemption).
const PATHS: &[&str] = &[
    "crates/net/src/ring.rs",
    "crates/gf/src/lib.rs",
    "crates/linalg/src/elim.rs",
    "crates/cli/src/main.rs",
    "crates/core/tests/t.rs",
    "examples/e.rs",
];

/// The lint crate's own sources and fixtures: real Rust to mutate.
fn corpus() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut texts = Vec::new();
    for dir in ["src", "fixtures"] {
        let mut paths: Vec<_> = fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        paths.sort();
        texts.extend(paths.iter().map(|p| fs::read_to_string(p).unwrap()));
    }
    texts
}

/// The fixture registries the metric and RNG-domain passes check
/// against.
struct Registries {
    metrics: Registry,
    domains: DomainRegistry,
}

impl Registries {
    fn load() -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap();
        Registries {
            metrics: parse_metrics_md(&read("METRICS.md")),
            domains: parse_rng_domains_md(&read("RNG_DOMAINS.md")),
        }
    }

    /// Lexes and models `text`, walks every structural query the passes
    /// use, and runs every pass over it.
    fn check(&self, text: &str, rel: &str) {
        for token in lex(text) {
            assert!(token.start < token.end && token.end <= text.len());
            let _ = token.text(text);
        }
        let model = SourceModel::parse(rel, classify(rel), text);
        for si in 0..model.sig_len() {
            let _ = model.text_of(si);
            let _ = model.find_body_brace(si);
            if let Some(close) = model.close_of(si) {
                assert!(close > si && close < model.sig_len());
                let _ = model.brace_span(si);
            }
            let _ = model.in_test(model.tok(si).start);
        }
        let _ = model.line_comments().count();

        let files = [model];
        let mut out = Vec::new();
        lints::l1_determinism(&files, &mut out);
        lints::l2_unsafe_comments(&files, &mut out);
        lints::l2_forbid_unsafe(&[&files[0]], &mut out);
        lints::l3_metric_registry(&files, "METRICS.md", &self.metrics, &mut out);
        lints::l4_rng_domain(&files, &mut out);
        lints::l5_panic_hygiene(&files, &mut out);
        lints::l6_rng_registry(&files, "RNG_DOMAINS.md", &self.domains, &mut out);
        lints::l7_kernel_dispatch(&files, &mut out);
    }
}

/// Random bytes (made valid UTF-8 lossily) mixed with fragments.
#[test]
fn arbitrary_sources_never_panic() {
    let registries = Registries::load();
    let mut rng = SplitMix(0x5EED_0001);
    for _ in 0..CASES {
        let mut bytes = Vec::new();
        for _ in 0..rng.below(24) {
            if rng.below(2) == 0 {
                bytes.extend(FRAGMENTS[rng.below(FRAGMENTS.len())].as_bytes());
            } else {
                bytes.extend((0..rng.below(8)).map(|_| rng.next() as u8));
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        registries.check(&text, PATHS[rng.below(PATHS.len())]);
    }
}

/// Windows of up to 4 KiB of real sources, with bytes overwritten,
/// inserted and deleted and fragments spliced in.
#[test]
fn mutated_sources_never_panic() {
    let registries = Registries::load();
    let corpus = corpus();
    assert!(corpus.len() >= 10, "lint sources and fixtures not found");
    let mut rng = SplitMix(0x5EED_0002);
    for _ in 0..CASES {
        let source = corpus[rng.below(corpus.len())].as_bytes();
        let start = rng.below(source.len());
        let end = (start + 1 + rng.below(4096)).min(source.len());
        let mut bytes = source[start..end].to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(4) {
                0 if at < bytes.len() => bytes[at] = rng.next() as u8,
                1 => bytes.insert(at, rng.next() as u8),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {
                    let fragment = FRAGMENTS[rng.below(FRAGMENTS.len())].as_bytes();
                    bytes.splice(at..at, fragment.iter().copied());
                }
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        registries.check(&text, PATHS[rng.below(PATHS.len())]);
    }
}

/// Fragments of the allowlist and registry table syntax.
const DOC_FRAGMENTS: &[&str] = &[
    "|",
    "||",
    "| `",
    "`",
    "``",
    "` |",
    "#",
    "# ",
    " ",
    "L1",
    "L5",
    "L0-allowlist",
    "crates/x.rs",
    "expect",
    "counter",
    "histogram",
    "timer",
    "span",
    "instant",
    "gf.axpy.bytes",
    "net.*",
    ".",
    "*",
    "0x",
    "0x50524C_433A4641",
    "_",
    "PRLC:",
    "mix_",
    "é",
    "\u{0}",
    "\n",
    "\r\n",
    "\t",
];

/// The real allowlist and registry documents, plus the lint fixtures'.
fn doc_corpus() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    [
        "../../lint-allowlist.txt",
        "../../docs/METRICS.md",
        "../../docs/RNG_DOMAINS.md",
        "fixtures/METRICS.md",
        "fixtures/RNG_DOMAINS.md",
    ]
    .iter()
    .map(|rel| fs::read_to_string(root.join(rel)).unwrap())
    .collect()
}

/// Runs all three document parsers over `text`, checks what they report
/// points back into it, and returns how many entries they accepted.
fn check_documents(text: &str) -> usize {
    let lines = text.lines().count();
    let allow = Allowlist::parse("lint-allowlist.txt", text);
    for e in &allow.entries {
        assert!((1..=lines).contains(&e.line));
        assert!(!e.justification.is_empty());
    }
    for p in &allow.problems {
        assert!((1..=lines).contains(&p.line));
    }
    // Every entry is stale against no findings.
    let stale = allow.apply(Vec::new());
    assert_eq!(stale.len(), allow.entries.len() + allow.problems.len());

    let metrics = parse_metrics_md(text);
    for e in &metrics.entries {
        assert!((1..=lines).contains(&e.line));
    }
    let domains = parse_rng_domains_md(text);
    for e in &domains.entries {
        assert!((1..=lines).contains(&e.line));
    }
    for p in metrics.problems.iter().chain(&domains.problems) {
        assert!((1..=lines).contains(&p.line));
    }
    allow.entries.len() + metrics.entries.len() + domains.entries.len()
}

/// One document line per draw: table rows, allowlist entries and noise
/// built from the fragments and random bytes.
#[test]
fn arbitrary_documents_never_panic() {
    let mut rng = SplitMix(0x5EED_0003);
    let mut accepted = 0;
    for _ in 0..CASES {
        let mut bytes = Vec::new();
        for _ in 0..rng.below(12) {
            for _ in 0..rng.below(10) {
                if rng.below(3) == 0 {
                    bytes.extend((0..rng.below(6)).map(|_| rng.next() as u8));
                } else {
                    bytes.extend(DOC_FRAGMENTS[rng.below(DOC_FRAGMENTS.len())].as_bytes());
                }
            }
            bytes.push(b'\n');
        }
        accepted += check_documents(&String::from_utf8_lossy(&bytes));
    }
    assert!(accepted > 0, "no case reached a well-formed entry");
}

/// Windows of the real documents with bytes overwritten, inserted and
/// deleted and fragments spliced in.
#[test]
fn mutated_documents_never_panic() {
    let corpus = doc_corpus();
    let mut rng = SplitMix(0x5EED_0004);
    let mut accepted = 0;
    for _ in 0..CASES {
        let source = corpus[rng.below(corpus.len())].as_bytes();
        let start = rng.below(source.len());
        let end = (start + 1 + rng.below(4096)).min(source.len());
        let mut bytes = source[start..end].to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(4) {
                0 if at < bytes.len() => bytes[at] = rng.next() as u8,
                1 => bytes.insert(at, rng.next() as u8),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {
                    let fragment = DOC_FRAGMENTS[rng.below(DOC_FRAGMENTS.len())].as_bytes();
                    bytes.splice(at..at, fragment.iter().copied());
                }
            }
        }
        accepted += check_documents(&String::from_utf8_lossy(&bytes));
    }
    assert!(accepted > 0, "no case reached a well-formed entry");
}
