//! `prlc-lint`: zero-dependency workspace invariant linter.
//!
//! Lexes the workspace's Rust sources into token trees (see [`lexer`]
//! and [`tree`]) and enforces the repo-specific invariants that the
//! PRLC reproduction's headline claims rest on:
//!
//! * **L1 determinism** — no nondeterministic containers, clocks or
//!   ambient RNG outside the allowlist;
//! * **L2 unsafe-audit** — every `unsafe` carries `// SAFETY:`, and
//!   only `prlc-gf` may hold unsafe code at all;
//! * **L3 metric-key registry** — every `counter!`/`histogram!`/
//!   `timer!` key matches the canonical `docs/METRICS.md` registry;
//! * **L4 RNG domain-separation** — seeded RNG in `prlc-net` goes
//!   through the `mix_*` helpers;
//! * **L5 panic-hygiene** — no `unwrap()`/`expect()` in library code
//!   outside the reviewed allowlist;
//! * **L6 RNG-domain registry** — every `mix_*` domain tag is unique
//!   and documented in the canonical `docs/RNG_DOMAINS.md` table;
//! * **L7 kernel-dispatch** — no scalar GF arithmetic in hot-crate
//!   loops bypassing the `GfKernel` slice layer.
//!
//! The linter itself must be beyond suspicion, so it depends on nothing
//! but `std` (not even the workspace shims) and its output is fully
//! deterministic: findings are sorted and no wall-clock ever appears in
//! a report.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod registry;
pub mod tree;

use lints::{Finding, Lint};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tree::{classify, SourceModel};

/// Default allowlist file name, resolved relative to the workspace root.
pub const DEFAULT_ALLOWLIST: &str = "lint-allowlist.txt";

/// Metric registry document path, relative to the workspace root.
pub const METRICS_DOC: &str = "docs/METRICS.md";

/// RNG-domain registry document path, relative to the workspace root.
pub const RNG_DOMAINS_DOC: &str = "docs/RNG_DOMAINS.md";

/// Directory names never descended into during the workspace walk.
/// `shims/` holds vendored stand-ins for external crates and is not
/// ours to police; `fixtures/` holds deliberately-bad lint corpus
/// snippets that must only be scanned by the fixture tests.
const SKIP_DIRS: &[&str] = &["target", "shims", "docs", "results", "fixtures"];

/// One parsed allowlist entry: `<lint> <path> <token> # justification`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Which lint the entry suppresses.
    pub lint: Lint,
    /// Workspace-relative path the suppression applies to.
    pub file: String,
    /// The finding token it suppresses (e.g. `expect`, `Instant`).
    pub token: String,
    /// Mandatory one-line justification (text after `#`).
    pub justification: String,
    /// 1-based line in the allowlist file.
    pub line: usize,
}

/// The parsed allowlist plus problems found in the file itself
/// (reported as `L0-allowlist` findings).
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Well-formed entries.
    pub entries: Vec<AllowEntry>,
    /// Malformed lines, reported against the allowlist file.
    pub problems: Vec<Finding>,
    rel: String,
}

impl Allowlist {
    /// Parses allowlist text. Blank lines and lines starting with `#`
    /// are comments; every entry line must read
    /// `<lint-id> <path> <token> # <justification>`.
    pub fn parse(rel: &str, text: &str) -> Allowlist {
        let mut list = Allowlist {
            rel: rel.to_string(),
            ..Allowlist::default()
        };
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut problem = |msg: String| {
                list.problems.push(Finding {
                    file: rel.to_string(),
                    line: line_no,
                    lint: Lint::Allowlist,
                    token: "entry".to_string(),
                    message: msg,
                });
            };
            let (head, justification) = match line.split_once('#') {
                Some((h, j)) if !j.trim().is_empty() => (h, j.trim().to_string()),
                _ => {
                    problem(format!(
                        "allowlist entry {line:?} has no `# justification`; every suppression \
                         must say why"
                    ));
                    continue;
                }
            };
            let fields: Vec<&str> = head.split_whitespace().collect();
            let [lint_id, file, token] = fields[..] else {
                problem(format!(
                    "allowlist entry {line:?} must be `<lint> <path> <token> # justification` \
                     (got {} fields before `#`)",
                    fields.len()
                ));
                continue;
            };
            let Some(lint) = Lint::from_id(lint_id) else {
                problem(format!("allowlist entry names unknown lint {lint_id:?}"));
                continue;
            };
            list.entries.push(AllowEntry {
                lint,
                file: file.to_string(),
                token: token.to_string(),
                justification,
                line: line_no,
            });
        }
        list
    }

    /// Removes findings covered by an entry. Entries that suppress
    /// nothing are stale and become findings themselves — an allowlist
    /// only stays honest if it shrinks with the code.
    pub fn apply(&self, findings: Vec<Finding>) -> Vec<Finding> {
        let mut used = vec![false; self.entries.len()];
        let mut kept: Vec<Finding> = Vec::new();
        for f in findings {
            let covered = self
                .entries
                .iter()
                .enumerate()
                .find(|(_, e)| e.lint == f.lint && e.file == f.file && e.token == f.token);
            match covered {
                Some((idx, _)) => used[idx] = true,
                None => kept.push(f),
            }
        }
        kept.extend(self.problems.iter().cloned());
        for (idx, e) in self.entries.iter().enumerate() {
            if !used[idx] {
                kept.push(Finding {
                    file: self.rel.clone(),
                    line: e.line,
                    lint: Lint::Allowlist,
                    token: e.token.clone(),
                    message: format!(
                        "stale allowlist entry: no {} finding for `{}` in {} — remove it",
                        e.lint.id(),
                        e.token,
                        e.file
                    ),
                });
            }
        }
        kept
    }
}

/// A finished lint run.
#[derive(Debug)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, lint, token).
    pub findings: Vec<Finding>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// How many allowlist entries were loaded.
    pub allowlist_entries: usize,
}

impl Report {
    /// True when the workspace is lint-clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{} [{}] {}", f.file, f.line, f.lint.id(), f.message);
        }
        let _ = writeln!(
            out,
            "prlc-lint: {} finding(s) across {} file(s) scanned ({} allowlist entr{})",
            self.findings.len(),
            self.files_scanned,
            self.allowlist_entries,
            if self.allowlist_entries == 1 {
                "y"
            } else {
                "ies"
            }
        );
        out
    }

    /// Deterministic JSON rendering: fixed field order, findings
    /// pre-sorted, no timestamps.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"allowlist_entries\": {},", self.allowlist_entries);
        let _ = writeln!(out, "  \"clean\": {},", self.clean());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"file\": {}, \"line\": {}, \"lint\": {}, \"token\": {}, \"message\": {}",
                json_string(&f.file),
                f.line,
                json_string(f.lint.id()),
                json_string(&f.token),
                json_string(&f.message)
            );
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Recursively collects workspace-relative paths of `.rs` files under
/// `root`, skipping hidden directories, `target/`, `shims/`, `docs/`
/// and `results/`. Paths come back sorted for deterministic reports.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let ty = entry.file_type()?;
            if ty.is_dir() {
                if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                    continue;
                }
                walk(root, &path, out)?;
            } else if ty.is_file() && name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Runs every lint over the workspace at `root`. `allowlist` overrides
/// the default `lint-allowlist.txt` location; a missing default file
/// means an empty allowlist, while a missing explicit path is an error.
pub fn run(root: &Path, allowlist: Option<&Path>) -> io::Result<Report> {
    let mut files = Vec::new();
    for rel in collect_rs_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        files.push(SourceModel::parse(&rel, classify(&rel), &text));
    }
    let files_scanned = files.len();

    let mut findings = Vec::new();
    lints::l1_determinism(&files, &mut findings);
    lints::l2_unsafe_comments(&files, &mut findings);
    let roots: Vec<&SourceModel> = files
        .iter()
        .filter(|f| {
            f.rel == "src/lib.rs"
                || (f.rel.starts_with("crates/") && f.rel.ends_with("/src/lib.rs"))
        })
        .collect();
    lints::l2_forbid_unsafe(&roots, &mut findings);

    match fs::read_to_string(root.join(METRICS_DOC)) {
        Ok(text) => {
            let reg = registry::parse_metrics_md(&text);
            lints::l3_metric_registry(&files, METRICS_DOC, &reg, &mut findings);
        }
        Err(_) => findings.push(Finding {
            file: METRICS_DOC.to_string(),
            line: 1,
            lint: Lint::MetricRegistry,
            token: "registry".to_string(),
            message: format!(
                "canonical metric registry {METRICS_DOC} is missing; every metric key must be \
                 documented there"
            ),
        }),
    }
    lints::l4_rng_domain(&files, &mut findings);
    lints::l5_panic_hygiene(&files, &mut findings);
    match fs::read_to_string(root.join(RNG_DOMAINS_DOC)) {
        Ok(text) => {
            let reg = registry::parse_rng_domains_md(&text);
            lints::l6_rng_registry(&files, RNG_DOMAINS_DOC, &reg, &mut findings);
        }
        Err(_) => findings.push(Finding {
            file: RNG_DOMAINS_DOC.to_string(),
            line: 1,
            lint: Lint::RngRegistry,
            token: "registry".to_string(),
            message: format!(
                "canonical RNG-domain registry {RNG_DOMAINS_DOC} is missing; every `mix_*` \
                 domain tag must be documented there"
            ),
        }),
    }
    lints::l7_kernel_dispatch(&files, &mut findings);

    let (allow_text, allow_rel) = match allowlist {
        Some(p) => (
            fs::read_to_string(p)?,
            p.to_string_lossy().replace('\\', "/"),
        ),
        None => {
            let p = root.join(DEFAULT_ALLOWLIST);
            match fs::read_to_string(&p) {
                Ok(t) => (t, DEFAULT_ALLOWLIST.to_string()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    (String::new(), DEFAULT_ALLOWLIST.to_string())
                }
                Err(e) => return Err(e),
            }
        }
    };
    let allow = Allowlist::parse(&allow_rel, &allow_text);
    let allowlist_entries = allow.entries.len();
    let mut findings = allow.apply(findings);
    findings.sort();
    findings.dedup();

    Ok(Report {
        findings,
        files_scanned,
        allowlist_entries,
    })
}

/// Ascends from `start` to the first directory containing both a
/// `Cargo.toml` and a `crates/` directory — the workspace root.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: Lint, file: &str, line: usize, token: &str) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            lint,
            token: token.to_string(),
            message: "msg".to_string(),
        }
    }

    #[test]
    fn allowlist_suppresses_matching_findings() {
        let list = Allowlist::parse(
            "lint-allowlist.txt",
            "# header comment\n\nL5 crates/net/src/ring.rs expect # ring size is a constructor invariant\n",
        );
        assert!(list.problems.is_empty(), "{:?}", list.problems);
        let kept = list.apply(vec![
            finding(Lint::PanicHygiene, "crates/net/src/ring.rs", 10, "expect"),
            finding(Lint::PanicHygiene, "crates/net/src/ring.rs", 44, "expect"),
            finding(Lint::PanicHygiene, "crates/net/src/other.rs", 3, "expect"),
        ]);
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].file, "crates/net/src/other.rs");
    }

    #[test]
    fn stale_and_unjustified_entries_become_findings() {
        let list = Allowlist::parse(
            "lint-allowlist.txt",
            "L1 crates/x/src/a.rs Instant # never fires\nL5 crates/x/src/b.rs unwrap\n",
        );
        assert_eq!(list.entries.len(), 1);
        assert_eq!(list.problems.len(), 1, "{:?}", list.problems);
        let kept = list.apply(Vec::new());
        assert_eq!(kept.len(), 2, "{kept:?}");
        assert!(kept.iter().all(|f| f.lint == Lint::Allowlist));
        assert!(kept.iter().any(|f| f.message.contains("stale")));
        assert!(kept.iter().any(|f| f.message.contains("justification")));
    }

    #[test]
    fn allowlist_accepts_short_lint_ids() {
        let list = Allowlist::parse("a.txt", "L5 crates/x/src/a.rs expect # why\n");
        assert_eq!(list.entries[0].lint, Lint::PanicHygiene);
        let list = Allowlist::parse("a.txt", "L9 crates/x/src/a.rs expect # why\n");
        assert!(list.entries.is_empty());
        assert!(list.problems[0].message.contains("unknown lint"));
    }

    #[test]
    fn json_report_is_deterministic_and_escaped() {
        let report = Report {
            findings: vec![finding(Lint::Determinism, "a \"b\".rs", 1, "HashMap")],
            files_scanned: 3,
            allowlist_entries: 0,
        };
        let j1 = report.render_json();
        let j2 = report.render_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"a \\\"b\\\".rs\""), "{j1}");
        assert!(j1.contains("\"clean\": false"));
        let empty = Report {
            findings: Vec::new(),
            files_scanned: 3,
            allowlist_entries: 2,
        };
        let j = empty.render_json();
        assert!(j.contains("\"findings\": []"), "{j}");
        assert!(j.contains("\"clean\": true"));
    }

    #[test]
    fn findings_sort_stably() {
        let mut v = [
            finding(Lint::PanicHygiene, "b.rs", 2, "expect"),
            finding(Lint::Determinism, "b.rs", 2, "Instant"),
            finding(Lint::Determinism, "a.rs", 9, "Instant"),
        ];
        v.sort();
        assert_eq!(v[0].file, "a.rs");
        assert_eq!(v[1].lint, Lint::Determinism);
        assert_eq!(v[2].lint, Lint::PanicHygiene);
    }
}
