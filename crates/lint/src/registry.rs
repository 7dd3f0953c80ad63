//! The canonical registries: parsing `docs/METRICS.md` (metric keys,
//! L3) and `docs/RNG_DOMAINS.md` (RNG domain tags, L6), plus the key
//! naming scheme shared by the static and runtime coverage checks.

/// Metric kinds, matching the three `prlc-obs` metric macros plus the
/// two trace macros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// `counter!` keys.
    Counter,
    /// `histogram!` keys.
    Histogram,
    /// `timer!` keys.
    Timer,
    /// `trace_span!` names.
    Span,
    /// `trace_instant!` names (registry type `instant`; the identifier
    /// avoids the wall-clock type name banned by L1).
    Point,
}

impl MetricKind {
    /// The lowercase name used in the registry's `type` column.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
            MetricKind::Timer => "timer",
            MetricKind::Span => "span",
            MetricKind::Point => "instant",
        }
    }

    /// The macro that must emit keys of this kind.
    pub fn macro_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
            MetricKind::Timer => "timer",
            MetricKind::Span => "trace_span",
            MetricKind::Point => "trace_instant",
        }
    }

    fn from_name(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "histogram" => Some(MetricKind::Histogram),
            "timer" => Some(MetricKind::Timer),
            "span" => Some(MetricKind::Span),
            "instant" => Some(MetricKind::Point),
            _ => None,
        }
    }
}

/// One documented metric key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The key, e.g. `net.collect.query_hops`.
    pub key: String,
    /// Which macro must emit it.
    pub kind: MetricKind,
    /// 1-based line in the registry document.
    pub line: usize,
}

/// A problem found while parsing the registry document itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryProblem {
    /// 1-based line in the registry document.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

/// The parsed registry plus any document-level problems.
#[derive(Debug, Default)]
pub struct Registry {
    /// Documented keys in document order.
    pub entries: Vec<RegistryEntry>,
    /// Duplicate keys, bad names, unknown types.
    pub problems: Vec<RegistryProblem>,
}

/// The layer prefixes a key may start with (`layer.op[.unit][.backend]`).
pub const KNOWN_LAYERS: &[&str] = &[
    "gf", "linalg", "core", "analysis", "net", "sim", "cli", "obs",
];

/// Checks a key against the `layer.op[.unit][.backend]` naming scheme:
/// 2–4 dot-separated segments of `[a-z][a-z0-9_]*`, first segment a
/// known layer. Returns a human-readable complaint on violation.
pub fn check_key_name(key: &str) -> Result<(), String> {
    let segments: Vec<&str> = key.split('.').collect();
    if !(2..=4).contains(&segments.len()) {
        return Err(format!(
            "key {key:?} has {} segments; the scheme layer.op[.unit][.backend] allows 2-4",
            segments.len()
        ));
    }
    for seg in &segments {
        let mut chars = seg.chars();
        let head_ok = chars.next().is_some_and(|c| c.is_ascii_lowercase());
        let tail_ok = chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !head_ok || !tail_ok {
            return Err(format!(
                "key {key:?} segment {seg:?} must match [a-z][a-z0-9_]*"
            ));
        }
    }
    if !KNOWN_LAYERS.contains(&segments[0]) {
        return Err(format!(
            "key {key:?} layer {:?} is not one of {KNOWN_LAYERS:?}",
            segments[0]
        ));
    }
    Ok(())
}

/// Parses the registry tables out of METRICS.md text. A registry row is
/// a markdown table row whose first cell is a backticked key and whose
/// second cell is the metric type:
///
/// ```text
/// | `net.collect.query_hops` | histogram | hops the collector's queries travelled |
/// ```
///
/// Everything else (prose, headers, separator rows) is ignored.
pub fn parse_metrics_md(text: &str) -> Registry {
    let mut reg = Registry::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 2 {
            continue;
        }
        let Some(key) = cells[0].strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue; // header or separator row
        };
        if let Err(msg) = check_key_name(key) {
            reg.problems.push(RegistryProblem {
                line: line_no,
                message: msg,
            });
        }
        let Some(kind) = MetricKind::from_name(cells[1]) else {
            reg.problems.push(RegistryProblem {
                line: line_no,
                message: format!(
                    "key `{key}` has unknown type {:?} \
                     (expected counter|histogram|timer|span|instant)",
                    cells[1]
                ),
            });
            continue;
        };
        if let Some(first) = reg.entries.iter().find(|e| e.key == key) {
            reg.problems.push(RegistryProblem {
                line: line_no,
                message: format!(
                    "duplicate registry entry for `{key}` (first documented on line {})",
                    first.line
                ),
            });
            continue;
        }
        reg.entries.push(RegistryEntry {
            key: key.to_string(),
            kind,
            line: line_no,
        });
    }
    reg
}

/// One documented RNG domain tag (a `docs/RNG_DOMAINS.md` row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainEntry {
    /// Decoded ASCII tag, e.g. `PRLC:FA`.
    pub tag: String,
    /// Normalized hex constant (uppercase, no `0x`/`_`/leading zeros).
    pub constant: String,
    /// The `mix_*` helper that owns the tag.
    pub function: String,
    /// Workspace-relative path of the helper.
    pub file: String,
    /// 1-based line in the registry document.
    pub line: usize,
}

/// The parsed domain registry plus document-level problems.
#[derive(Debug, Default)]
pub struct DomainRegistry {
    /// Documented tags in document order.
    pub entries: Vec<DomainEntry>,
    /// Duplicates, malformed constants, tag/constant mismatches.
    pub problems: Vec<RegistryProblem>,
}

/// Parses the domain table out of RNG_DOMAINS.md text. A registry row
/// is a markdown table row of five cells, the first four backticked:
///
/// ```text
/// | `PRLC:FA` | `0x50524C_433A4641` | `mix_fault_seed` | `crates/net/src/fault.rs` | fault streams |
/// ```
///
/// The constant cell must itself decode (big-endian ASCII) to the tag
/// cell — a row that lies about its own constant is a problem.
pub fn parse_rng_domains_md(text: &str) -> DomainRegistry {
    let mut reg = DomainRegistry::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 4 {
            continue;
        }
        let ticked = |c: &str| -> Option<String> {
            c.strip_prefix('`')
                .and_then(|c| c.strip_suffix('`'))
                .map(str::to_string)
        };
        let (Some(tag), Some(constant), Some(function), Some(file)) = (
            ticked(cells[0]),
            ticked(cells[1]),
            ticked(cells[2]),
            ticked(cells[3]),
        ) else {
            continue; // header, separator, or prose row
        };
        let Some(norm) = crate::lints::normalize_hex(&constant) else {
            reg.problems.push(RegistryProblem {
                line: line_no,
                message: format!(
                    "domain row `{tag}` has malformed constant {constant:?} (expected 0x-hex)"
                ),
            });
            continue;
        };
        match crate::lints::decode_ascii_tag(&constant, 2) {
            Some(decoded) if decoded == tag => {}
            decoded => {
                reg.problems.push(RegistryProblem {
                    line: line_no,
                    message: format!(
                        "domain row tag `{tag}` does not match its constant {constant} \
                         (which decodes to {decoded:?})"
                    ),
                });
                continue;
            }
        }
        if let Some(first) = reg.entries.iter().find(|e| e.tag == tag) {
            reg.problems.push(RegistryProblem {
                line: line_no,
                message: format!(
                    "duplicate domain tag `{tag}` (first documented on line {})",
                    first.line
                ),
            });
            continue;
        }
        reg.entries.push(DomainEntry {
            tag,
            constant: norm,
            function,
            file,
            line: line_no,
        });
    }
    reg
}

/// Matches a `*`-wildcard key pattern (each `*` stands for one or more
/// key characters) against a concrete key.
pub fn pattern_matches(pattern: &str, key: &str) -> bool {
    fn rec(p: &[u8], k: &[u8]) -> bool {
        match p.first() {
            None => k.is_empty(),
            Some(b'*') => (1..=k.len()).any(|take| rec(&p[1..], &k[take..])),
            Some(&c) => k.first() == Some(&c) && rec(&p[1..], &k[1..]),
        }
    }
    rec(pattern.as_bytes(), key.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
# registry

Some prose with a stray `not.a.row` mention.

| key | type | description |
|-----|------|-------------|
| `net.collect.blocks` | counter | blocks gathered |
| `gf.axpy.bytes.simd` | counter | byte volume |
| `net.collect.query_hops` | histogram | hop cost |
| `sim.run` | timer | wall clock |
";

    #[test]
    fn parses_rows_and_ignores_prose() {
        let reg = parse_metrics_md(DOC);
        assert!(reg.problems.is_empty(), "{:?}", reg.problems);
        let keys: Vec<&str> = reg.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "net.collect.blocks",
                "gf.axpy.bytes.simd",
                "net.collect.query_hops",
                "sim.run"
            ]
        );
        assert_eq!(reg.entries[2].kind, MetricKind::Histogram);
        assert_eq!(reg.entries[3].kind, MetricKind::Timer);
    }

    #[test]
    fn flags_duplicates_bad_names_and_bad_types() {
        let doc = "\
| `net.collect.blocks` | counter | a |
| `net.collect.blocks` | counter | again |
| `Bad.Key` | counter | capitals |
| `net.x` | gauge | no such type |
| `unknownlayer.op` | counter | layer |
| `net.a.b.c.d` | counter | five segments |
";
        let reg = parse_metrics_md(doc);
        // Badly-named keys stay in `entries` (they are documented and
        // matchable) but are flagged; the duplicate and the unknown
        // `gauge` type are dropped.
        assert_eq!(reg.entries.len(), 4, "{:?}", reg.entries);
        assert_eq!(reg.problems.len(), 5, "{:?}", reg.problems);
        assert!(reg.problems[0].message.contains("duplicate"));
    }

    #[test]
    fn parses_span_and_instant_rows() {
        let reg = parse_metrics_md(
            "| `net.collect.session` | span | a collect session |\n\
             | `linalg.rref.pivot` | instant | one pivot landing |\n",
        );
        assert!(reg.problems.is_empty(), "{:?}", reg.problems);
        assert_eq!(reg.entries[0].kind, MetricKind::Span);
        assert_eq!(reg.entries[1].kind, MetricKind::Point);
        assert_eq!(MetricKind::Span.macro_name(), "trace_span");
        assert_eq!(MetricKind::Point.macro_name(), "trace_instant");
    }

    #[test]
    fn key_name_scheme() {
        assert!(check_key_name("net.retries").is_ok());
        assert!(check_key_name("gf.axpy.bytes.scalar").is_ok());
        assert!(check_key_name("core.decode.blocks_at_level_completion").is_ok());
        assert!(check_key_name("net").is_err());
        assert!(check_key_name("net.Retries").is_err());
        assert!(check_key_name("http.requests").is_err());
        assert!(check_key_name("net..x").is_err());
    }

    #[test]
    fn parses_domain_rows_and_flags_lies() {
        let doc = "\
# domains

| tag | constant | function | file | purpose |
|-----|----------|----------|------|---------|
| `PRLC:FA` | `0x50524C_433A4641` | `mix_fault_seed` | `crates/net/src/fault.rs` | faults |
| `LOSS` | `0x4C4F_5353` | `mix_loss_seed` | `crates/sim/src/lossy.rs` | loss |
| `BAD` | `0x4C4F_5353` | `mix_other` | `crates/x.rs` | constant decodes to LOSS |
| `LOSS` | `0x4C4F_5353` | `mix_dup` | `crates/y.rs` | duplicate tag |
| `OOPS` | `not-hex` | `mix_z` | `crates/z.rs` | malformed |
";
        let reg = parse_rng_domains_md(doc);
        let tags: Vec<&str> = reg.entries.iter().map(|e| e.tag.as_str()).collect();
        assert_eq!(tags, ["PRLC:FA", "LOSS"], "{:?}", reg.entries);
        assert_eq!(reg.entries[0].constant, "50524C433A4641");
        assert_eq!(reg.entries[1].function, "mix_loss_seed");
        assert_eq!(reg.entries[1].file, "crates/sim/src/lossy.rs");
        assert_eq!(reg.problems.len(), 3, "{:?}", reg.problems);
        assert!(reg.problems[0].message.contains("does not match"));
        assert!(reg.problems[1].message.contains("duplicate domain tag"));
        assert!(reg.problems[2].message.contains("malformed constant"));
    }

    #[test]
    fn wildcard_patterns() {
        assert!(pattern_matches("gf.*.bytes.simd", "gf.axpy.bytes.simd"));
        assert!(pattern_matches("gf.*.bytes.simd", "gf.scale.bytes.simd"));
        assert!(!pattern_matches("gf.*.bytes.simd", "gf.axpy.bytes.table"));
        assert!(!pattern_matches("gf.*.bytes", "gf.axpy.bytes.simd"));
        assert!(pattern_matches("a.b", "a.b"));
        assert!(!pattern_matches("a.*", "a."));
    }
}
