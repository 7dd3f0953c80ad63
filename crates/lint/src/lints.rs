//! The seven workspace invariant lints (plus the allowlist meta-lint).
//!
//! Each pass walks the [`SourceModel`] token trees and appends
//! [`Finding`]s. What each lint enforces — and why the invariant
//! matters to the PRLC reproduction — is documented on the pass itself
//! and summarised in DESIGN.md §"Static analysis & invariant lints".

use crate::lexer::{Delim, TokenKind};
use crate::registry::{self, DomainRegistry, MetricKind, Registry};
use crate::tree::{FileKind, SourceModel};

/// Lint identifiers. Ordering is the reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Stale or malformed allowlist entries.
    Allowlist,
    /// L1: no nondeterministic containers, clocks or RNG sources.
    Determinism,
    /// L2: `unsafe` requires `// SAFETY:`; non-GF crates forbid unsafe.
    UnsafeAudit,
    /// L3: metric keys match the `docs/METRICS.md` registry.
    MetricRegistry,
    /// L4: seeded RNG in `prlc-net` goes through domain-separation mixes.
    RngDomain,
    /// L5: no `unwrap()`/`expect()` in library code.
    PanicHygiene,
    /// L6: `mix_*` domain tags are unique and match `docs/RNG_DOMAINS.md`.
    RngRegistry,
    /// L7: no scalar GF arithmetic in hot-crate loops bypassing the
    /// `GfKernel` slice layer.
    KernelDispatch,
}

impl Lint {
    /// Stable identifier used in reports and allowlist entries.
    pub fn id(self) -> &'static str {
        match self {
            Lint::Allowlist => "L0-allowlist",
            Lint::Determinism => "L1-determinism",
            Lint::UnsafeAudit => "L2-unsafe-audit",
            Lint::MetricRegistry => "L3-metric-registry",
            Lint::RngDomain => "L4-rng-domain",
            Lint::PanicHygiene => "L5-panic-hygiene",
            Lint::RngRegistry => "L6-rng-registry",
            Lint::KernelDispatch => "L7-kernel-dispatch",
        }
    }

    /// Resolves `L5` or `L5-panic-hygiene` style ids.
    pub fn from_id(s: &str) -> Option<Lint> {
        let all = [
            Lint::Allowlist,
            Lint::Determinism,
            Lint::UnsafeAudit,
            Lint::MetricRegistry,
            Lint::RngDomain,
            Lint::PanicHygiene,
            Lint::RngRegistry,
            Lint::KernelDispatch,
        ];
        all.into_iter()
            .find(|l| l.id() == s || l.id().split('-').next() == Some(s))
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// The offending token / key / entry (allowlist match target).
    pub token: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    fn new(file: &str, line: usize, lint: Lint, token: &str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            lint,
            token: token.to_string(),
            message,
        }
    }
}

// ---------------------------------------------------------------------------
// L1: determinism
// ---------------------------------------------------------------------------

/// Banned identifiers and why. `HashMap`/`HashSet` iterate in
/// randomized order; the clock and ambient RNG break
/// bit-reproducibility of snapshots and simulated persistence under a
/// pinned seed.
const L1_BANNED: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is nondeterministic; use BTreeMap or an index-keyed Vec",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic; use BTreeSet or a sorted Vec",
    ),
    (
        "SystemTime",
        "wall clock breaks snapshot determinism; wall-clock reads are confined to the obs timer block and CLI",
    ),
    (
        "Instant",
        "wall clock breaks snapshot determinism; wall-clock reads are confined to the obs timer block and CLI",
    ),
    (
        "thread_rng",
        "ambient RNG is unseeded; derive a seeded StdRng through a domain-separation helper",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG is irreproducible; derive the seed from the run's pinned seed",
    ),
];

/// L1: scan non-test identifier tokens for the banned names, plus
/// `rand::random` as the token sequence `rand` `::` `random`. Comments
/// and string literals are distinct token kinds and can never fire.
pub fn l1_determinism(files: &[SourceModel], out: &mut Vec<Finding>) {
    for f in files {
        if f.kind == FileKind::TestOnly {
            continue;
        }
        for si in 0..f.sig_len() {
            let t = f.tok(si);
            if t.kind != TokenKind::Ident || f.in_test(t.start) {
                continue;
            }
            let name = f.text_of(si);
            if let Some(&(token, why)) = L1_BANNED.iter().find(|&&(n, _)| n == name) {
                out.push(Finding::new(
                    &f.rel,
                    t.line,
                    Lint::Determinism,
                    token,
                    format!("use of `{token}`: {why}"),
                ));
            }
            if name == "random" && si >= 2 && f.is_punct(si - 1, "::") && f.is_ident(si - 2, "rand")
            {
                out.push(Finding::new(
                    &f.rel,
                    t.line,
                    Lint::Determinism,
                    "rand::random",
                    "use of `rand::random`: ambient RNG is unseeded; derive a seeded StdRng \
                     through a domain-separation helper"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L2: unsafe audit
// ---------------------------------------------------------------------------

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// sit and still count as adjacent (attributes like
/// `#[target_feature(..)]` may intervene).
const SAFETY_WINDOW: usize = 3;

/// L2a: every `unsafe` keyword needs a `SAFETY:` comment within
/// `SAFETY_WINDOW` (3) lines above (or on the same line). Applies to test
/// code too — an unsound test is still unsound.
pub fn l2_unsafe_comments(files: &[SourceModel], out: &mut Vec<Finding>) {
    for f in files {
        let comment_lines: Vec<usize> = f
            .line_comments()
            .filter(|(_, text)| text.contains("SAFETY:"))
            .map(|(line, _)| line)
            .collect();
        for si in 0..f.sig_len() {
            let t = f.tok(si);
            if t.kind != TokenKind::Ident || f.text_of(si) != "unsafe" {
                continue;
            }
            let lo = t.line.saturating_sub(SAFETY_WINDOW);
            let documented = comment_lines.iter().any(|&l| l >= lo && l <= t.line);
            if !documented {
                out.push(Finding::new(
                    &f.rel,
                    t.line,
                    Lint::UnsafeAudit,
                    "unsafe",
                    "`unsafe` without an adjacent `// SAFETY:` comment (within 3 lines above)"
                        .to_string(),
                ));
            }
        }
    }
}

/// L2b: every crate root except `prlc-gf` (which holds the audited
/// kernel unsafe) must declare `#![forbid(unsafe_code)]` — detected as
/// the token sequence `#` `!` `[` … `forbid` `(` `unsafe_code` … `]`.
pub fn l2_forbid_unsafe(roots: &[&SourceModel], out: &mut Vec<Finding>) {
    for f in roots {
        if f.rel.starts_with("crates/gf/") {
            continue;
        }
        let mut found = false;
        for si in 0..f.sig_len() {
            if f.is_punct(si, "#")
                && f.is_punct(si + 1, "!")
                && f.is_open(si + 2, Delim::Bracket)
                && f.is_ident(si + 3, "forbid")
                && f.is_open(si + 4, Delim::Paren)
                && f.is_ident(si + 5, "unsafe_code")
            {
                found = true;
                break;
            }
        }
        if !found {
            out.push(Finding::new(
                &f.rel,
                1,
                Lint::UnsafeAudit,
                "forbid_unsafe_code",
                "crate root must declare #![forbid(unsafe_code)] (only prlc-gf may hold unsafe)"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// L3: metric-key registry
// ---------------------------------------------------------------------------

/// A metric-key use extracted from a macro call site. `pattern` may
/// contain `*` where a macro argument (`$op`-style placeholder) stood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyUse {
    /// Workspace-relative path of the call site.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which macro was called.
    pub kind: MetricKind,
    /// The key, with `*` wildcards for macro placeholders.
    pub pattern: String,
}

const METRIC_MACROS: &[(&str, MetricKind)] = &[
    ("counter", MetricKind::Counter),
    ("histogram", MetricKind::Histogram),
    ("timer", MetricKind::Timer),
    ("trace_span", MetricKind::Span),
    ("trace_instant", MetricKind::Point),
];

/// Extracts every metric-macro key use from non-test code. A use is
/// the token sequence `<macro-ident>` `!` `(`; macro *definitions*
/// (`macro_rules! counter { … }`) open with a brace and never match,
/// and multi-line call arguments need no special casing — the token
/// stream does not know about lines.
pub fn extract_key_uses(files: &[SourceModel]) -> Vec<KeyUse> {
    let mut out = Vec::new();
    for f in files {
        if f.kind == FileKind::TestOnly {
            continue;
        }
        for si in 0..f.sig_len() {
            let Some(name) = f.ident_at(si) else { continue };
            let Some(&(_, kind)) = METRIC_MACROS.iter().find(|&&(m, _)| m == name) else {
                continue;
            };
            if !(f.is_punct(si + 1, "!") && f.is_open(si + 2, Delim::Paren)) {
                continue;
            }
            if f.in_test(f.tok(si).start) {
                continue;
            }
            let Some(close) = f.close_of(si + 2) else {
                continue;
            };
            if let Some(pattern) = key_argument(f, si + 3, close) {
                out.push(KeyUse {
                    file: f.rel.clone(),
                    line: f.tok(si).line,
                    kind,
                    pattern,
                });
            }
        }
    }
    out
}

/// Builds a key pattern from the macro argument tokens in significant
/// positions `[from, to)`: string literals concatenate (handles
/// `concat!("a.", $op, ".b")`), `$placeholder`s become `*` wildcards,
/// other identifiers (`concat`) are skipped. Only the *first* top-level
/// argument is read — `trace_span!`/`trace_instant!` take ticks and
/// annotations after the name, which must not concatenate into the key
/// (commas inside a nested `concat!(...)` group still join).
fn key_argument(f: &SourceModel, from: usize, to: usize) -> Option<String> {
    let mut key = String::new();
    let mut saw_part = false;
    let mut depth = 0usize;
    let mut si = from;
    while si < to {
        match &f.tok(si).kind {
            TokenKind::Open(_) => depth += 1,
            TokenKind::Close(_) => depth = depth.saturating_sub(1),
            TokenKind::Punct if depth == 0 && f.text_of(si) == "," => break,
            TokenKind::Punct if f.text_of(si) == "$" => {
                key.push('*');
                saw_part = true;
                if f.ident_at(si + 1).is_some() {
                    si += 1; // skip the placeholder name
                }
            }
            TokenKind::Str { value, .. } => {
                key.push_str(value);
                saw_part = true;
            }
            _ => {}
        }
        si += 1;
    }
    saw_part.then(|| {
        // Collapse adjacent wildcards introduced by split placeholders.
        let mut collapsed = String::with_capacity(key.len());
        for c in key.chars() {
            if c == '*' && collapsed.ends_with('*') {
                continue;
            }
            collapsed.push(c);
        }
        collapsed
    })
}

/// L3: cross-check extracted key uses against the registry — every use
/// documented, no dead documented keys, types agree, registry itself
/// well-formed.
pub fn l3_metric_registry(
    files: &[SourceModel],
    metrics_md_rel: &str,
    registry: &Registry,
    out: &mut Vec<Finding>,
) {
    for p in &registry.problems {
        out.push(Finding::new(
            metrics_md_rel,
            p.line,
            Lint::MetricRegistry,
            "registry",
            p.message.clone(),
        ));
    }

    let uses = extract_key_uses(files);
    let mut emitted = vec![false; registry.entries.len()];
    for u in &uses {
        let mut matched_any = false;
        let mut kind_clash: Option<&registry::RegistryEntry> = None;
        for (idx, e) in registry.entries.iter().enumerate() {
            if registry::pattern_matches(&u.pattern, &e.key) {
                if e.kind == u.kind {
                    emitted[idx] = true;
                    matched_any = true;
                } else {
                    kind_clash = Some(e);
                }
            }
        }
        if !matched_any {
            let message = match kind_clash {
                Some(e) => format!(
                    "metric key `{}` is documented as a {} (docs/METRICS.md line {}) but emitted via {}!",
                    u.pattern,
                    e.kind.name(),
                    e.line,
                    u.kind.macro_name()
                ),
                None => format!(
                    "undocumented metric key `{}`: add it to docs/METRICS.md (scheme layer.op[.unit][.backend])",
                    u.pattern
                ),
            };
            out.push(Finding::new(
                &u.file,
                u.line,
                Lint::MetricRegistry,
                &u.pattern,
                message,
            ));
        }
        if !u.pattern.contains('*') {
            if let Err(msg) = registry::check_key_name(&u.pattern) {
                out.push(Finding::new(
                    &u.file,
                    u.line,
                    Lint::MetricRegistry,
                    &u.pattern,
                    msg,
                ));
            }
        }
    }
    for (idx, e) in registry.entries.iter().enumerate() {
        if !emitted[idx] {
            out.push(Finding::new(
                metrics_md_rel,
                e.line,
                Lint::MetricRegistry,
                &e.key,
                format!(
                    "dead registry key `{}`: documented but no {}! call site emits it",
                    e.key,
                    e.kind.macro_name()
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// L4: RNG domain separation in prlc-net
// ---------------------------------------------------------------------------

/// L4: seeded RNG construction in non-test `prlc-net` code must pass
/// its seed through a `mix_*` domain-separation helper (see
/// `fault.rs::mix_fault_seed`) so fault, location and protocol streams
/// can never alias. The token tree makes this stricter than v1: the
/// `mix_*` call must appear *inside the seed argument*, not merely on
/// the same line.
pub fn l4_rng_domain(files: &[SourceModel], out: &mut Vec<Finding>) {
    for f in files {
        if !f.rel.starts_with("crates/net/src/") || f.kind == FileKind::TestOnly {
            continue;
        }
        for si in 0..f.sig_len() {
            let Some(name) = f.ident_at(si) else { continue };
            if name != "seed_from_u64" && name != "from_seed" {
                continue;
            }
            let t = f.tok(si);
            if f.in_test(t.start) {
                continue;
            }
            let mixed = f.is_open(si + 1, Delim::Paren)
                && f.close_of(si + 1).is_some_and(|close| {
                    (si + 2..close).any(|j| f.ident_at(j).is_some_and(|id| id.starts_with("mix_")))
                });
            if !mixed {
                out.push(Finding::new(
                    &f.rel,
                    t.line,
                    Lint::RngDomain,
                    name,
                    format!(
                        "`{name}` in prlc-net must derive its seed through a `mix_*` \
                         domain-separation helper (see fault.rs) so RNG streams cannot alias"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L5: panic hygiene
// ---------------------------------------------------------------------------

/// Crates whose code is front-end/harness rather than library: panics
/// on bad input are their error-reporting mechanism.
const L5_EXEMPT_PREFIXES: &[&str] = &["crates/cli/", "crates/bench/"];

/// L5: no `.unwrap()`/`.expect(` in library (non-test, non-CLI) code —
/// the token sequence `.` `unwrap`/`expect` `(`. Reviewed invariant
/// panics go in the allowlist with a justification.
pub fn l5_panic_hygiene(files: &[SourceModel], out: &mut Vec<Finding>) {
    for f in files {
        if f.kind != FileKind::Lib || L5_EXEMPT_PREFIXES.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        for si in 1..f.sig_len() {
            let Some(name) = f.ident_at(si) else { continue };
            if name != "unwrap" && name != "expect" {
                continue;
            }
            if !(f.is_punct(si - 1, ".") && f.is_open(si + 1, Delim::Paren)) {
                continue;
            }
            let t = f.tok(si);
            if f.in_test(t.start) {
                continue;
            }
            out.push(Finding::new(
                &f.rel,
                t.line,
                Lint::PanicHygiene,
                name,
                format!(
                    "`{name}` in library code: propagate the Result/Option, or add an \
                     allowlist entry with a justification if the panic is a reviewed \
                     invariant"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// L6: RNG-domain registry
// ---------------------------------------------------------------------------

/// One domain tag collected from a `mix_*` helper body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainUse {
    /// Workspace-relative path of the helper.
    pub file: String,
    /// 1-based line of the tag constant.
    pub line: usize,
    /// The `mix_*` function name.
    pub function: String,
    /// Decoded ASCII tag (e.g. `PRLC:FA`).
    pub tag: String,
    /// Normalized hex constant (uppercase, no `0x`/`_`, no leading zeros).
    pub constant: String,
}

/// Decodes a hex integer literal into its ASCII tag: strip `0x`,
/// underscores and any type suffix, take the big-endian bytes with
/// leading zero bytes dropped, and require `min_len..=8` printable
/// ASCII characters.
pub fn decode_ascii_tag(literal: &str, min_len: usize) -> Option<String> {
    let hex = literal.strip_prefix("0x")?;
    let digits: String = hex
        .chars()
        .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    let padded = if digits.len() % 2 == 1 {
        format!("0{digits}")
    } else {
        digits
    };
    let mut bytes: Vec<u8> = padded
        .as_bytes()
        .chunks(2)
        .map(|pair| {
            let s = std::str::from_utf8(pair).ok()?;
            u8::from_str_radix(s, 16).ok()
        })
        .collect::<Option<Vec<u8>>>()?;
    while bytes.first() == Some(&0) {
        bytes.remove(0);
    }
    if bytes.len() < min_len || bytes.len() > 8 {
        return None;
    }
    if !bytes.iter().all(|b| (0x20..=0x7E).contains(b)) {
        return None;
    }
    Some(bytes.iter().map(|&b| b as char).collect())
}

/// Normalizes a hex literal for registry comparison: uppercase digits,
/// no `0x`, `_`, suffix, or leading zeros.
pub fn normalize_hex(literal: &str) -> Option<String> {
    let hex = literal.strip_prefix("0x")?;
    let digits: String = hex
        .chars()
        .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
        .filter(|c| *c != '_')
        .map(|c| c.to_ascii_uppercase())
        .collect();
    let trimmed = digits.trim_start_matches('0');
    Some(if trimmed.is_empty() {
        "0".to_string()
    } else {
        trimmed.to_string()
    })
}

/// Collects the domain tag from every non-test `mix_*` helper and
/// flags malformed declarations: a helper with no decodable ASCII tag
/// XORed into its seed, more than one tag, or a tag whose same-line
/// comment does not quote the decoded string (truth-in-comment).
/// Also flags ASCII-taggable constants XORed *outside* a `mix_*`
/// helper — domain separation must be centralized to stay auditable.
pub fn collect_domain_tags(files: &[SourceModel], out: &mut Vec<Finding>) -> Vec<DomainUse> {
    let mut uses = Vec::new();
    for f in files {
        if f.kind == FileKind::TestOnly {
            continue;
        }
        // Byte spans of mix_* fn bodies, to exempt their constants from
        // the "inline tag" check below.
        let mut mix_spans: Vec<(usize, usize)> = Vec::new();
        for si in 0..f.sig_len() {
            if !f.is_ident(si, "fn") {
                continue;
            }
            let Some(fn_name) = f.ident_at(si + 1) else {
                continue;
            };
            if !fn_name.starts_with("mix_") || f.in_test(f.tok(si).start) {
                continue;
            }
            let fn_name = fn_name.to_string();
            let Some(body) = f.find_body_brace(si + 2) else {
                continue;
            };
            let Some(body_close) = f.close_of(body) else {
                continue;
            };
            mix_spans.push(f.brace_span(body));

            let mut tags: Vec<(usize, String, String)> = Vec::new(); // (line, tag, const)
            for j in body + 1..body_close {
                if f.tok(j).kind != TokenKind::Int {
                    continue;
                }
                let adjacent_xor = f.is_punct(j.saturating_sub(1), "^")
                    || f.is_punct(j + 1, "^")
                    || f.is_punct(j.saturating_sub(1), "^=");
                if !adjacent_xor {
                    continue;
                }
                let lit = f.text_of(j);
                if let (Some(tag), Some(norm)) = (decode_ascii_tag(lit, 2), normalize_hex(lit)) {
                    tags.push((f.tok(j).line, tag, norm));
                }
            }
            match tags.len() {
                0 => out.push(Finding::new(
                    &f.rel,
                    f.tok(si).line,
                    Lint::RngRegistry,
                    &fn_name,
                    format!(
                        "`{fn_name}` has no ASCII domain tag: XOR the seed with a printable \
                         hex constant (e.g. 0x50524C_433A4641 // \"PRLC:FA\") and register it \
                         in docs/RNG_DOMAINS.md"
                    ),
                )),
                1 => {
                    let (line, tag, constant) = tags.remove(0);
                    let commented = f
                        .line_comments()
                        .any(|(l, text)| l == line && text.contains(tag.as_str()));
                    if !commented {
                        out.push(Finding::new(
                            &f.rel,
                            line,
                            Lint::RngRegistry,
                            &fn_name,
                            format!(
                                "domain tag constant in `{fn_name}` decodes to {tag:?} but the \
                                 line carries no comment quoting it; annotate with // {tag:?}"
                            ),
                        ));
                    }
                    uses.push(DomainUse {
                        file: f.rel.clone(),
                        line,
                        function: fn_name,
                        tag,
                        constant,
                    });
                }
                _ => out.push(Finding::new(
                    &f.rel,
                    f.tok(si).line,
                    Lint::RngRegistry,
                    &fn_name,
                    format!(
                        "`{fn_name}` XORs {} ASCII-decodable constants; a mix helper owns \
                         exactly one domain tag",
                        tags.len()
                    ),
                )),
            }
        }

        // Inline tags: a printable >=4-char constant XORed outside any
        // mix_* helper is ad-hoc domain separation.
        for si in 0..f.sig_len() {
            let t = f.tok(si);
            if t.kind != TokenKind::Int || f.in_test(t.start) {
                continue;
            }
            if mix_spans.iter().any(|&(s, e)| t.start >= s && t.start < e) {
                continue;
            }
            let adjacent_xor = f.is_punct(si.saturating_sub(1), "^") || f.is_punct(si + 1, "^");
            if !adjacent_xor {
                continue;
            }
            if let Some(tag) = decode_ascii_tag(f.text_of(si), 4) {
                out.push(Finding::new(
                    &f.rel,
                    t.line,
                    Lint::RngRegistry,
                    &tag,
                    format!(
                        "ASCII domain tag {tag:?} XORed outside a `mix_*` helper; hoist it \
                         into a mix function and register it in docs/RNG_DOMAINS.md"
                    ),
                ));
            }
        }
    }
    uses
}

/// L6: collect every `mix_*` domain tag workspace-wide and cross-check
/// against `docs/RNG_DOMAINS.md` — the L3/METRICS.md pattern applied to
/// seeds. Tags must be unique (colliding tags alias RNG streams),
/// every tag documented with its exact constant/function/file, and
/// every documented row live.
pub fn l6_rng_registry(
    files: &[SourceModel],
    domains_md_rel: &str,
    registry: &DomainRegistry,
    out: &mut Vec<Finding>,
) {
    for p in &registry.problems {
        out.push(Finding::new(
            domains_md_rel,
            p.line,
            Lint::RngRegistry,
            "registry",
            p.message.clone(),
        ));
    }

    let uses = collect_domain_tags(files, out);

    // Uniqueness: two helpers sharing a tag means their streams alias.
    for (i, a) in uses.iter().enumerate() {
        for b in uses.iter().skip(i + 1) {
            if a.tag == b.tag {
                out.push(Finding::new(
                    &b.file,
                    b.line,
                    Lint::RngRegistry,
                    &b.tag,
                    format!(
                        "domain tag {:?} in `{}` collides with `{}` ({}:{}); colliding tags \
                         alias RNG streams",
                        b.tag, b.function, a.function, a.file, a.line
                    ),
                ));
            }
        }
    }

    let mut documented = vec![false; registry.entries.len()];
    for u in &uses {
        match registry.entries.iter().position(|e| e.tag == u.tag) {
            None => out.push(Finding::new(
                &u.file,
                u.line,
                Lint::RngRegistry,
                &u.tag,
                format!(
                    "undocumented domain tag {:?} in `{}`: add a row to docs/RNG_DOMAINS.md",
                    u.tag, u.function
                ),
            )),
            Some(idx) => {
                documented[idx] = true;
                let e = &registry.entries[idx];
                if e.constant != u.constant || e.function != u.function || e.file != u.file {
                    out.push(Finding::new(
                        &u.file,
                        u.line,
                        Lint::RngRegistry,
                        &u.tag,
                        format!(
                            "domain tag {:?} is registered as `0x{}` in `{}` ({}), but the \
                             code has `0x{}` in `{}` ({}); update docs/RNG_DOMAINS.md line {}",
                            u.tag,
                            e.constant,
                            e.function,
                            e.file,
                            u.constant,
                            u.function,
                            u.file,
                            e.line
                        ),
                    ));
                }
            }
        }
    }
    for (idx, e) in registry.entries.iter().enumerate() {
        if !documented[idx] {
            out.push(Finding::new(
                domains_md_rel,
                e.line,
                Lint::RngRegistry,
                &e.tag,
                format!(
                    "dead registry row: domain tag {:?} is documented but no `mix_*` helper \
                     declares it — remove the row or restore the helper",
                    e.tag
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// L7: kernel-dispatch audit
// ---------------------------------------------------------------------------

/// Hot crates whose loops must go through the `GfKernel` slice layer.
const L7_HOT_PREFIXES: &[&str] = &["crates/linalg/src/", "crates/core/src/", "crates/net/src/"];

/// Scalar GF-element methods that a loop body must not call directly —
/// per-element trait dispatch in a loop bypasses the table/SIMD slice
/// kernels. `gf_inv` is excluded: inversion is the inherently scalar
/// pivot operation with no slice form.
const L7_SCALAR_OPS: &[&str] = &["gf_add", "gf_mul", "gf_div", "gf_pow"];

/// L7: flag scalar GF arithmetic (`.gf_add()`, `.gf_mul()`, …) inside
/// `for`/`while`/`loop` bodies in the hot crates. Slice-level work must
/// go through `GfElem::{axpy,scale,add_slice,mul_slice,dot}` so the
/// dispatched kernel (table lookups, SIMD) carries it; reviewed
/// exceptions (e.g. sparse merges with no slice form) go in the
/// allowlist.
pub fn l7_kernel_dispatch(files: &[SourceModel], out: &mut Vec<Finding>) {
    for f in files {
        if f.kind != FileKind::Lib || !L7_HOT_PREFIXES.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        // Collect loop-body byte spans (nested bodies overlap; findings
        // dedup at the report level).
        let mut loop_spans: Vec<(usize, usize)> = Vec::new();
        for si in 0..f.sig_len() {
            let Some(kw) = f.ident_at(si) else { continue };
            if kw != "for" && kw != "while" && kw != "loop" {
                continue;
            }
            if f.in_test(f.tok(si).start) {
                continue;
            }
            // `for`/`while` headers contain no top-level brace (struct
            // literals are illegal there unparenthesized), so the first
            // brace after the keyword — skipping `(…)`/`[…]` groups —
            // is the body.
            if let Some(body) = f.find_body_brace(si + 1) {
                loop_spans.push(f.brace_span(body));
            }
        }
        if loop_spans.is_empty() {
            continue;
        }
        for si in 1..f.sig_len() {
            let Some(name) = f.ident_at(si) else { continue };
            if !L7_SCALAR_OPS.contains(&name) {
                continue;
            }
            if !(f.is_punct(si - 1, ".") && f.is_open(si + 1, Delim::Paren)) {
                continue;
            }
            let t = f.tok(si);
            if f.in_test(t.start) {
                continue;
            }
            if loop_spans.iter().any(|&(s, e)| t.start >= s && t.start < e) {
                out.push(Finding::new(
                    &f.rel,
                    t.line,
                    Lint::KernelDispatch,
                    name,
                    format!(
                        "scalar `{name}` in a hot-crate loop bypasses the GfKernel slice \
                         layer; restructure onto GfElem::{{axpy,scale,add_slice,mul_slice,\
                         dot}} or add an allowlist entry justifying the scalar site"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{parse_metrics_md, parse_rng_domains_md};

    fn lib(rel: &str, src: &str) -> SourceModel {
        SourceModel::parse(rel, FileKind::Lib, src)
    }

    // ---- L1 ----

    #[test]
    fn l1_fires_on_banned_tokens_in_code() {
        let f = lib(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nlet t = Instant::now();\n",
        );
        let mut out = Vec::new();
        l1_determinism(&[f], &mut out);
        let tokens: Vec<&str> = out.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["HashMap", "Instant"]);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn l1_ignores_comments_strings_and_test_code() {
        let f = lib(
            "crates/core/src/x.rs",
            "// HashMap in prose\nlet m = \"an Instant msg\";\nlet r = r#\"SystemTime too\"#;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        );
        let mut out = Vec::new();
        l1_determinism(&[f], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l1_rand_random_needs_the_path_prefix() {
        let fires = lib("crates/core/src/x.rs", "let x = rand::random::<u8>();\n");
        let silent = lib("crates/core/src/y.rs", "let x = my::random();\n");
        let mut out = Vec::new();
        l1_determinism(&[fires, silent], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].token, "rand::random");
    }

    // ---- L2 ----

    #[test]
    fn l2_fires_on_undocumented_unsafe_and_respects_safety_comments() {
        let bad = lib(
            "crates/gf/src/k.rs",
            "fn f(p: *const u8) {\n    unsafe { p.read() };\n}\n",
        );
        let good = lib(
            "crates/gf/src/k2.rs",
            "fn f(p: *const u8) {\n    // SAFETY: p is valid for reads by contract.\n    unsafe { p.read() };\n}\n",
        );
        let mut out = Vec::new();
        l2_unsafe_comments(&[bad, good], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/gf/src/k.rs");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn l2_safety_comment_may_sit_above_attributes() {
        let f = lib(
            "crates/gf/src/k.rs",
            "// SAFETY: callers checked the ssse3 feature.\n#[target_feature(enable = \"ssse3\")]\nunsafe fn kernel() {}\n",
        );
        let mut out = Vec::new();
        l2_unsafe_comments(&[f], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l2_string_unsafe_does_not_fire() {
        let f = lib(
            "crates/gf/src/k.rs",
            "let s = \"unsafe\"; let r = r#\"unsafe\"#;\n",
        );
        let mut out = Vec::new();
        l2_unsafe_comments(&[f], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l2_forbid_attr_required_outside_gf() {
        let with = lib("crates/net/src/lib.rs", "#![forbid(unsafe_code)]\n");
        let without = lib("crates/sim/src/lib.rs", "//! docs only\n");
        let gf = lib("crates/gf/src/lib.rs", "// gf is exempt\n");
        let mut out = Vec::new();
        l2_forbid_unsafe(&[&with, &without, &gf], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/sim/src/lib.rs");
    }

    // ---- L3 ----

    const REG: &str = "\
| `net.collect.blocks` | counter | blocks |
| `gf.axpy.bytes.simd` | counter | bytes |
| `gf.scale.bytes.simd` | counter | bytes |
| `net.collect.query_hops` | histogram | hops |
";

    #[test]
    fn l3_clean_when_uses_match_registry() {
        let f = lib(
            "crates/net/src/c.rs",
            "prlc_obs::counter!(\"net.collect.blocks\").incr();\nprlc_obs::histogram!(\"net.collect.query_hops\").observe(1);\nprlc_obs::counter!(concat!(\"gf.\", $op, \".bytes.simd\"))\n",
        );
        let mut out = Vec::new();
        l3_metric_registry(&[f], "docs/METRICS.md", &parse_metrics_md(REG), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l3_flags_undocumented_dead_and_mistyped_keys() {
        let f = lib(
            "crates/net/src/c.rs",
            "prlc_obs::counter!(\"net.collect.blocks\").incr();\nprlc_obs::counter!(\"net.rogue.key\").incr();\nprlc_obs::counter!(\"net.collect.query_hops\").incr();\nprlc_obs::counter!(\"gf.axpy.bytes.simd\").incr();\n",
        );
        let mut out = Vec::new();
        l3_metric_registry(&[f], "docs/METRICS.md", &parse_metrics_md(REG), &mut out);
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("undocumented metric key `net.rogue.key`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("documented as a histogram") && m.contains("counter!")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("dead registry key `gf.scale.bytes.simd`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn l3_checks_trace_macro_names() {
        let reg = parse_metrics_md(
            "| `net.collect.session` | span | session |\n\
             | `linalg.rref.pivot` | instant | pivot |\n",
        );
        let f = lib(
            "crates/net/src/c.rs",
            "prlc_obs::trace_span!(\"net.collect.session\", a, b, blocks: n as u64);\n\
             prlc_obs::trace_instant!(\"linalg.rref.pivot\", tick, pivot: pc as u64);\n",
        );
        let mut out = Vec::new();
        l3_metric_registry(&[f], "docs/METRICS.md", &reg, &mut out);
        assert!(out.is_empty(), "{out:?}");

        // A span name emitted via trace_instant! is a type clash, and an
        // unregistered name is undocumented.
        let f = lib(
            "crates/net/src/c.rs",
            "prlc_obs::trace_instant!(\"net.collect.session\", t);\n\
             prlc_obs::trace_span!(\"net.rogue.span\", a, b);\n",
        );
        let mut out = Vec::new();
        l3_metric_registry(&[f], "docs/METRICS.md", &reg, &mut out);
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("documented as a span") && m.contains("trace_instant!")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("undocumented metric key `net.rogue.span`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("no trace_span! call site emits it")),
            "{msgs:?}"
        );
    }

    #[test]
    fn key_argument_stops_at_the_first_top_level_comma() {
        // Trailing macro arguments (ticks, annotations) never join the
        // key, but commas inside a nested concat! still do — and a call
        // wrapped across lines parses identically.
        let uses = extract_key_uses(&[lib(
            "crates/net/src/c.rs",
            "counter!(\"net.fault.retry\", self.step as u64, dest: d);\n\
             counter!(concat!(\"gf.\", $op, \".bytes\"), n);\n\
             histogram!(\n    \"net.collect.query_hops\",\n    hops,\n);\n\
             timer!(tick, \"not.the.key\");\n",
        )]);
        let patterns: Vec<&str> = uses.iter().map(|u| u.pattern.as_str()).collect();
        assert_eq!(
            patterns,
            ["net.fault.retry", "gf.*.bytes", "net.collect.query_hops"]
        );
    }

    #[test]
    fn l3_ignores_keys_in_test_code_and_string_mentions() {
        let f = lib(
            "crates/obs/src/lib.rs",
            "// counter!(\"doc.example\") in prose\nlet s = \"counter!(\";\n#[cfg(test)]\nmod tests {\n    fn t() { counter!(\"obs.test.macro\").add(1); }\n}\n",
        );
        let uses = extract_key_uses(&[f]);
        assert!(uses.is_empty(), "{uses:?}");
    }

    #[test]
    fn l3_skips_macro_definitions() {
        let f = lib(
            "crates/obs/src/lib.rs",
            "macro_rules! counter {\n    ($key:expr) => { $crate::metrics::counter($key) };\n}\n",
        );
        let uses = extract_key_uses(&[f]);
        assert!(uses.is_empty(), "{uses:?}");
    }

    // ---- L4 ----

    #[test]
    fn l4_requires_mix_helper_inside_the_seed_argument() {
        let bad = lib(
            "crates/net/src/proto.rs",
            "let rng = StdRng::seed_from_u64(cfg.seed);\n",
        );
        // v1 accepted `mix_` anywhere on the line; v2 requires it in the
        // argument.
        let bad_same_line = lib(
            "crates/net/src/proto2.rs",
            "let m = mix_seed(s); let rng = StdRng::seed_from_u64(raw);\n",
        );
        let good = lib(
            "crates/net/src/fault.rs",
            "let rng = StdRng::seed_from_u64(mix_fault_seed(self.seed));\n",
        );
        let elsewhere = lib(
            "crates/sim/src/runner.rs",
            "let rng = StdRng::seed_from_u64(seed);\n",
        );
        let mut out = Vec::new();
        l4_rng_domain(&[bad, bad_same_line, good, elsewhere], &mut out);
        let files: Vec<&str> = out.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(
            files,
            ["crates/net/src/proto.rs", "crates/net/src/proto2.rs"],
            "{out:?}"
        );
    }

    // ---- L5 ----

    #[test]
    fn l5_fires_in_library_code_only() {
        let libf = lib("crates/core/src/x.rs", "let v = opt.unwrap();\n");
        let cli = lib("crates/cli/src/commands.rs", "let v = opt.unwrap();\n");
        let binf = SourceModel::parse("crates/lint/src/main.rs", FileKind::Bin, "x.unwrap();\n");
        let testf = SourceModel::parse("tests/e2e.rs", FileKind::TestOnly, "x.unwrap();\n");
        let mut out = Vec::new();
        l5_panic_hygiene(&[libf, cli, binf, testf], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/core/src/x.rs");
        assert_eq!(out[0].token, "unwrap");
    }

    #[test]
    fn l5_skips_cfg_test_regions_and_lookalikes() {
        let f = lib(
            "crates/core/src/x.rs",
            "fn ok(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nlet s = \".unwrap()\";\n#[cfg(test)]\nmod tests {\n    fn t() { x.expect(\"fine in tests\"); }\n}\n",
        );
        let mut out = Vec::new();
        l5_panic_hygiene(&[f], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    // ---- L6 ----

    const DOMAINS: &str = "\
| `PRLC:FA` | `0x50524C_433A4641` | `mix_fault_seed` | `crates/net/src/fault.rs` | fault streams |
| `PRLC:LO` | `0x50524C_433A4C4F` | `mix_seed` | `crates/net/src/protocol.rs` | location streams |
";

    const GOOD_MIX: &str = "\
fn mix_fault_seed(seed: u64) -> u64 {\n    let mut z = seed ^ 0x50524C_433A4641; // \"PRLC:FA\"\n    z\n}\n";

    #[test]
    fn l6_clean_when_tags_match_registry() {
        let fault = lib("crates/net/src/fault.rs", GOOD_MIX);
        let proto = lib(
            "crates/net/src/protocol.rs",
            "pub(crate) fn mix_seed(seed: u64) -> u64 {\n    let z = seed ^ 0x50524C_433A4C4F; // \"PRLC:LO\"\n    z\n}\n",
        );
        let mut out = Vec::new();
        l6_rng_registry(
            &[fault, proto],
            "docs/RNG_DOMAINS.md",
            &parse_rng_domains_md(DOMAINS),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l6_flags_undocumented_colliding_and_dead_tags() {
        let fault = lib("crates/net/src/fault.rs", GOOD_MIX);
        // Same tag as mix_fault_seed (collision) and not in the doc
        // under its own name; mix_rogue_seed's tag is undocumented.
        let rogue = lib(
            "crates/net/src/rogue.rs",
            "fn mix_rogue_seed(seed: u64) -> u64 {\n    seed ^ 0x1709 // nonsense\n}\nfn mix_alias_seed(seed: u64) -> u64 {\n    seed ^ 0x50524C_433A4641 // \"PRLC:FA\"\n}\n",
        );
        let mut out = Vec::new();
        l6_rng_registry(
            &[fault, rogue],
            "docs/RNG_DOMAINS.md",
            &parse_rng_domains_md(DOMAINS),
            &mut out,
        );
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("collides with")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("dead registry row")),
            "{msgs:?}"
        );
        // mix_rogue_seed has no decodable tag at all.
        assert!(
            msgs.iter().any(|m| m.contains("no ASCII domain tag")),
            "{msgs:?}"
        );
    }

    #[test]
    fn l6_truth_in_comment_and_constant_mismatch() {
        // Tag decodes to PRLC:FA but the comment claims otherwise.
        let lying = lib(
            "crates/net/src/fault.rs",
            "fn mix_fault_seed(seed: u64) -> u64 {\n    seed ^ 0x50524C_433A4641 // totally not a tag\n}\n",
        );
        let mut out = Vec::new();
        l6_rng_registry(
            &[lying],
            "docs/RNG_DOMAINS.md",
            &parse_rng_domains_md(DOMAINS),
            &mut out,
        );
        assert!(
            out.iter().any(|f| f.message.contains("no comment quoting")),
            "{out:?}"
        );

        // Registered location differs from the code's: the row is
        // internally consistent (constant decodes to its tag), but the
        // helper has moved to another file since it was written down.
        let drifted = lib(
            "crates/net/src/fault.rs",
            "fn mix_fault_seed(seed: u64) -> u64 {\n    seed ^ 0x50524C_433A4642 // \"PRLC:FB\"\n}\n",
        );
        let mut out = Vec::new();
        l6_rng_registry(
            &[drifted],
            "docs/RNG_DOMAINS.md",
            &parse_rng_domains_md("| `PRLC:FB` | `0x50524C_433A4642` | `mix_fault_seed` | `crates/net/src/retired.rs` | drift |\n"),
            &mut out,
        );
        assert!(
            out.iter()
                .any(|f| f.message.contains("update docs/RNG_DOMAINS.md")),
            "{out:?}"
        );
    }

    #[test]
    fn l6_flags_inline_tags_outside_mix_helpers() {
        let f = lib(
            "crates/sim/src/lossy.rs",
            "fn one_run(seed: u64, li: usize) -> u64 {\n    splitmix64(seed ^ splitmix64(0x4C4F_5353 ^ li as u64))\n}\n",
        );
        let mut out = Vec::new();
        let uses = collect_domain_tags(&[f], &mut out);
        assert!(uses.is_empty());
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("hoist"), "{out:?}");
        assert_eq!(out[0].token, "LOSS");
    }

    #[test]
    fn l6_splitmix_constants_are_not_tags() {
        // The SplitMix64 multipliers and golden-ratio increment have
        // non-printable bytes and must never register as tags.
        let f = lib(
            "crates/sim/src/runner.rs",
            "pub fn splitmix64(mut z: u64) -> u64 {\n    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);\n    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);\n    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);\n    z ^ (z >> 31)\n}\n",
        );
        let mut out = Vec::new();
        let uses = collect_domain_tags(&[f], &mut out);
        assert!(uses.is_empty(), "{uses:?}");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn decode_ascii_tags() {
        assert_eq!(
            decode_ascii_tag("0x50524C_433A4641", 2).as_deref(),
            Some("PRLC:FA")
        );
        assert_eq!(decode_ascii_tag("0x4C4F_5353", 4).as_deref(), Some("LOSS"));
        assert_eq!(
            decode_ascii_tag("0x4C4F_5353u64", 4).as_deref(),
            Some("LOSS")
        );
        assert_eq!(decode_ascii_tag("0x0517", 2), None, "non-printable");
        assert_eq!(decode_ascii_tag("0x41", 2), None, "too short");
        assert_eq!(decode_ascii_tag("0x9E37_79B9_7F4A_7C15", 2), None);
        assert_eq!(decode_ascii_tag("42", 2), None, "not hex");
        assert_eq!(normalize_hex("0x00_4C4F_5353").as_deref(), Some("4C4F5353"));
    }

    // ---- L7 ----

    #[test]
    fn l7_fires_on_scalar_gf_ops_in_hot_loops() {
        let f = lib(
            "crates/linalg/src/rowops.rs",
            "fn axpy(data: &mut [G], other: &[G], factor: G) {\n    for i in 0..data.len() {\n        data[i] = data[i].gf_add(factor.gf_mul(other[i]));\n    }\n}\n",
        );
        let mut out = Vec::new();
        l7_kernel_dispatch(&[f], &mut out);
        let tokens: Vec<&str> = out.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["gf_add", "gf_mul"], "{out:?}");
    }

    #[test]
    fn l7_silent_on_slice_kernels_cold_crates_pivots_and_tests() {
        // Slice-level dispatch, straight-line scalar code, gf_inv
        // pivots, non-hot crates, and test code are all fine.
        let slice = lib(
            "crates/linalg/src/rowops.rs",
            "fn axpy(data: &mut [G], other: &[G], factor: G) {\n    G::axpy(data, factor, other);\n}\n",
        );
        let straight = lib(
            "crates/linalg/src/pivot.rs",
            "fn pivot(a: G, b: G) -> Option<G> {\n    let inv = a.gf_inv()?;\n    Some(inv.gf_mul(b))\n}\n",
        );
        let pivot_loop = lib(
            "crates/linalg/src/elim.rs",
            "fn find(rows: &[Row]) -> Option<G> {\n    for r in rows {\n        if let Some(inv) = r.lead.gf_inv() {\n            return Some(inv);\n        }\n    }\n    None\n}\n",
        );
        let cold = lib(
            "crates/gf/src/kernel.rs",
            "fn scalar_axpy(d: &mut [G], c: G, s: &[G]) {\n    for (d, s) in d.iter_mut().zip(s) {\n        *d = d.gf_add(c.gf_mul(*s));\n    }\n}\n",
        );
        let test_code = lib(
            "crates/linalg/src/coeffrow.rs",
            "#[cfg(test)]\nmod tests {\n    fn slow(d: &mut [G], c: G, s: &[G]) {\n        for i in 0..d.len() { d[i] = d[i].gf_add(c.gf_mul(s[i])); }\n    }\n}\n",
        );
        let mut out = Vec::new();
        l7_kernel_dispatch(&[slice, straight, pivot_loop, cold, test_code], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l7_while_loops_and_closures_in_headers() {
        let fires = lib(
            "crates/linalg/src/merge.rs",
            "fn merge(a: &[E], b: &[E], factor: G) {\n    let mut j = 0;\n    while j < b.len() {\n        let v = factor.gf_mul(b[j].1);\n        j += 1;\n    }\n}\n",
        );
        // A closure in the iterator chain of a for-header must not eat
        // the body brace.
        let header_closure = lib(
            "crates/linalg/src/map.rs",
            "fn f(rows: &[Row]) {\n    for x in rows.iter().map(|r| { r.id }) {\n        use_it(x);\n    }\n}\n",
        );
        let mut out = Vec::new();
        l7_kernel_dispatch(&[fires, header_closure], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].token, "gf_mul");
        assert_eq!(out[0].file, "crates/linalg/src/merge.rs");
    }

    #[test]
    fn lint_ids_round_trip() {
        for l in [
            Lint::Allowlist,
            Lint::Determinism,
            Lint::UnsafeAudit,
            Lint::MetricRegistry,
            Lint::RngDomain,
            Lint::PanicHygiene,
            Lint::RngRegistry,
            Lint::KernelDispatch,
        ] {
            assert_eq!(Lint::from_id(l.id()), Some(l));
            let short = l.id().split('-').next().expect("id has a dash");
            assert_eq!(Lint::from_id(short), Some(l));
        }
        assert_eq!(Lint::from_id("L9"), None);
    }
}
