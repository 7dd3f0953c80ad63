//! Perf-baseline envelopes: a zero-dependency JSON reader and the
//! deterministic-vs-environmental envelope differ behind
//! `prlc bench --check`.
//!
//! A `BENCH_*.json` baseline is one JSON object per probe, committed at
//! the repository root and regenerated by `prlc bench`. Its fields fall
//! into two classes (see DESIGN.md, "Perf baselines & regression
//! gating"):
//!
//! * **deterministic** — results series, logical metrics (counters,
//!   histograms, percentiles), trace digests, probe configs. For a
//!   pinned seed these are byte-identical across worker thread counts
//!   and kernel backends, so the differ compares them
//!   **exactly** (numbers by `f64` bit pattern, everything else by
//!   value) and any drift is a regression finding;
//! * **environmental** — throughput (MB/s) and wall-clock (ms)
//!   measurements, plus pure environment labels (backend name, thread
//!   count). Measurements are checked inside a configurable
//!   multiplicative tolerance band and always reported as signed
//!   deltas; labels are reported but can never fail a check.
//!
//! The classification is **by key name**, not by position, so new
//! fields inherit the right treatment from their naming:
//! `mb_s`/`symbol_throughput_mb_s` are throughput,
//! `wall_ms`/`run_wall_ms_total` are wall-clock,
//! `kernel_backend`/`threads`/`timers` are labels, and
//! every other key is deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// The baseline schema version this reader understands. `prlc bench`
/// stamps it into every envelope it writes; [`diff_envelopes`] rejects
/// any other value with a [`FindingKind::SchemaVersion`] finding
/// instead of producing meaningless field diffs.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// The key carrying [`BENCH_SCHEMA_VERSION`] in every envelope.
pub const SCHEMA_VERSION_KEY: &str = "bench_schema_version";

// ---------------------------------------------------------------------------
// JSON value model & parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object member order is preserved (envelopes are
/// written with deterministic key order, and diff output follows it).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept with its source text so re-rendering an envelope
    /// is byte-faithful.
    Num(Number),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered member list.
    Obj(Vec<(String, Json)>),
}

/// A JSON number: the parsed `f64` alongside the raw source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Number {
    /// The source spelling, e.g. `"2.950000"`.
    pub raw: String,
    /// The parsed value.
    pub value: f64,
}

impl Json {
    /// An unsigned integer, spelled in full (a 64-bit track id keeps
    /// every digit even where its `f64` value rounds).
    pub fn uint(v: u64) -> Json {
        Json::Num(Number {
            raw: v.to_string(),
            value: v as f64,
        })
    }

    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A measurement rendered with `decimals` fixed decimals, or `null`
    /// when it is non-finite (a zero-duration or failed measurement):
    /// `{:.1}` would print `NaN`/`inf`, which is not JSON.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(Number {
                raw: format!("{v:.decimals$}"),
                value: v,
            })
        } else {
            Json::Null
        }
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable member lookup on an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON. Numbers keep their
    /// source spelling, so `parse` → `render` round-trips the document
    /// modulo insignificant whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.raw),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_seq(out, ['[', ']'], items, |out, item| item.render_into(out))
            }
            Json::Obj(members) => write_seq(out, ['{', '}'], members, |out, (k, v)| {
                write_str(out, k);
                out.push(':');
                v.render_into(out);
            }),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// A short human rendering for findings: scalars verbatim,
    /// containers summarised by size.
    fn summary(&self) -> String {
        match self {
            Json::Arr(items) => format!("[{} items]", items.len()),
            Json::Obj(members) => format!("{{{} keys}}", members.len()),
            other => other.render(),
        }
    }
}

/// Nesting depth beyond which [`parse_json`] gives up. Envelopes nest a
/// handful of levels; the cap keeps hostile input from exhausting the
/// stack of the recursive parser.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. The whole input must be consumed (trailing
/// whitespace allowed).
///
/// # Errors
///
/// Returns a byte-offset-annotated message on malformed input, or on
/// arrays and objects nested deeper than 128 levels.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text,
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// A recursive-descent reader. `i` only ever advances past ASCII bytes
/// or whole `char`s of `s`, so it always sits on a `char` boundary.
struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    /// Parses one array or object one nesting level down.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b".eE+-".contains(c))
        {
            self.i += 1;
        }
        let raw = &self.s[start..self.i];
        let value: f64 = raw
            .parse()
            .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
        Ok(Json::Num(Number {
            raw: raw.to_string(),
            value,
        }))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Envelopes only escape control characters;
                            // surrogate pairs are not produced by our
                            // writers, so map them to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?} at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Take one scalar from the source text; `i` is on a
                    // char boundary, so the lookup costs O(1).
                    let ch = self
                        .s
                        .get(self.i..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("unterminated string")?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a hash of `bytes`: the digests here and the shard and
/// manifest checksums of the `prlc` container format.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a digest of a string, rendered as `"fnv1a:<16 hex>"`.
/// Used to pin large deterministic artifacts (full trace dumps) inside
/// a baseline without committing their bytes.
pub fn digest64(text: &str) -> String {
    format!("fnv1a:{:016x}", fnv1a64(text.as_bytes()))
}

/// Checks a golden test's digests against its golden file, which must
/// equal their listing byte for byte: one `<key> fnv1a:<16 hex>` line
/// per key of `got`, in key order. On a difference the listing is
/// written to `listing` (re-pinning is copying it over the golden file)
/// and the error is a `key pinned current` table of the moved, missing
/// and extra digests, or names the first line that differs.
pub fn check_golden(
    golden: &str,
    got: &BTreeMap<String, String>,
    listing: &Path,
) -> Result<(), String> {
    let current: String = got.iter().map(|(k, d)| format!("{k} {d}\n")).collect();
    let Some(report) = golden_report(golden, &current, got) else {
        return Ok(());
    };
    let shown = listing.display();
    let dir = listing.parent().map_or(Ok(()), std::fs::create_dir_all);
    Err(match dir.and_then(|()| std::fs::write(listing, current)) {
        Ok(()) => format!("{report}\nre-pin: copy {shown} over the golden file"),
        Err(e) => format!("{report}\ncannot write {shown}: {e}"),
    })
}

/// Why `golden` differs from the `current` listing of `got`, if it does.
fn golden_report(golden: &str, current: &str, got: &BTreeMap<String, String>) -> Option<String> {
    if golden == current {
        return None;
    }
    let pinned: BTreeMap<&str, &str> = golden.lines().filter_map(|l| l.split_once(' ')).collect();
    let keys = pinned.keys().copied().chain(got.keys().map(String::as_str));
    let rows: Vec<[&str; 3]> = keys
        .collect::<BTreeSet<_>>()
        .into_iter()
        .map(|k| {
            let new = got.get(k).map_or("-", String::as_str);
            [k, pinned.get(k).copied().unwrap_or("-"), new]
        })
        .filter(|[_, old, new]| old != new)
        .collect();
    if !rows.is_empty() {
        let w = rows.iter().map(|[k, ..]| k.len()).max().unwrap_or(0);
        let mut table = format!("{} golden digest(s) differ:\n", rows.len());
        table += &format!("{:w$}  {:22}  current", "key", "pinned");
        for [k, old, new] in rows {
            table += &format!("\n{k:w$}  {old:22}  {new}");
        }
        return Some(table);
    }
    let same = golden
        .lines()
        .zip(current.lines())
        .take_while(|(g, c)| g == c)
        .count();
    let n = same + 1;
    Some(format!(
        "golden line {n} differs from the listing: it repeats, is out of order or is malformed"
    ))
}

/// Panics with [`check_golden`]'s report unless the digests `$got`
/// match the golden file `$file`, a path relative to the calling test
/// file; the current listing goes to the same relative path under the
/// test crate's `CARGO_TARGET_TMPDIR`.
#[macro_export]
macro_rules! assert_golden {
    ($file:literal, $got:expr) => {
        let listing = ::std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join($file);
        let checked = $crate::baseline::check_golden(include_str!($file), &$got, &listing);
        if let Err(report) = checked {
            panic!("{report}");
        }
    };
}

// ---------------------------------------------------------------------------
// Field classification
// ---------------------------------------------------------------------------

/// How the differ treats a field, decided by its object key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldClass {
    /// Exact comparison; any drift is a regression finding.
    Deterministic,
    /// Throughput measurement (MB/s): tolerance-banded, signed delta.
    Throughput,
    /// Wall-clock measurement (ms): tolerance-banded, signed delta.
    WallClock,
    /// Pure environment label: reported, never failing.
    Label,
}

/// Classifies an object key. The entire subtree under a
/// [`FieldClass::Label`] key (e.g. `timers`) is treated as a label.
pub fn classify_key(key: &str) -> FieldClass {
    match key {
        "mb_s" | "symbol_throughput_mb_s" => FieldClass::Throughput,
        "wall_ms" | "run_wall_ms_total" => FieldClass::WallClock,
        "kernel_backend" | "threads" | "timers" => FieldClass::Label,
        _ => FieldClass::Deterministic,
    }
}

/// Multiplicative tolerance bands for the environmental measurements.
/// A current value `c` against a baseline `b > 0` is in band when
/// `b / factor <= c <= b * factor` (inclusive at both edges).
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Band factor for [`FieldClass::Throughput`] fields.
    pub throughput_factor: f64,
    /// Band factor for [`FieldClass::WallClock`] fields.
    pub wall_factor: f64,
}

impl Default for Tolerances {
    /// Wide defaults, sized for comparing runs across machine classes:
    /// throughput within 25x either way, wall-clock within 100x. Tight
    /// enough to catch a complexity-class regression (an `O(N)` path
    /// going `O(N^2)` at `N = 10^5`), loose enough that a laptop
    /// baseline checks clean on a CI runner.
    fn default() -> Self {
        Tolerances {
            throughput_factor: 25.0,
            wall_factor: 100.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Findings & deltas
// ---------------------------------------------------------------------------

/// What went wrong at one field. Every variant fails the check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The envelope's `bench_schema_version` is missing or unsupported.
    SchemaVersion,
    /// A deterministic key present in the baseline is absent now.
    MissingKey,
    /// A deterministic key absent from the baseline appeared.
    ExtraKey,
    /// The two sides hold different JSON types.
    TypeMismatch,
    /// A deterministic field changed value.
    DeterministicDrift,
    /// A throughput measurement left its tolerance band (or became
    /// unmeasurable where the baseline had a value).
    ThroughputOutOfBand,
    /// A wall-clock measurement left its tolerance band.
    WallClockOutOfBand,
}

impl FindingKind {
    /// Stable machine-readable code, used in the findings JSON and
    /// grepped by the CI negative step.
    pub fn code(self) -> &'static str {
        match self {
            FindingKind::SchemaVersion => "schema-version",
            FindingKind::MissingKey => "missing-key",
            FindingKind::ExtraKey => "extra-key",
            FindingKind::TypeMismatch => "type-mismatch",
            FindingKind::DeterministicDrift => "deterministic-drift",
            FindingKind::ThroughputOutOfBand => "throughput-out-of-band",
            FindingKind::WallClockOutOfBand => "wall-clock-out-of-band",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One failing field.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Probe the envelope belongs to.
    pub probe: String,
    /// Dotted field path, e.g. `results[3].levels_mean`, or
    /// `results[gf/scale_4096_dispatched].mb_s` for a row that carries
    /// a `row` name.
    pub path: String,
    /// Failure class.
    pub kind: FindingKind,
    /// Baseline-side rendering (`"absent"` for extra keys).
    pub baseline: String,
    /// Current-side rendering (`"absent"` for missing keys).
    pub current: String,
}

/// One environmental comparison, in or out of band — the rows of the
/// run-delta table.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Probe the envelope belongs to.
    pub probe: String,
    /// Dotted field path.
    pub path: String,
    /// Baseline-side rendering.
    pub baseline: String,
    /// Current-side rendering.
    pub current: String,
    /// Signed relative change in percent, when both sides are numbers.
    pub delta_pct: Option<f64>,
    /// Whether the field passed its band (labels always pass).
    pub in_band: bool,
}

/// The diff of one probe envelope against its baseline.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Probe name.
    pub probe: String,
    /// Failing fields (empty for a clean check).
    pub findings: Vec<Finding>,
    /// Environmental deltas, including in-band ones.
    pub deltas: Vec<Delta>,
}

impl DiffReport {
    /// `true` when no finding fired.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The differ
// ---------------------------------------------------------------------------

/// Diffs a current probe envelope against its committed baseline.
/// Deterministic fields must match exactly; environmental measurements
/// are banded by `tol`; labels are reported only. Both documents must
/// carry a supported [`SCHEMA_VERSION_KEY`] — an unknown version on
/// either side short-circuits into a single
/// [`FindingKind::SchemaVersion`] finding.
///
/// # Errors
///
/// Returns `Err` when either document is not well-formed JSON (a
/// corrupt baseline is an I/O-level problem, not a perf regression).
pub fn diff_envelopes(
    probe: &str,
    baseline_text: &str,
    current_text: &str,
    tol: &Tolerances,
) -> Result<DiffReport, String> {
    let baseline = parse_json(baseline_text).map_err(|e| format!("baseline for {probe}: {e}"))?;
    let current = parse_json(current_text).map_err(|e| format!("current for {probe}: {e}"))?;
    Ok(diff_values(probe, &baseline, &current, tol))
}

/// [`diff_envelopes`] over already-parsed documents.
pub fn diff_values(probe: &str, baseline: &Json, current: &Json, tol: &Tolerances) -> DiffReport {
    let mut report = DiffReport {
        probe: probe.to_string(),
        ..DiffReport::default()
    };
    for (side, doc) in [("baseline", baseline), ("current", current)] {
        match doc.get(SCHEMA_VERSION_KEY) {
            Some(Json::Num(n)) if n.value == BENCH_SCHEMA_VERSION as f64 => {}
            other => {
                report.findings.push(Finding {
                    probe: probe.to_string(),
                    path: format!("{SCHEMA_VERSION_KEY} ({side})"),
                    kind: FindingKind::SchemaVersion,
                    baseline: format!("supported version {BENCH_SCHEMA_VERSION}"),
                    current: other.map_or_else(|| "absent".to_string(), Json::summary),
                });
                return report;
            }
        }
    }
    let mut d = Differ {
        probe,
        tol,
        report: &mut report,
    };
    d.walk("", FieldClass::Deterministic, baseline, current);
    report
}

struct Differ<'a> {
    probe: &'a str,
    tol: &'a Tolerances,
    report: &'a mut DiffReport,
}

impl Differ<'_> {
    fn finding(&mut self, path: &str, kind: FindingKind, baseline: String, current: String) {
        self.report.findings.push(Finding {
            probe: self.probe.to_string(),
            path: path.to_string(),
            kind,
            baseline,
            current,
        });
    }

    fn delta(&mut self, path: &str, base: &Json, cur: &Json, pct: Option<f64>, in_band: bool) {
        self.report.deltas.push(Delta {
            probe: self.probe.to_string(),
            path: path.to_string(),
            baseline: base.summary(),
            current: cur.summary(),
            delta_pct: pct,
            in_band,
        });
    }

    fn walk(&mut self, path: &str, class: FieldClass, base: &Json, cur: &Json) {
        match class {
            FieldClass::Label => {
                // Environment labels (and whole label subtrees like
                // `timers`) are reported when they differ, never failed.
                if base != cur {
                    self.delta(path, base, cur, None, true);
                }
            }
            FieldClass::Throughput | FieldClass::WallClock => {
                self.banded(path, class, base, cur);
            }
            FieldClass::Deterministic => self.exact(path, base, cur),
        }
    }

    /// Tolerance-banded comparison of an environmental measurement.
    /// `null` encodes "unmeasurable" (a non-finite measurement, PR 2):
    /// a baseline `null` accepts anything; losing a measurement that
    /// the baseline had is out of band.
    fn banded(&mut self, path: &str, class: FieldClass, base: &Json, cur: &Json) {
        let kind = if class == FieldClass::Throughput {
            FindingKind::ThroughputOutOfBand
        } else {
            FindingKind::WallClockOutOfBand
        };
        let factor = if class == FieldClass::Throughput {
            self.tol.throughput_factor
        } else {
            self.tol.wall_factor
        };
        match (base, cur) {
            (Json::Null, _) => self.delta(path, base, cur, None, true),
            (Json::Num(_), Json::Null) => {
                self.delta(path, base, cur, None, false);
                self.finding(
                    path,
                    kind,
                    base.summary(),
                    "null (unmeasurable)".to_string(),
                );
            }
            (Json::Num(b), Json::Num(c)) => {
                let pct = if b.value != 0.0 {
                    Some((c.value - b.value) / b.value * 100.0)
                } else {
                    None
                };
                let in_band = if b.value > 0.0 {
                    c.value >= b.value / factor && c.value <= b.value * factor
                } else {
                    // Measurements are positive by construction; treat a
                    // zero/negative baseline as unbandable but present.
                    c.value == b.value
                };
                self.delta(path, base, cur, pct, in_band);
                if !in_band {
                    self.finding(path, kind, b.raw.clone(), c.raw.clone());
                }
            }
            _ => self.finding(
                path,
                FindingKind::TypeMismatch,
                format!("{} ({})", base.summary(), base.type_name()),
                format!("{} ({})", cur.summary(), cur.type_name()),
            ),
        }
    }

    /// Exact comparison of a deterministic field.
    fn exact(&mut self, path: &str, base: &Json, cur: &Json) {
        match (base, cur) {
            (Json::Obj(bm), Json::Obj(_)) => {
                for (key, bval) in bm {
                    let child = join(path, key);
                    let class = classify_key(key);
                    match cur.get(key) {
                        Some(cval) => self.walk(&child, class, bval, cval),
                        None if class == FieldClass::Deterministic => self.finding(
                            &child,
                            FindingKind::MissingKey,
                            bval.summary(),
                            "absent".to_string(),
                        ),
                        None => self.delta(&child, bval, &Json::Null, None, true),
                    }
                }
                if let Json::Obj(cm) = cur {
                    for (key, cval) in cm {
                        if base.get(key).is_none() {
                            let child = join(path, key);
                            if classify_key(key) == FieldClass::Deterministic {
                                self.finding(
                                    &child,
                                    FindingKind::ExtraKey,
                                    "absent".to_string(),
                                    cval.summary(),
                                );
                            } else {
                                self.delta(&child, &Json::Null, cval, None, true);
                            }
                        }
                    }
                }
            }
            (Json::Arr(bi), Json::Arr(ci)) => {
                if bi.len() != ci.len() {
                    self.finding(
                        &format!("{path}.length"),
                        FindingKind::DeterministicDrift,
                        bi.len().to_string(),
                        ci.len().to_string(),
                    );
                }
                for (i, (bv, cv)) in bi.iter().zip(ci.iter()).enumerate() {
                    // A probe row that names itself (`"row":"gf/..."`)
                    // is addressed by that name, so a finding says
                    // which layer moved; other elements by their index.
                    let label = match bv.get("row") {
                        Some(Json::Str(name)) => name.clone(),
                        _ => i.to_string(),
                    };
                    self.exact(&format!("{path}[{label}]"), bv, cv);
                }
            }
            (Json::Num(b), Json::Num(c)) => {
                // Compare by f64 bit pattern, not source text, so a
                // formatting-only change ("2.95" vs "2.950000") is not
                // a drift but any value change — however small — is.
                if b.value.to_bits() != c.value.to_bits() {
                    self.finding(
                        path,
                        FindingKind::DeterministicDrift,
                        b.raw.clone(),
                        c.raw.clone(),
                    );
                }
            }
            (Json::Null, Json::Null) => {}
            (Json::Bool(b), Json::Bool(c)) if b == c => {}
            (Json::Str(b), Json::Str(c)) if b == c => {}
            (Json::Bool(_), Json::Bool(_)) | (Json::Str(_), Json::Str(_)) => self.finding(
                path,
                FindingKind::DeterministicDrift,
                base.summary(),
                cur.summary(),
            ),
            _ => self.finding(
                path,
                FindingKind::TypeMismatch,
                format!("{} ({})", base.summary(), base.type_name()),
                format!("{} ({})", cur.summary(), cur.type_name()),
            ),
        }
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Writes `s` as a JSON string: quotes, backslashes and control
/// characters escaped, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `items` between the two `brackets`, comma-separated — the
/// one place a separator is decided.
fn write_seq<T>(
    out: &mut String,
    brackets: [char; 2],
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    out.push(brackets[0]);
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(brackets[1]);
}

/// Renders `{"<key>":[<items>]}`, building, rendering and dropping one
/// item at a time, so a large array never exists as one tree: the same
/// bytes as `Json::obj([(key, Json::Arr(items))]).render()`. The trace
/// exporters stream their tracks and events through it.
pub fn render_array_object(key: &str, items: impl IntoIterator<Item = Json>) -> String {
    let mut out = String::new();
    write_seq(&mut out, ['{', '}'], [(key, items)], |out, (key, items)| {
        write_str(out, key);
        out.push(':');
        write_seq(out, ['[', ']'], items, |out, item| item.render_into(out));
    });
    out
}

/// Renders an envelope: the [`SCHEMA_VERSION_KEY`] stamp first, then
/// `members` in order, each value JSON already rendered by
/// [`Json::render`] (a trace dump or metrics snapshot is rendered once
/// and reused verbatim). The one writer of the format this module
/// reads — `prlc bench` probes, `prlc sim --bench-out` and
/// [`findings_json`] all go through it.
pub fn envelope_json(members: &[(&str, String)]) -> String {
    let stamp = Json::uint(BENCH_SCHEMA_VERSION).render();
    let members = members.iter().map(|(k, v)| (*k, v.as_str()));
    let mut out = String::new();
    write_seq(
        &mut out,
        ['{', '}'],
        std::iter::once((SCHEMA_VERSION_KEY, stamp.as_str())).chain(members),
        |out, (key, value)| {
            write_str(out, key);
            out.push(':');
            out.push_str(value);
        },
    );
    out
}

/// Renders the findings and the full delta list of several probe
/// reports as one deterministic JSON document (walk order, no
/// timestamps) — the `prlc bench --check --report FILE` artifact.
pub fn findings_json(reports: &[DiffReport]) -> String {
    let text = |v: &str| Json::Str(v.to_string());
    let findings = reports.iter().flat_map(|r| &r.findings).map(|f| {
        Json::Obj(vec![
            ("probe".into(), text(&f.probe)),
            ("kind".into(), text(f.kind.code())),
            ("path".into(), text(&f.path)),
            ("baseline".into(), text(&f.baseline)),
            ("current".into(), text(&f.current)),
        ])
    });
    let deltas = reports.iter().flat_map(|r| &r.deltas).map(|d| {
        Json::Obj(vec![
            ("probe".into(), text(&d.probe)),
            ("path".into(), text(&d.path)),
            ("baseline".into(), text(&d.baseline)),
            ("current".into(), text(&d.current)),
            (
                "delta_pct".into(),
                d.delta_pct.map_or(Json::Null, |p| Json::fixed(p, 2)),
            ),
            ("in_band".into(), Json::Bool(d.in_band)),
        ])
    });
    envelope_json(&[
        ("findings", Json::Arr(findings.collect()).render()),
        ("deltas", Json::Arr(deltas.collect()).render()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn versioned(body: &str) -> String {
        format!("{{\"bench_schema_version\":1,{body}}}")
    }

    fn diff(b: &str, c: &str) -> DiffReport {
        diff_envelopes("test", b, c, &Tolerances::default()).expect("parse")
    }

    fn diff_tol(b: &str, c: &str, tol: Tolerances) -> DiffReport {
        diff_envelopes("test", b, c, &tol).expect("parse")
    }

    #[test]
    fn parse_render_round_trip() {
        let doc = r#"{"a":[1,2.50,null,true,"x\"y"],"b":{"c":-3.0e2},"d":{}}"#;
        let v = parse_json(doc).expect("parse");
        assert_eq!(
            v.render(),
            "{\"a\":[1,2.50,null,true,\"x\\\"y\"],\"b\":{\"c\":-3.0e2},\"d\":{}}"
        );
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1").is_err());
        assert!(parse_json("{} garbage").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        assert!(parse_json(&deep).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let over = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn long_strings_parse_back_equal() {
        let long: String = "aé\"\\\n€x".chars().cycle().take(1_000_000).collect();
        let doc = Json::Str(long.clone()).render();
        assert_eq!(parse_json(&doc), Ok(Json::Str(long)));
    }

    #[test]
    fn envelope_json_stamps_schema_first_and_keeps_member_order() {
        let members = [
            ("zeta", "1".to_string()),
            ("alpha", "{\"x\":[1,2]}".to_string()),
            ("results", "[]".to_string()),
        ];
        let text = envelope_json(&members);
        assert!(text.starts_with("{\"bench_schema_version\":1,"), "{text}");
        let doc = parse_json(&text).expect("envelope parses");
        let Json::Obj(parsed) = doc else {
            panic!("not an object: {text}");
        };
        let keys: Vec<&str> = parsed.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, [SCHEMA_VERSION_KEY, "zeta", "alpha", "results"]);
        assert_eq!(parsed[2].1.render(), "{\"x\":[1,2]}");
        assert_eq!(envelope_json(&[]), "{\"bench_schema_version\":1}");
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        assert_eq!(digest64(""), "fnv1a:cbf29ce484222325");
        assert_eq!(digest64("abc"), digest64("abc"));
        assert_ne!(digest64("abc"), digest64("abd"));
    }

    const A: &str = "fnv1a:00000000000000aa";
    const B: &str = "fnv1a:00000000000000bb";

    fn a_and_b() -> BTreeMap<String, String> {
        [("a", A), ("b", B)]
            .map(|(k, d)| (k.to_string(), d.to_string()))
            .into()
    }

    fn report(golden: &str) -> Option<String> {
        golden_report(golden, &format!("a {A}\nb {B}\n"), &a_and_b())
    }

    #[test]
    fn golden_mismatch_is_one_table_row_naming_the_key() {
        assert_eq!(report(&format!("a {A}\nb {B}\n")), None);
        for (golden, row) in [
            (format!("a {A}\nb {A}\n"), ["b", A, B]),          // moved
            (format!("a {A}\n"), ["b", "-", B]),               // missing
            (format!("a {A}\nb {B}\nc {A}\n"), ["c", A, "-"]), // extra
            (format!("a {A}\nb fnv1a:BB\n"), ["b", "fnv1a:BB", B]), // malformed digest
            (format!("a {A}\nb\t{B}\n"), ["b", "-", B]),       // malformed line
        ] {
            let err = report(&golden).expect("differs");
            let rows: Vec<Vec<&str>> = err
                .lines()
                .skip(2)
                .map(|l| l.split_whitespace().collect())
                .collect();
            assert_eq!(rows, [row], "{err}");
        }
    }

    #[test]
    fn golden_lines_out_of_place_are_named() {
        for (golden, line) in [
            (format!("a {A}\na {A}\nb {B}\n"), 2), // repeated
            (format!("b {B}\na {A}\n"), 1),        // unsorted
            (format!("a {A}\n\nb {B}\n"), 2),      // blank
            (format!("a {A}\nb {B}"), 3),          // no final newline
            (format!("a {A}\nb {B}\n\n"), 3),      // trailing blank line
        ] {
            let err = report(&golden).expect("differs");
            assert!(
                err.starts_with(&format!("golden line {line} differs")),
                "{golden:?}: {err}"
            );
        }
        assert!(report("é fnv1a:ééééééééééééééé\n").is_some());
    }

    #[test]
    fn failed_check_writes_the_listing_that_re_pins_it() {
        let dir = std::env::temp_dir().join(format!("prlc-golden-{}", std::process::id()));
        let listing = dir.join("suite.txt");
        let err = check_golden(&format!("a {B}\n"), &a_and_b(), &listing).unwrap_err();
        let written = std::fs::read_to_string(&listing);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.contains(&listing.display().to_string()), "{err}");
        let written = written.expect("listing written");
        assert_eq!(written, format!("a {A}\nb {B}\n"));
        assert_eq!(check_golden(&written, &a_and_b(), &listing), Ok(()));
    }

    #[test]
    fn identical_envelopes_are_clean() {
        let doc = versioned(
            "\"probe\":\"t\",\"results\":[{\"epoch\":0,\"levels_mean\":2.950000}],\
             \"run_metadata\":{\"kernel_backend\":\"simd(avx2)\",\"threads\":4,\
             \"symbol_throughput_mb_s\":18236.6},\"wall_ms\":100.0",
        );
        let r = diff(&doc, &doc);
        assert!(r.clean(), "{:?}", r.findings);
        // Self-diff deltas are all zero-change.
        assert!(r.deltas.iter().all(|d| d.delta_pct == Some(0.0)));
    }

    #[test]
    fn formatting_only_numeric_change_is_not_drift() {
        let b = versioned("\"x\":2.95");
        let c = versioned("\"x\":2.950000");
        assert!(diff(&b, &c).clean());
    }

    /// Satellite: table-driven differ coverage — exact-field drift,
    /// band edges, null throughput, missing/extra keys.
    #[test]
    fn table_driven_cases() {
        struct Case {
            name: &'static str,
            baseline: String,
            current: String,
            expect: Option<FindingKind>,
        }
        let t = |v: f64| versioned(&format!("\"mb_s\":{v}"));
        let w = |v: f64| versioned(&format!("\"wall_ms\":{v}"));
        let cases = [
            Case {
                name: "deterministic drift",
                baseline: versioned("\"results\":[{\"levels_mean\":2.950000}]"),
                current: versioned("\"results\":[{\"levels_mean\":2.850000}]"),
                expect: Some(FindingKind::DeterministicDrift),
            },
            Case {
                name: "deterministic string drift",
                baseline: versioned("\"probe\":\"timeline\""),
                current: versioned("\"probe\":\"lossy\""),
                expect: Some(FindingKind::DeterministicDrift),
            },
            Case {
                name: "array length drift",
                baseline: versioned("\"results\":[1,2,3]"),
                current: versioned("\"results\":[1,2]"),
                expect: Some(FindingKind::DeterministicDrift),
            },
            Case {
                name: "throughput exactly at upper band edge passes",
                baseline: t(100.0),
                current: t(100.0 * 25.0),
                expect: None,
            },
            Case {
                name: "throughput exactly at lower band edge passes",
                baseline: t(100.0),
                current: t(100.0 / 25.0),
                expect: None,
            },
            Case {
                name: "throughput just outside upper edge fails",
                baseline: t(100.0),
                current: t(100.0 * 25.0 + 0.1),
                expect: Some(FindingKind::ThroughputOutOfBand),
            },
            Case {
                name: "throughput just outside lower edge fails",
                baseline: t(100.0),
                current: t(100.0 / 25.0 - 0.1),
                expect: Some(FindingKind::ThroughputOutOfBand),
            },
            Case {
                name: "wall-clock out of band fails with its own kind",
                baseline: w(10.0),
                current: w(10.0 * 100.0 + 1.0),
                expect: Some(FindingKind::WallClockOutOfBand),
            },
            Case {
                name: "null baseline throughput accepts any current",
                baseline: versioned("\"mb_s\":null"),
                current: t(5.0),
                expect: None,
            },
            Case {
                name: "both null throughput is clean",
                baseline: versioned("\"mb_s\":null"),
                current: versioned("\"mb_s\":null"),
                expect: None,
            },
            Case {
                name: "losing a measured throughput fails",
                baseline: t(100.0),
                current: versioned("\"mb_s\":null"),
                expect: Some(FindingKind::ThroughputOutOfBand),
            },
            Case {
                name: "missing deterministic key",
                baseline: versioned("\"results\":[],\"trace_digest\":\"0xabc\""),
                current: versioned("\"results\":[]"),
                expect: Some(FindingKind::MissingKey),
            },
            Case {
                name: "extra deterministic key",
                baseline: versioned("\"results\":[]"),
                current: versioned("\"results\":[],\"surprise\":1"),
                expect: Some(FindingKind::ExtraKey),
            },
            Case {
                name: "missing environmental key is tolerated",
                baseline: versioned("\"results\":[],\"run_wall_ms_total\":5.0"),
                current: versioned("\"results\":[]"),
                expect: None,
            },
            Case {
                name: "type mismatch",
                baseline: versioned("\"results\":[1]"),
                current: versioned("\"results\":[\"1\"]"),
                expect: Some(FindingKind::TypeMismatch),
            },
            Case {
                name: "label change never fails",
                baseline: versioned(
                    "\"run_metadata\":{\"kernel_backend\":\"scalar\",\"threads\":1}",
                ),
                current: versioned(
                    "\"run_metadata\":{\"kernel_backend\":\"simd(avx2)\",\"threads\":4}",
                ),
                expect: None,
            },
        ];
        for case in cases {
            let r = diff(&case.baseline, &case.current);
            match case.expect {
                None => assert!(r.clean(), "{}: unexpected {:?}", case.name, r.findings),
                Some(kind) => {
                    assert_eq!(r.findings.len(), 1, "{}: {:?}", case.name, r.findings);
                    assert_eq!(r.findings[0].kind, kind, "{}", case.name);
                }
            }
        }
    }

    #[test]
    fn tolerance_is_configurable() {
        let tight = Tolerances {
            throughput_factor: 1.1,
            wall_factor: 1.1,
        };
        let b = versioned("\"mb_s\":100.0");
        let c = versioned("\"mb_s\":120.0");
        assert!(diff(&b, &c).clean());
        let r = diff_tol(&b, &c, tight);
        assert_eq!(r.findings[0].kind, FindingKind::ThroughputOutOfBand);
        // The delta is reported either way, with the same signed value.
        let d = &r.deltas[0];
        assert_eq!(d.path, "mb_s");
        assert!((d.delta_pct.unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_schema_version_is_a_distinct_finding() {
        let good = versioned("\"results\":[]");
        let bad = "{\"bench_schema_version\":99,\"results\":[]}";
        for (b, c) in [(bad, good.as_str()), (good.as_str(), bad)] {
            let r = diff(b, c);
            assert_eq!(r.findings.len(), 1);
            assert_eq!(r.findings[0].kind, FindingKind::SchemaVersion);
        }
        let missing = "{\"results\":[]}";
        let r = diff(missing, &good);
        assert_eq!(r.findings[0].kind, FindingKind::SchemaVersion);
    }

    #[test]
    fn findings_json_is_machine_readable() {
        let b = versioned("\"results\":[1],\"mb_s\":100.0");
        let c = versioned("\"results\":[2],\"mb_s\":90.0");
        let r = diff(&b, &c);
        let json = findings_json(&[r]);
        assert!(json.contains("\"kind\":\"deterministic-drift\""));
        assert!(json.contains("\"path\":\"results[0]\""));
        assert!(json.contains("\"delta_pct\":-10.00"));
        assert!(json.contains("\"in_band\":true"));
        // Well-formed and parseable by this module's own reader.
        parse_json(&json).expect("findings JSON parses");
    }

    #[test]
    fn timers_subtree_is_a_label() {
        let b = versioned(
            "\"metrics\":{\"counters\":{\"a\":1},\"timers\":{\"sim.run\":{\"count\":2,\"total_ns\":100}}}",
        );
        let c = versioned(
            "\"metrics\":{\"counters\":{\"a\":1},\"timers\":{\"sim.run\":{\"count\":2,\"total_ns\":999}}}",
        );
        let r = diff(&b, &c);
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.deltas[0].path, "metrics.timers");
    }
}
