//! `prlc-obs`: a zero-dependency, deterministic observability layer for
//! the PRLC workspace.
//!
//! The crate provides three primitives —
//!
//! * [`Counter`] — monotonic `u64` counters,
//! * [`Histogram`] — fixed power-of-two bucket histograms,
//! * [`SpanTimer`] — wall-clock span accumulators (count + nanoseconds),
//!
//! — plus the [`trace`] module: a deterministic causal tracer of
//! logical-clock spans and instant events with its own gate
//! (`PRLC_TRACE=1`) and Perfetto-loadable export —
//!
//! — backed by a process-global [`Registry`] that is a **no-op unless
//! explicitly enabled** (`PRLC_OBS=1` in the environment, or a call to
//! [`enable`]). When disabled, every recording call is a single relaxed
//! atomic load; instrumented hot paths additionally guard on
//! [`enabled`] so they skip even argument computation.
//!
//! # Determinism rules
//!
//! Snapshots are designed to be byte-identical across thread counts and
//! backends for a fixed workload:
//!
//! * counters and histograms are commutative sums — merge order cannot
//!   be observed;
//! * snapshot output is sorted by metric name;
//! * the JSON renderings list only metrics that recorded something
//!   since the last [`reset`]: the registry keeps every name ever
//!   registered in the process, so zero entries would make one
//!   workload's output depend on what ran before it;
//! * **no wall-clock values are recorded** in counters or histograms.
//!   Wall-clock time lives exclusively in span timers, which
//!   [`Snapshot::to_deterministic_json`] omits (and
//!   [`Snapshot::to_json`] emits as the final `"timers"` key so callers
//!   can strip it textually).
//!
//! # Example
//!
//! ```
//! prlc_obs::enable();
//! prlc_obs::reset();
//! prlc_obs::counter!("demo.widgets").add(3);
//! prlc_obs::histogram!("demo.sizes").observe(17);
//! let snap = prlc_obs::snapshot();
//! assert!(snap.to_json().contains("\"demo.widgets\":3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use baseline::Json;

// ---------------------------------------------------------------------------
// Global enable gate
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Parses a `PRLC_OBS`/`PRLC_TRACE` value: `1`/`true` enables,
/// `0`/`false`/empty disables (both case-insensitive, surrounding
/// whitespace ignored). `Err` means the value is malformed and should
/// be warned about.
pub(crate) fn parse_obs_env(value: &str) -> Result<bool, ()> {
    let v = value.trim();
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Ok(true)
    } else if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") {
        Ok(false)
    } else {
        Err(())
    }
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("PRLC_OBS") {
            match parse_obs_env(&v) {
                Ok(on) => ENABLED.store(on, Ordering::Relaxed),
                // Mirror runner::default_threads: a malformed value is
                // ignored, but loudly and only once.
                Err(()) => eprintln!(
                    "warning: ignoring PRLC_OBS={v:?} (expected 1/true to enable or \
                     0/false to disable); observability stays disabled"
                ),
            }
        }
    });
}

/// Is recording enabled? Cheap (one relaxed load after first use) —
/// instrumented hot paths call this before touching any metric.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on for this process (equivalent to `PRLC_OBS=1`).
pub fn enable() {
    init_from_env();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off. Already-recorded values are kept (use [`reset`]
/// to clear them).
pub fn disable() {
    init_from_env();
    ENABLED.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonic counter. All mutation is gated on the global enable flag.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one (no-op while disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Upper-inclusive bucket bounds shared by every [`Histogram`]; one
/// overflow bucket follows. Fixed at compile time so snapshots from
/// different processes are structurally identical.
pub const BUCKET_BOUNDS: [u64; 14] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
];

const NUM_BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A fixed-bucket histogram over `u64` observations. Buckets are
/// upper-inclusive at [`BUCKET_BOUNDS`] plus a final overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New, empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            counts: [ZERO; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation (no-op while disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (bounds buckets, then the overflow bucket).
    pub fn bucket_counts(&self) -> [u64; NUM_BUCKETS] {
        let mut out = [0u64; NUM_BUCKETS];
        for (o, c) in out.iter_mut().zip(self.counts.iter()) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Accumulates wall-clock span durations. Timer values are the one
/// deliberately non-deterministic quantity in the crate; they are
/// segregated into the final `"timers"` JSON key and omitted from
/// deterministic snapshots.
#[derive(Debug, Default)]
pub struct SpanTimer {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl SpanTimer {
    /// New timer at zero.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Start a span; the elapsed time is recorded when the returned
    /// guard drops. While disabled this never reads the clock.
    #[inline]
    pub fn span(&'static self) -> Span {
        Span {
            inner: enabled().then(|| (self, Instant::now())),
        }
    }

    /// Number of completed spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total accumulated nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`SpanTimer::span`].
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    inner: Option<(&'static SpanTimer, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.inner.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer.count.fetch_add(1, Ordering::Relaxed);
            timer.nanos.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, &'static Counter>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
    timers: BTreeMap<&'static str, &'static SpanTimer>,
}

/// A named collection of metrics.
///
/// Most users talk to the process-global registry through
/// [`registry`], the [`counter!`]/[`histogram!`]/[`timer!`] macros and
/// the free functions; standalone instances are useful in unit tests.
/// Metric handles are leaked on registration (`&'static`) — registries
/// are expected to live for the process.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Metrics>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter called `name`.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        lock(&self.metrics)
            .counters
            .entry(name)
            .or_insert_with(|| &*Box::leak(Box::new(Counter::new())))
    }

    /// Get or register the histogram called `name`.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        lock(&self.metrics)
            .histograms
            .entry(name)
            .or_insert_with(|| &*Box::leak(Box::new(Histogram::new())))
    }

    /// Get or register the span timer called `name`.
    pub fn timer(&self, name: &'static str) -> &'static SpanTimer {
        lock(&self.metrics)
            .timers
            .entry(name)
            .or_insert_with(|| &*Box::leak(Box::new(SpanTimer::new())))
    }

    /// Zero every metric. Registrations survive, so handles cached by the
    /// [`counter!`]/[`histogram!`]/[`timer!`] call sites keep recording;
    /// a zeroed metric stays in [`Snapshot`]'s lists but drops out of its
    /// JSON until it records again.
    pub fn reset(&self) {
        let metrics = lock(&self.metrics);
        for c in metrics.counters.values() {
            c.reset();
        }
        for h in metrics.histograms.values() {
            h.reset();
        }
        for t in metrics.timers.values() {
            t.reset();
        }
    }

    /// A point-in-time, fully sorted copy of everything recorded.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = lock(&self.metrics);
        let counters = metrics
            .counters
            .iter()
            .map(|(&n, c)| (n, c.get()))
            .collect();
        let histograms = metrics
            .histograms
            .iter()
            .map(|(&n, h)| {
                (
                    n,
                    HistogramSnapshot {
                        counts: h.bucket_counts().to_vec(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                )
            })
            .collect();
        let timers = metrics
            .timers
            .iter()
            .map(|(&n, t)| {
                (
                    n,
                    TimerSnapshot {
                        count: t.count(),
                        total_nanos: t.total_nanos(),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            histograms,
            timers,
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry used by the `counter!`/`histogram!`/
/// `timer!` macros and the free functions below.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Reset the global registry. See [`Registry::reset`].
pub fn reset() {
    registry().reset();
}

/// Get or register a counter in the global registry, caching the handle
/// per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Get or register a histogram in the global registry, caching the
/// handle per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Get or register a span timer in the global registry, caching the
/// handle per call site.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::SpanTimer> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().timer($name))
    }};
}

// ---------------------------------------------------------------------------
// Snapshots & exporters
// ---------------------------------------------------------------------------

/// Frozen histogram state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`BUCKET_BOUNDS`] buckets, then overflow).
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`0 < q <= 1`): the
    /// [`BUCKET_BOUNDS`] entry of the bucket holding the
    /// `ceil(q * count)`-th smallest observation. Deterministic — a
    /// pure function of the bucket counts, so it carries the same
    /// cross-thread/cross-backend guarantee the counts do.
    ///
    /// Returns `None` for an empty histogram or when the rank lands in
    /// the overflow bucket (no finite upper bound to report).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // ceil(q * count), clamped to [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS.get(i).copied();
            }
        }
        None
    }
}

/// Frozen span-timer state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_nanos: u64,
}

/// A point-in-time copy of a registry, sorted for reproducible export.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter values by name (sorted).
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram states by name (sorted).
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Timer states by name (sorted). Wall-clock — non-deterministic.
    pub timers: Vec<(&'static str, TimerSnapshot)>,
}

impl Snapshot {
    /// The deterministic members: counters, the bucket bounds and the
    /// histograms, each list leaving out what recorded nothing.
    fn deterministic_members(&self) -> Vec<(&'static str, Json)> {
        let counters = self.counters.iter().filter(|&&(_, v)| v > 0);
        let histograms = self.histograms.iter().filter(|(_, h)| h.count > 0);
        vec![
            (
                "counters",
                Json::obj(counters.map(|&(name, v)| (name, Json::uint(v)))),
            ),
            (
                "histogram_bounds",
                Json::Arr(BUCKET_BOUNDS.iter().map(|&b| Json::uint(b)).collect()),
            ),
            (
                "histograms",
                Json::obj(histograms.map(|(name, h)| (*name, h.to_value()))),
            ),
        ]
    }

    /// JSON without any wall-clock content: byte-identical across
    /// thread counts for a fixed workload. Counters at zero and empty
    /// histograms are left out.
    pub fn to_deterministic_json(&self) -> String {
        Json::obj(self.deterministic_members()).render()
    }

    /// Full JSON. The non-deterministic `"timers"` object is emitted as
    /// the **final** key, so `to_json()` is exactly
    /// [`Self::to_deterministic_json`] with `,"timers":{...}` spliced
    /// in before the closing brace — trivially strippable. Timers that
    /// timed no span are left out.
    pub fn to_json(&self) -> String {
        let timers = self.timers.iter().filter(|(_, t)| t.count > 0);
        let timers = timers.map(|(name, t)| {
            let fields = [
                ("count", Json::uint(t.count)),
                ("total_ns", Json::uint(t.total_nanos)),
            ];
            (*name, Json::obj(fields))
        });
        let mut members = self.deterministic_members();
        members.push(("timers", Json::obj(timers)));
        Json::obj(members).render()
    }
}

impl HistogramSnapshot {
    /// The histogram's JSON object: bucket counts, sum, count, and the
    /// bucket-derived percentile upper bounds (docs/METRICS.md,
    /// "Histogram percentiles"), `null` when the rank falls in the
    /// overflow bucket.
    fn to_value(&self) -> Json {
        let counts = Json::Arr(self.counts.iter().map(|&c| Json::uint(c)).collect());
        let mut fields = vec![
            ("counts", counts),
            ("sum", Json::uint(self.sum)),
            ("count", Json::uint(self.count)),
        ];
        for (key, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            fields.push((key, self.percentile(q).map_or(Json::Null, Json::uint)));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag is process-global: serialise tests that toggle it.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn guarded() -> std::sync::MutexGuard<'static, ()> {
        TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn obs_env_values_parse_or_flag_malformed() {
        assert_eq!(parse_obs_env("1"), Ok(true));
        assert_eq!(parse_obs_env("true"), Ok(true));
        assert_eq!(parse_obs_env("TRUE"), Ok(true));
        assert_eq!(parse_obs_env(" 1 "), Ok(true));
        assert_eq!(parse_obs_env("0"), Ok(false));
        assert_eq!(parse_obs_env("false"), Ok(false));
        assert_eq!(parse_obs_env(""), Ok(false));
        // Malformed values must be reported, not silently disabled.
        assert_eq!(parse_obs_env("yes"), Err(()));
        assert_eq!(parse_obs_env("on"), Err(()));
        assert_eq!(parse_obs_env("2"), Err(()));
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        let _g = guarded();
        disable();
        let r = Registry::new();
        r.counter("c").add(5);
        r.histogram("h").observe(9);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("c", 0)]);
        assert_eq!(snap.histograms[0].1.count, 0);
    }

    #[test]
    fn counters_and_histograms_round_trip() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("a.x").add(2);
        r.counter("a.x").incr();
        r.counter("b.y").incr();
        let h = r.histogram("sizes");
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(1_000_000);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a.x", 3), ("b.y", 1)]);
        let hs = &snap.histograms[0].1;
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 1_000_003);
        assert_eq!(hs.counts[0], 2); // 0 and 1 both land in the <=1 bucket
        assert_eq!(hs.counts[1], 1);
        assert_eq!(*hs.counts.last().unwrap(), 1); // overflow
        disable();
    }

    #[test]
    fn histogram_percentiles() {
        // Empty histogram: no percentile at all.
        let empty = HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
            count: 0,
        };
        assert_eq!(empty.percentile(0.5), None);

        // 10 observations of 1 and one of 1000: p50/p90 sit in the
        // <=1 bucket, p99 lands on the 11th value (bound 1024).
        let mut counts = vec![0u64; NUM_BUCKETS];
        counts[0] = 10;
        counts[10] = 1; // bound 1024
        let h = HistogramSnapshot {
            counts,
            sum: 1010,
            count: 11,
        };
        assert_eq!(h.percentile(0.50), Some(1));
        assert_eq!(h.percentile(0.90), Some(1));
        assert_eq!(h.percentile(0.99), Some(1024));
        assert_eq!(h.percentile(1.0), Some(1024));

        // A single overflow observation has no finite bound.
        let mut counts = vec![0u64; NUM_BUCKETS];
        counts[NUM_BUCKETS - 1] = 1;
        let o = HistogramSnapshot {
            counts,
            sum: 1_000_000,
            count: 1,
        };
        assert_eq!(o.percentile(0.5), None);

        // The deterministic JSON carries the three fixed keys.
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.histogram("h").observe(3);
        let det = r.snapshot().to_deterministic_json();
        assert!(det.contains("\"p50\":4,\"p90\":4,\"p99\":4"));
        // Overflow-only: the rank has no finite bound.
        r.histogram("o").observe(u64::MAX);
        let det = r.snapshot().to_deterministic_json();
        assert!(det.contains("\"p50\":null,\"p90\":null,\"p99\":null"));
        disable();
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("kept").add(7);
        r.reset();
        assert_eq!(r.snapshot().counters, vec![("kept", 0)]);
        disable();
    }

    #[test]
    fn json_leaves_out_what_an_earlier_workload_registered() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        let (early, hist, timer) = (r.counter("early"), r.histogram("h"), r.timer("t"));
        early.add(7);
        hist.observe(3);
        drop(timer.span());
        r.reset();
        let late = r.counter("late");
        late.incr();
        let json = r.snapshot().to_json();
        assert!(
            json.starts_with("{\"counters\":{\"late\":1},")
                && json.ends_with("\"histograms\":{},\"timers\":{}}"),
            "{json}"
        );
        // The handles cached before the reset still record by name.
        early.add(2);
        hist.observe(5);
        drop(timer.span());
        let json = r.snapshot().to_json();
        assert!(json.contains("{\"early\":2,\"late\":1}"), "{json}");
        assert!(json.contains("\"h\":{\"counts\":[0,0,0,1,"), "{json}");
        assert!(json.contains("\"timers\":{\"t\":{\"count\":1,"), "{json}");
        disable();
    }

    #[test]
    fn json_shapes() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("n").add(1);
        r.histogram("h").observe(3);
        let _ = r.timer("t"); // registered, never timed: left out
        let snap = r.snapshot();
        let det = snap.to_deterministic_json();
        let full = snap.to_json();
        assert!(det.starts_with("{\"counters\":{\"n\":1},\"histogram_bounds\":["));
        assert!(det.contains("\"histograms\":{\"h\":{\"counts\":["));
        assert!(!det.contains("\"timers\""));
        // Full JSON is the deterministic body plus a trailing timers key.
        assert!(full.starts_with(&det[..det.len() - 1]));
        let stripped = &full[..full.find(",\"timers\":").unwrap()];
        assert_eq!(format!("{stripped}}}"), det);
        assert!(full.ends_with("\"timers\":{}}"));
        disable();
    }

    #[test]
    fn exports_round_trip_as_well_formed_documents() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("net.collect.blocks").add(3);
        r.counter("weird\"name\\with\nescapes").incr();
        r.histogram("net.collect.query_hops").observe(7);
        drop(r.timer("sim.run").span());
        let snap = r.snapshot();
        for json in [snap.to_json(), snap.to_deterministic_json()] {
            let parsed = baseline::parse_json(&json).unwrap_or_else(|e| panic!("{e} in {json}"));
            assert_eq!(parsed.render(), json);
        }
        disable();
    }

    #[test]
    fn span_timer_accumulates_only_when_enabled() {
        let _g = guarded();
        disable();
        let r = Registry::new();
        let t = r.timer("t");
        drop(t.span());
        assert_eq!(t.count(), 0);
        enable();
        drop(t.span());
        assert_eq!(t.count(), 1);
        disable();
    }

    #[test]
    fn global_macros_register_in_global_registry() {
        let _g = guarded();
        enable();
        counter!("obs.test.macro").add(2);
        histogram!("obs.test.hist").observe(5);
        let _span = timer!("obs.test.timer").span();
        drop(_span);
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|&(n, v)| n == "obs.test.macro" && v >= 2));
        assert!(snap.histograms.iter().any(|(n, _)| *n == "obs.test.hist"));
        assert!(snap.timers.iter().any(|(n, _)| *n == "obs.test.timer"));
        disable();
    }
}
