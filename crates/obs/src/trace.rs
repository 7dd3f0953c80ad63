//! Deterministic causal tracing: a bounded, process-global flight
//! recorder of spans and instant events stamped with **logical clocks**
//! (RREF row counts, network message steps, churn epochs — never the
//! wall clock).
//!
//! # Model
//!
//! Trace records are grouped into **tracks**. A track is one causal
//! timeline: the simulation runner opens a track per Monte-Carlo run
//! (track id = the run's split seed), and everything recorded while
//! that run executes — decoder pivots, network session spans, fault
//! retries — lands on its track in program order. Code outside any run
//! records to the reserved [`MAIN_TRACK`].
//!
//! Because each run executes wholly on one thread and owns a unique
//! track id, the set of `(track, record index)` pairs is independent of
//! the worker-thread count: exports sort tracks by id and keep records
//! in insertion order, so a trace dump for a pinned seed is
//! **byte-identical across `PRLC_THREADS` and kernel backends**. The
//! same reasoning makes the bound deterministic: each track holds at
//! most [`TRACK_CAPACITY`] records and counts its own overflow, so
//! *which* records are dropped never depends on thread interleaving.
//!
//! # Gate
//!
//! Tracing is off unless `PRLC_TRACE=1` is set or [`enable`] is called;
//! it is independent of the metrics gate ([`crate::enabled`]) so heavy
//! per-row provenance can stay off while cheap counters run.
//!
//! # Exporters
//!
//! [`TraceSnapshot::to_json`] is fully deterministic (no wall-clock
//! content at all). [`TraceSnapshot::to_chrome_trace`] renders the same
//! records in Chrome Trace Event format — load the file in Perfetto or
//! `chrome://tracing`; logical ticks are displayed as microseconds.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

use crate::baseline::{render_array_object, Json};

// ---------------------------------------------------------------------------
// Enable gate (independent of the metrics gate)
// ---------------------------------------------------------------------------

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENV_INIT: Once = Once::new();

fn init_from_env() {
    TRACE_ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("PRLC_TRACE") {
            match crate::parse_obs_env(&v) {
                Ok(on) => TRACE_ENABLED.store(on, Ordering::Relaxed),
                Err(()) => eprintln!(
                    "warning: ignoring PRLC_TRACE={v:?} (expected 1/true to enable or \
                     0/false to disable); tracing stays disabled"
                ),
            }
        }
    });
}

/// Is tracing enabled? Instrumented paths call this before computing
/// any record arguments.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on for this process (equivalent to `PRLC_TRACE=1`).
pub fn enable() {
    init_from_env();
    TRACE_ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off. Already-recorded tracks are kept (use [`reset`]
/// to clear them).
pub fn disable() {
    init_from_env();
    TRACE_ENABLED.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Records and tracks
// ---------------------------------------------------------------------------

/// The track records land on when no [`TrackGuard`] is active.
pub const MAIN_TRACK: u64 = 0;

/// Maximum records retained **per track**; overflow bumps the track's
/// drop counter instead of growing. The bound is per-track (not global)
/// so that which records survive never depends on how worker threads
/// interleave their runs.
pub const TRACK_CAPACITY: usize = 4096;

/// One trace record: a completed span or an instant event. All times
/// are logical clocks supplied by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A causal interval, recorded once finished.
    Span {
        /// Registered span name (see the taxonomy in `docs/METRICS.md`).
        name: &'static str,
        /// Logical-clock value when the span opened.
        start: u64,
        /// Logical-clock value when the span closed (`>= start`).
        end: u64,
        /// Deterministic key/value annotations.
        args: Vec<(&'static str, u64)>,
    },
    /// A point event on a logical timeline (an "instant" in trace-viewer
    /// terms; the identifier avoids the wall-clock type name the L1
    /// determinism lint bans as a token).
    Point {
        /// Registered event name (see the taxonomy in `docs/METRICS.md`).
        name: &'static str,
        /// Logical-clock value of the event.
        tick: u64,
        /// Deterministic key/value annotations.
        args: Vec<(&'static str, u64)>,
    },
}

impl TraceRecord {
    /// The record's registered name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceRecord::Span { name, .. } | TraceRecord::Point { name, .. } => name,
        }
    }

    /// The record's primary logical-clock value (a span's start).
    pub fn tick(&self) -> u64 {
        match self {
            TraceRecord::Span { start, .. } => *start,
            TraceRecord::Point { tick, .. } => *tick,
        }
    }

    /// The record's annotations.
    pub fn args(&self) -> &[(&'static str, u64)] {
        match self {
            TraceRecord::Span { args, .. } | TraceRecord::Point { args, .. } => args,
        }
    }

    /// Looks up one annotation by key.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args().iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

#[derive(Debug, Default)]
struct TrackBuf {
    records: Vec<TraceRecord>,
    dropped: u64,
}

#[derive(Default)]
struct TraceRegistry {
    tracks: Mutex<BTreeMap<u64, TrackBuf>>,
}

static GLOBAL_TRACE: OnceLock<TraceRegistry> = OnceLock::new();

fn registry() -> &'static TraceRegistry {
    GLOBAL_TRACE.get_or_init(TraceRegistry::default)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CURRENT_TRACK: Cell<u64> = const { Cell::new(MAIN_TRACK) };
}

/// RAII guard that routes this thread's trace records to a track; the
/// previous track is restored on drop. The simulation runner opens one
/// per Monte-Carlo run with the run's split seed as the id.
#[must_use = "records go back to the previous track when the guard drops"]
#[derive(Debug)]
pub struct TrackGuard {
    prev: u64,
}

/// Switch this thread's trace records onto track `id` until the guard
/// drops.
pub fn track(id: u64) -> TrackGuard {
    let prev = CURRENT_TRACK.with(|c| c.replace(id));
    TrackGuard { prev }
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_TRACK.with(|c| c.set(prev));
    }
}

fn push(record: TraceRecord) {
    let track = CURRENT_TRACK.with(Cell::get);
    let mut tracks = lock(&registry().tracks);
    let buf = tracks.entry(track).or_default();
    if buf.records.len() < TRACK_CAPACITY {
        buf.records.push(record);
    } else {
        buf.dropped += 1;
    }
}

/// Record a completed span on the current track (no-op while tracing is
/// disabled). `start`/`end` are logical-clock values; prefer the
/// [`trace_span!`](crate::trace_span) macro so the name stays a literal
/// the lint registry can check.
pub fn record_span(name: &'static str, start: u64, end: u64, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    push(TraceRecord::Span {
        name,
        start,
        end: end.max(start),
        args: args.to_vec(),
    });
}

/// Record an instant event on the current track (no-op while tracing is
/// disabled). Prefer the [`trace_instant!`](crate::trace_instant) macro
/// so the name stays a literal the lint registry can check.
pub fn record_instant(name: &'static str, tick: u64, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    push(TraceRecord::Point {
        name,
        tick,
        args: args.to_vec(),
    });
}

/// Clear every track and drop counter. The enable flag is untouched.
pub fn reset() {
    lock(&registry().tracks).clear();
}

/// Record a span on the current track. The first argument must be a
/// string literal from the `docs/METRICS.md` span registry; annotation
/// keys are bare identifiers, values must be `u64`:
///
/// ```
/// prlc_obs::trace::enable();
/// prlc_obs::trace_span!("net.collect.session", 0u64, 12u64, blocks: 5u64);
/// prlc_obs::trace::reset();
/// ```
#[macro_export]
macro_rules! trace_span {
    ($name:expr, $start:expr, $end:expr $(, $k:ident : $v:expr)* $(,)?) => {
        $crate::trace::record_span($name, $start, $end, &[$((stringify!($k), $v)),*])
    };
}

/// Record an instant event on the current track. Same argument
/// conventions as [`trace_span!`](crate::trace_span):
///
/// ```
/// prlc_obs::trace::enable();
/// prlc_obs::trace_instant!("linalg.rref.pivot", 3u64, col: 1u64);
/// prlc_obs::trace::reset();
/// ```
#[macro_export]
macro_rules! trace_instant {
    ($name:expr, $tick:expr $(, $k:ident : $v:expr)* $(,)?) => {
        $crate::trace::record_instant($name, $tick, &[$((stringify!($k), $v)),*])
    };
}

// ---------------------------------------------------------------------------
// Snapshot & exporters
// ---------------------------------------------------------------------------

/// Frozen state of one track inside a [`TraceSnapshot`].
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// Track id ([`MAIN_TRACK`] or a run's split seed).
    pub track: u64,
    /// Records dropped after the track filled.
    pub dropped: u64,
    /// Retained records in insertion (program) order.
    pub records: Vec<TraceRecord>,
}

/// A point-in-time copy of every track, sorted by track id. Contains no
/// wall-clock content, so both exporters are byte-deterministic for a
/// pinned workload.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Tracks sorted by id.
    pub tracks: Vec<TrackSnapshot>,
}

/// Snapshot the global trace recorder.
pub fn snapshot() -> TraceSnapshot {
    let tracks = lock(&registry().tracks);
    TraceSnapshot {
        tracks: tracks
            .iter()
            .map(|(&track, buf)| TrackSnapshot {
                track,
                dropped: buf.dropped,
                records: buf.records.clone(),
            })
            .collect(),
    }
}

impl TraceSnapshot {
    /// Total records across all tracks.
    pub fn len(&self) -> usize {
        self.tracks.iter().map(|t| t.records.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted, deduplicated record names — the runtime side of the
    /// span/instant name registry check.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .tracks
            .iter()
            .flat_map(|t| t.records.iter().map(TraceRecord::name))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Iterate `(track id, record)` pairs in export order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &TraceRecord)> {
        self.tracks
            .iter()
            .flat_map(|t| t.records.iter().map(move |r| (t.track, r)))
    }

    /// Deterministic JSON: tracks sorted by id, records in program
    /// order, no wall-clock content anywhere. Rendered one track at a
    /// time, so no tree larger than one track is ever built.
    pub fn to_json(&self) -> String {
        render_array_object(
            "tracks",
            self.tracks.iter().map(|t| {
                let records = t.records.iter().map(|r| match r {
                    TraceRecord::Span {
                        name,
                        start,
                        end,
                        args,
                    } => Json::obj([
                        ("kind", Json::Str("span".into())),
                        ("name", Json::Str((*name).into())),
                        ("start", Json::uint(*start)),
                        ("end", Json::uint(*end)),
                        ("args", args_value(args)),
                    ]),
                    TraceRecord::Point { name, tick, args } => Json::obj([
                        ("kind", Json::Str("instant".into())),
                        ("name", Json::Str((*name).into())),
                        ("tick", Json::uint(*tick)),
                        ("args", args_value(args)),
                    ]),
                });
                Json::obj([
                    ("track", Json::uint(t.track)),
                    ("dropped", Json::uint(t.dropped)),
                    ("records", Json::Arr(records.collect())),
                ])
            }),
        )
    }

    /// Chrome Trace Event format (JSON object form), loadable in
    /// Perfetto and `chrome://tracing`. Tracks map to threads of a
    /// single process: `tid` is the track's index in sorted-id order
    /// (kept small so the JSON never exceeds 2^53), the real 64-bit
    /// track id lives in the thread name. Logical ticks are emitted as
    /// the `ts` microsecond field verbatim. Rendered one event at a
    /// time.
    pub fn to_chrome_trace(&self) -> String {
        let metadata = |name: &str, tid: usize, label: String| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::uint(0)),
                ("tid", Json::uint(tid as u64)),
                ("args", Json::obj([("name", Json::Str(label))])),
            ])
        };
        let threads = self.tracks.iter().enumerate().map(move |(tid, t)| {
            let label = if t.track == MAIN_TRACK {
                "main".to_string()
            } else {
                format!("run {}", t.track)
            };
            metadata("thread_name", tid, label)
        });
        let events = self.tracks.iter().enumerate().flat_map(|(tid, t)| {
            t.records.iter().map(move |r| {
                let name = ("name", Json::Str(r.name().into()));
                let (pid, tid) = (("pid", Json::uint(0)), ("tid", Json::uint(tid as u64)));
                let mut fields = match *r {
                    TraceRecord::Span { start, end, .. } => vec![
                        name,
                        ("ph", Json::Str("X".into())),
                        pid,
                        tid,
                        ("ts", Json::uint(start)),
                        ("dur", Json::uint(end.saturating_sub(start))),
                    ],
                    TraceRecord::Point { tick, .. } => vec![
                        name,
                        ("ph", Json::Str("i".into())),
                        ("s", Json::Str("t".into())),
                        pid,
                        tid,
                        ("ts", Json::uint(tick)),
                    ],
                };
                fields.push(("args", args_value(r.args())));
                Json::obj(fields)
            })
        });
        render_array_object(
            "traceEvents",
            std::iter::once(metadata("process_name", 0, "prlc".into()))
                .chain(threads)
                .chain(events),
        )
    }
}

/// A record's annotations as a JSON object.
fn args_value(args: &[(&'static str, u64)]) -> Json {
    Json::obj(args.iter().map(|&(k, v)| (k, Json::uint(v))))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag and recorder are process-global: serialise tests.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn guarded() -> std::sync::MutexGuard<'static, ()> {
        TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guarded();
        disable();
        reset();
        record_instant("linalg.rref.pivot", 1, &[]);
        record_span("net.collect.session", 0, 2, &[]);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn records_land_on_the_current_track_in_order() {
        let _g = guarded();
        enable();
        reset();
        record_instant("linalg.rref.pivot", 1, &[("col", 0)]);
        {
            let _t = track(99);
            record_span("net.collect.session", 2, 5, &[("blocks", 3)]);
            record_instant("linalg.rref.pivot", 7, &[]);
        }
        record_instant("linalg.rref.redundant_row", 4, &[]);
        let snap = snapshot();
        assert_eq!(snap.tracks.len(), 2);
        assert_eq!(snap.tracks[0].track, MAIN_TRACK);
        let names: Vec<_> = snap.tracks[0].records.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["linalg.rref.pivot", "linalg.rref.redundant_row"]);
        assert_eq!(snap.tracks[1].track, 99);
        assert_eq!(snap.tracks[1].records.len(), 2);
        assert_eq!(snap.tracks[1].records[0].tick(), 2);
        assert_eq!(snap.tracks[1].records[0].arg("blocks"), Some(3));
        assert_eq!(snap.names().len(), 3);
        disable();
        reset();
    }

    #[test]
    fn per_track_capacity_counts_drops() {
        let _g = guarded();
        enable();
        reset();
        {
            let _t = track(7);
            for i in 0..(TRACK_CAPACITY as u64 + 5) {
                record_instant("linalg.rref.pivot", i, &[]);
            }
        }
        let snap = snapshot();
        assert_eq!(snap.tracks[0].records.len(), TRACK_CAPACITY);
        assert_eq!(snap.tracks[0].dropped, 5);
        reset();
        assert!(snapshot().is_empty());
        disable();
    }

    #[test]
    fn span_end_clamped_to_start() {
        let _g = guarded();
        enable();
        reset();
        record_span("net.collect.session", 9, 3, &[]);
        let snap = snapshot();
        match &snap.tracks[0].records[0] {
            TraceRecord::Span { start, end, .. } => {
                assert_eq!((*start, *end), (9, 9));
            }
            other => panic!("expected span, got {other:?}"),
        }
        disable();
        reset();
    }

    #[test]
    fn json_export_shapes() {
        let _g = guarded();
        enable();
        reset();
        {
            let _t = track(5);
            trace_span!("net.collect.session", 0u64, 4u64, blocks: 2u64);
            trace_instant!("linalg.rref.pivot", 1u64, col: 0u64);
        }
        let snap = snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"tracks\":[{\"track\":5,\"dropped\":0,"));
        assert!(json.contains(
            "{\"kind\":\"span\",\"name\":\"net.collect.session\",\"start\":0,\"end\":4,\
             \"args\":{\"blocks\":2}}"
        ));
        assert!(json.contains(
            "{\"kind\":\"instant\",\"name\":\"linalg.rref.pivot\",\"tick\":1,\
             \"args\":{\"col\":0}}"
        ));
        let chrome = snap.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"M\""));
        assert!(chrome.contains("\"ph\":\"X\"") && chrome.contains("\"dur\":4"));
        assert!(chrome.contains("\"ph\":\"i\"") && chrome.contains("\"s\":\"t\""));
        assert!(chrome.contains("\"name\":\"run 5\""));
        assert!(chrome.ends_with("]}"));
        // Both exports read back to the same bytes.
        for dump in [json, chrome] {
            let parsed = crate::baseline::parse_json(&dump).expect("trace export parses");
            assert_eq!(parsed.render(), dump);
        }
        disable();
        reset();
    }

    #[test]
    fn track_guard_restores_previous_track() {
        let _g = guarded();
        enable();
        reset();
        {
            let _outer = track(1);
            {
                let _inner = track(2);
                record_instant("linalg.rref.pivot", 0, &[]);
            }
            record_instant("linalg.rref.pivot", 1, &[]);
        }
        let snap = snapshot();
        let ids: Vec<u64> = snap.tracks.iter().map(|t| t.track).collect();
        assert_eq!(ids, [1, 2]);
        disable();
        reset();
    }
}
