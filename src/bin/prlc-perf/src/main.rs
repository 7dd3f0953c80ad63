//! `prlc-perf`: the end-to-end benchmark of the PRLC workspace, with a
//! traced run that splits each workload's time and work by layer.
//!
//! ```text
//! prlc-perf [--seed S] [--quick] [--seconds T] [--trace 0|1|DIR]        all four workloads
//! prlc-perf --workload W [--seed S] [--quick] [--seconds T] [--trace 0|1|DIR]
//! ```
//!
//! Without `--workload` every workload runs in a child process of its
//! own, so peak RSS is per workload. Every metric prints as
//! `workload metric value unit`; a single-workload run ends with one
//! JSON line (`correct`, `attempted`, `failed`, `metrics`) holding the
//! end-to-end metrics, or with `--trace` the per-layer ones. The exit
//! code is non-zero when any correctness check fails. README.md in this
//! directory documents the workloads, the metrics and their bounds.

mod calibrate;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use prlc::gf::{kernel, Gf256};
use prlc::obs::baseline::digest64;
use prlc::sim::measure_wall_ms;

use calibrate::Reference;
use spans::Spans;
use workloads::{Codec, Collect, Curve, Timeline, Workload};

const WORKLOADS: [&str; 4] = ["codec", "curve", "timeline", "collect"];

/// The `end_to_end` metrics of `BENCHMARK.json`, reported untraced.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_ms_p50",
    "op_ms_p90",
    "peak_rss_mb",
];

/// The `per_layer` metrics of `BENCHMARK.json`, reported by `--trace`.
const PER_LAYER: [&str; 23] = [
    "gf.axpy.bytes_per_op",
    "gf.scale.bytes_per_op",
    "gf.axpy.gb_s",
    "linalg.rref.rows_per_op",
    "linalg.rref.useful_frac",
    "core.encode.nnz_per_op",
    "core.encode.self_frac",
    "core.decode.insert_ms_per_op",
    "core.decode.insert_us_p50",
    "net.ring.build.self_frac",
    "net.ring.churn.self_frac",
    "net.ring.route.self_frac",
    "net.ring.routes_per_op",
    "net.ring.hops_per_route",
    "net.predistribute.self_frac",
    "net.refresh.self_frac",
    "net.collect.self_frac",
    "net.messages.sent_per_op",
    "net.messages.delivered_frac",
    "net.event.nodes_touched_per_op",
    "sim.op.self_ms_per_op",
    "sim.trace.coverage_frac",
    "sim.trace.overhead_frac",
];

/// Spans whose self time is reported as a share of the op.
const SHARE_SPANS: [&str; 7] = [
    "core.encode",
    "net.ring.build",
    "net.ring.churn",
    "net.ring.route",
    "net.predistribute",
    "net.refresh",
    "net.collect",
];

/// Set-up runs at least `SETUP_REPS` times and until it has taken
/// `SETUP_MIN_MS` in all (at most `SETUP_MAX_REPS` times); `setup_s` is
/// the median, so a set-up of a few milliseconds still reads steadily.
const SETUP_REPS: usize = 3;
const SETUP_MIN_MS: f64 = 300.0;
const SETUP_MAX_REPS: usize = 50;
/// The reference kernel runs after every this many ms of op time.
const REFERENCE_EVERY_MS: f64 = 25.0;
/// Ops `0..PINNED_OPS` (op 0 is the warm-up) feed the pinned digest.
const PINNED_OPS: usize = 4;
/// An untraced run re-runs this many ops through the traced composition.
const VERIFY_OPS: usize = 2;
/// `workload digest` lines: seed 42's digest over ops `0..PINNED_OPS`.
const PINNED: &str = include_str!("../pinned-digests.txt");

struct Options {
    seed: u64,
    quick: bool,
    seconds: Option<f64>,
    /// Where span files go when tracing.
    trace: Option<PathBuf>,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Report {
    workload: &'static str,
    traced: bool,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    pinned_digest: String,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn print(&self) {
        println!("{} pinned_digest {}", self.workload, self.pinned_digest);
        for m in &self.metrics {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        for e in &self.errors {
            eprintln!("{}: FAILED: {e}", self.workload);
        }
        let names: &[&str] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let listed = self
            .metrics
            .iter()
            .filter(|m| names.contains(&m.name.as_str()));
        for (i, m) in listed.enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("prlc-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload else {
        return run_all(&args);
    };
    match run_workload(&workload, &opts) {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("prlc-perf: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<(Option<String>, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 42,
        quick: false,
        seconds: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?} (want one of {WORKLOADS:?})"
                ))
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => opts.seconds = Some(s),
                _ => return Err(format!("bad --seconds {value:?}")),
            },
            "--trace" => {
                opts.trace = match value {
                    "0" => None,
                    "1" => Some(
                        std::env::var_os("CARGO_TARGET_DIR")
                            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
                            .join("prlc-perf"),
                    ),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((workload, opts))
}

/// Runs each workload in a child process, one after another.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("prlc-perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(args)
            .args(["--workload", w])
            .stderr(Stdio::inherit())
            .output();
        match child {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                for line in text.lines().filter(|l| !l.starts_with('{')) {
                    println!("{line}");
                }
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("prlc-perf: {w}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(name: &str, opts: &Options) -> Result<Report, String> {
    match name {
        "codec" => run::<Codec>("codec", opts),
        "curve" => run::<Curve>("curve", opts),
        "timeline" => run::<Timeline>("timeline", opts),
        "collect" => run::<Collect>("collect", opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Set-up, the measured ops, then the checks and the metrics.
fn run<W: Workload>(name: &'static str, opts: &Options) -> Result<Report, String> {
    let mut reference = Reference::new();
    let mut setup_ms: Vec<f64> = Vec::new();
    let mut built = None;
    while setup_ms.len() < SETUP_REPS
        || (setup_ms.iter().sum::<f64>() < SETUP_MIN_MS && setup_ms.len() < SETUP_MAX_REPS)
    {
        let mark = reference.mark();
        // Drop the previous state first, so peak RSS holds one copy.
        drop(built.take());
        let (state, ms) = measure_wall_ms(|| {
            W::setup(opts.seed).map(|mut w| {
                let warm_up = w.op(0);
                (w, warm_up)
            })
        });
        built = Some(state?);
        reference.sample();
        setup_ms.push(reference.scale(ms, mark));
    }
    let (mut w, warm_up) = built.ok_or("no set-up ran")?;
    let (digest, ok) = w.check(&warm_up);
    let mut digests = vec![digest];
    let mut failed = usize::from(!ok);
    let mut errors = Vec::new();

    let tracing = opts.trace.is_some();
    let spans = Spans::default();
    let max_ops = if opts.quick { W::OPS / 50 } else { W::OPS };
    let (mut op_ms, mut traced_ms, mut marks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy_ms, mut since_reference_ms) = (0.0, 0.0);
    prlc::obs::reset();
    loop {
        let timed = op_ms.len();
        let enough = match opts.seconds {
            Some(s) => busy_ms >= s * 1e3,
            None => timed >= max_ops,
        };
        if enough && timed + 1 >= PINNED_OPS {
            break;
        }
        let i = timed + 1;
        let (out, ms) = measure_wall_ms(|| w.op(i));
        op_ms.push(ms);
        marks.push(reference.mark());
        busy_ms += ms;
        let (digest, mut ok) = w.check(&out);
        w.observe(&out);
        if tracing {
            prlc::obs::enable();
            spans.begin_op(i);
            let (traced, ms) = spans.span("sim.op", || w.traced_op(i, &spans));
            prlc::obs::disable();
            traced_ms.push(ms);
            busy_ms += ms;
            ok &= w.check(&traced).0 == digest;
        }
        since_reference_ms += op_ms[timed] + traced_ms.get(timed).unwrap_or(&0.0);
        if since_reference_ms >= REFERENCE_EVERY_MS {
            reference.sample();
            since_reference_ms = 0.0;
        }
        if i < PINNED_OPS {
            digests.push(digest);
        }
        failed += usize::from(!ok);
    }
    reference.sample();
    if !tracing {
        let scratch = Spans::default();
        for (i, digest) in digests.iter().enumerate().take(VERIFY_OPS) {
            let traced = w.traced_op(i, &scratch);
            if w.check(&traced).0 != *digest {
                errors.push(format!(
                    "op {i}: traced composition differs from the library run"
                ));
            }
        }
    }
    let pinned_digest = digest64(&digests.join(","));
    if opts.seed == 42 {
        let pinned = PINNED
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
        if pinned != Some(pinned_digest.as_str()) {
            errors.push(format!(
                "seed 42 digest {pinned_digest} differs from the pinned {pinned:?}"
            ));
        }
    }
    if let Err(e) = w.gate() {
        errors.push(e);
    }

    let attempted = 1 + op_ms.len();
    let mut metrics = vec![
        metric("ops", op_ms.len() as f64, "count"),
        metric("failed_op_frac", failed as f64 / attempted as f64, "frac"),
        metric("reference_ms", reference.median_ms(), "ms"),
    ];
    metrics.extend(w.extra_metrics());
    if let Some(dir) = &opts.trace {
        metrics.extend(layer_metrics(&spans, &op_ms, &traced_ms, W::AXPY_LEN));
        let path = dir.join(format!("{name}.spans.json"));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_json(name, opts.seed)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        // Times at the reference kernel's nominal speed (calibrate.rs).
        let scaled: Vec<f64> = op_ms
            .iter()
            .zip(&marks)
            .map(|(&ms, &mark)| reference.scale(ms, mark))
            .collect();
        let total_s = scaled.iter().sum::<f64>() / 1e3;
        metrics.extend([
            metric("setup_s", quantile(&setup_ms, 0.5) / 1e3, "s"),
            metric("ops_per_s", scaled.len() as f64 / total_s, "op/s"),
            metric("op_ms_p50", quantile(&scaled, 0.5), "ms"),
            metric("op_ms_p90", quantile(&scaled, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ]);
    }
    Ok(Report {
        workload: name,
        traced: tracing,
        attempted,
        failed,
        errors,
        pinned_digest,
        metrics,
    })
}

/// Nearest-rank quantile; 0 for no samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb * 1.024e-3)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Throughput of `kernel::axpy` on `len`-byte slices in GB/s: the
/// median of five passes over 32 MiB each.
fn axpy_gb_s(len: usize) -> f64 {
    let src: Vec<Gf256> = (0..len).map(|i| Gf256::new((i % 255) as u8 + 1)).collect();
    let mut dst = vec![Gf256::new(7); len];
    let c = std::hint::black_box(Gf256::new(0x53));
    let iters = (32 << 20) / len;
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let ((), ms) = measure_wall_ms(|| {
                for _ in 0..iters {
                    kernel::axpy(&mut dst, c, &src);
                }
            });
            (iters * len) as f64 / (ms * 1e6)
        })
        .collect();
    std::hint::black_box(&dst);
    quantile(&rates, 0.5)
}

/// Per-layer metrics of a traced run: span times, obs counters and the
/// kernel probe.
fn layer_metrics(spans: &Spans, op_ms: &[f64], traced_ms: &[f64], axpy_len: usize) -> Vec<Metric> {
    let snap = prlc::obs::snapshot();
    // Counters summed over any `.<backend>` suffix.
    let count = |key: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(n, _)| {
                n.strip_prefix(key)
                    .is_some_and(|r| r.is_empty() || r.starts_with('.'))
            })
            .fold(0.0, |sum, &(_, v)| sum + v as f64)
    };
    let records = spans.records();
    let mut self_ms: Vec<f64> = records.iter().map(|r| r.ms).collect();
    for r in &records {
        if let Some(p) = r.parent {
            self_ms[p] -= r.ms;
        }
    }
    // name -> (calls, total ms, self ms)
    let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (r, s) in records.iter().zip(&self_ms) {
        let e = by_name.entry(r.name).or_default();
        e.0 += r.calls;
        e.1 += r.ms;
        e.2 += s;
    }
    let span = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let n = traced_ms.len() as f64;
    let (_, op_total, op_self) = span("sim.op");
    let routes = span("net.ring.route").0 as f64;
    let sent = count("net.messages.sent");

    let mut out = vec![
        metric("gf.axpy.bytes_per_op", count("gf.axpy.bytes") / n, "B"),
        metric("gf.scale.bytes_per_op", count("gf.scale.bytes") / n, "B"),
        metric("gf.axpy.gb_s", axpy_gb_s(axpy_len), "GB/s"),
        metric(
            "linalg.rref.rows_per_op",
            count("linalg.rref.rows") / n,
            "count",
        ),
        metric(
            "linalg.rref.useful_frac",
            ratio(count("linalg.rref.pivots"), count("linalg.rref.rows")),
            "frac",
        ),
        metric(
            "core.encode.nnz_per_op",
            count("core.encode.nnz") / n,
            "count",
        ),
        metric(
            "core.decode.insert_ms_per_op",
            span("core.decode.insert").1 / n,
            "ms",
        ),
        metric(
            "core.decode.insert_us_p50",
            quantile(&spans.insert_us(), 0.5),
            "us",
        ),
        metric("net.ring.routes_per_op", routes / n, "count"),
        metric(
            "net.ring.hops_per_route",
            ratio(spans.route_hops() as f64, routes),
            "hops",
        ),
        metric("net.messages.sent_per_op", sent / n, "count"),
        metric(
            "net.messages.delivered_frac",
            ratio(count("net.messages.delivered"), sent),
            "frac",
        ),
        metric(
            "net.event.nodes_touched_per_op",
            count("net.event.nodes_touched") / n,
            "count",
        ),
        metric("sim.op.self_ms_per_op", op_self / n, "ms"),
        metric(
            "sim.trace.coverage_frac",
            ratio(op_total - op_self, op_total),
            "frac",
        ),
        metric(
            "sim.trace.overhead_frac",
            ratio(quantile(traced_ms, 0.5), quantile(op_ms, 0.5)) - 1.0,
            "frac",
        ),
    ];
    for name in SHARE_SPANS {
        out.push(metric(
            format!("{name}.self_frac"),
            ratio(span(name).2, op_total),
            "frac",
        ));
    }
    for (name, (calls, ms, _)) in &by_name {
        out.push(metric(
            format!("{name}.calls_per_op"),
            *calls as f64 / n,
            "count",
        ));
        out.push(metric(format!("{name}.ms_per_op"), ms / n, "ms"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc::obs::baseline::{parse_json, Json};

    /// `(name, unit)` of every metric in one `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                other => panic!("bad metric entry {other:?}"),
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = parse_json(include_str!("../../../../BENCHMARK.json")).unwrap();
        let names = |key| -> Vec<String> { listed(&doc, key).into_iter().map(|m| m.0).collect() };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }

    #[test]
    fn quick_suite_prints_every_metric_and_passes_every_gate() {
        let doc = parse_json(include_str!("../../../../BENCHMARK.json")).unwrap();
        let dir = std::env::temp_dir().join(format!("prlc-perf-test-{}", std::process::id()));
        for (trace, key) in [(None, "end_to_end"), (Some(dir.clone()), "per_layer")] {
            let opts = Options {
                seed: 42,
                quick: true,
                seconds: None,
                trace,
            };
            for w in WORKLOADS {
                let report = run_workload(w, &opts).unwrap();
                assert!(
                    report.correct(),
                    "{w} {key}: failed={} {:?}",
                    report.failed,
                    report.errors
                );
                for (name, unit) in listed(&doc, key) {
                    let m = report.metrics.iter().find(|m| m.name == name);
                    let m = m.unwrap_or_else(|| panic!("{w}: {name} not printed"));
                    assert_eq!(m.unit, unit, "{w}: {name}");
                    assert!(m.value.is_finite(), "{w}: {name} = {}", m.value);
                }
            }
        }
        let spans_json = std::fs::read_to_string(dir.join("timeline.spans.json")).unwrap();
        assert!(spans_json.contains("\"name\":\"net.ring.route\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flags_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, o) = parse(&args("--workload curve --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (w.as_deref(), o.seed, o.seconds, o.trace),
            (Some("curve"), 7, Some(10.0), None)
        );
        assert!(parse(&args("--trace 1")).unwrap().1.trace.is_some());
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!((quantile(&v, 0.5), quantile(&v, 0.9)), (5.0, 9.0));
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
