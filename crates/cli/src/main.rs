//! The `prlc` command-line tool: priority-coded file persistence.

use std::path::PathBuf;
use std::process::ExitCode;

use prlc_cli::{decode, encode, info, DecodeOptions, EncodeOptions};
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::{kernel, Gf256};
use prlc_net::{AdversaryPlan, AdversaryStrategy, CoeffRep, FaultPlan, RetryPolicy, SourceFanout};
use prlc_obs::baseline::{envelope_json, Json, Tolerances};
use prlc_sim::{
    bench_file_name, every_epoch, fmt_f, results_json, rows_table, run_bench_probe,
    run_probe_and_reset, runner, simulate_decoding_curve_with_threads, CurveConfig, Event, Measure,
    Persistence, RunMetadata, Scenario, Table, BENCH_PROBES,
};

const USAGE: &str = "\
prlc — priority random linear codes for files (ICDCS 2007 reproduction)

USAGE:
  prlc encode <FILE> --out <DIR> [--block-size N] [--levels a,b,c]
              [--overhead X] [--scheme rlc|slc|plc] [--seed S]
  prlc decode <DIR> --out <FILE> [--allow-partial]
  prlc info <DIR>
  prlc sim [--scheme rlc|slc|plc|replication|growth] [--levels a,b,c]
           [--max-blocks M] [--runs R] [--seed S] [--threads T]
           [--loss p1,p2,...] [--retries r1,r2,...]
           [--nodes N] [--locations M]
           [--epochs E] [--churn p] [--repair D]
           [--adversary region|eclipse|targeted|creep]
           [--adv-intensity X] [--adv-segment L] [--adv-focus p]
           [--fanout all|log:F] [--coeff dense|sparse]
           [--bench-out FILE] [--metrics FILE|-]
           [--trace FILE|-] [--trace-format json|chrome]
  prlc trace [--scheme rlc|slc|plc] [--levels a,b,c] [--max-blocks M]
             [--seed S] [--out FILE|-] [--format json|chrome]
  prlc bench [--check] [--out DIR] [--baseline-dir DIR]
             [--probe p1,p2,...] [--threads T]
             [--tolerance F] [--wall-tolerance F] [--report FILE]

The encoder splits FILE into priority levels (leading bytes = most
important), generates overhead·N coded shards, and writes them plus a
manifest into DIR. The decoder recovers the file from whatever shards
remain — with --allow-partial it writes the longest decodable prefix.

`sim` runs the in-memory decoding-curve experiment (paper Sec. 5) over
GF(2⁸): decoded priority levels vs accumulated coded blocks, averaged
over R >= 1 runs with 95% confidence intervals. --threads defaults to
the available parallelism; the run header reports the selected GF
kernel backend and its measured symbol throughput. --bench-out writes
the curve plus that run metadata as JSON (a BENCH_*.json artifact).

--adversary, --epochs, --loss or --retries turn `sim` into a networked
scenario (coding schemes only): blocks are predistributed on a ring
overlay, failures strike epoch by epoch, and a measurement follows
every epoch. --nodes sets the overlay size and --locations the storage
locations (defaults scale with the code); --fanout and --coeff shape
the deployment as described below.

With --loss and/or --retries alone, `sim` sweeps collection over a
fault-injected transport: a node-failure event strikes 30% of the
nodes, then a collector gathers the survivors while each per-node
query is dropped with probability --loss and retried up to --retries
times. Both flags take comma-separated lists and form a grid.

With --epochs, `sim` runs a long-horizon persistence timeline: one
deployment, then E churn epochs each killing an alive node with
probability --churn (default 0.2), optionally followed by an
in-network repair pass combining --repair donor blocks per lost slot.
Here --loss and --retries take single values and fault-inject the
protocol sessions themselves. The array-backed ring and the lazy
per-node session state make N=10^5 overlays (--nodes 100000) run in
seconds. --fanout log:F routes each source block to ceil(F·ln N) of
its eligible locations instead of all of them, and --coeff sparse
stores cached coefficient rows as sorted (index, value) pairs instead
of dense length-N vectors — together they bound both the bandwidth and
the per-block memory at O(ln N). Results are identical between --coeff
dense and --coeff sparse for the same seed.

With --adversary, `sim` mounts a structured fault adversary on the
deployed overlay and reports per-epoch decoded
levels plus per-level survival frequencies, collected through the
faulted transport. Strategies: `region` crashes contiguous ring
segments (anchor fraction --adv-intensity, default 0.05; segment
length --adv-segment, default 4), `eclipse` concentrates loss on
traffic leaving through the collector's finger neighborhood
(--adv-intensity = loss, default 0.9), `targeted` adaptively crashes
the caches holding the highest-level blocks (--adv-intensity = kill
count, default locations/4; --adv-focus = greedy-pick probability,
default 1.0), `creep` silently compromises nodes every epoch
(--adv-intensity = per-epoch rate, default 0.1) — compromised nodes
stay in the overlay where repair cannot see them. --epochs (default
4), --churn (default 0 here), --repair, --loss/--retries, --nodes,
--locations, --fanout and --coeff compose as in the timeline mode.

--metrics enables the prlc-obs recorder and dumps the full metrics
snapshot (counters, histograms, timers) as one JSON object to
FILE, or to stdout with `-`. Everything except the timers block is
deterministic for a fixed seed, independent of thread count. The same
snapshot is embedded as a \"metrics\" block in --bench-out envelopes.
Setting PRLC_OBS=1 enables recording without a dump.

--trace enables the deterministic causal tracer and dumps the recorded
spans and instant events — stamped with logical clocks, one track per
Monte-Carlo run — to FILE, or stdout with `-`. --trace-format picks
the deterministic JSON layout (default) or the Chrome Trace Event
format, loadable in Perfetto / chrome://tracing. Dumps are
byte-identical across --threads values and kernel backends; the dump
is also embedded as a \"trace\" block in --bench-out envelopes. At
most one of --trace and --metrics may target stdout. PRLC_TRACE=1
enables recording without a dump.

`trace` replays one pinned-seed decoding run (coding schemes only)
with the tracer on and prints the per-level decode waterfall: the
number of coded blocks consumed when each priority level unlocked.
--out additionally exports the raw trace like `sim --trace`.

`bench` runs the canonical pinned-seed probe suite (the
lossy-collection sweep, the N=10^5 timeline, the targeted-adversary
sweep, per-layer micro-benchmarks) and writes one versioned
BENCH_<probe>.json envelope per probe into --out (default: the current
directory) — the files committed at the repo root as perf baselines.
With --check it instead re-runs the probes and diffs each envelope
against --baseline-dir (default: the current directory): deterministic
fields (results, metrics, trace digests) must match exactly,
environmental measurements (MB/s, wall-clock ms) must sit inside a
multiplicative tolerance band (--tolerance, default 25;
--wall-tolerance, default 100). It prints the run-delta table, writes
machine-readable findings JSON to --report if given, and exits nonzero
on any finding. --probe restricts the suite to a comma-separated
subset.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let args = &args[1..];
    let mut positional = None;
    if let Some((values, switches)) = accepted_flags(command) {
        match check_flags(command, args, values, switches)? {
            Checked::Help => {
                println!("{USAGE}");
                return Ok(());
            }
            Checked::Run(first) => positional = first,
        }
    }
    match command.as_str() {
        "encode" => cmd_encode(positional, args),
        "decode" => cmd_decode(positional, args),
        "info" => cmd_info(positional),
        "sim" => cmd_sim(args),
        "trace" => cmd_trace(args),
        "bench" => cmd_bench(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// The flags a subcommand accepts: those that take a value (`--flag V`
/// or `--flag=V`), then the switches. `None` for anything that is not a
/// subcommand.
fn accepted_flags(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match command {
        "encode" => (
            &[
                "--out",
                "--block-size",
                "--levels",
                "--overhead",
                "--scheme",
                "--seed",
            ],
            &[],
        ),
        "decode" => (&["--out"], &["--allow-partial"]),
        "info" => (&[], &[]),
        "sim" => (
            &[
                "--scheme",
                "--levels",
                "--max-blocks",
                "--runs",
                "--seed",
                "--threads",
                "--loss",
                "--retries",
                "--nodes",
                "--locations",
                "--epochs",
                "--churn",
                "--repair",
                "--adversary",
                "--adv-intensity",
                "--adv-segment",
                "--adv-focus",
                "--fanout",
                "--coeff",
                "--bench-out",
                "--metrics",
                "--trace",
                "--trace-format",
            ],
            &[],
        ),
        "trace" => (
            &[
                "--scheme",
                "--levels",
                "--max-blocks",
                "--seed",
                "--out",
                "--format",
            ],
            &[],
        ),
        "bench" => (
            &[
                "--out",
                "--baseline-dir",
                "--probe",
                "--threads",
                "--tolerance",
                "--wall-tolerance",
                "--report",
            ],
            &["--check"],
        ),
        _ => return None,
    })
}

/// What [`check_flags`] found in a subcommand's arguments.
enum Checked<'a> {
    /// `--help` or `-h`: print the usage and run nothing.
    Help,
    /// Every flag is accepted; carries the first argument that is
    /// neither a flag nor a flag's value, if there is one.
    Run(Option<&'a str>),
}

/// Checks a subcommand's arguments against the flags it accepts, before
/// it does anything, and finds its positional argument. Errs naming the
/// first flag the subcommand does not accept. Values of value-taking
/// flags are skipped, so `--seed -1` passes.
fn check_flags<'a>(
    command: &str,
    args: &'a [String],
    values: &[&str],
    switches: &[&str],
) -> Result<Checked<'a>, String> {
    let mut positional = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Checked::Help);
        }
        if !arg.starts_with('-') || arg == "-" {
            positional = positional.or(Some(arg.as_str()));
            continue;
        }
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        if values.contains(&name) {
            if !inline_value {
                rest.next();
            }
        } else if switches.contains(&name) {
            if inline_value {
                return Err(format!("{command}: {name} takes no value"));
            }
        } else {
            return Err(format!(
                "{command}: unknown flag {name:?} (see `prlc {command} --help`)"
            ));
        }
    }
    Ok(Checked::Run(positional))
}

/// Pulls `--flag value` or `--flag=value` out of `args`.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Ok(Some(v.to_string()));
        }
        if a == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The one-line run header shared by every subcommand that does field
/// arithmetic: which GF kernel backend this process dispatched to.
fn print_kernel_header(task: &str) {
    println!(
        "prlc {task} — kernel backend {}",
        kernel::active_backend_description()
    );
}

fn cmd_encode(input: Option<&str>, args: &[String]) -> Result<(), String> {
    let input = input.ok_or("encode: missing input file")?;
    print_kernel_header("encode");
    let out = flag_value(args, "--out")?.ok_or("encode: missing --out DIR")?;
    let mut opts = EncodeOptions::default();
    opts.block_size = parse_or(args, "--block-size", opts.block_size)?;
    if let Some(v) = flag_value(args, "--levels")? {
        opts.level_shares = parse_list(&v).map_err(|_| "bad --levels (expect e.g. 10,30,60)")?;
    }
    opts.overhead = parse_or(args, "--overhead", opts.overhead)?;
    if let Some(v) = flag_value(args, "--scheme")? {
        opts.scheme = match v.to_ascii_lowercase().as_str() {
            "rlc" => Scheme::Rlc,
            "slc" => Scheme::Slc,
            "plc" => Scheme::Plc,
            _ => return Err("bad --scheme (rlc|slc|plc)".into()),
        };
    }
    opts.seed = parse_or(args, "--seed", opts.seed)?;
    let shards =
        encode(&PathBuf::from(input), &PathBuf::from(&out), &opts).map_err(|e| e.to_string())?;
    println!("wrote {shards} shards + manifest to {out}");
    Ok(())
}

fn cmd_decode(dir: Option<&str>, args: &[String]) -> Result<(), String> {
    let dir = dir.ok_or("decode: missing shard directory")?;
    let out = flag_value(args, "--out")?.ok_or("decode: missing --out FILE")?;
    print_kernel_header("decode");
    let opts = DecodeOptions {
        allow_partial: has_flag(args, "--allow-partial"),
    };
    let outcome =
        decode(&PathBuf::from(dir), &PathBuf::from(&out), &opts).map_err(|e| e.to_string())?;
    if outcome.complete {
        println!(
            "recovered {} bytes (complete, integrity verified) from {} shards",
            outcome.recovered_bytes, outcome.shards_read
        );
    } else {
        println!(
            "partial recovery: {} bytes, {}/{} priority levels, from {} shards \
             ({} skipped)",
            outcome.recovered_bytes,
            outcome.levels_recovered,
            outcome.levels_total,
            outcome.shards_read,
            outcome.shards_skipped
        );
    }
    Ok(())
}

fn cmd_info(dir: Option<&str>) -> Result<(), String> {
    let dir = dir.ok_or("info: missing shard directory")?;
    let report = info(&PathBuf::from(dir)).map_err(|e| e.to_string())?;
    let m = &report.manifest;
    println!("file length : {} bytes", m.file_len);
    println!("block size  : {} bytes", m.block_size);
    println!("scheme      : {:?}", m.scheme);
    println!(
        "blocks      : {} in {} levels",
        m.total_blocks(),
        m.level_sizes.len()
    );
    for (i, (&size, &present)) in m
        .level_sizes
        .iter()
        .zip(&report.shards_per_level)
        .enumerate()
    {
        let status = if present >= size as usize {
            "likely decodable"
        } else {
            "under-provisioned"
        };
        println!(
            "  level {}: {} source blocks, {} shards present ({status})",
            i + 1,
            size,
            present
        );
    }
    if report.shards_skipped > 0 {
        println!(
            "skipped     : {} corrupt/foreign files",
            report.shards_skipped
        );
    }
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let persistence = scheme_flag(args)?;
    let profile = levels_flag(args)?;
    let distribution = PriorityDistribution::uniform(profile.num_levels());
    let max_blocks = max_blocks_flag(args, &profile)?;
    let runs: usize = parse_or(args, "--runs", 100)?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let seed = parse_or(args, "--seed", 1)?;
    let threads = threads_flag(args)?;
    let networked = sim_scenario(args, persistence, &profile, &distribution, runs, seed)?;

    let metrics_out = flag_value(args, "--metrics")?;
    let trace_out = flag_value(args, "--trace")?;
    let trace_format = flag_value(args, "--trace-format")?.unwrap_or_else(|| "json".to_string());
    if trace_format != "json" && trace_format != "chrome" {
        return Err(format!(
            "--trace-format must be json|chrome, got {trace_format:?}"
        ));
    }
    if trace_out.as_deref() == Some("-") && metrics_out.as_deref() == Some("-") {
        return Err(
            "--trace - and --metrics - both target stdout and would interleave; \
                    write at least one of them to a file"
                .into(),
        );
    }
    if metrics_out.is_some() {
        prlc_obs::enable();
    }
    if trace_out.is_some() {
        prlc_obs::trace::enable();
    }

    // Run header: environment first, so perf numbers in the output are
    // attributable to a backend and worker count. The shared helper also
    // clears the recorders of the throughput probe's own kernel traffic.
    let mut meta = run_probe_and_reset(threads);
    println!(
        "prlc sim — kernel backend {}, {} threads, {} MB/s symbol throughput",
        meta.kernel_backend,
        meta.threads,
        fmt_f(meta.symbol_throughput_mb_s, 0)
    );
    println!(
        "scheme {persistence}, levels {:?}, {runs} runs, seed {seed}",
        (0..profile.num_levels())
            .map(|l| profile.blocks_of(l).count())
            .collect::<Vec<_>>()
    );

    let (label, results) = match networked {
        Some((scenario, label, description)) => {
            println!("{description}");
            let rows = scenario
                .run::<Gf256>(threads)
                .map_err(|e| format!("{label} failed: {e}"))?;
            println!("{}", rows_table(&rows).render());
            (label, results_json(&rows))
        }
        None => {
            let cfg = CurveConfig {
                persistence,
                profile,
                distribution,
                max_blocks,
                runs,
                seed,
            };
            let curve = simulate_decoding_curve_with_threads::<Gf256>(&cfg, threads);
            let mut table = Table::new(["blocks", "levels", "ci95"]);
            for m in (0..=max_blocks).step_by((max_blocks / 20).max(1)) {
                let s = curve.summaries[m];
                table.push_row([m.to_string(), fmt_f(s.mean, 3), fmt_f(s.ci95, 3)]);
            }
            println!("{}", table.render());
            let rows = curve.summaries.iter().enumerate().map(|(m, s)| {
                Json::obj([
                    ("blocks", Json::uint(m as u64)),
                    ("mean", Json::fixed(s.mean, 6)),
                    ("ci95", Json::fixed(s.ci95, 6)),
                ])
            });
            ("curve", Json::Arr(rows.collect()).render())
        }
    };

    let metrics_json = match metrics_out.as_deref() {
        Some(dest) => Some(finish_metrics(&mut meta, dest)?),
        None => None,
    };
    let trace_json = match trace_out.as_deref() {
        Some(dest) => Some(finish_trace(dest, &trace_format)?),
        None => None,
    };
    if let Some(path) = flag_value(args, "--bench-out")? {
        // `results` stays the last member: the golden tests slice the
        // envelope from its last `,"results":` to the end.
        let mut members = vec![("run_metadata", meta.to_json())];
        members.extend(metrics_json.map(|m| ("metrics", m)));
        members.extend(trace_json.map(|t| ("trace", t)));
        members.push(("results", results));
        std::fs::write(&path, envelope_json(&members) + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {label} + run metadata to {path}");
    }
    Ok(())
}

/// `sim --scheme`, defaulting to PLC.
fn scheme_flag(args: &[String]) -> Result<Persistence, String> {
    Ok(
        match flag_value(args, "--scheme")?
            .map(|s| s.to_ascii_lowercase())
            .as_deref()
        {
            None | Some("plc") => Persistence::Coding(Scheme::Plc),
            Some("rlc") => Persistence::Coding(Scheme::Rlc),
            Some("slc") => Persistence::Coding(Scheme::Slc),
            Some("replication") => Persistence::Replication,
            Some("growth") => Persistence::Growth,
            Some(_) => return Err("bad --scheme (rlc|slc|plc|replication|growth)".into()),
        },
    )
}

/// Parses `--flag value` as a `T`, or returns `default` when absent.
fn parse_or<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag)? {
        Some(v) => v.parse().map_err(|_| format!("bad {flag}")),
        None => Ok(default),
    }
}

/// Parses a comma-separated list.
fn parse_list<T: std::str::FromStr>(v: &str) -> Result<Vec<T>, T::Err> {
    v.split(',').map(|s| s.trim().parse()).collect()
}

/// `--threads`, defaulting to the available parallelism.
fn threads_flag(args: &[String]) -> Result<usize, String> {
    match parse_or(args, "--threads", runner::default_threads())? {
        0 => Err("--threads must be at least 1".into()),
        t => Ok(t),
    }
}

/// Most coded blocks a decoding curve (`sim`, `trace`) replays: each run
/// keeps one sample per block, so an absurd count would only exhaust
/// memory.
const MAX_BLOCKS: usize = 10_000_000;

/// `--max-blocks`, defaulting to three times the profile's block count.
fn max_blocks_flag(args: &[String], profile: &PriorityProfile) -> Result<usize, String> {
    let max_blocks = parse_or(
        args,
        "--max-blocks",
        profile.total_blocks().saturating_mul(3),
    )?;
    if max_blocks > MAX_BLOCKS {
        return Err(format!("--max-blocks must be at most {MAX_BLOCKS}"));
    }
    Ok(max_blocks)
}

/// `--levels a,b,c` as a priority profile, defaulting to `2,3,5`.
fn levels_flag(args: &[String]) -> Result<PriorityProfile, String> {
    let sizes = parse_list(flag_value(args, "--levels")?.as_deref().unwrap_or("2,3,5"))
        .map_err(|_| "bad --levels (expect e.g. 2,3,5)")?;
    PriorityProfile::new(sizes).map_err(|e| format!("bad --levels: {e}"))
}

/// The `bench` subcommand: run the canonical probe suite and either
/// write fresh `BENCH_<probe>.json` baselines (default) or diff the
/// suite against committed baselines and gate on the result (--check).
fn cmd_bench(args: &[String]) -> Result<(), String> {
    use prlc_obs::baseline::{diff_envelopes, findings_json};

    let BenchOptions {
        check,
        probes,
        threads,
        tol,
    } = bench_options(args)?;

    // Baseline envelopes always carry the deterministic metrics block
    // and the trace digest, so the check has exact fields to hold.
    prlc_obs::enable();
    prlc_obs::trace::enable();
    println!(
        "prlc bench — kernel backend {}, {} threads, probes: {}",
        kernel::active_backend_description(),
        threads,
        probes.join(", ")
    );

    if !check {
        let out_dir = flag_value(args, "--out")?.unwrap_or_else(|| ".".to_string());
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
        for probe in &probes {
            let env = run_bench_probe(probe, threads)?;
            let path = std::path::Path::new(&out_dir).join(bench_file_name(probe));
            std::fs::write(&path, env).map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        return Ok(());
    }

    let baseline_dir = flag_value(args, "--baseline-dir")?.unwrap_or_else(|| ".".to_string());
    let mut reports = Vec::new();
    for probe in &probes {
        let path = std::path::Path::new(&baseline_dir).join(bench_file_name(probe));
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading baseline {}: {e}", path.display()))?;
        let current = run_bench_probe(probe, threads)?;
        reports.push(diff_envelopes(probe, &baseline, &current, &tol)?);
    }

    // The run-delta table: every environmental measurement with its
    // signed change, plus label moves (backend, threads) at `n/a`.
    let mut table = Table::new(["probe", "field", "baseline", "current", "delta", "band"]);
    for r in &reports {
        for d in &r.deltas {
            table.push_row([
                d.probe.clone(),
                d.path.clone(),
                d.baseline.clone(),
                d.current.clone(),
                match d.delta_pct {
                    Some(p) if p.is_finite() => format!("{p:+.1}%"),
                    _ => "n/a".to_string(),
                },
                if d.in_band { "ok" } else { "OUT" }.to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    let findings: usize = reports.iter().map(|r| r.findings.len()).sum();
    for r in &reports {
        for f in &r.findings {
            eprintln!(
                "FINDING [{}] {}: {} — baseline {}, current {}",
                f.kind.code(),
                f.probe,
                f.path,
                f.baseline,
                f.current
            );
        }
    }
    if let Some(report_path) = flag_value(args, "--report")? {
        std::fs::write(&report_path, findings_json(&reports))
            .map_err(|e| format!("writing {report_path}: {e}"))?;
        println!("wrote findings report to {report_path}");
    }
    if findings > 0 {
        Err(format!(
            "bench check failed: {findings} finding(s) across {} probe(s)",
            reports.iter().filter(|r| !r.clean()).count()
        ))
    } else {
        println!(
            "bench check clean: {} probe(s), {} environmental delta(s) in band",
            reports.len(),
            reports.iter().map(|r| r.deltas.len()).sum::<usize>()
        );
        Ok(())
    }
}

/// `prlc bench`'s parsed flags, apart from the paths it reads or writes.
struct BenchOptions {
    check: bool,
    probes: Vec<String>,
    threads: usize,
    tol: Tolerances,
}

fn bench_options(args: &[String]) -> Result<BenchOptions, String> {
    let probes: Vec<String> = match flag_value(args, "--probe")? {
        Some(v) => {
            let list: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
            for p in &list {
                if !BENCH_PROBES.contains(&p.as_str()) {
                    return Err(format!(
                        "unknown probe {p:?} (want one of {})",
                        BENCH_PROBES.join(", ")
                    ));
                }
            }
            list
        }
        None => BENCH_PROBES.iter().map(|s| s.to_string()).collect(),
    };
    let threads = threads_flag(args)?;
    let mut tol = Tolerances::default();
    if let Some(v) = flag_value(args, "--tolerance")? {
        tol.throughput_factor = parse_band_factor(&v, "--tolerance")?;
    }
    if let Some(v) = flag_value(args, "--wall-tolerance")? {
        tol.wall_factor = parse_band_factor(&v, "--wall-tolerance")?;
    }
    Ok(BenchOptions {
        check: has_flag(args, "--check"),
        probes,
        threads,
        tol,
    })
}

/// Parses a tolerance band factor: a finite number >= 1.
fn parse_band_factor(v: &str, flag: &str) -> Result<f64, String> {
    let f: f64 = v.parse().map_err(|_| format!("bad {flag}"))?;
    if !f.is_finite() || f < 1.0 {
        return Err(format!("{flag} must be a finite factor >= 1"));
    }
    Ok(f)
}

/// Finalises a metrics-enabled `sim` run: folds the `sim.run` timer into
/// the metadata, renders the full snapshot, and delivers it to `dest`
/// (`-` = one JSON line on stdout). Returns the JSON so callers can also
/// embed it in a bench envelope.
fn finish_metrics(meta: &mut RunMetadata, dest: &str) -> Result<String, String> {
    meta.aggregate_obs_timing();
    let json = prlc_obs::snapshot().to_json();
    if dest == "-" {
        println!("{json}");
    } else {
        std::fs::write(dest, format!("{json}\n")).map_err(|e| format!("writing {dest}: {e}"))?;
        println!("wrote metrics to {dest}");
    }
    Ok(json)
}

/// Finalises a trace-enabled run: renders the recorded trace in the
/// requested format and delivers it to `dest` (`-` = stdout). Returns
/// the rendering so callers can also embed it in a bench envelope.
fn finish_trace(dest: &str, format: &str) -> Result<String, String> {
    let snap = prlc_obs::trace::snapshot();
    let rendered = match format {
        "chrome" => snap.to_chrome_trace(),
        _ => snap.to_json(),
    };
    if dest == "-" {
        println!("{rendered}");
    } else {
        std::fs::write(dest, format!("{rendered}\n"))
            .map_err(|e| format!("writing {dest}: {e}"))?;
        println!("wrote trace to {dest}");
    }
    Ok(rendered)
}

/// The `trace` subcommand: replay one pinned-seed decoding run with the
/// causal tracer on and print the per-level decode waterfall (coded
/// blocks consumed at each level unlock).
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let TraceOptions {
        scheme,
        profile,
        max_blocks,
        seed,
        out,
        format,
    } = trace_options(args)?;

    print_kernel_header("trace");
    println!(
        "scheme {}, levels {:?}, 1 run, seed {seed}",
        Persistence::Coding(scheme),
        (0..profile.num_levels())
            .map(|l| profile.blocks_of(l).count())
            .collect::<Vec<_>>()
    );

    prlc_obs::trace::enable();
    prlc_obs::trace::reset();
    let cfg = CurveConfig {
        persistence: Persistence::Coding(scheme),
        profile: profile.clone(),
        distribution: PriorityDistribution::uniform(profile.num_levels()),
        max_blocks,
        runs: 1,
        seed,
    };
    simulate_decoding_curve_with_threads::<Gf256>(&cfg, 1);
    let snap = prlc_obs::trace::snapshot();

    // Per-level unlock ticks from the provenance instants: tick is the
    // count of coded blocks the decoder had consumed at the unlock.
    let mut unlock: Vec<Option<u64>> = vec![None; profile.num_levels()];
    for (_, rec) in snap.iter() {
        if rec.name() != "core.decode.level_unlock" {
            continue;
        }
        if let Some(level) = rec.arg("level") {
            if let Some(slot) = unlock.get_mut(level as usize) {
                slot.get_or_insert(rec.tick());
            }
        }
    }

    let mut table = Table::new(["level", "size", "rows-to-unlock"]);
    for (l, tick) in unlock.iter().enumerate() {
        table.push_row([
            (l + 1).to_string(),
            profile.blocks_of(l).count().to_string(),
            tick.map_or_else(|| "-".to_string(), |t| t.to_string()),
        ]);
    }
    println!("{}", table.render());
    let unlocked = unlock.iter().filter(|u| u.is_some()).count();
    println!(
        "{unlocked}/{} levels unlocked within {max_blocks} coded blocks",
        profile.num_levels()
    );

    if let Some(dest) = out {
        finish_trace(&dest, &format)?;
    }
    Ok(())
}

/// `prlc trace`'s parsed flags.
struct TraceOptions {
    scheme: Scheme,
    profile: PriorityProfile,
    max_blocks: usize,
    seed: u64,
    out: Option<String>,
    format: String,
}

fn trace_options(args: &[String]) -> Result<TraceOptions, String> {
    let scheme = match flag_value(args, "--scheme")?
        .map(|s| s.to_ascii_lowercase())
        .as_deref()
    {
        None | Some("plc") => Scheme::Plc,
        Some("rlc") => Scheme::Rlc,
        Some("slc") => Scheme::Slc,
        Some(_) => return Err("trace: bad --scheme (rlc|slc|plc)".into()),
    };
    let profile = levels_flag(args)?;
    let max_blocks = max_blocks_flag(args, &profile)?;
    let seed = parse_or(args, "--seed", 1)?;
    let out = flag_value(args, "--out")?;
    let format = flag_value(args, "--format")?.unwrap_or_else(|| "json".to_string());
    if format != "json" && format != "chrome" {
        return Err(format!("--format must be json|chrome, got {format:?}"));
    }
    Ok(TraceOptions {
        scheme,
        profile,
        max_blocks,
        seed,
        out,
        format,
    })
}

/// Most epochs a networked `sim` accepts: a scenario lists each epoch's
/// events up front, so an absurd count would only exhaust memory.
const MAX_EPOCHS: usize = 100_000;

/// Fraction of nodes a lossy-collection sweep fails before collecting.
const LOSSY_NODE_FAILURE: f64 = 0.3;

/// Parses the networked `sim` flags into a scenario, the name messages
/// use for it and the line describing it. `--adversary` mounts an
/// attack, else `--epochs` runs a persistence timeline, else `--loss` /
/// `--retries` sweep a lossy-collection grid; with none of them the run
/// is the in-memory decoding curve (`None`).
fn sim_scenario(
    args: &[String],
    persistence: Persistence,
    profile: &PriorityProfile,
    distribution: &PriorityDistribution,
    runs: usize,
    seed: u64,
) -> Result<Option<(Scenario, &'static str, String)>, String> {
    let adversary = flag_value(args, "--adversary")?;
    let epochs = flag_value(args, "--epochs")?;
    let losses = flag_value(args, "--loss")?;
    let retries = flag_value(args, "--retries")?;
    let (mode_flag, label) = match (&adversary, &epochs) {
        (Some(_), _) => ("--adversary", "adversary sweep"),
        (None, Some(_)) => ("--epochs", "persistence timeline"),
        _ if losses.is_some() || retries.is_some() => {
            ("--loss/--retries", "lossy-collection sweep")
        }
        _ => return Ok(None),
    };
    let grid = adversary.is_none() && epochs.is_none();
    let Persistence::Coding(scheme) = persistence else {
        return Err(format!(
            "{mode_flag} needs a coding scheme (rlc|slc|plc): the baselines have no \
             networked persistence path"
        ));
    };
    let (nodes, locations) = overlay_geometry(args, profile)?;

    // A grid sweeps lists; a timeline or attack fault-injects its own
    // protocol sessions with one loss rate and one retry budget.
    let (default_losses, default_retries) = if grid {
        ("0,0.1,0.3,0.5", "0,1,3")
    } else {
        ("0", "0")
    };
    let losses: Vec<f64> = parse_list(losses.as_deref().unwrap_or(default_losses))
        .map_err(|_| "bad --loss (expect e.g. 0,0.2,0.5)")?;
    if losses.iter().any(|p| !(0.0..=1.0).contains(p)) {
        return Err("--loss rates must be in [0,1]".into());
    }
    let retry_budgets: Vec<usize> = parse_list(retries.as_deref().unwrap_or(default_retries))
        .map_err(|_| "bad --retries (expect e.g. 0,1,3)")?;
    if !grid && (losses.len() > 1 || retry_budgets.len() > 1) {
        return Err(format!(
            "--loss and --retries take a single value with {mode_flag}; \
             lists sweep a lossy-collection grid"
        ));
    }
    let epochs: usize = parse_or(args, "--epochs", 4)?;
    if !(1..=MAX_EPOCHS).contains(&epochs) {
        return Err(format!("--epochs must be in 1..={MAX_EPOCHS}"));
    }
    let churn: f64 = parse_or(args, "--churn", if adversary.is_some() { 0.0 } else { 0.2 })?;
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be in [0,1]".into());
    }
    let repair: Option<usize> = match flag_value(args, "--repair")? {
        Some(v) => match v.parse().map_err(|_| "bad --repair")? {
            0 => return Err("--repair needs at least one donor per slot".into()),
            d => Some(d),
        },
        None => None,
    };
    let fanout = match flag_value(args, "--fanout")?.as_deref() {
        None | Some("all") => SourceFanout::All,
        Some(v) => match v.strip_prefix("log:").map(str::parse::<f64>) {
            Some(Ok(factor)) if factor.is_finite() && factor > 0.0 => SourceFanout::Log { factor },
            Some(_) => return Err("--fanout log factor must be finite and > 0".into()),
            None => return Err(format!("bad --fanout {v:?} (want all or log:F)")),
        },
    };
    let coeff_rep = match flag_value(args, "--coeff")?.as_deref() {
        None | Some("dense") => CoeffRep::Dense,
        Some("sparse") => CoeffRep::Sparse,
        Some(v) => return Err(format!("bad --coeff {v:?} (want dense or sparse)")),
    };
    let strategy = match adversary.as_deref() {
        Some(name) => Some(adversary_strategy(args, name, locations)?),
        None => None,
    };

    let mut events = Vec::new();
    if strategy.is_some() {
        events.push(Event::Strike);
    }
    // A timeline churns every epoch, even at zero; an attack runs without
    // background churn unless asked for.
    if strategy.is_none() || churn > 0.0 {
        events.push(Event::Churn(churn));
    }
    events.extend(repair.map(|donors| Event::Repair { donors }));
    let description = if grid {
        format!(
            "lossy collection: {nodes} nodes, {locations} locations, {}% node failure",
            fmt_f(LOSSY_NODE_FAILURE * 100.0, 0)
        )
    } else {
        format!(
            "{label}: {}{nodes} nodes, {locations} locations, {epochs} epochs, churn {}, \
             repair {}, loss {}",
            strategy.map_or_else(String::new, |s| format!("{s:?}, ")),
            fmt_f(churn, 2),
            repair.map_or_else(|| "off".to_string(), |d| format!("{d} donors")),
            fmt_f(losses[0], 2),
        )
    };
    let faults = if !grid && losses[0] > 0.0 {
        FaultPlan::lossy(
            losses[0],
            RetryPolicy::with_retries(retry_budgets[0], 1),
            seed,
        )
    } else {
        FaultPlan::none()
    };
    let scenario = Scenario {
        scheme,
        profile: profile.clone(),
        distribution: distribution.clone(),
        nodes,
        locations,
        fanout,
        coeff_rep,
        faults,
        adversary: strategy.map(|strategy| AdversaryPlan {
            strategy,
            after_messages: 0,
            seed,
        }),
        // The lossy sweep's failure event strikes once, before its only
        // measurement.
        epochs: if grid {
            vec![vec![Event::Churn(LOSSY_NODE_FAILURE)]]
        } else {
            every_epoch(epochs, &events)
        },
        measure: match (grid, strategy) {
            (true, _) => Measure::Grid {
                losses,
                retry_budgets,
            },
            (false, Some(_)) => Measure::Collect,
            (false, None) => Measure::Omniscient,
        },
        runs,
        seed,
    };
    Ok(Some((scenario, label, description)))
}

/// Parses `--nodes` / `--locations` for the overlay-backed sim paths,
/// with validation against the code parameters: an overlay that cannot
/// hold a decodable deployment is rejected up front with an actionable
/// message instead of failing deep inside the protocol.
fn overlay_geometry(args: &[String], profile: &PriorityProfile) -> Result<(usize, usize), String> {
    let total = profile.total_blocks();
    let nodes = parse_or(args, "--nodes", total.max(20).saturating_mul(4))?;
    if nodes < total.saturating_mul(2) {
        return Err(format!(
            "--nodes {nodes} is too small for this code: {total} source blocks \
             need at least {} nodes (2x the code width) to hold a decodable \
             set of storage locations",
            total.saturating_mul(2)
        ));
    }
    // nodes/2 like the original sweeps, capped so that huge overlays
    // (--nodes 100000) keep a code-sized deployment instead of scaling
    // the location count with the network.
    let locations = parse_or(
        args,
        "--locations",
        (nodes / 2).min(total.max(20).saturating_mul(4)),
    )?;
    if locations < total {
        return Err(format!(
            "--locations {locations} is below the code width {total}: the \
             deployment could never be fully decodable"
        ));
    }
    Ok((nodes, locations))
}

/// Parses `--adversary NAME` with its `--adv-intensity`, `--adv-segment`
/// and `--adv-focus` knobs.
fn adversary_strategy(
    args: &[String],
    name: &str,
    locations: usize,
) -> Result<AdversaryStrategy, String> {
    let unit = |v: f64, what: &str| {
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(format!("{what} must be in [0,1]"))
        }
    };
    Ok(match name {
        "region" => {
            let fraction = parse_or(args, "--adv-intensity", 0.05)?;
            let segment_len = parse_or(args, "--adv-segment", 4)?;
            if segment_len == 0 {
                return Err("--adv-segment must be at least 1".into());
            }
            AdversaryStrategy::Region {
                fraction: unit(fraction, "--adv-intensity (region fraction)")?,
                segment_len,
            }
        }
        "eclipse" => AdversaryStrategy::Eclipse {
            loss: unit(
                parse_or(args, "--adv-intensity", 0.9)?,
                "--adv-intensity (eclipse loss)",
            )?,
        },
        "targeted" => AdversaryStrategy::Targeted {
            kills: parse_or(args, "--adv-intensity", locations / 4)
                .map_err(|e| format!("{e} (targeted takes a kill count)"))?,
            focus: unit(parse_or(args, "--adv-focus", 1.0)?, "--adv-focus")?,
        },
        "creep" => AdversaryStrategy::Creep {
            per_epoch: unit(
                parse_or(args, "--adv-intensity", 0.1)?,
                "--adv-intensity (creep rate)",
            )?,
        },
        _ => {
            return Err(format!(
                "bad --adversary {name:?} (want region|eclipse|targeted|creep)"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Every subcommand with a flag list.
    const COMMANDS: [&str; 6] = ["encode", "decode", "info", "sim", "trace", "bench"];

    /// Values that sit on the edges of the flags' parsers.
    const EDGE_VALUES: &[&str] = &[
        "0",
        "1",
        "-1",
        "2",
        "0.5",
        "1.5",
        "-0",
        "nan",
        "inf",
        "-inf",
        "1e308",
        "4294967295",
        "4294967296",
        "9223372036854775807",
        "18446744073709551615",
        "18446744073709551616",
        "2,3,5",
        "1,18446744073709551615",
        "9223372036854775807,9223372036854775807",
        "0,0.1,0.3",
        ",",
        "",
        "-",
        "--",
        "log:2",
        "log:0",
        "log:nan",
        "log:1e308",
        "log:",
        "all",
        "sparse",
        "dense",
        "plc",
        "rlc",
        "slc",
        "replication",
        "growth",
        "region",
        "eclipse",
        "targeted",
        "creep",
        "json",
        "chrome",
        "text",
        "kernel",
        "timeline,sparse",
        "lossy,",
        "10000000",
        "10000001",
        "é",
    ];

    /// Every flag name any subcommand accepts.
    fn all_flags() -> Vec<&'static str> {
        let mut flags: Vec<&str> = COMMANDS
            .iter()
            .filter_map(|c| accepted_flags(c))
            .flat_map(|(values, switches)| values.iter().chain(switches).copied())
            .collect();
        flags.extend(["--help", "-h"]);
        flags
    }

    /// One argument: an accepted flag, an edge value, the two joined by
    /// `=`, or random text.
    fn argument() -> impl Strategy<Value = String> {
        let pick = |list: &[&str], i: usize| list[i % list.len()].to_string();
        prop_oneof![
            4 => any::<usize>().prop_map(move |i| pick(&all_flags(), i)),
            4 => any::<usize>().prop_map(move |i| pick(EDGE_VALUES, i)),
            2 => (any::<usize>(), any::<usize>())
                .prop_map(move |(f, v)| format!("{}={}", pick(&all_flags(), f), pick(EDGE_VALUES, v))),
            1 => prop::collection::vec(any::<u8>(), 0..12)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Flag checking, the networked `sim` parser and the `trace`
        /// and `bench` option parsers return `Ok` or `Err` on any
        /// argument vector; none of them panics. Nothing runs:
        /// `sim_scenario` only builds the scenario.
        #[test]
        fn argument_parsing_never_panics(
            args in prop::collection::vec(argument(), 0..12),
        ) {
            for command in COMMANDS {
                let (values, switches) = accepted_flags(command).unwrap_or_default();
                let _ = check_flags(command, &args, values, switches);
            }
            if let Ok(trace) = trace_options(&args) {
                prop_assert!(trace.max_blocks <= MAX_BLOCKS);
                prop_assert!(trace.format == "json" || trace.format == "chrome");
            }
            if let Ok(bench) = bench_options(&args) {
                prop_assert!(bench.threads >= 1);
                prop_assert!(bench.tol.throughput_factor >= 1.0 && bench.tol.wall_factor >= 1.0);
                prop_assert!(bench.probes.iter().all(|p| BENCH_PROBES.contains(&p.as_str())));
            }
            let persistence = scheme_flag(&args);
            let profile = levels_flag(&args);
            let runs = parse_or(&args, "--runs", 100);
            let seed = parse_or(&args, "--seed", 1);
            if let (Ok(persistence), Ok(profile), Ok(runs), Ok(seed)) = (persistence, profile, runs, seed) {
                let distribution = PriorityDistribution::uniform(profile.num_levels());
                let _ = sim_scenario(&args, persistence, &profile, &distribution, runs, seed);
            }
        }
    }

    /// Each `prlc <cmd> ...` synopsis in [`USAGE`] (with its continuation
    /// lines), as the command and the `--flag`s it names.
    fn usage_synopses() -> Vec<(String, BTreeSet<String>)> {
        let mut synopses: Vec<(String, BTreeSet<String>)> = Vec::new();
        let section = USAGE
            .lines()
            .skip_while(|line| *line != "USAGE:")
            .skip(1)
            .take_while(|line| !line.is_empty());
        for line in section {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"prlc") {
                words.next();
                let command = words.next().unwrap_or_default().to_string();
                synopses.push((command, BTreeSet::new()));
            }
            let Some((_, flags)) = synopses.last_mut() else {
                continue;
            };
            for word in words {
                let word = word.trim_start_matches('[');
                if word.starts_with("--") {
                    let name: String = word
                        .chars()
                        .take_while(|&c| c == '-' || c.is_ascii_lowercase())
                        .collect();
                    flags.insert(name);
                }
            }
        }
        synopses
    }

    #[test]
    fn accepted_flags_match_the_usage_synopses() {
        let synopses = usage_synopses();
        let commands: Vec<&str> = synopses.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(commands, COMMANDS);
        for (command, documented) in &synopses {
            let (values, switches) =
                accepted_flags(command).unwrap_or_else(|| panic!("{command} has no flag list"));
            let accepted: BTreeSet<String> = values
                .iter()
                .chain(switches)
                .map(|f| f.to_string())
                .collect();
            assert_eq!(&accepted, documented, "prlc {command}");
        }
    }

    #[test]
    fn check_flags_finds_the_first_positional() {
        let args: Vec<String> = ["--out", "o.bin", "shards", "--allow-partial", "more"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        let (values, switches) = accepted_flags("decode").unwrap_or_default();
        match check_flags("decode", &args, values, switches) {
            Ok(Checked::Run(first)) => assert_eq!(first, Some("shards")),
            Ok(Checked::Help) => panic!("no help was asked for"),
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn max_blocks_is_capped_before_anything_allocates() {
        let args = |v: &str| vec!["--max-blocks".to_string(), v.to_string()];
        let profile = PriorityProfile::new(vec![2, 3, 5]).unwrap();
        assert_eq!(max_blocks_flag(&[], &profile), Ok(30));
        assert_eq!(max_blocks_flag(&args("10000000"), &profile), Ok(MAX_BLOCKS));
        for bad in ["10000001", "18446744073709551615", "-1", "x"] {
            assert!(max_blocks_flag(&args(bad), &profile).is_err(), "{bad}");
            assert!(trace_options(&args(bad)).is_err(), "{bad}");
        }
    }
}
