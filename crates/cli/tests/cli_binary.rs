//! End-to-end tests spawning the real `prlc` binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn prlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_prlc"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prlc-bin-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = prlc().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("encode"));
    assert!(text.contains("decode"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = prlc().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn encode_decode_roundtrip_via_binary() {
    let dir = temp_dir("roundtrip");
    let input = dir.join("data.bin");
    let data: Vec<u8> = (0..20_000).map(|i| (i * 131 % 251) as u8).collect();
    fs::write(&input, &data).unwrap();
    let shards = dir.join("shards");

    let out = prlc()
        .args([
            "encode",
            input.to_str().unwrap(),
            "--out",
            shards.to_str().unwrap(),
            "--overhead",
            "2.0",
            "--levels",
            "20,80",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "encode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let info = prlc()
        .args(["info", shards.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("20000 bytes"), "{text}");
    assert!(text.contains("likely decodable"), "{text}");

    let recovered = dir.join("out.bin");
    let out = prlc()
        .args([
            "decode",
            shards.to_str().unwrap(),
            "--out",
            recovered.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fs::read(&recovered).unwrap(), data);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("integrity verified"), "{text}");

    fs::remove_dir_all(dir).unwrap();
}

/// Extracts the metrics JSON line from `sim --metrics -` stdout and
/// strips the wall-clock `timers` block (spliced last by
/// `Snapshot::to_json`), leaving the deterministic part.
fn deterministic_metrics(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("{\"counters\""))
        .unwrap_or_else(|| panic!("no metrics line in output:\n{text}"))
        .to_string();
    match line.find(",\"timers\":") {
        Some(pos) => format!("{}}}", &line[..pos]),
        None => line,
    }
}

/// The pinned-seed metrics snapshot is byte-identical across worker
/// thread counts — timing aside, observability must not perturb or be
/// perturbed by parallel execution.
#[test]
fn metrics_snapshot_is_thread_count_independent() {
    let run = |threads: &str| {
        let out = prlc()
            .args([
                "sim",
                "--loss",
                "0.3",
                "--retries",
                "2",
                "--runs",
                "40",
                "--seed",
                "7",
                "--metrics",
                "-",
            ])
            .env("PRLC_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "sim --metrics failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        deterministic_metrics(&out.stdout)
    };
    let single = run("1");
    let multi = run("4");
    assert!(
        single.contains("\"net.messages.sent\""),
        "missing transport counters: {single}"
    );
    assert_eq!(single, multi, "metrics depend on thread count");
}

/// `--metrics FILE` writes the same snapshot to disk, and `--bench-out`
/// embeds it as a `metrics` block in the envelope.
#[test]
fn metrics_file_and_bench_envelope() {
    let dir = temp_dir("metrics");
    let metrics_path = dir.join("metrics.json");
    let bench_path = dir.join("BENCH_sim.json");
    let out = prlc()
        .args([
            "sim",
            "--loss",
            "0.2",
            "--retries",
            "1",
            "--runs",
            "10",
            "--seed",
            "3",
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--bench-out",
            bench_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = fs::read_to_string(&metrics_path).unwrap();
    assert!(metrics.starts_with("{\"counters\""), "{metrics}");
    assert!(metrics.contains("\"timers\""), "{metrics}");
    let bench = fs::read_to_string(&bench_path).unwrap();
    assert!(bench.contains("\"metrics\":{\"counters\""), "{bench}");
    assert!(bench.contains("\"run_wall_ms_total\""), "{bench}");
    assert!(bench.contains("\"results\":["), "{bench}");
    fs::remove_dir_all(dir).unwrap();
}

/// Extracts the trace JSON line from `sim --trace -` stdout. The trace
/// dump contains no wall-clock content, so no stripping is needed.
fn trace_line(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    text.lines()
        .find(|l| l.starts_with("{\"tracks\""))
        .unwrap_or_else(|| panic!("no trace line in output:\n{text}"))
        .to_string()
}

/// The pinned-seed trace dump is byte-identical across worker thread
/// counts: records are grouped per run-seed track, not per thread.
#[test]
fn trace_dump_is_thread_count_independent() {
    let run = |threads: &str| {
        let out = prlc()
            .args([
                "sim",
                "--loss",
                "0.3",
                "--retries",
                "2",
                "--runs",
                "20",
                "--seed",
                "7",
                "--trace",
                "-",
            ])
            .env("PRLC_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "sim --trace failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        trace_line(&out.stdout)
    };
    let single = run("1");
    let multi = run("4");
    assert!(
        single.contains("\"name\":\"net.collect.session\""),
        "missing session spans: {single}"
    );
    assert!(
        single.contains("\"name\":\"core.decode.level_unlock\""),
        "missing unlock provenance: {single}"
    );
    assert_eq!(single, multi, "trace depends on thread count");
}

/// `--trace - --metrics -` would interleave two JSON documents on one
/// stream; the CLI must refuse instead of corrupting both.
#[test]
fn trace_and_metrics_cannot_both_target_stdout() {
    let out = prlc()
        .args([
            "sim",
            "--runs",
            "2",
            "--seed",
            "1",
            "--trace",
            "-",
            "--metrics",
            "-",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("interleave"), "{err}");
}

/// `--trace FILE` writes the dump to disk (Chrome format on request)
/// and `--bench-out` embeds the JSON form as a `trace` envelope block.
#[test]
fn trace_file_formats_and_bench_envelope() {
    let dir = temp_dir("trace");
    let trace_path = dir.join("trace.json");
    let bench_path = dir.join("BENCH_sim.json");
    let out = prlc()
        .args([
            "sim",
            "--loss",
            "0.2",
            "--retries",
            "1",
            "--runs",
            "5",
            "--seed",
            "3",
            "--trace",
            trace_path.to_str().unwrap(),
            "--bench-out",
            bench_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with("{\"tracks\""), "{trace}");
    let bench = fs::read_to_string(&bench_path).unwrap();
    assert!(bench.contains("\"trace\":{\"tracks\""), "{bench}");
    assert!(bench.contains("\"results\":["), "{bench}");

    let chrome_path = dir.join("trace.chrome.json");
    let out = prlc()
        .args([
            "sim",
            "--runs",
            "3",
            "--seed",
            "3",
            "--trace",
            chrome_path.to_str().unwrap(),
            "--trace-format",
            "chrome",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome = fs::read_to_string(&chrome_path).unwrap();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(chrome.contains("\"ph\":\"M\""), "{chrome}");
    fs::remove_dir_all(dir).unwrap();
}

/// The `trace` subcommand prints the per-level decode waterfall.
#[test]
fn trace_subcommand_prints_waterfall() {
    let out = prlc()
        .args([
            "trace", "--scheme", "plc", "--levels", "2,3,5", "--seed", "7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rows-to-unlock"), "{text}");
    assert!(text.contains("levels unlocked within"), "{text}");
}

#[test]
fn partial_decode_via_binary_after_shard_loss() {
    let dir = temp_dir("partial");
    let input = dir.join("data.bin");
    let data: Vec<u8> = (0..30_000).map(|i| (i % 256) as u8).collect();
    fs::write(&input, &data).unwrap();
    let shards = dir.join("shards");

    assert!(prlc()
        .args([
            "encode",
            input.to_str().unwrap(),
            "--out",
            shards.to_str().unwrap(),
            "--overhead",
            "1.5",
        ])
        .status()
        .unwrap()
        .success());

    // Delete the back half of the shard files (bulk levels).
    let mut files: Vec<PathBuf> = fs::read_dir(&shards)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "prlc"))
        .collect();
    files.sort();
    for f in files.iter().skip(files.len() / 3) {
        fs::remove_file(f).unwrap();
    }

    let recovered = dir.join("out.bin");
    // Without --allow-partial: non-zero exit.
    let strict = prlc()
        .args([
            "decode",
            shards.to_str().unwrap(),
            "--out",
            recovered.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!strict.status.success());

    // With --allow-partial: prefix written, exit 0.
    let partial = prlc()
        .args([
            "decode",
            shards.to_str().unwrap(),
            "--out",
            recovered.to_str().unwrap(),
            "--allow-partial",
        ])
        .output()
        .unwrap();
    assert!(
        partial.status.success(),
        "{}",
        String::from_utf8_lossy(&partial.stderr)
    );
    let text = String::from_utf8_lossy(&partial.stdout);
    assert!(text.contains("partial recovery"), "{text}");
    let prefix = fs::read(&recovered).unwrap();
    assert!(!prefix.is_empty());
    assert_eq!(&data[..prefix.len()], &prefix[..]);

    fs::remove_dir_all(dir).unwrap();
}

/// `--nodes` below the code parameters is rejected up front with an
/// actionable message, not a protocol-level panic or empty output.
#[test]
fn sim_rejects_undersized_overlay() {
    let out = prlc()
        .args(["sim", "--scheme", "plc", "--epochs", "2", "--nodes", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--nodes 5 is too small") && err.contains("at least 20 nodes"),
        "unhelpful error: {err}"
    );

    // Same guard on the lossy-sweep path.
    let out = prlc()
        .args(["sim", "--scheme", "plc", "--loss", "0.3", "--nodes", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--nodes 5 is too small"), "{err}");

    // Undersized --locations is caught too.
    let out = prlc()
        .args(["sim", "--epochs", "2", "--nodes", "100", "--locations", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--locations 3 is below"), "{err}");
}

/// `--runs 0` is rejected with an error in every sim mode instead of
/// panicking on an empty set of trajectories.
#[test]
fn sim_rejects_zero_runs_without_panicking() {
    for mode in [
        &[][..],
        &["--epochs", "2"],
        &["--loss", "0.3"],
        &["--adversary", "region"],
    ] {
        let out = prlc()
            .args(["sim", "--runs", "0"])
            .args(mode)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode:?}: {err}");
        assert!(err.contains("--runs must be at least 1"), "{mode:?}: {err}");
        assert!(!err.contains("panicked"), "{mode:?}: {err}");
    }
}

/// A huge `--max-blocks` is an error, not a capacity-overflow panic in
/// the curve's sample buffer.
#[test]
fn huge_max_blocks_is_rejected_without_panicking() {
    for command in ["sim", "trace"] {
        let out = prlc()
            .args([command, "--max-blocks", "4611686018427387904"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {err}");
        assert!(
            err.contains("--max-blocks must be at most"),
            "{command}: {err}"
        );
        assert!(!err.contains("panicked"), "{command}: {err}");
    }
}

/// A lossy-collection grid deploys with `--fanout` (fewer source blocks
/// per cached block, so different results) and with `--coeff` (a storage
/// choice only, so identical results).
#[test]
fn sim_lossy_grid_honours_fanout_and_coeff() {
    let run = |extra: &[&str]| {
        let out = prlc()
            .args([
                "sim",
                "--scheme",
                "plc",
                "--loss",
                "0.3",
                "--retries",
                "0,2",
                "--nodes",
                "400",
                "--runs",
                "6",
                "--seed",
                "13",
                "--threads",
                "1",
            ])
            .args(extra)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{extra:?}: {stdout}");
        // Drop the throughput-probe header line (wall-clock).
        stdout
            .lines()
            .skip_while(|l| !l.starts_with("lossy collection"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let all = run(&[]);
    assert!(all.starts_with("lossy collection: 400 nodes"), "{all}");
    let log = run(&["--fanout", "log:1"]);
    assert_ne!(all, log, "--fanout log:1 ignored");
    assert_eq!(
        run(&["--fanout", "log:1", "--coeff", "sparse"]),
        run(&["--fanout", "log:1", "--coeff", "dense"])
    );
}

/// The `--epochs` timeline runs end to end, honours `--nodes`, and the
/// pinned-seed output is byte-identical across worker thread counts
/// (each Monte-Carlo run is seeded by index, not by schedule).
#[test]
fn sim_timeline_honours_nodes_and_is_thread_count_independent() {
    let run = |threads: &str| {
        let out = prlc()
            .args([
                "sim",
                "--scheme",
                "plc",
                "--epochs",
                "3",
                "--churn",
                "0.2",
                "--repair",
                "2",
                "--nodes",
                "500",
                "--runs",
                "6",
                "--seed",
                "11",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let one = run("1");
    assert!(one.contains("persistence timeline: 500 nodes"), "{one}");
    assert!(one.contains("epoch"), "{one}");
    // 3 epochs + baseline: rows 0..=3 present.
    assert!(one.contains("\n3 "), "{one}");
    let four = run("4");
    // Drop the throughput-probe header line (wall-clock) before diffing.
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("persistence timeline"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(tail(&one), tail(&four));
}

/// A fault-injected timeline on a large overlay exercises the event
/// runtime's lazy node state: metrics and trace dumps stay available
/// and the run completes quickly even at N=20000 in a debug build.
#[test]
fn sim_timeline_large_overlay_with_faults_and_bench_envelope() {
    let dir = temp_dir("timeline-bench");
    let bench = dir.join("BENCH_timeline.json");
    let out = prlc()
        .args([
            "sim",
            "--scheme",
            "plc",
            "--epochs",
            "2",
            "--churn",
            "0.1",
            "--repair",
            "2",
            "--loss",
            "0.2",
            "--retries",
            "1",
            "--nodes",
            "20000",
            "--runs",
            "2",
            "--seed",
            "3",
            "--threads",
            "1",
            "--metrics",
            "-",
            "--trace",
            dir.join("trace.json").to_str().unwrap(),
            "--bench-out",
            bench.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = deterministic_metrics(&out.stdout);
    assert!(metrics.contains("net.event.nodes_touched"), "{metrics}");
    let trace = fs::read_to_string(dir.join("trace.json")).unwrap();
    assert!(trace.starts_with("{\"tracks\""), "{trace}");
    assert!(trace.contains("sim.timeline.epoch"), "{trace}");
    let envelope = fs::read_to_string(&bench).unwrap();
    assert!(envelope.contains("\"results\":["), "{envelope}");
    assert!(envelope.contains("\"epoch\":2"), "{envelope}");
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn bench_write_check_and_negative_roundtrip() {
    let dir = temp_dir("bench");
    // Write a fresh kernel baseline (the only probe cheap enough for a
    // debug-profile binary test).
    let out = prlc()
        .args(["bench", "--probe", "kernel", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "bench write failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = fs::read_to_string(dir.join("BENCH_kernel.json")).unwrap();
    assert!(
        baseline.starts_with("{\"bench_schema_version\":1,"),
        "{baseline}"
    );
    assert!(baseline.contains("\"probe\":\"kernel\""), "{baseline}");
    assert!(
        baseline.contains("\"backend\":\"dispatched\""),
        "{baseline}"
    );

    // Self-check against the freshly written baseline passes and emits
    // the delta table plus a findings report with zero findings.
    let report = dir.join("delta.json");
    let out = prlc()
        .args([
            "bench",
            "--check",
            "--probe",
            "kernel",
            "--baseline-dir",
            dir.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "bench check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bench check clean"), "{text}");
    assert!(text.contains("mb_s"), "{text}");
    let findings = fs::read_to_string(&report).unwrap();
    assert!(findings.contains("\"findings\":[]"), "{findings}");

    // A perturbed deterministic field (the probe name itself) fails with
    // a machine-readable finding and a nonzero exit.
    let perturbed = baseline.replace("\"slice_len\":65536", "\"slice_len\":1");
    assert_ne!(perturbed, baseline);
    fs::write(dir.join("BENCH_kernel.json"), perturbed).unwrap();
    let out = prlc()
        .args([
            "bench",
            "--check",
            "--probe",
            "kernel",
            "--baseline-dir",
            dir.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deterministic-drift"), "{err}");
    let findings = fs::read_to_string(&report).unwrap();
    assert!(
        findings.contains("\"kind\":\"deterministic-drift\""),
        "{findings}"
    );
    assert!(findings.contains("config.slice_len"), "{findings}");

    // Unknown probe names are rejected up front.
    let out = prlc().args(["bench", "--probe", "nope"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown probe"));
    fs::remove_dir_all(dir).unwrap();
}

/// `bench --out DIR` creates a missing `DIR` (parents included) before
/// any probe runs, instead of failing on the write after the whole run.
#[test]
fn bench_out_creates_a_fresh_nested_directory() {
    let dir = temp_dir("bench-out");
    let nested = dir.join("fresh").join("baselines");
    let out = prlc()
        .args([
            "bench",
            "--probe",
            "kernel",
            "--out",
            nested.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "bench write failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = fs::read_to_string(nested.join("BENCH_kernel.json")).unwrap();
    assert!(baseline.contains("\"probe\":\"kernel\""), "{baseline}");
    fs::remove_dir_all(dir).unwrap();
}

/// A misspelt flag is an error naming it, not a silent default: before
/// flags were checked, `sim --chrun 0.3` ran with no churn at all.
#[test]
fn sim_rejects_unknown_flag() {
    let out = prlc()
        .args(["sim", "--epochs", "1", "--chrun", "0.3"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown flag \"--chrun\""), "{err}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `prlc <cmd> --help` prints the usage instead of running the command.
#[test]
fn subcommand_help_prints_usage_without_running() {
    let out = prlc().args(["sim", "--help"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"), "{text}");
    // The run header `prlc sim — kernel backend ...` never printed.
    assert!(!text.contains("prlc sim —"), "the simulation ran: {text}");
}

/// An unknown `bench` flag fails before any probe runs, so no baseline
/// in the working directory is overwritten.
#[test]
fn bench_rejects_unknown_flag_without_writing() {
    let dir = temp_dir("bench-bogus");
    let out = prlc()
        .args(["bench", "--bogus"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown flag \"--bogus\""), "{err}");
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "bench wrote files");
    fs::remove_dir_all(dir).unwrap();
}

/// Writes a checksum-valid PLC manifest with the given fields into `dir`.
fn write_manifest(dir: &std::path::Path, file_len: u64, block_size: u32, level_sizes: Vec<u32>) {
    let manifest = prlc_cli::format::Manifest {
        file_len,
        block_size,
        scheme: prlc_core::Scheme::Plc,
        level_sizes,
        file_hash: 0,
    };
    manifest
        .write_to(fs::File::create(dir.join("manifest.prlcm")).unwrap())
        .unwrap();
}

/// Runs `prlc decode` on `shards`, expecting a clean failure: exit 1
/// with an error message (an aborted allocation exits 134).
fn assert_decode_fails_cleanly(shards: &std::path::Path, expected: &str) {
    let out = prlc()
        .args([
            "decode",
            shards.to_str().unwrap(),
            "--out",
            shards.join("out.bin").to_str().unwrap(),
            "--allow-partial",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("error: ") && err.contains(expected), "{err}");
}

/// A manifest whose level sizes list more blocks than its file fills is
/// rejected when it is read: one listing `u32::MAX` blocks for a 1-byte
/// file used to make `decode` allocate 64 GiB and abort.
#[test]
fn decode_rejects_a_manifest_whose_levels_overrun_its_file() {
    let dir = temp_dir("hostile-manifest");
    write_manifest(&dir, 1, 1, vec![u32::MAX]);
    assert_eq!(fs::metadata(dir.join("manifest.prlcm")).unwrap().len(), 46);
    assert_decode_fails_cleanly(&dir, "level sizes list 4294967295 blocks");
    let info = prlc()
        .args(["info", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(info.status.code(), Some(1));
    fs::remove_dir_all(dir).unwrap();
}

/// A consistent manifest for a 4 GiB file is valid, but `decode` builds
/// no decoder until a shard with all of its coefficients arrives, so
/// shards that do not fit cost no memory.
#[test]
fn decode_sizes_its_decoder_by_the_shards_it_reads() {
    let dir = temp_dir("huge-manifest");
    write_manifest(&dir, u64::from(u32::MAX), 1, vec![u32::MAX]);
    let block = prlc_core::CodedBlock {
        level: 0,
        coefficients: prlc_core::CoeffRow::from_dense(vec![prlc_gf::Gf256::new(1); 4]),
        payload: vec![prlc_gf::Gf256::new(2)],
    };
    let shard = fs::File::create(dir.join("shard-00000.prlc")).unwrap();
    prlc_cli::format::write_shard(shard, &block).unwrap();
    assert_decode_fails_cleanly(&dir, "nothing recoverable from 0 shards");
    fs::remove_dir_all(dir).unwrap();
}
