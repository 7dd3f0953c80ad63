//! Golden digests of `prlc sim` in every mode.
//!
//! Each case runs the real binary at a small size and pins two FNV-1a
//! digests: stdout without the throughput header line (the only line
//! with a wall-clock measurement), and the `results` array of the
//! `--bench-out` envelope. A third digest pins the `--trace` dump. A
//! refactor of the simulation engine or the CLI must leave all of them
//! unchanged; a deliberate output change re-pins the table below.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use prlc_obs::baseline::digest64;

/// `(name, sim arguments, stdout digest, results digest, trace digest)`.
const CASES: &[(&str, &str, &str, &str, &str)] = &[
    (
        "curve",
        "--runs 5 --seed 3",
        "fnv1a:41a02e437ca0746d",
        "fnv1a:dfffa3e045877ce6",
        "fnv1a:6877e8f0380aae4e",
    ),
    (
        "curve-replication",
        "--scheme replication --runs 4 --seed 2",
        "fnv1a:dc783e635a75fb3d",
        "fnv1a:bb507e647827a3c3",
        "fnv1a:f9f41d17cb7285db",
    ),
    (
        "timeline",
        "--epochs 4 --churn 0.4 --repair 2 --nodes 200 --locations 24 --runs 4 --seed 5",
        "fnv1a:19bc85cb46c23ff0",
        "fnv1a:57c335bc17ca5cb4",
        "fnv1a:4c3c15a916b7300a",
    ),
    (
        "timeline-churn0-repair",
        "--epochs 3 --churn 0 --repair 2 --nodes 200 --runs 4 --seed 6",
        "fnv1a:c303a29d179bcbeb",
        "fnv1a:5c5017479a87e869",
        "fnv1a:fe617011037e7e87",
    ),
    (
        "timeline-slc-lossy-sessions",
        "--scheme slc --epochs 2 --churn 0.3 --repair 2 --loss 0.2 --retries 1 --nodes 300 --locations 20 --runs 3 --seed 7",
        "fnv1a:9bc9ee689ccdf65d",
        "fnv1a:b133be55b336ddd8",
        "fnv1a:87fd7bff3c670715",
    ),
    (
        "timeline-sparse-fanout",
        "--epochs 3 --churn 0.3 --repair 3 --nodes 2000 --locations 30 --runs 2 --seed 11 --fanout log:2 --coeff sparse",
        "fnv1a:0d6dd9b76691fb1c",
        "fnv1a:0e42ec0151c9dda5",
        "fnv1a:59600d6ba8cb447c",
    ),
    (
        "timeline-total-death",
        "--epochs 4 --churn 0.9 --repair 2 --nodes 40 --locations 20 --runs 4 --seed 1",
        "fnv1a:aee8439822e5673f",
        "fnv1a:9e59a97bc8a33fca",
        "fnv1a:dddd51f50b2a34a8",
    ),
    (
        "lossy-grid",
        "--loss 0,0.3 --retries 0,2 --runs 6 --seed 7",
        "fnv1a:80bec66b8d1afd11",
        "fnv1a:7281fd41998e4059",
        "fnv1a:93ccfbef6c99f9b6",
    ),
    (
        "lossy-grid-slc",
        "--scheme slc --loss 0.5 --nodes 120 --runs 5 --seed 8",
        "fnv1a:e9345e49fd0bb373",
        "fnv1a:16166b5a3620acae",
        "fnv1a:8fe2f74c618a20b8",
    ),
    (
        "adversary-region",
        "--adversary region --adv-intensity 0.3 --adv-segment 4 --nodes 300 --locations 24 --epochs 2 --runs 4 --seed 3",
        "fnv1a:8ff95b42f3b3a983",
        "fnv1a:0673dc34fc070670",
        "fnv1a:9eb43740812fc6e7",
    ),
    (
        "adversary-eclipse",
        "--adversary eclipse --nodes 200 --epochs 2 --runs 4 --seed 4",
        "fnv1a:18cee4ebbc3703f9",
        "fnv1a:f9416f33c1cbd8d7",
        "fnv1a:68b34125003389ae",
    ),
    (
        "adversary-targeted-slc",
        "--scheme slc --adversary targeted --adv-intensity 10 --nodes 300 --locations 24 --epochs 2 --runs 4 --seed 42",
        "fnv1a:f3659b6154b780a4",
        "fnv1a:dc549f7573bf16ec",
        "fnv1a:5043bd8facc8df0b",
    ),
    (
        "adversary-creep-churn-repair-loss",
        "--adversary creep --adv-intensity 0.2 --churn 0.05 --repair 2 --loss 0.1 --retries 1 --nodes 300 --epochs 3 --runs 4 --seed 9",
        "fnv1a:657c4b10f6770c11",
        "fnv1a:7cee1c63c1aeba26",
        "fnv1a:29f0b64d01fd9a62",
    ),
    (
        "adversary-targeted-sparse-fanout",
        "--adversary targeted --adv-intensity 30 --adv-focus 0.5 --nodes 1000 --locations 60 --fanout log:2 --coeff sparse --epochs 2 --runs 3 --seed 12",
        "fnv1a:47c5b93e3d0bbbff",
        "fnv1a:bf64691233858268",
        "fnv1a:bc0200a6a6e211d6",
    ),
    (
        "adversary-creep-total-death",
        "--adversary creep --churn 0.9 --repair 1 --nodes 40 --locations 20 --epochs 3 --runs 4 --seed 2",
        "fnv1a:d1a44dad0662942a",
        "fnv1a:07e0964d722372a1",
        "fnv1a:e732775f5880f5e9",
    ),
];

/// The header line carrying the measured symbol throughput.
const THROUGHPUT_HEADER: &str = "prlc sim — kernel backend";

fn run_case(dir: &std::path::Path, name: &str, args: &str) -> (String, String, String) {
    let bench = dir.join(format!("{name}.bench.json"));
    let trace = dir.join(format!("{name}.trace.json"));
    let (bench_s, trace_s) = (bench.to_str().unwrap(), trace.to_str().unwrap());
    let out = Command::new(env!("CARGO_BIN_EXE_prlc"))
        .arg("sim")
        .args(args.split_whitespace())
        .args(["--threads", "2", "--bench-out", bench_s, "--trace", trace_s])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stdout: Vec<String> = stdout
        .lines()
        .filter(|l| !l.starts_with(THROUGHPUT_HEADER))
        .map(|l| l.replace(bench_s, "<BENCH>").replace(trace_s, "<TRACE>"))
        .collect();
    let envelope = fs::read_to_string(&bench).unwrap();
    let start = envelope.rfind(",\"results\":").expect("results field") + ",\"results\":".len();
    let end = envelope.trim_end().len() - 1;
    let trace = fs::read_to_string(&trace).unwrap();
    (
        digest64(&stdout.join("\n")),
        digest64(&envelope[start..end]),
        digest64(&trace),
    )
}

#[test]
fn sim_outputs_match_golden_digests() {
    let dir: PathBuf = std::env::temp_dir().join(format!("prlc-sim-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut mismatches = Vec::new();
    for &(name, args, stdout, results, trace) in CASES {
        let got = run_case(&dir, name, args);
        if got != (stdout.to_string(), results.to_string(), trace.to_string()) {
            mismatches.push(format!(
                "{name}: stdout {} results {} trace {}",
                got.0, got.1, got.2
            ));
        }
    }
    fs::remove_dir_all(&dir).unwrap();
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}
