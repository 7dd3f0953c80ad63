//! Golden digests of `prlc sim` in every mode.
//!
//! Each case runs the real binary at a small size and pins two FNV-1a
//! digests: stdout without the throughput header line (the only line
//! with a wall-clock measurement), and the `results` array of the
//! `--bench-out` envelope. A third digest pins the `--trace` dump. The
//! digests are the golden file `sim_golden.txt`, keyed
//! `<case>/{stdout,results,trace}`; the envelope and trace files stay in
//! `target/tmp/sim_golden/` for inspection. A refactor of the simulation
//! engine or the CLI must leave every digest unchanged; a failure writes
//! the current listing to `target/tmp/sim_golden.txt`, and a deliberate
//! output change re-pins by copying it over the golden file.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

use prlc_obs::{assert_golden, baseline::digest64};

/// `(name, sim arguments)`.
const CASES: &[(&str, &str)] = &[
    ("curve", "--runs 5 --seed 3"),
    ("curve-replication", "--scheme replication --runs 4 --seed 2"),
    ("timeline", "--epochs 4 --churn 0.4 --repair 2 --nodes 200 --locations 24 --runs 4 --seed 5"),
    ("timeline-churn0-repair", "--epochs 3 --churn 0 --repair 2 --nodes 200 --runs 4 --seed 6"),
    ("timeline-slc-lossy-sessions", "--scheme slc --epochs 2 --churn 0.3 --repair 2 --loss 0.2 --retries 1 --nodes 300 --locations 20 --runs 3 --seed 7"),
    ("timeline-sparse-fanout", "--epochs 3 --churn 0.3 --repair 3 --nodes 2000 --locations 30 --runs 2 --seed 11 --fanout log:2 --coeff sparse"),
    ("timeline-total-death", "--epochs 4 --churn 0.9 --repair 2 --nodes 40 --locations 20 --runs 4 --seed 1"),
    ("lossy-grid", "--loss 0,0.3 --retries 0,2 --runs 6 --seed 7"),
    ("lossy-grid-slc", "--scheme slc --loss 0.5 --nodes 120 --runs 5 --seed 8"),
    ("adversary-region", "--adversary region --adv-intensity 0.3 --adv-segment 4 --nodes 300 --locations 24 --epochs 2 --runs 4 --seed 3"),
    ("adversary-eclipse", "--adversary eclipse --nodes 200 --epochs 2 --runs 4 --seed 4"),
    ("adversary-targeted-slc", "--scheme slc --adversary targeted --adv-intensity 10 --nodes 300 --locations 24 --epochs 2 --runs 4 --seed 42"),
    ("adversary-creep-churn-repair-loss", "--adversary creep --adv-intensity 0.2 --churn 0.05 --repair 2 --loss 0.1 --retries 1 --nodes 300 --epochs 3 --runs 4 --seed 9"),
    ("adversary-targeted-sparse-fanout", "--adversary targeted --adv-intensity 30 --adv-focus 0.5 --nodes 1000 --locations 60 --fanout log:2 --coeff sparse --epochs 2 --runs 3 --seed 12"),
    ("adversary-creep-total-death", "--adversary creep --churn 0.9 --repair 1 --nodes 40 --locations 20 --epochs 3 --runs 4 --seed 2"),
];

/// The header line carrying the measured symbol throughput.
const THROUGHPUT_HEADER: &str = "prlc sim — kernel backend";

/// The digests of `[stdout, results, trace]`.
fn run_case(dir: &Path, name: &str, args: &str) -> [String; 3] {
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
    [
        digest64(&stdout.join("\n")),
        digest64(&envelope[start..end]),
        digest64(&trace),
    ]
}

#[test]
fn sim_outputs_match_golden_digests() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_golden");
    fs::create_dir_all(&dir).unwrap();
    let mut got = BTreeMap::new();
    for &(name, args) in CASES {
        let digests = run_case(&dir, name, args);
        for (field, digest) in ["stdout", "results", "trace"].into_iter().zip(digests) {
            got.insert(format!("{name}/{field}"), digest);
        }
    }
    assert_golden!("sim_golden.txt", got);
}
