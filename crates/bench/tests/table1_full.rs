//! Table 1 at full size, against the committed `results/table1.csv`.
//!
//! The feasibility solver is deterministic from the uniform start, so
//! the registry's `table1` entry must print the committed CSV byte for
//! byte whatever `--seed` and `--runs` say, and every constraint of
//! every case must hold within the tolerance the table solves under.

use prlc_bench::{RunOpts, EXPERIMENTS};

/// The `tolerance` of each Table 1 `FeasibilityProblem`.
const TOLERANCE: f64 = 5e-3;

fn table1_csv(opts: &RunOpts) -> String {
    let entry = EXPERIMENTS
        .iter()
        .find(|e| e.name == "table1")
        .expect("table1 is registered");
    let csvs = (entry.run)(opts);
    assert_eq!(csvs.len(), 1, "table1 emits one CSV");
    csvs[0].table.to_csv()
}

/// The cells of one CSV line; quoted cells may hold commas.
fn cells(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut quoted) = (0, false);
    for (i, c) in line.char_indices() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => {
                out.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&line[start..]);
    out
}

#[test]
fn full_size_table1_matches_results_and_ignores_seed_and_runs() {
    let committed = include_str!("../../../results/table1.csv");
    let csv = table1_csv(&RunOpts::default());
    assert_eq!(
        csv, committed,
        "table1 moved; regenerate results/table1.csv"
    );

    let other = RunOpts {
        seed: 1,
        runs: 3,
        ..RunOpts::default()
    };
    assert_eq!(table1_csv(&other), csv, "table1 reads --seed or --runs");

    let mut lines = csv.lines();
    let header = cells(lines.next().expect("a header"));
    let slack: Vec<usize> = (0..header.len())
        .filter(|&i| header[i].starts_with("slack "))
        .collect();
    assert_eq!(slack.len(), 3, "one slack column per constraint");
    let mut rows = 0;
    for line in lines {
        let row = cells(line);
        for &i in &slack {
            let value: f64 = row[i].parse().expect("a numeric slack");
            assert!(value >= -TOLERANCE, "{}: {} = {value}", row[0], header[i]);
        }
        rows += 1;
    }
    assert_eq!(rows, 3, "three cases");
}
