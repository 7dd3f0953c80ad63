//! Every registry entry at full size, against the committed `results/`.
//!
//! The paper reports each figure at one size, and so does the registry:
//! `results/` holds exactly the CSVs the `experiments` binary writes at
//! its defaults. Each entry runs once in process, and every CSV it
//! returns must equal `results/<name>.csv` byte for byte. No two entries
//! may share a name, no CSV may be emitted twice, and the emitted set
//! must be exactly the files under `results/`. A failure names every
//! moved file and its first differing line. `table1_full.rs` adds the
//! checks that only Table 1 has.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use prlc_bench::{RunOpts, EXPERIMENTS};

/// The one way to re-pin `results/`.
const REPIN: &str =
    "a deliberate change re-pins with `cargo run --release -p prlc-bench --bin experiments`";

/// The first line where `current` departs from `pinned`, or `None` if
/// they are equal. Lines keep their terminators, so a missing final
/// newline shows too.
fn first_difference(pinned: &str, current: &str) -> Option<String> {
    let (mut p, mut c) = (pinned.split_inclusive('\n'), current.split_inclusive('\n'));
    let show = |line: Option<&str>| line.map_or("end of file".to_string(), |l| format!("{l:?}"));
    for n in 1.. {
        match (p.next(), c.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => return Some(format!("line {n}: pinned {}, current {}", show(a), show(b))),
        }
    }
    unreachable!("the loop returns at the end of both texts")
}

#[test]
fn every_csv_matches_results_at_full_size() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();

    let mut problems = Vec::new();
    let mut names = BTreeSet::new();
    let mut emitted = BTreeSet::new();
    for exp in EXPERIMENTS {
        if !names.insert(exp.name) {
            problems.push(format!("two entries are named {}", exp.name));
        }
        for csv in (exp.run)(&RunOpts::default()) {
            let file = format!("{}.csv", csv.name);
            if !emitted.insert(file.clone()) {
                problems.push(format!("{file} is emitted twice, again by {}", exp.name));
            } else if !committed.contains(&file) {
                problems.push(format!("{} emits {file}, which results/ lacks", exp.name));
            } else {
                let pinned = fs::read_to_string(dir.join(&file)).expect("a UTF-8 CSV");
                if let Some(diff) = first_difference(&pinned, &csv.table.to_csv()) {
                    problems.push(format!("results/{file} moved at {diff}"));
                }
            }
        }
    }
    for stray in committed.difference(&emitted) {
        problems.push(format!("results/{stray} is emitted by no entry"));
    }
    assert!(problems.is_empty(), "{}\n{REPIN}", problems.join("\n"));
}
