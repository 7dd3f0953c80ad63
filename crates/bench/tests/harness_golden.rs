//! Golden digests of every experiment's CSVs at `--quick` sizes.
//!
//! Each registry entry runs once in process; the FNV-1a digest of every
//! CSV text it returns must match `harness_golden.txt`, and no CSV may
//! appear or go missing. The quick sizes run the same code paths as a
//! full regeneration (analysis curves, Monte-Carlo runners, protocol
//! simulations), so a change to any of them that moves a printed figure
//! fails here. A deliberate change re-pins the file with the listing
//! the failure prints.

use std::collections::BTreeMap;

use prlc_bench::{RunOpts, EXPERIMENTS};
use prlc_obs::baseline::digest64;

#[test]
fn quick_csvs_match_their_golden_digests() {
    let opts = RunOpts::parse(["--quick".to_string()]).expect("valid flags");
    let mut got = BTreeMap::new();
    for exp in EXPERIMENTS {
        let same_name = EXPERIMENTS.iter().filter(|e| e.name == exp.name).count();
        assert_eq!(same_name, 1, "{} names {same_name} entries", exp.name);
        for csv in (exp.run)(&opts) {
            let file = format!("{}.csv", csv.name);
            let digest = digest64(&csv.table.to_csv());
            assert!(
                got.insert(file.clone(), digest).is_none(),
                "{} emits {file}, which another entry already emitted",
                exp.name
            );
        }
    }

    let golden = include_str!("harness_golden.txt");
    let want: BTreeMap<String, String> = golden
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (file, digest) = l.split_once(' ').expect("`<file> <digest>` line");
            (file.to_string(), digest.to_string())
        })
        .collect();
    let listing: String = got.iter().map(|(f, d)| format!("{f} {d}\n")).collect();
    assert!(
        got == want,
        "harness CSV digests moved; the current listing is:\n{listing}"
    );
}
