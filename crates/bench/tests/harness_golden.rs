//! Golden digests of every experiment's CSVs at `--quick` sizes.
//!
//! Each registry entry runs once in process; the FNV-1a digest of every
//! CSV text it returns must match `harness_golden.txt`, and no CSV may
//! appear or go missing. The quick sizes run the same code paths as a
//! full regeneration (analysis curves, Monte-Carlo runners, protocol
//! simulations), so a change to any of them that moves a printed figure
//! fails here. A failure writes the current listing to
//! `target/tmp/harness_golden.txt`, and a deliberate change re-pins by
//! copying it over the golden file.

use std::collections::BTreeMap;

use prlc_bench::{RunOpts, EXPERIMENTS};
use prlc_obs::{assert_golden, baseline::digest64};

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

    assert_golden!("harness_golden.txt", got);
}
