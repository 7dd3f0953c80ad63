//! Golden digests of every harness binary's CSVs at `--quick` sizes.
//!
//! Each binary runs once with `--quick --out=<scratch dir>`; the FNV-1a
//! digest of every CSV it writes must match `harness_golden.txt`, and
//! no CSV may appear or go missing. The quick sizes run the same code
//! paths as a full regeneration (analysis curves, Monte-Carlo runners,
//! protocol simulations), so a change to any of them that moves a
//! printed figure fails here. A deliberate change re-pins the file with
//! the listing the failure prints.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use prlc_obs::baseline::digest64;

/// Every harness binary except `all_experiments`, which only spawns
/// twelve of these.
const BINARIES: &[(&str, &str)] = &[
    ("fig1_fig2", env!("CARGO_BIN_EXE_fig1_fig2")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("sparse_rows", env!("CARGO_BIN_EXE_sparse_rows")),
    (
        "ablation_bandwidth",
        env!("CARGO_BIN_EXE_ablation_bandwidth"),
    ),
    ("ablation_failure", env!("CARGO_BIN_EXE_ablation_failure")),
    ("ablation_field", env!("CARGO_BIN_EXE_ablation_field")),
    (
        "ablation_loadbalance",
        env!("CARGO_BIN_EXE_ablation_loadbalance"),
    ),
    ("ablation_overhead", env!("CARGO_BIN_EXE_ablation_overhead")),
    ("ablation_refresh", env!("CARGO_BIN_EXE_ablation_refresh")),
    ("ablation_sparsity", env!("CARGO_BIN_EXE_ablation_sparsity")),
];

/// A fresh, empty scratch directory unique to this test and process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prlc-bench-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `<csv file name> <digest>` per line, sorted by file name.
fn digests(dir: &Path) -> BTreeMap<String, String> {
    fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let text = fs::read_to_string(&path).expect("read CSV");
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), digest64(&text))
        })
        .collect()
}

#[test]
fn quick_csvs_match_their_golden_digests() {
    let dir = scratch_dir("harness-golden");
    let out = format!("--out={}", dir.display());
    for &(name, exe) in BINARIES {
        let run = Command::new(exe)
            .args(["--quick", &out])
            .output()
            .unwrap_or_else(|e| panic!("run {name}: {e}"));
        assert!(
            run.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let got = digests(&dir);
    let _ = fs::remove_dir_all(&dir);

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
