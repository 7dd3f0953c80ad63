//! A harness binary given a bad flag must fail before it writes a CSV.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty scratch directory unique to this test and process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prlc-bench-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Entries in `dir`; a missing directory counts as empty.
fn entry_count(dir: &Path) -> usize {
    fs::read_dir(dir).map_or(0, |entries| entries.count())
}

#[test]
fn bad_flags_exit_nonzero_and_write_nothing() {
    let dir = scratch_dir("bad-flags");
    let out = format!("--out={}", dir.display());
    for bad in [
        &["--runs", "100"][..],
        &["--seed=abc"],
        &["--runs=x"],
        &["--runs=0"],
        &["--quick", "--chrun"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_fig6"))
            .args(bad)
            .arg("--quick")
            .arg(&out)
            .output()
            .expect("run fig6");
        assert_eq!(status.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&status.stderr);
        assert!(stderr.contains("error:"), "{bad:?}: {stderr}");
        assert_eq!(entry_count(&dir), 0, "{bad:?} wrote into {}", dir.display());
    }

    // The same invocation with good flags does write, so the empty
    // directory above is the flags' doing.
    let ok = Command::new(env!("CARGO_BIN_EXE_fig6"))
        .args(["--quick", "--seed=3", &out])
        .output()
        .expect("run fig6");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(entry_count(&dir) > 0);
    let _ = fs::remove_dir_all(&dir);
}
