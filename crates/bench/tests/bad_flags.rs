//! The `experiments` binary given a bad flag or an unknown experiment
//! fails before it writes a CSV, and a CSV it cannot write fails the run.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty scratch directory unique to this test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bad_flags-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Entries in `dir`; a missing directory counts as empty.
fn entry_count(dir: &Path) -> usize {
    fs::read_dir(dir).map_or(0, |entries| entries.count())
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

#[test]
fn bad_flags_exit_nonzero_and_write_nothing() {
    let dir = scratch_dir("bad-flags");
    let out = format!("--out={}", dir.display());
    for bad in [
        &["fig6", "--runs", "100"][..],
        &["fig6", "--seed=abc"],
        &["fig6", "--runs=x"],
        &["fig6", "--runs=0"],
        &["fig6", "--paper"],
        &["fig6", "--chrun"],
        // The removed smoke-test size is an unknown flag like any other.
        &["fig6", "--quick"],
        // fig1_fig2 writes no CSV, but it parses the same flags.
        &["fig1_fig2", "--bogus"],
        // A known name before an unknown one does not run either.
        &["fig6", "fig99"],
    ] {
        let run = experiments(&[bad, &[out.as_str()]].concat());
        assert_eq!(run.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("error:"), "{bad:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{bad:?} ran an experiment");
        assert_eq!(entry_count(&dir), 0, "{bad:?} wrote into {}", dir.display());
    }

    // A good invocation does write, so the empty directory above is
    // the flags' doing.
    let ok = experiments(&["table1", "--seed=3", &out]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(entry_count(&dir) > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_output_fails_and_names_the_path() {
    let dir = scratch_dir("unwritable");
    let file = dir.join("not-a-dir");
    fs::write(&file, "").expect("create the blocking file");
    let run = experiments(&["table1", &format!("--out={}", file.display())]);
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains(&file.display().to_string()),
        "the error does not name {}: {stderr}",
        file.display()
    );
}
