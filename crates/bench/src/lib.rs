//! Shared plumbing for the benchmark-harness binaries.
//!
//! Every `fig*`/`table*`/`ablation_*` binary regenerates one table or
//! figure of the paper's evaluation (or one ablation from DESIGN.md),
//! prints the series as an aligned table, and writes a CSV copy under
//! `results/`. Common flags:
//!
//! * `--runs=N` — independent repetitions per data point (default 40;
//!   the paper uses 100);
//! * `--paper` — paper fidelity (100 runs);
//! * `--quick` — smoke-test sizes for CI;
//! * `--out=DIR` — output directory (default `results/`);
//! * `--seed=S` — base seed.
//!
//! Any other argument, or a value that does not parse, is an error: the
//! binary exits with status 2 before it runs or writes anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

/// Common command-line options for harness binaries.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Independent runs per data point.
    pub runs: usize,
    /// Smoke-test mode: shrink problem sizes drastically.
    pub quick: bool,
    /// Output directory for CSV copies.
    pub out_dir: PathBuf,
    /// Base seed.
    pub seed: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            runs: 40,
            quick: false,
            out_dir: PathBuf::from("results"),
            seed: 0xC0DE,
        }
    }
}

impl RunOpts {
    /// Parses `std::env::args`. An unknown flag or an unparsable value
    /// prints the error and the accepted flags, then exits with status 2
    /// before the binary does any work or writes any file.
    pub fn from_args() -> Self {
        RunOpts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: [--runs=N] [--paper] [--quick] [--out=DIR] [--seed=S]");
            std::process::exit(2);
        })
    }

    /// Parses harness flags (without the program name). Flags apply in
    /// order, so `--quick` caps only the run count set before it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = RunOpts::default();
        for arg in args {
            if let Some(v) = arg.strip_prefix("--runs=") {
                opts.runs = match v.parse() {
                    Ok(0) | Err(_) => {
                        return Err(format!("--runs expects a positive integer, got {v:?}"))
                    }
                    Ok(n) => n,
                };
            } else if arg == "--paper" {
                opts.runs = 100;
            } else if arg == "--quick" {
                opts.quick = true;
                opts.runs = opts.runs.min(8);
            } else if let Some(v) = arg.strip_prefix("--out=") {
                opts.out_dir = PathBuf::from(v);
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got {v:?}"))?;
            } else {
                return Err(format!(
                    "unknown argument {arg:?} (value flags take the form --flag=VALUE)"
                ));
            }
        }
        Ok(opts)
    }

    /// Prints a rendered table to stdout and writes its CSV twin to
    /// `<out_dir>/<name>.csv`.
    pub fn emit(&self, name: &str, title: &str, table: &prlc_sim::Table) {
        println!("\n== {title} ==\n");
        print!("{}", table.render());
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{name}.csv"));
        match fs::write(&path, table.to_csv()) {
            Ok(()) => println!("\n[written {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Evenly spaced sample points `0..=max` with the given step (always
/// includes `max`).
pub fn sample_points(max: usize, step: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = (0..=max).step_by(step.max(1)).collect();
    if *pts.last().unwrap_or(&0) != max {
        pts.push(max);
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_points_cover_endpoints() {
        assert_eq!(sample_points(10, 5), vec![0, 5, 10]);
        assert_eq!(sample_points(11, 5), vec![0, 5, 10, 11]);
        assert_eq!(sample_points(0, 5), vec![0]);
        assert_eq!(sample_points(3, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn default_opts() {
        let o = RunOpts::default();
        assert_eq!(o.runs, 40);
        assert!(!o.quick);
    }

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        RunOpts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_accepts_every_documented_flag() {
        let o = parse(&["--runs=12", "--out=/x", "--seed=7"]).unwrap();
        assert_eq!((o.runs, o.seed, o.quick), (12, 7, false));
        assert_eq!(o.out_dir, PathBuf::from("/x"));
        assert_eq!(parse(&["--paper"]).unwrap().runs, 100);
        assert_eq!(parse(&["--paper", "--quick"]).unwrap().runs, 8);
        assert_eq!(parse(&["--quick", "--runs=30"]).unwrap().runs, 30);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_bad_values() {
        for bad in [
            &["--runs", "100"][..],
            &["--seed=abc"],
            &["--runs=x"],
            &["--runs=0"],
            &["--runs=-3"],
            &["--seed=-1"],
            &["--quick", "--bogus"],
            &["fig6"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
        let e = parse(&["--runs", "100"]).unwrap_err();
        assert!(e.contains("\"--runs\""), "{e}");
    }
}
