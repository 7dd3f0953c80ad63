//! The experiments registry: every table and figure of the paper's
//! evaluation, and every ablation from DESIGN.md, as one row of
//! [`EXPERIMENTS`].
//!
//! An entry's `run` computes its tables and returns them; the
//! `experiments` binary prints each one as an aligned table and writes
//! its CSV twin under `results/`:
//!
//! ```text
//! cargo run --release -p prlc-bench --bin experiments -- [NAME...] [flags]
//! ```
//!
//! No `NAME` runs every entry. Flags:
//!
//! * `--runs=N` — independent repetitions per data point (default 100,
//!   as in the paper);
//! * `--out=DIR` — output directory (default `results/`);
//! * `--seed=S` — base seed.
//!
//! Any other argument, a value that does not parse, or an unknown
//! `NAME` is an error: the binary exits with status 2 before it runs or
//! writes anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod paper;

use std::fs;
use std::path::PathBuf;

use prlc_core::{PriorityDistribution, PriorityProfile};
use prlc_sim::Table;

/// Common command-line options for every experiment.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Independent runs per data point.
    pub runs: usize,
    /// Output directory for CSV copies.
    pub out_dir: PathBuf,
    /// Base seed.
    pub seed: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            runs: 100,
            out_dir: PathBuf::from("results"),
            seed: 0xC0DE,
        }
    }
}

impl RunOpts {
    /// Parses experiment flags (without the program name or experiment
    /// names); a later flag overrides an earlier one.
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

    /// Prints a table to stdout and writes its CSV twin to
    /// `<out_dir>/<name>.csv`. The error names the path that failed.
    pub fn emit(&self, csv: &Csv) -> Result<(), String> {
        println!("\n== {} ==\n", csv.title);
        print!("{}", csv.table.render());
        fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.out_dir.display()))?;
        let path = self.out_dir.join(format!("{}.csv", csv.name));
        fs::write(&path, csv.table.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("\n[written {}]", path.display());
        Ok(())
    }
}

/// One table an experiment produced.
#[derive(Debug)]
pub struct Csv {
    /// File stem of the CSV copy.
    pub name: String,
    /// Heading printed above the rendered table.
    pub title: String,
    /// The series.
    pub table: Table,
}

impl Csv {
    /// A named, titled table.
    pub(crate) fn new(name: impl Into<String>, title: impl Into<String>, table: Table) -> Self {
        Csv {
            name: name.into(),
            title: title.into(),
            table,
        }
    }
}

/// One registry entry: a paper artifact or an ablation.
#[derive(Debug)]
pub struct Experiment {
    /// The name the `experiments` binary selects it by.
    pub name: &'static str,
    /// Computes the entry's tables; writes no file.
    pub run: fn(&RunOpts) -> Vec<Csv>,
}

/// Every experiment, in the order a full regeneration runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1_fig2",
        run: paper::fig1_fig2,
    },
    Experiment {
        name: "fig4",
        run: |o| paper::curve_figure(&paper::FIG4, o),
    },
    Experiment {
        name: "fig5",
        run: |o| paper::curve_figure(&paper::FIG5, o),
    },
    Experiment {
        name: "fig6",
        run: |o| paper::curve_figure(&paper::FIG6, o),
    },
    Experiment {
        name: "table1",
        run: paper::table1,
    },
    Experiment {
        name: "fig7",
        run: paper::fig7,
    },
    Experiment {
        name: "ablation_sparsity",
        run: ablations::sparsity,
    },
    Experiment {
        name: "ablation_failure",
        run: ablations::failure,
    },
    Experiment {
        name: "ablation_field",
        run: ablations::field,
    },
    Experiment {
        name: "ablation_loadbalance",
        run: ablations::loadbalance,
    },
    Experiment {
        name: "ablation_bandwidth",
        run: ablations::bandwidth,
    },
    Experiment {
        name: "ablation_refresh",
        run: ablations::refresh,
    },
    Experiment {
        name: "ablation_overhead",
        run: ablations::overhead,
    },
    Experiment {
        name: "sparse_rows",
        run: ablations::sparse_rows,
    },
];

/// The registry entries `names` select, in the order given; no names
/// select every entry. An unknown name is an error that lists the
/// known ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS.iter().find(|e| e.name == *name).ok_or_else(|| {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                format!("unknown experiment {name:?} (known: {})", known.join(" "))
            })
        })
        .collect()
}

/// The paper's Table 1: the priority distributions its solver found for
/// cases 1–3 over [`table1_profile`].
pub(crate) const PAPER_TABLE1: [[f64; 3]; 3] = [
    [0.5138, 0.0768, 0.4094],
    [0.0, 0.6149, 0.3851],
    [0.2894, 0.3246, 0.3860],
];

/// [`PAPER_TABLE1`]'s rows as distributions.
pub(crate) fn paper_table1_distributions() -> [PriorityDistribution; 3] {
    PAPER_TABLE1.map(|row| PriorityDistribution::from_weights(row.to_vec()).expect("valid row"))
}

/// The Sec. 5.3 profile: 500 source blocks in levels of 50, 100 and
/// 350.
pub(crate) fn table1_profile() -> PriorityProfile {
    PriorityProfile::new(vec![50, 100, 350]).expect("valid profile")
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
        assert_eq!(RunOpts::default().runs, 100);
    }

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        RunOpts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_accepts_every_documented_flag() {
        let o = parse(&["--runs=12", "--out=/x", "--seed=7"]).unwrap();
        assert_eq!((o.runs, o.seed), (12, 7));
        assert_eq!(o.out_dir, PathBuf::from("/x"));
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
            &["--paper"],
            &["fig6"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
        let e = parse(&["--runs", "100"]).unwrap_err();
        assert!(e.contains("\"--runs\""), "{e}");
    }
}
