//! Regenerates the paper's tables and figures and the ablations: every
//! entry of `prlc_bench::EXPERIMENTS`, or the ones named.
//!
//! ```text
//! cargo run --release -p prlc-bench --bin experiments -- [NAME...] [--runs=N] [--out=DIR] [--seed=S]
//! ```
//!
//! Bad flags or an unknown `NAME` exit with status 2 before anything
//! runs. An experiment that panics, or a CSV that cannot be written,
//! does not stop the others; the binary then exits with status 1.

use std::panic;
use std::process::ExitCode;

use prlc_bench::{select, RunOpts};

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with('-'));
    let (opts, experiments) = match RunOpts::parse(flags).and_then(|o| Ok((o, select(&names)?))) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: experiments [NAME...] [--runs=N] [--out=DIR] [--seed=S]");
            return ExitCode::from(2);
        }
    };

    let mut failures = Vec::new();
    for exp in experiments {
        println!("\n########## {} ##########", exp.name);
        // The panic hook has already printed the message.
        let Ok(tables) = panic::catch_unwind(|| (exp.run)(&opts)) else {
            failures.push(exp.name.to_string());
            continue;
        };
        for csv in &tables {
            if let Err(e) = opts.emit(csv) {
                eprintln!("error: {e}");
                failures.push(format!("{} ({})", exp.name, csv.name));
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll experiments completed.");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nFailed experiments: {}", failures.join(", "));
        ExitCode::FAILURE
    }
}
