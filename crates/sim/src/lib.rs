//! Experiment harness for the PRLC evaluation (Sec. 5 of the paper).
//!
//! Provides the simulation methodology shared by every figure and table
//! of the evaluation:
//!
//! * [`experiments`] — decoding-curve and survivability simulations over
//!   any scheme ([`Persistence`]): RLC/SLC/PLC plus the replication and
//!   Growth-Codes baselines;
//! * [`scenario`] — the one engine for networked experiments: a
//!   deployment on the ring overlay, per-epoch churn, repair and
//!   adversary strikes, and an omniscient, collected or loss × retry
//!   grid measurement after every epoch (persistence timelines, the
//!   lossy-collection sweep, structured-adversary sweeps);
//! * [`stats`] — means and 95% confidence intervals ("the average and
//!   the 95% confidence intervals from 100 independent experiments");
//! * [`runner`] — seed-split, order-deterministic parallel execution;
//! * [`metadata`] — run environment (kernel backend, threads, measured
//!   symbol throughput) for `BENCH_*.json` artifacts;
//! * [`table`] — aligned-text and CSV rendering of result series.
//!
//! # Example
//!
//! ```
//! use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
//! use prlc_gf::Gf256;
//! use prlc_sim::{simulate_decoding_curve, CurveConfig, Persistence};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let curve = simulate_decoding_curve::<Gf256>(&CurveConfig {
//!     persistence: Persistence::Coding(Scheme::Plc),
//!     profile: PriorityProfile::uniform(5, 4)?,
//!     distribution: PriorityDistribution::uniform(5),
//!     max_blocks: 40,
//!     runs: 20,
//!     seed: 7,
//! });
//! // With twice the source count in blocks, everything decodes.
//! assert!(curve.summaries[40].mean > 4.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod experiments;
pub mod metadata;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod table;

pub use bench::{bench_file_name, run_bench_probe, BENCH_PROBES};
pub use experiments::{
    growth_levels, simulate_decoding_curve, simulate_decoding_curve_with_threads,
    simulate_survivability, simulate_survivability_with_threads, CurveConfig, DecodingCurve,
    Persistence, SurvivabilityConfig,
};
pub use metadata::{measure_wall_ms, run_probe_and_reset, RunMetadata};
pub use runner::{default_threads, run_parallel, run_parallel_with_threads, run_seed, splitmix64};
pub use scenario::{
    every_epoch, results_json, rows_table, simulate_persistence_timeline,
    simulate_persistence_timeline_with_threads, Event, Measure, Row, Scenario, TimelineConfig,
    ACCOUNTING,
};
pub use stats::{summarize, summarize_trajectories, Summary};
pub use table::{fmt_f, Table};
