//! Run metadata: which kernel backend an experiment executed with, how
//! many worker threads it used, and the measured GF(2⁸) symbol
//! throughput — recorded alongside results so `BENCH_*.json` files
//! capture the performance trajectory of the codebase, not just the
//! statistical outputs.

use std::time::{Duration, Instant};

use prlc_gf::{kernel, Gf256, GfElem};
use prlc_obs::baseline::Json;

/// Environment metadata attached to an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetadata {
    /// The dispatched kernel backend, including the SIMD instruction set
    /// when relevant — e.g. `"simd(avx2)"`, `"table"`, `"scalar"`.
    pub kernel_backend: String,
    /// Worker threads the runner executed with.
    pub threads: usize,
    /// Measured GF(2⁸) `axpy` throughput over 64 KiB symbol slices, in
    /// MB/s (destination bytes written per second; 1 MB = 10⁶ bytes).
    pub symbol_throughput_mb_s: f64,
    /// Total wall-clock time spent inside experiment runs, in
    /// milliseconds, aggregated from the `sim.run` span timer when
    /// metrics are enabled ([`RunMetadata::aggregate_obs_timing`]).
    /// `None` when metrics were off; omitted from the JSON in that case.
    pub run_wall_ms_total: Option<f64>,
}

impl RunMetadata {
    /// Collects metadata for a run executing on `threads` workers:
    /// queries the active kernel backend and measures symbol throughput.
    pub fn collect(threads: usize) -> Self {
        RunMetadata {
            kernel_backend: kernel::active_backend_description(),
            threads,
            symbol_throughput_mb_s: measure_symbol_throughput_mb_s(),
            run_wall_ms_total: None,
        }
    }

    /// Fills [`run_wall_ms_total`](Self::run_wall_ms_total) from the
    /// global `sim.run` span timer, if any runs were timed (metrics
    /// enabled). Call after the experiment sweep finishes and before
    /// serialising the metadata.
    pub fn aggregate_obs_timing(&mut self) {
        let snap = prlc_obs::snapshot();
        if let Some((_, timer)) = snap.timers.iter().find(|(name, _)| *name == "sim.run") {
            if timer.count > 0 {
                self.run_wall_ms_total = Some(timer.total_nanos as f64 / 1e6);
            }
        }
    }

    /// Renders the metadata as a JSON object — the `run_metadata`
    /// member of every `BENCH_*.json` envelope. A non-finite throughput
    /// (a zero-duration or failed measurement) is emitted as `null`
    /// ([`Json::fixed`]); a non-finite wall time is omitted like an
    /// absent one.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("kernel_backend", Json::Str(self.kernel_backend.clone())),
            ("threads", Json::uint(self.threads as u64)),
            (
                "symbol_throughput_mb_s",
                Json::fixed(self.symbol_throughput_mb_s, 1),
            ),
        ];
        if let Some(ms) = self.run_wall_ms_total.filter(|ms| ms.is_finite()) {
            fields.push(("run_wall_ms_total", Json::fixed(ms, 1)));
        }
        Json::obj(fields).render()
    }
}

/// Collects [`RunMetadata`] for a sweep about to start and clears the
/// global metrics and trace recorders (when enabled), so the workload's
/// observability output is not polluted by the throughput probe's own
/// GF kernel traffic. The single entry point shared by `prlc sim` and
/// every `prlc bench` probe — keeping the two paths from drifting.
pub fn run_probe_and_reset(threads: usize) -> RunMetadata {
    let meta = RunMetadata::collect(threads);
    if prlc_obs::enabled() {
        prlc_obs::reset();
    }
    if prlc_obs::trace::enabled() {
        prlc_obs::trace::reset();
    }
    meta
}

/// Runs `f` and returns its result together with the elapsed wall-clock
/// milliseconds. Lives here — not in the bench module — because this
/// file is the one `prlc-sim` location allowlisted for `Instant` (lint
/// L1): wall-clock is an *environmental* measurement and must stay
/// quarantined from deterministic result paths.
pub fn measure_wall_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Measures the dispatched GF(2⁸) `axpy` throughput in MB/s on 64 KiB
/// slices (the representative bulk size for payload mirroring).
///
/// Short and calibrated: one warm-up pass builds the field tables, then
/// iterations are timed for roughly 20 ms.
pub fn measure_symbol_throughput_mb_s() -> f64 {
    const LEN: usize = 64 * 1024;
    const BUDGET: Duration = Duration::from_millis(20);
    let src: Vec<Gf256> = (0..LEN).map(|i| Gf256::new((i % 251) as u8)).collect();
    let mut dst: Vec<Gf256> = (0..LEN).map(|i| Gf256::new((i % 241) as u8)).collect();
    let c = Gf256::from_index(0x53);

    // Warm-up: forces table construction out of the timed region.
    kernel::axpy(&mut dst, c, &src);

    let mut iters: u64 = 0;
    let start = Instant::now();
    loop {
        kernel::axpy(&mut dst, c, &src);
        iters += 1;
        if start.elapsed() >= BUDGET {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    // Keep the result observable so the loop cannot be optimised away.
    std::hint::black_box(&dst);
    (iters as f64 * LEN as f64) / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_reports_active_backend() {
        let meta = RunMetadata::collect(4);
        assert_eq!(meta.kernel_backend, kernel::active_backend_description());
        assert_eq!(meta.threads, 4);
        assert!(
            meta.symbol_throughput_mb_s > 0.0,
            "throughput {}",
            meta.symbol_throughput_mb_s
        );
    }

    #[test]
    fn json_shape() {
        let meta = RunMetadata {
            kernel_backend: "table".into(),
            threads: 8,
            symbol_throughput_mb_s: 1234.56,
            run_wall_ms_total: None,
        };
        assert_eq!(
            meta.to_json(),
            "{\"kernel_backend\":\"table\",\"threads\":8,\"symbol_throughput_mb_s\":1234.6}"
        );
    }

    #[test]
    fn json_includes_wall_time_when_present() {
        let meta = RunMetadata {
            kernel_backend: "table".into(),
            threads: 8,
            symbol_throughput_mb_s: 1234.56,
            run_wall_ms_total: Some(42.25),
        };
        assert_eq!(
            meta.to_json(),
            "{\"kernel_backend\":\"table\",\"threads\":8,\
             \"symbol_throughput_mb_s\":1234.6,\"run_wall_ms_total\":42.2}"
        );
    }

    #[test]
    fn non_finite_throughput_stays_valid_json() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let meta = RunMetadata {
                kernel_backend: "table".into(),
                threads: 2,
                symbol_throughput_mb_s: bad,
                run_wall_ms_total: None,
            };
            assert_eq!(
                meta.to_json(),
                "{\"kernel_backend\":\"table\",\"threads\":2,\"symbol_throughput_mb_s\":null}"
            );
        }
    }

    #[test]
    fn backend_label_is_escaped() {
        let meta = RunMetadata {
            kernel_backend: "odd\"name\\".into(),
            threads: 1,
            symbol_throughput_mb_s: 10.0,
            run_wall_ms_total: None,
        };
        let json = meta.to_json();
        assert!(
            json.starts_with("{\"kernel_backend\":\"odd\\\"name\\\\\","),
            "{json}"
        );
        assert!(prlc_obs::baseline::parse_json(&json).is_ok(), "{json}");
    }
}
