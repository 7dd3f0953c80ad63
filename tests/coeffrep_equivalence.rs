//! The equivalence gate of sparse coefficient rows.
//!
//! `CoeffRep` is a *physical* storage choice: dense `Vec<F>` rows versus
//! sorted `(index, value)` pairs. Nothing observable may depend on it.
//! This gate runs the pinned-seed pipeline of `tests/pipeline` — deploy,
//! churn, repair, collect — once per representation and byte-diffs
//! everything logical: reports, storage slots (via their
//! representation-independent `Debug`), decoded levels and payloads, the
//! metrics snapshot JSON, the full trace dump JSON, and the caller's RNG
//! end state.
//!
//! The only keys excluded from the metrics diff are the `gf.*` kernel
//! byte-volume counters and the wall-clock timers block: the kernel
//! counters measure exactly the symbol traffic sparsity exists to
//! eliminate (sparse/sparse row elimination merges entry lists instead
//! of calling the slice kernels), and timers are non-deterministic by
//! contract. Every logical metric — rref pivots, fill-in, encode nnz,
//! protocol messages — must match byte for byte.

mod pipeline;

use pipeline::{Case, GUARD};
use prlc::net::SourceFanout;
use prlc::obs;
use prlc::prelude::*;

/// The metrics snapshot minus the physically-dependent parts: `gf.*`
/// kernel byte-volume counters/histograms and the wall-clock timers.
fn logical_metrics_json(mut snap: obs::Snapshot) -> String {
    snap.counters.retain(|(name, _)| !name.starts_with("gf."));
    snap.histograms.retain(|(name, _)| !name.starts_with("gf."));
    snap.timers.clear();
    snap.to_json()
}

/// Runs `case` with dense and with sparse rows and fails if anything
/// logical differs.
fn assert_equivalent(case: Case) {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let [dense, sparse] = [CoeffRep::Dense, CoeffRep::Sparse].map(|rep| {
        let run = pipeline::run(Case { rep, ..case });
        (run.fields, logical_metrics_json(run.metrics), run.recovered)
    });
    assert_eq!(
        dense, sparse,
        "sparse rows diverged from dense rows ({case:?})"
    );
}

const LOG2: SourceFanout = SourceFanout::Log { factor: 2.0 };

#[test]
fn sparse_rows_match_dense_rows_dense_fanout() {
    for scheme in [Scheme::Slc, Scheme::Plc] {
        assert_equivalent(Case::new(scheme, 200, 21));
    }
}

#[test]
fn sparse_rows_match_dense_rows_log_fanout() {
    for scheme in [Scheme::Slc, Scheme::Plc] {
        assert_equivalent(Case {
            fanout: LOG2,
            ..Case::new(scheme, 200, 22)
        });
    }
}

#[test]
fn sparse_rows_match_dense_rows_under_faults() {
    for scheme in [Scheme::Slc, Scheme::Plc] {
        assert_equivalent(Case {
            fanout: LOG2,
            lossy: Some(9),
            ..Case::new(scheme, 200, 23)
        });
    }
}

#[test]
fn sparse_rows_match_dense_rows_at_n_1000() {
    assert_equivalent(Case {
        fanout: LOG2,
        lossy: Some(5),
        ..Case::new(Scheme::Plc, 1000, 24)
    });
}
