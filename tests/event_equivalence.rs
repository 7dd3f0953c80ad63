//! Golden digests of the protocol sessions.
//!
//! Each case runs the pinned-seed pipeline of `tests/pipeline` — deploy,
//! churn, repair, collect, with metrics and tracing on — and pins an
//! FNV-1a digest of every observable field: the predistribution
//! metrics, the storage slots, the repair and collection reports, the
//! decoded level count, the deterministic metrics snapshot JSON, the
//! full trace dump JSON and the caller's RNG end state. Any change in
//! operation order, RNG consumption or observability emission moves a
//! digest, under every kernel backend and thread count.
//!
//! The matrix covers SLC, PLC and RLC; no faults, a lossy plan with
//! churn, and both of those under all four adversary strategies; N=200
//! and N=1000; plus one sparse-fanout, sparse-row case. A sixth test
//! pins decode provenance: the trace dump of one pinned-seed decoding
//! run per scheme, as `prlc trace` writes it.
//!
//! Each test's digests are the golden file
//! `tests/event_equivalence/<test>.txt`, checked by
//! `prlc_obs::baseline::check_golden`. A refactor of the sessions must
//! leave every digest unchanged; a failure writes the current listing
//! to `target/tmp/event_equivalence/<test>.txt`, and a deliberate output
//! change re-pins by copying it over the golden file.

mod pipeline;

use pipeline::{Case, GUARD};
use prlc::net::SourceFanout;
use prlc::obs;
use prlc::obs::{assert_golden, baseline::digest64};
use prlc::prelude::*;
use std::collections::BTreeMap;

/// The case's key prefix, e.g. `Plc/lossy3+adversary/n1000/seed13`;
/// sparse rows run with the `log:2` fanout.
fn name(case: &Case) -> String {
    format!(
        "{:?}/{}{}/n{}/seed{}{}",
        case.scheme,
        match case.lossy {
            None => "none".to_string(),
            Some(s) => format!("lossy{s}"),
        },
        if case.adversary { "+adversary" } else { "" },
        case.nodes,
        case.seed,
        if case.rep == CoeffRep::Sparse {
            "/log2-sparse"
        } else {
            ""
        },
    )
}

/// Every field digest of every case, keyed `<case>/<field>`.
fn pipeline_digests(cases: &[Case]) -> BTreeMap<String, String> {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let mut got = BTreeMap::new();
    for &case in cases {
        let run = pipeline::run(case);
        let metrics = ("metrics", run.metrics.to_deterministic_json());
        for (field, text) in run.fields.into_iter().chain([metrics]) {
            got.insert(format!("{}/{field}", name(&case)), digest64(&text));
        }
    }
    got
}

/// Every scheme under one plan configuration.
fn all_schemes(lossy: Option<u64>, adversary: bool, nodes: usize, seed: u64) -> Vec<Case> {
    [Scheme::Slc, Scheme::Plc, Scheme::Rlc]
        .map(|scheme| Case {
            lossy,
            adversary,
            ..Case::new(scheme, nodes, seed)
        })
        .to_vec()
}

#[test]
fn pipeline_matches_golden_digests_without_faults() {
    let got = pipeline_digests(&all_schemes(None, false, 200, 11));
    assert_golden!("event_equivalence/without_faults.txt", got);
}

#[test]
fn pipeline_matches_golden_digests_under_faults() {
    let got = pipeline_digests(&all_schemes(Some(7), false, 200, 12));
    assert_golden!("event_equivalence/under_faults.txt", got);
}

/// All four adversary strategies at once — pre-positioned region +
/// eclipse, deployment-observed targeted killer, and one creep epoch —
/// with and without a lossy plan underneath.
#[test]
fn pipeline_matches_golden_digests_under_adversary_plan() {
    let mut cases = all_schemes(Some(9), true, 200, 14);
    cases.extend(all_schemes(None, true, 200, 14));
    let got = pipeline_digests(&cases);
    assert_golden!("event_equivalence/under_adversary_plan.txt", got);
}

#[test]
fn pipeline_matches_golden_digests_at_n_1000() {
    let mut cases = Vec::new();
    for adversary in [false, true] {
        cases.extend(all_schemes(None, adversary, 1000, 13));
        cases.extend(all_schemes(Some(3), adversary, 1000, 13));
    }
    let got = pipeline_digests(&cases);
    assert_golden!("event_equivalence/at_n_1000.txt", got);
}

/// The sparse protocol: `Θ(ln N)` fanout and sparse coefficient rows,
/// under a lossy plan and every adversary.
#[test]
fn pipeline_matches_golden_digests_with_log_fanout_and_sparse_rows() {
    let case = Case {
        lossy: Some(5),
        adversary: true,
        fanout: SourceFanout::Log { factor: 2.0 },
        rep: CoeffRep::Sparse,
        ..Case::new(Scheme::Plc, 1000, 15)
    };
    let got = pipeline_digests(&[case]);
    assert_golden!("event_equivalence/with_log_fanout_and_sparse_rows.txt", got);
}

/// One decoding run per scheme at levels `20,30,50`, 140 coded blocks,
/// seed 7, keyed `provenance/<scheme>`: the FNV-1a digest of the file
/// `prlc trace --scheme <scheme> --levels 20,30,50 --max-blocks 140
/// --seed 7 --out <file>` writes. It pins every pivot, solved and
/// level-unlock instant the decoders emit.
#[test]
fn decode_provenance_matches_golden_digests() {
    use prlc::sim::{simulate_decoding_curve_with_threads, CurveConfig, Persistence};
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let profile = PriorityProfile::new(vec![20, 30, 50]).unwrap();
    let mut got = BTreeMap::new();
    for scheme in Scheme::ALL {
        obs::trace::enable();
        obs::trace::reset();
        let cfg = CurveConfig {
            persistence: Persistence::Coding(scheme),
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(profile.num_levels()),
            max_blocks: 140,
            runs: 1,
            seed: 7,
        };
        simulate_decoding_curve_with_threads::<Gf256>(&cfg, 1);
        let digest = digest64(&format!("{}\n", obs::trace::snapshot().to_json()));
        let key = format!("provenance/{}", scheme.to_string().to_lowercase());
        got.insert(key, digest);
    }
    assert_golden!("event_equivalence/decode_provenance.txt", got);
}
