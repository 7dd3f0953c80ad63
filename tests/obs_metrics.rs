//! Conservation invariants of the `prlc-obs` network counters: the
//! metrics recorder must tell the same story as the fault layer's own
//! report structs, checked here *from the recorder side*.
//!
//! Every physical transmission either arrives or is lost, so across any
//! workload `net.messages.sent == net.messages.delivered +
//! net.messages.lost`; and because a retry is only spent on a lost
//! transmission while the final loss of an abandoned or unreachable
//! exchange is not retried, `net.retries <= net.messages.lost <=
//! net.retries + net.gave_up + net.unreachable`.

use prlc::obs;
use prlc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

use prlc::net::{
    collect_with_faults, predistribute_with_faults, ChurnEvent, FaultPlan, LinkModel, RetryPolicy,
};

/// The obs registry is process-global; tests that enable it and read
/// counter deltas must not interleave.
static GUARD: Mutex<()> = Mutex::new(());

fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Runs one predistribute + collect workload under the given fault knobs
/// and returns the recorder's message-counter deltas as
/// `(sent, delivered, lost, retries, gave_up, unreachable)`.
fn message_deltas(
    seed: u64,
    loss: f64,
    retries: usize,
    churn_fraction: f64,
) -> (u64, u64, u64, u64, u64, u64) {
    let before = obs::snapshot();

    let mut rng = StdRng::seed_from_u64(seed);
    let net = RingNetwork::new(50, &mut rng);
    let profile = PriorityProfile::new(vec![2, 4]).unwrap();
    let data: Vec<Vec<Gf256>> = vec![Vec::new(); profile.total_blocks()];
    let plan = FaultPlan {
        link: LinkModel {
            loss,
            timeout_hops: None,
        },
        retry: RetryPolicy::with_retries(retries, 1),
        churn: vec![ChurnEvent {
            after_messages: 15,
            fraction: churn_fraction,
        }],
        seed: seed ^ 0x0B5,
    };
    let mut faults = plan.session(net.node_count());
    let dep = predistribute_with_faults(
        &net,
        &ProtocolConfig {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            distribution: PriorityDistribution::uniform(2),
            locations: 24,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        },
        &data,
        &mut faults,
        &mut rng,
    )
    .unwrap();
    let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile);
    if let Some(collector) = net.random_alive_node(&mut rng) {
        if !faults.is_down(collector) {
            let _ = collect_with_faults(
                &net,
                &dep,
                &mut dec,
                collector,
                &CollectionConfig::default(),
                &mut faults,
                &mut rng,
            );
        }
    }

    let after = obs::snapshot();
    let d = |name: &str| counter(&after, name) - counter(&before, name);
    (
        d("net.messages.sent"),
        d("net.messages.delivered"),
        d("net.messages.lost"),
        d("net.retries"),
        d("net.gave_up"),
        d("net.unreachable"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recorder_counters_conserve_messages(
        seed in 0u64..100_000,
        loss in 0.0f64..0.7,
        retries in 0usize..4,
        churn_fraction in 0.0f64..0.3,
    ) {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        obs::enable();
        let (sent, delivered, lost, retried, gave_up, unreachable) =
            message_deltas(seed, loss, retries, churn_fraction);

        // A non-trivial workload actually moved traffic.
        prop_assert!(sent > 0, "workload sent no messages");

        // Every transmission either arrives or is lost.
        prop_assert_eq!(
            sent,
            delivered + lost,
            "sent {} != delivered {} + lost {}",
            sent,
            delivered,
            lost
        );

        // Retries are spent only on losses; the terminal loss of each
        // abandoned or unreachable exchange is never retried.
        prop_assert!(retried <= lost, "retries {retried} > lost {lost}");
        prop_assert!(
            lost <= retried + gave_up + unreachable,
            "lost {} > retries {} + gave_up {} + unreachable {}",
            lost,
            retried,
            gave_up,
            unreachable
        );
    }
}

/// Lossless transport is silent on the loss-side counters, whatever the
/// retry budget — the disabled-by-default recorder aside, a perfect link
/// must not fabricate faults.
#[test]
fn perfect_link_records_no_losses() {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    let (sent, delivered, lost, retried, gave_up, unreachable) = message_deltas(42, 0.0, 3, 0.0);
    assert!(sent > 0);
    assert_eq!(sent, delivered);
    assert_eq!((lost, retried, gave_up, unreachable), (0, 0, 0, 0));
}

/// A repair combine runs and counts only the operand's support: two
/// dense level-1 PLC blocks at N = 1000 touch the first b_1 = 100
/// columns, so `gf.axpy.bytes` moves by the operand's support, not by N.
#[test]
fn combine_counts_operand_support_not_row_length() {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    let mut rng = StdRng::seed_from_u64(5);
    let profile = PriorityProfile::uniform(10, 100).unwrap();
    let enc = Encoder::new(Scheme::Plc, profile);
    let mut a = enc.encode_unpayloaded::<Gf256, _>(0, &mut rng);
    let b = enc.encode_unpayloaded::<Gf256, _>(0, &mut rng);
    let support = b.coefficients.support();
    assert!(support <= 100, "level-1 support {support}");

    let before = counter(&obs::snapshot(), "gf.axpy.bytes");
    a.combine(&b, Gf256::new(7));
    let counted = counter(&obs::snapshot(), "gf.axpy.bytes") - before;
    assert_eq!(counted, support as u64);
}

/// A fused multi-term update counts what one `axpy` per term would: the
/// sum of its terms' lengths in bytes, zero and unit coefficients
/// included, whether the terms run fused in whole tiles or one by one
/// past them.
#[test]
fn axpy_sum_counts_the_sum_of_its_term_lengths() {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    for len in [0, 63, 4096 + 17] {
        let sources: Vec<Vec<Gf256>> = (0..7u8).map(|i| vec![Gf256::new(i ^ 0x5A); len]).collect();
        let mut dst = vec![Gf256::ZERO; len];
        let before = counter(&obs::snapshot(), "gf.axpy.bytes");
        prlc::gf::kernel::axpy_sum(
            &mut dst,
            sources
                .iter()
                .enumerate()
                .map(|(i, s)| (Gf256::new(i as u8), s.as_slice())),
        );
        let counted = counter(&obs::snapshot(), "gf.axpy.bytes") - before;
        assert_eq!(counted, 7 * len as u64, "len {len}");
    }
}

/// A redundant row whose walk reaches the decoded prefix stops there and
/// counts exactly its kernel steps above the prefix: rows pivoting on 0,
/// 1, 4 and 3 hold prefix 2, and `3 · row 2 + 2 · row 3 + e_0 + 9 · e_1`
/// clears column 4 (5 bytes) and column 3 (4 bytes) with the open rows,
/// then meets column 1. The prefix columns cost no kernel call.
#[test]
fn redundant_row_counts_only_its_walk_above_the_prefix() {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    let row = |vals: [u8; 6]| vals.map(Gf256::new).to_vec();
    let stored = [
        [5, 0, 0, 0, 0, 0],
        [1, 3, 0, 0, 0, 0],
        [2, 0, 7, 0, 4, 0],
        [1, 0, 5, 6, 0, 0],
    ];
    let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(6);
    for vals in stored {
        assert!(d.insert(row(vals), ()).is_innovative());
    }
    assert_eq!(d.decoded_prefix(), 2);
    let mut coeffs = row([1, 9, 0, 0, 0, 0]);
    Gf256::axpy(&mut coeffs, Gf256::new(3), &row(stored[2]));
    Gf256::axpy(&mut coeffs, Gf256::new(2), &row(stored[3]));

    let before = obs::snapshot();
    assert!(!d.insert(coeffs, ()).is_innovative());
    let after = obs::snapshot();
    let moved: Vec<(&str, u64)> = after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("linalg.rref."))
        .map(|(name, v)| (*name, v - counter(&before, name)))
        .filter(|&(_, delta)| delta > 0)
        .collect();
    assert_eq!(
        moved,
        [("linalg.rref.redundant", 1), ("linalg.rref.rows", 1)]
    );
    assert_eq!(
        counter(&after, "gf.axpy.bytes") - counter(&before, "gf.axpy.bytes"),
        5 + 4
    );
}

/// Tracing records provenance and does no work of its own: one pinned
/// K = 1000 PLC decode (10 levels of 100, 1,100 dense coefficient-only
/// rows) leaves the same deterministic metrics snapshot — every counter
/// and histogram, `gf.*.bytes` included — with the trace recorder off
/// and on.
#[test]
fn traced_decode_counts_what_an_untraced_decode_counts() {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    let profile = PriorityProfile::uniform(10, 100).unwrap();
    let dist = PriorityDistribution::uniform(profile.num_levels());
    let enc = Encoder::new(Scheme::Plc, profile.clone());
    let mut rng = StdRng::seed_from_u64(7);
    let blocks: Vec<CodedBlock<Gf256>> = (0..1100)
        .map(|_| enc.encode_unpayloaded(dist.sample_level(&mut rng), &mut rng))
        .collect();
    let decode = |traced: bool| {
        if traced {
            obs::trace::enable();
        }
        obs::reset();
        obs::trace::reset();
        let mut dec = PlcDecoder::<Gf256, ()>::coefficients_only(profile.clone());
        for b in &blocks {
            dec.insert_block(b);
        }
        let snap = obs::snapshot().to_deterministic_json();
        obs::trace::disable();
        obs::trace::reset();
        (snap, dec.decoded_levels())
    };
    let untraced = decode(false);
    assert_eq!(untraced.1, 10, "the workload decodes every level");
    assert_eq!(decode(true), untraced);
}

/// Decoding does the same work whichever representation its rows
/// arrived in: the decoder densifies every row it is given, so one
/// seed's PLC rows at K = 1000 (`Encoder::sparse`, factor 2), fed once
/// dense and once sparse into fresh coefficient-only decoders, count
/// the same `gf.axpy.bytes` and `gf.scale.bytes` and record the same
/// `linalg.rref.*` counters and histograms. Only encoding and the
/// combines of rows at rest count different bytes per representation.
#[test]
fn decoding_counts_the_same_work_for_dense_and_sparse_rows() {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    let profile = PriorityProfile::uniform(10, 100).unwrap();
    let dist = PriorityDistribution::uniform(profile.num_levels());
    let decode = |rep: CoeffRep| {
        let enc = Encoder::sparse(Scheme::Plc, profile.clone(), 2.0).with_coeff_rep(rep);
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<CoeffRow<Gf256>> = (0..1100)
            .map(|_| enc.encode_coefficients(dist.sample_level(&mut rng), &mut rng))
            .collect();
        assert!(rows.iter().all(|r| r.rep() == rep));
        obs::reset();
        let mut dec = PlcDecoder::<Gf256, ()>::coefficients_only(profile.clone());
        for r in rows {
            dec.insert_row(r, ());
        }
        let snap = obs::snapshot();
        let counters: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("linalg.rref.")
                    || ["gf.axpy.bytes", "gf.scale.bytes"].contains(name)
            })
            .copied()
            .collect();
        let histograms: Vec<_> = snap
            .histograms
            .into_iter()
            .filter(|(name, _)| name.starts_with("linalg.rref."))
            .collect();
        (counters, histograms, dec.rank(), dec.decoded_levels())
    };
    let dense = decode(CoeffRep::Dense);
    assert!(
        dense
            .0
            .iter()
            .any(|&(name, v)| name == "gf.axpy.bytes" && v > 0),
        "the decode runs the kernel: {:?}",
        dense.0
    );
    assert_eq!(
        dense.1.len(),
        2,
        "rows_per_pivot and fill_in: {:?}",
        dense.1
    );
    assert_eq!(decode(CoeffRep::Sparse), dense);
}
