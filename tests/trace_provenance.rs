//! Decode-provenance cross-validation: the causal trace must tell the
//! same story as the decoders it instruments.
//!
//! For a pinned seed, the `core.decode.level_unlock` ticks recorded by
//! the tracer are compared against the rows-to-unlock the decoder
//! itself reports (`blocks_processed()` at each observed level
//! transition) — for both PLC (strict prefix unlock) and SLC
//! (independent level completion). Provenance is read off the decoded
//! prefix, so each `linalg.rref.pivot` carries the prefix after its
//! insert, and each `core.decode.solved` fires at the insert where the
//! prefix first passed its block. A final test pins the determinism
//! contract the exporters advertise: trace dumps are byte-identical
//! across worker-thread counts.

use prlc::obs;
use prlc::prelude::*;
use prlc::sim::{simulate_decoding_curve_with_threads, CurveConfig, Persistence};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// The trace recorder and its enable flag are process-global; tests in
/// this binary run on parallel threads, so every test that records
/// serialises on this guard and resets the recorder inside it.
static TRACE_GUARD: Mutex<()> = Mutex::new(());

fn guarded() -> std::sync::MutexGuard<'static, ()> {
    TRACE_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unlock events `(level, tick)` extracted from a trace snapshot in
/// record order.
fn traced_unlocks(snap: &obs::trace::TraceSnapshot) -> Vec<(u64, u64)> {
    instants(snap, "core.decode.level_unlock", "level")
}

/// `(arg, tick)` of every instant called `name`, in record order.
fn instants(snap: &obs::trace::TraceSnapshot, name: &str, arg: &str) -> Vec<(u64, u64)> {
    snap.iter()
        .filter(|(_, r)| r.name() == name)
        .map(|(_, r)| (r.arg(arg).expect("instant carries the arg"), r.tick()))
        .collect()
}

/// `(block, tick)` for every block a decoded prefix passed: `prefixes`
/// lists `(prefix after the insert, tick of the insert)` in insert
/// order, `base` maps prefix offsets to global block indices, and a
/// block's tick is that of the first insert whose prefix passed it.
fn first_passed(base: usize, prefixes: &[(usize, u64)]) -> Vec<(u64, u64)> {
    let mut passed = Vec::new();
    let mut prefix = 0;
    for &(after, tick) in prefixes {
        passed.extend((prefix..after).map(|off| ((base + off) as u64, tick)));
        prefix = prefix.max(after);
    }
    passed
}

#[test]
fn plc_unlock_ticks_match_the_decoder() {
    let _g = guarded();
    obs::trace::enable();
    obs::trace::reset();

    let profile = PriorityProfile::new(vec![2, 3, 5]).expect("valid profile");
    let dist = PriorityDistribution::uniform(3);
    let encoder = Encoder::new(Scheme::Plc, profile.clone());
    let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile.clone());
    let mut rng = StdRng::seed_from_u64(0xA11CE);

    // Decoder-observed ground truth: blocks consumed at the moment each
    // strict-priority level became decodable, and the decoded prefix
    // after every insert (with its tick) and after every innovative one.
    let mut expected: Vec<(u64, u64)> = Vec::new();
    let mut prefixes: Vec<(usize, u64)> = Vec::new();
    let mut pivot_prefixes: Vec<(u64, u64)> = Vec::new();
    while !dec.is_complete() && dec.blocks_processed() < 100 {
        let before = dec.decoded_levels();
        let block = encoder.encode_random_level::<Gf256, _>(&dist, &vec![Vec::new(); 10], &mut rng);
        let innovative = dec.insert_block(&block).is_innovative();
        let tick = dec.blocks_processed() as u64;
        for l in before..dec.decoded_levels() {
            expected.push((l as u64, tick));
        }
        prefixes.push((dec.decoded_prefix(), tick));
        if innovative {
            pivot_prefixes.push((dec.decoded_prefix() as u64, tick));
        }
    }
    assert!(dec.is_complete(), "workload must fully decode");
    assert_eq!(expected.len(), 3, "all three levels unlock");

    let snap = obs::trace::snapshot();
    assert_eq!(traced_unlocks(&snap), expected);
    assert_eq!(
        instants(&snap, "linalg.rref.pivot", "prefix"),
        pivot_prefixes
    );
    assert_eq!(
        instants(&snap, "core.decode.solved", "block"),
        first_passed(0, &prefixes)
    );

    // Every solved-block record names a block of the level the profile
    // assigns it, and exactly N distinct blocks get solved.
    let solved: Vec<_> = snap
        .iter()
        .filter(|(_, r)| r.name() == "core.decode.solved")
        .map(|(_, r)| r.clone())
        .collect();
    assert_eq!(solved.len(), 10, "each source block solved exactly once");
    for r in &solved {
        let block = r.arg("block").expect("solved has a block arg") as usize;
        assert_eq!(r.arg("level"), Some(profile.level_of(block) as u64));
    }

    obs::trace::disable();
    obs::trace::reset();
}

#[test]
fn slc_unlock_ticks_match_the_decoder() {
    let _g = guarded();
    obs::trace::enable();
    obs::trace::reset();

    let profile = PriorityProfile::new(vec![2, 3, 5]).expect("valid profile");
    let dist = PriorityDistribution::uniform(3);
    let encoder = Encoder::new(Scheme::Slc, profile.clone());
    let mut dec: SlcDecoder<Gf256, ()> = SlcDecoder::coefficients_only(profile.clone());
    let mut rng = StdRng::seed_from_u64(0xB0B);

    // SLC levels complete independently (not in strict prefix order),
    // so ground truth tracks per-level completion transitions. Each
    // level decodes in its own matrix, whose decoded prefix is the run
    // of pivot columns from its column 0: it is rebuilt here from the
    // pivots the inserts report. A pivot instant ticks on its level's
    // own insert count; a solved instant on `blocks_processed()`.
    let mut expected: Vec<(u64, u64)> = Vec::new();
    let mut pivots: Vec<Vec<bool>> = (0..3).map(|l| vec![false; profile.size(l)]).collect();
    let mut level_inserts = [0u64; 3];
    let mut prefixes: Vec<Vec<(usize, u64)>> = vec![Vec::new(); 3];
    let mut pivot_prefixes: Vec<(u64, u64)> = Vec::new();
    while !dec.is_complete() && dec.blocks_processed() < 150 {
        let before: Vec<bool> = (0..3).map(|l| dec.level_complete(l)).collect();
        let block = encoder.encode_random_level::<Gf256, _>(&dist, &vec![Vec::new(); 10], &mut rng);
        let level = block.level;
        let outcome = dec.insert_block(&block);
        let tick = dec.blocks_processed() as u64;
        for (l, was_complete) in before.iter().enumerate() {
            if !was_complete && dec.level_complete(l) {
                expected.push((l as u64, tick));
            }
        }
        level_inserts[level] += 1;
        if let InsertOutcome::Innovative { pivot } = outcome {
            pivots[level][pivot] = true;
        }
        let prefix = pivots[level].iter().take_while(|&&p| p).count();
        prefixes[level].push((prefix, tick));
        if outcome.is_innovative() {
            pivot_prefixes.push((prefix as u64, level_inserts[level]));
        }
    }
    assert!(dec.is_complete(), "workload must fully decode");
    assert_eq!(expected.len(), 3, "all three levels complete");

    let snap = obs::trace::snapshot();
    assert_eq!(traced_unlocks(&snap), expected);
    assert_eq!(
        instants(&snap, "linalg.rref.pivot", "prefix"),
        pivot_prefixes
    );
    let mut solved: Vec<(u64, u64)> = (0..3)
        .flat_map(|l| first_passed(profile.bound(l), &prefixes[l]))
        .collect();
    solved.sort_by_key(|&(block, tick)| (tick, block));
    assert_eq!(instants(&snap, "core.decode.solved", "block"), solved);

    // Solved blocks carry *global* indices even though each SLC level
    // eliminates in its own local matrix, and each is solved once.
    let mut blocks = Vec::new();
    for (_, r) in snap
        .iter()
        .filter(|(_, r)| r.name() == "core.decode.solved")
    {
        let block = r.arg("block").expect("solved has a block arg") as usize;
        assert!(block < profile.total_blocks());
        assert_eq!(r.arg("level"), Some(profile.level_of(block) as u64));
        blocks.push(block);
    }
    blocks.sort_unstable();
    assert_eq!(blocks, (0..profile.total_blocks()).collect::<Vec<_>>());

    obs::trace::disable();
    obs::trace::reset();
}

/// The determinism contract behind `--trace`: for a pinned seed the
/// exported dumps are byte-identical no matter how many worker threads
/// executed the runs, because records are grouped by run-seed track.
#[test]
fn trace_dumps_are_thread_count_independent() {
    let _g = guarded();
    obs::trace::enable();

    let cfg = CurveConfig {
        persistence: Persistence::Coding(Scheme::Plc),
        profile: PriorityProfile::new(vec![2, 3]).expect("valid profile"),
        distribution: PriorityDistribution::uniform(2),
        max_blocks: 12,
        runs: 6,
        seed: 77,
    };
    let mut dumps = Vec::new();
    for threads in [1usize, 4] {
        obs::trace::reset();
        let curve = simulate_decoding_curve_with_threads::<Gf256>(&cfg, threads);
        assert_eq!(curve.summaries.len(), 13);
        let snap = obs::trace::snapshot();
        assert!(!snap.is_empty());
        dumps.push((snap.to_json(), snap.to_chrome_trace()));
    }
    assert_eq!(dumps[0].0, dumps[1].0, "JSON dump differs across threads");
    assert_eq!(dumps[0].1, dumps[1].1, "Chrome dump differs across threads");

    obs::trace::disable();
    obs::trace::reset();
}
