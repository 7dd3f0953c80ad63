//! Allocation bounds of the sparse paths.
//!
//! The paper's `O(ln N)` sparsity claim is only real if the code stops
//! *allocating* `O(N)` per block. A counting global allocator measures
//! the bytes allocated across the two operations that used to be the
//! offenders:
//!
//! * `rand::seq::index::sample`, which materialised the whole
//!   `0..length` pool (8 GB at `length = 10^9`), and
//! * sparse-representation coefficient encoding, which went through a
//!   dense length-`N` vector (100 kB at `N = 10^5`).
//!
//! Both must now stay within a few kilobytes regardless of `N`.
//!
//! The same allocator tracks live bytes too, for the one place sparse
//! rows become dense on purpose: the progressive decoder, whose memory
//! is bounded by the pivot widths of the rows it stores.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prlc::prelude::*;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// Counts every byte handed out (alloc + realloc growth); deallocation
/// is irrelevant — the old implementations would show up here as huge
/// transient allocations even though they freed the memory afterwards.
/// Beside that total it keeps the live byte count and its high-water
/// mark.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow_live(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System`; the only addition is a relaxed
// atomic counter bump, which cannot violate the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` under the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow_live(layout.size());
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to `System.dealloc` with the caller's ptr/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: ptr was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates to `System.realloc` with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // Both blocks count while the contents may be copied across.
        grow_live(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: ptr/layout/new_size are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is process-global; measured sections must not interleave
/// with each other (the harness runs tests on separate threads).
static GUARD: Mutex<()> = Mutex::new(());

fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

/// The high-water mark of live bytes while `f` runs, above the live
/// bytes it started from.
fn peak_live_bytes_during(f: impl FnOnce()) -> u64 {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
}

/// Generous slack for harness/runtime noise; five orders of magnitude
/// below the dense cost the bound is guarding against.
const BUDGET: u64 = 64 * 1024;

/// Live-byte allowance for a K = 1000 decoder's tables: the row table
/// (40 bytes a row, 1,024 slots, and the 512 it grows from) and the
/// pivot table (16 bytes a column) take 77,440 bytes.
const TABLES: u64 = 96 * 1024;

#[test]
fn sample_allocates_o_amount_not_o_length() {
    let _guard = GUARD.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let mut out = Vec::new();
    let bytes = bytes_allocated_by(|| {
        out = sample(&mut rng, 1_000_000_000, 20).into_vec();
    });
    assert_eq!(out.len(), 20);
    assert!(
        bytes < BUDGET,
        "sample(10^9, 20) allocated {bytes} bytes — the 0..length pool is back"
    );
}

#[test]
fn sparse_encode_allocates_o_ln_n_not_o_n() {
    let _guard = GUARD.lock().unwrap();
    let n = 100_000;
    let profile = PriorityProfile::flat(n).unwrap();
    let enc = Encoder::sparse(Scheme::Rlc, profile, 2.0).with_coeff_rep(CoeffRep::Sparse);
    let mut rng = StdRng::seed_from_u64(42);
    let mut row: Option<CoeffRow<Gf256>> = None;
    let bytes = bytes_allocated_by(|| {
        row = Some(enc.encode_coefficients::<Gf256, _>(0, &mut rng));
    });
    let row = row.unwrap();
    assert_eq!(row.rep(), CoeffRep::Sparse);
    assert_eq!(row.len(), n);
    let expected = (2.0 * (n as f64).ln()).ceil() as usize;
    assert_eq!(row.nnz(), expected);
    assert!(
        bytes < BUDGET,
        "sparse encode at N={n} allocated {bytes} bytes — a dense \
         length-N buffer is hiding in the path"
    );
}

/// The widest decoder any experiment, probe or CLI default feeds with
/// sparse rows is the `layers` probe's `decode/plc_k1000_sparse`: a
/// PLC 10×100 code, K = 1000, fed 1,100 `Encoder::sparse` rows of
/// factor 2 (the `timeline` probe and the CLI's default `--levels`
/// decode K = 10). The decoder densifies each row, and stores it at
/// its pivot width: a row pivoting on column `c` holds the 64-symbol
/// blocks covering `[0, c]`, so the stored rows cost at most
/// `Σ_{c<K} padded(c + 1)` = 532,480 bytes, about K²/2. The row and
/// pivot tables add `O(K)`. Width-length rows would cost
/// `K · padded(K)` = 1,024,000 bytes.
#[test]
fn sparse_fed_decoder_memory_is_bounded_by_its_pivot_widths() {
    let _guard = GUARD.lock().unwrap();
    const K: usize = 1000;
    let profile = PriorityProfile::uniform(10, K / 10).unwrap();
    let dist = PriorityDistribution::uniform(profile.num_levels());
    let enc = Encoder::sparse(Scheme::Plc, profile.clone(), 2.0);
    let mut rng = StdRng::seed_from_u64(7);
    let rows: Vec<CoeffRow<Gf256>> = (0..1100)
        .map(|_| enc.encode_coefficients(dist.sample_level(&mut rng), &mut rng))
        .collect();
    assert!(rows.iter().all(|r| r.rep() == CoeffRep::Sparse));
    let stored: u64 = (1..=K).map(|c| c.next_multiple_of(64) as u64).sum();
    assert_eq!(stored, 532_480);

    let mut rank = 0;
    let peak = peak_live_bytes_during(|| {
        let mut dec = PlcDecoder::<Gf256, ()>::coefficients_only(profile);
        for r in &rows {
            dec.insert_row(r.clone(), ());
        }
        rank = dec.rank();
    });
    assert!(
        rank > K / 2,
        "the decode stores most of its rows: rank {rank}"
    );
    assert!(
        peak <= stored + TABLES,
        "a K={K} decoder fed sparse rows peaked at {peak} live bytes, over \
         {stored} of pivot-width rows plus {TABLES} of tables"
    );
}
