//! A fixed reference kernel that measures how fast the machine is
//! running right now, so end-to-end times can be reported at a nominal
//! machine speed.
//!
//! On a shared host the same binary runs up to 1.4× slower for minutes
//! at a time, and in bursts of a fraction of a second, while neighbours
//! contend for the core's SIMD units and caches; steal time stays near
//! zero, so CPU time does not help. A kernel timed between ops slows
//! down with the workload. A bytewise (vectorised) loop plus a sort
//! tracked every workload best among the candidates tried (integer
//! chain, table lookups, pointer chasing): it cut the run-to-run IQR of
//! op latency from 6–17% to 1–3%. Each duration is scaled by the
//! samples taken just before and just after it, so bursts are
//! corrected too. The kernel uses only `std` and allocates nothing after
//! construction, so no change to the library can move it.

use prlc::sim::measure_wall_ms;

/// The kernel's time on an idle reference machine (see README.md);
/// reported times are scaled by `NOMINAL_MS / measured`.
pub const NOMINAL_MS: f64 = 1.4;

/// Bytewise passes over the 4 KiB buffer: about half the kernel's time.
const PASSES: usize = 2500;
/// Keys sorted: the other half.
const KEYS: usize = 50_000;

pub struct Reference {
    bytes: Vec<u8>,
    keys: Vec<u64>,
    scratch_bytes: Vec<u8>,
    scratch_keys: Vec<u64>,
    samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bytes: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
        let keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
        let mut reference = Reference {
            scratch_bytes: bytes.clone(),
            scratch_keys: keys.clone(),
            bytes,
            keys,
            samples: Vec::new(),
        };
        reference.sample();
        reference
    }

    /// Runs the kernel once and records its time.
    pub fn sample(&mut self) {
        let (_, ms) = measure_wall_ms(|| {
            self.scratch_bytes.copy_from_slice(&self.bytes);
            for pass in 0..PASSES {
                let c = (pass as u8) | 1;
                for (a, b) in self.scratch_bytes.iter_mut().zip(&self.bytes) {
                    *a = a.wrapping_mul(c) ^ *b;
                }
            }
            self.scratch_keys.copy_from_slice(&self.keys);
            self.scratch_keys.sort_unstable();
            std::hint::black_box((&self.scratch_bytes, &self.scratch_keys));
        });
        self.samples.push(ms);
    }

    /// Median kernel time over the run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        crate::quantile(&self.samples, 0.5)
    }

    /// Where a duration measured now falls: between samples `mark - 1`
    /// and `mark`.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// `ms`, measured at `mark`, at the kernel's nominal speed: scaled by
    /// the mean of the samples either side of it.
    pub fn scale(&self, ms: f64, mark: usize) -> f64 {
        let before = self.samples[mark - 1];
        let local = self
            .samples
            .get(mark)
            .map_or(before, |after| (before + after) / 2.0);
        ms * NOMINAL_MS / local
    }
}
