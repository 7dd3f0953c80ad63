//! Truncated polynomial convolution, naive and FFT-accelerated.
//!
//! The decoding-performance analysis multiplies per-level generating
//! polynomials of degree up to `M` (Sec. 3.3 cites the Kontkanen–
//! Myllymäki DP+FFT technique for exactly these multinomial sums). Both a
//! quadratic schoolbook path and an `O(M log M)` FFT path are provided
//! and cross-checked in tests; the dispatcher picks by size.
//!
//! One query multiplies the same few Poisson factors into many running
//! products, so each factor is prepared once — its FFT spectrum built a
//! single time — and applied to each product. Applying it performs the
//! same float operations on the same inputs as [`convolve`], so the
//! result is bit-identical to an unprepared call.

use std::f64::consts::PI;

use prlc_core::prlc_obs;

/// Size threshold above which convolution switches to FFT.
const FFT_THRESHOLD: usize = 96;

/// Truncated convolution: returns the first `max_len` coefficients of
/// `a * b`.
///
/// All analysis vectors are probability weights in `[0, 1]`; FFT rounding
/// can produce tiny negative values, which are clamped to 0.
pub fn convolve(a: &[f64], b: &[f64], max_len: usize) -> Vec<f64> {
    if a.is_empty() || b.is_empty() || max_len == 0 {
        return vec![0.0; max_len];
    }
    if a.len().min(b.len()) <= FFT_THRESHOLD {
        convolve_naive(a, b, max_len)
    } else {
        convolve_fft(a, b, max_len)
    }
}

/// Schoolbook truncated convolution.
pub fn convolve_naive(a: &[f64], b: &[f64], max_len: usize) -> Vec<f64> {
    count_convolution();
    let mut out = vec![0.0; max_len];
    for (i, &ai) in a.iter().enumerate() {
        if i >= max_len {
            break;
        }
        if ai == 0.0 {
            continue;
        }
        let lim = (max_len - i).min(b.len());
        for (j, &bj) in b.iter().take(lim).enumerate() {
            out[i + j] += ai * bj;
        }
    }
    out
}

/// FFT truncated convolution (clamps tiny negative round-off to 0).
pub fn convolve_fft(a: &[f64], b: &[f64], max_len: usize) -> Vec<f64> {
    Spectrum::new(b, a.len()).convolve(a, max_len)
}

/// A right-hand factor `b` prepared for many truncated products `a * b`
/// with vectors `a` of its own length: its FFT spectrum is built once
/// when [`convolve`] would take the FFT path at that length.
pub(crate) struct Factor {
    coeffs: Vec<f64>,
    spectrum: Option<Spectrum>,
}

impl Factor {
    pub(crate) fn new(coeffs: Vec<f64>) -> Self {
        let spectrum = (coeffs.len() > FFT_THRESHOLD).then(|| Spectrum::new(&coeffs, coeffs.len()));
        Factor { coeffs, spectrum }
    }

    /// `convolve(a, b, max_len)`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not as long as the factor.
    pub(crate) fn convolve(&self, a: &[f64], max_len: usize) -> Vec<f64> {
        assert_eq!(
            a.len(),
            self.coeffs.len(),
            "factor prepared for another length"
        );
        match &self.spectrum {
            Some(spectrum) => spectrum.convolve(a, max_len),
            None => convolve_naive(a, &self.coeffs, max_len),
        }
    }
}

/// The factors of one query, each built once per key on first use.
pub(crate) struct Factors<K> {
    built: Vec<(K, Factor)>,
}

impl<K: PartialEq> Factors<K> {
    pub(crate) fn new() -> Self {
        Factors { built: Vec::new() }
    }

    /// The factor for `key`, prepared from `coeffs()` the first time
    /// the key is asked for.
    pub(crate) fn get(&mut self, key: K, coeffs: impl FnOnce() -> Vec<f64>) -> &Factor {
        let at = match self.built.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                self.built.push((key, Factor::new(coeffs())));
                self.built.len() - 1
            }
        };
        &self.built[at].1
    }
}

/// The FFT of a zero-padded factor `b`, sized for products with vectors
/// of one length.
struct Spectrum {
    /// `b.len()`.
    len: usize,
    bins: Vec<(f64, f64)>,
}

impl Spectrum {
    fn new(b: &[f64], other_len: usize) -> Self {
        let size = (other_len + b.len() - 1).next_power_of_two();
        let mut bins: Vec<(f64, f64)> = b.iter().map(|&x| (x, 0.0)).collect();
        bins.resize(size, (0.0, 0.0));
        fft(&mut bins, false);
        Spectrum { len: b.len(), bins }
    }

    /// The first `max_len` coefficients of `a * b`, clamping tiny
    /// negative round-off to 0.
    fn convolve(&self, a: &[f64], max_len: usize) -> Vec<f64> {
        count_convolution();
        let full = a.len() + self.len - 1;
        let size = self.bins.len();
        assert_eq!(
            full.next_power_of_two(),
            size,
            "spectrum sized for another length"
        );
        let need = full.min(max_len.max(1));

        let mut fa: Vec<(f64, f64)> = a.iter().map(|&x| (x, 0.0)).collect();
        fa.resize(size, (0.0, 0.0));
        fft(&mut fa, false);
        for (x, y) in fa.iter_mut().zip(&self.bins) {
            let re = x.0 * y.0 - x.1 * y.1;
            let im = x.0 * y.1 + x.1 * y.0;
            *x = (re, im);
        }
        fft(&mut fa, true);

        let mut out = vec![0.0; max_len];
        for (o, &(re, _)) in out.iter_mut().take(need).zip(&fa) {
            *o = if re < 0.0 { 0.0 } else { re };
        }
        out
    }
}

/// Counts one full convolution, naive or FFT, in the analysis layer's
/// work counter.
fn count_convolution() {
    if prlc_obs::enabled() {
        prlc_obs::counter!("analysis.convolutions").incr();
    }
}

/// Only the `at`-th coefficient of `a * b` — the `[z^M]` extraction of
/// the Poissonization identity, cheaper than a full convolution.
pub fn convolution_coefficient(a: &[f64], b: &[f64], at: usize) -> f64 {
    let mut acc = 0.0;
    let lo = at.saturating_sub(b.len().saturating_sub(1));
    let hi = at.min(a.len().saturating_sub(1));
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    for i in lo..=hi {
        acc += a[i] * b[at - i];
    }
    acc
}

/// Iterative radix-2 Cooley–Tukey FFT over `(re, im)` pairs.
///
/// # Panics
///
/// Panics if the buffer length is not a power of two.
fn fft(buf: &mut [(f64, f64)], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }

    let sign = if inverse { 1.0 } else { -1.0 };
    // One stage's twiddles, computed once per stage by the rotation
    // recurrence every butterfly group would otherwise repeat.
    let mut twiddles: Vec<(f64, f64)> = Vec::with_capacity(n / 2);
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        twiddles.clear();
        let (mut cr, mut ci) = (1.0f64, 0.0f64);
        for _ in 0..len / 2 {
            twiddles.push((cr, ci));
            let ncr = cr * wr - ci * wi;
            ci = cr * wi + ci * wr;
            cr = ncr;
        }
        for group in buf.chunks_exact_mut(len) {
            let (lo, hi) = group.split_at_mut(len / 2);
            for ((u, v), &(cr, ci)) in lo.iter_mut().zip(hi.iter_mut()).zip(&twiddles) {
                let ((ur, ui), (vr, vi)) = (*u, *v);
                let (tr, ti) = (vr * cr - vi * ci, vr * ci + vi * cr);
                *u = (ur + tr, ui + ti);
                *v = (ur - tr, ui - ti);
            }
        }
        len <<= 1;
    }

    if inverse {
        let scale = 1.0 / n as f64;
        for v in buf.iter_mut() {
            v.0 *= scale;
            v.1 *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn naive_small_example() {
        // (1 + 2z)(3 + 4z) = 3 + 10z + 8z^2
        let out = convolve_naive(&[1.0, 2.0], &[3.0, 4.0], 4);
        assert_close(&out, &[3.0, 10.0, 8.0, 0.0], 1e-12);
    }

    #[test]
    fn truncation_applies() {
        let out = convolve_naive(&[1.0, 2.0], &[3.0, 4.0], 2);
        assert_close(&out, &[3.0, 10.0], 1e-12);
    }

    #[test]
    fn fft_matches_naive_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let la = rng.gen_range(1..300);
            let lb = rng.gen_range(1..300);
            let a: Vec<f64> = (0..la).map(|_| rng.gen::<f64>()).collect();
            let b: Vec<f64> = (0..lb).map(|_| rng.gen::<f64>()).collect();
            let max_len = rng.gen_range(1..600);
            let naive = convolve_naive(&a, &b, max_len);
            let fft = convolve_fft(&a, &b, max_len);
            assert_close(&naive, &fft, 1e-9);
        }
    }

    #[test]
    fn dispatcher_handles_edge_cases() {
        assert_eq!(convolve(&[], &[1.0], 3), vec![0.0; 3]);
        assert_eq!(convolve(&[1.0], &[], 3), vec![0.0; 3]);
        assert_eq!(convolve(&[1.0], &[1.0], 0), Vec::<f64>::new());
        let out = convolve(&[5.0], &[7.0], 3);
        assert_close(&out, &[35.0, 0.0, 0.0], 1e-12);
    }

    #[test]
    fn coefficient_extraction_matches_full_convolution() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let a: Vec<f64> = (0..50).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..30).map(|_| rng.gen::<f64>()).collect();
        let full = convolve_naive(&a, &b, 79);
        for at in [0usize, 1, 25, 49, 60, 78] {
            assert!(
                (convolution_coefficient(&a, &b, at) - full[at]).abs() < 1e-12,
                "at={at}"
            );
        }
        // Beyond the degree: zero.
        assert_eq!(convolution_coefficient(&a, &b, 79), 0.0);
        assert_eq!(convolution_coefficient(&a, &b, 1000), 0.0);
    }

    #[test]
    fn convolving_probability_vectors_preserves_mass() {
        // Poisson(3) * Poisson(5) = Poisson(8).
        let a = crate::numeric::poisson_pmf(3.0, 60);
        let b = crate::numeric::poisson_pmf(5.0, 60);
        let c = convolve(&a, &b, 60);
        let want = crate::numeric::poisson_pmf(8.0, 60);
        assert_close(&c, &want, 1e-9);
    }

    #[test]
    fn fft_negative_clamp() {
        // Convolving non-negative vectors can only round to tiny
        // negatives; verify the clamp keeps outputs non-negative.
        let a = vec![1e-300; 200];
        let b = vec![1e-300; 200];
        let out = convolve_fft(&a, &b, 399);
        assert!(out.iter().all(|&x| x >= 0.0));
    }
}
