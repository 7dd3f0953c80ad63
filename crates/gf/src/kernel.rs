//! The `GfKernel` slice-arithmetic layer: bulk [`axpy`], [`scale_slice`],
//! [`add_slice`], [`mul_slice`] and [`dot`] over contiguous symbol slices,
//! with a backend selected once per process.
//!
//! Every layer above this crate — matrix row operations, progressive
//! Gauss–Jordan, payload mirroring, encoding — expresses its inner loops
//! in terms of these five functions, so a backend improvement here
//! accelerates the whole stack.
//!
//! # Backends
//!
//! * [`Backend::Scalar`] — the generic discrete-log/antilog loop. Works
//!   for every `GF(2^w)` and serves as the reference implementation the
//!   other backends are property-tested against (bit-identical output).
//! * [`Backend::Table`] — the 64 KiB product table for GF(2⁸): one load
//!   plus one XOR per byte. Fields other than GF(2⁸) fall back to the
//!   scalar loop.
//! * [`Backend::Simd`] — GF(2⁸) constant-by-slice multiplication via the
//!   nibble-split shuffle technique (SSSE3/AVX2 on x86_64, NEON on
//!   aarch64): for a constant `c`, precompute two 16-entry tables
//!   `L[i] = c·i` and `H[i] = c·(i·16)`; then `c·b = L[b & 0xF] ^ H[b >> 4]`
//!   by linearity of the field product over XOR, evaluated 16/32 bytes at
//!   a time with byte-shuffle instructions (AVX2 finishes an odd 16-byte
//!   block with 128-bit shuffles, so at most 15 bytes take the
//!   product-table tail). Products of two *variable* slices
//!   (`mul_slice`, `dot`) have no constant to split on and run through
//!   the product table.
//!
//! # Selection
//!
//! The backend is chosen once, on first use, in this order:
//!
//! 1. The `PRLC_KERNEL` environment variable, when set to `scalar`,
//!    `table` or `simd`. A request for `simd` on hardware without the
//!    required features — and any unrecognised value, including `auto` —
//!    falls through to step 2.
//! 2. Otherwise the best available backend: `simd` when runtime feature
//!    detection succeeds, `table` otherwise.
//!
//! Regardless of backend, [`add_slice`] on fields whose addition is a
//! plain XOR of the representation ([`GfElem::REPR_XOR`]) runs
//! word-at-a-time (u64 chunks) over the raw byte plane.
//!
//! The `*_with` variants ([`axpy_with`] etc.) force a specific backend —
//! they exist for the equivalence property tests and the
//! backend-comparison benchmarks; production code should use the
//! dispatched entry points.

use std::fmt;
use std::sync::OnceLock;

use crate::element::{gf256_product_table, GfElem};

/// A slice-arithmetic implementation strategy. See the [module
/// docs](self) for what each backend does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Generic discrete-log/antilog element loop (any `GF(2^w)`).
    Scalar,
    /// 64 KiB product-table byte loop (GF(2⁸); scalar elsewhere).
    Table,
    /// Nibble-split shuffle kernels (GF(2⁸); product table for
    /// variable×variable products, scalar for other fields).
    Simd,
}

impl Backend {
    /// The lowercase name used by `PRLC_KERNEL` and run metadata.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Table => "table",
            Backend::Simd => "simd",
        }
    }

    /// Parses a `PRLC_KERNEL`-style name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "table" => Some(Backend::Table),
            "simd" => Some(Backend::Simd),
            _ => None,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which SIMD instruction set the [`Backend::Simd`] kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdLevel {
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Ssse3,
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl SimdLevel {
    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Ssse3 => "ssse3",
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => "neon",
        }
    }
}

/// Runtime CPU feature detection for the SIMD kernels. Under Miri the
/// intrinsics are unsupported, so detection reports no SIMD and every
/// kernel path stays on the interpretable scalar/table implementations.
fn detect_simd() -> Option<SimdLevel> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::is_x86_feature_detected!("avx2") {
            return Some(SimdLevel::Avx2);
        }
        if std::is_x86_feature_detected!("ssse3") {
            return Some(SimdLevel::Ssse3);
        }
        None
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Some(SimdLevel::Neon);
        }
        None
    }
    #[cfg(any(not(any(target_arch = "x86_64", target_arch = "aarch64")), miri))]
    {
        None
    }
}

/// Resolves a `PRLC_KERNEL` request against what the hardware offers.
/// `None`, `auto` and unrecognised values all mean "best available";
/// `simd` without hardware support degrades the same way.
fn choose(request: Option<&str>, simd_available: bool) -> Backend {
    let auto = if simd_available {
        Backend::Simd
    } else {
        Backend::Table
    };
    match request.and_then(Backend::from_name) {
        Some(Backend::Scalar) => Backend::Scalar,
        Some(Backend::Table) => Backend::Table,
        Some(Backend::Simd) if simd_available => Backend::Simd,
        _ => auto,
    }
}

fn select() -> (Backend, Option<SimdLevel>) {
    static ACTIVE: OnceLock<(Backend, Option<SimdLevel>)> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let level = detect_simd();
        let request = std::env::var("PRLC_KERNEL").ok();
        (choose(request.as_deref(), level.is_some()), level)
    })
}

/// The backend chosen for this process (selected on first use; see the
/// [module docs](self) for the selection order).
pub fn active_backend() -> Backend {
    select().0
}

/// Human-readable description of the active backend, including the SIMD
/// instruction set when relevant — e.g. `"simd(avx2)"` or `"table"`.
/// Used by run headers and benchmark metadata.
pub fn active_backend_description() -> String {
    match select() {
        (Backend::Simd, Some(level)) => format!("simd({})", level.name()),
        (backend, _) => backend.name().to_string(),
    }
}

/// The backends this process can actually execute, in increasing order of
/// expected speed. [`Backend::Simd`] appears only when feature detection
/// succeeds. Benchmarks and equivalence tests iterate over this list.
pub fn available_backends() -> Vec<Backend> {
    let mut backends = vec![Backend::Scalar, Backend::Table];
    if detect_simd().is_some() {
        backends.push(Backend::Simd);
    }
    backends
}

// ---------------------------------------------------------------------------
// Dispatched public entry points.
// ---------------------------------------------------------------------------

// Byte-volume accounting (`gf.<op>.bytes.<backend>` counters) for the
// dispatched entry points. Everything — including backend resolution for
// the argument expression — sits behind the `prlc_obs::enabled()` guard,
// so the disabled cost is a single relaxed atomic load per call.
macro_rules! record_bytes {
    ($op:literal, $backend:expr, $slice:expr) => {
        if prlc_obs::enabled() {
            let counter = match $backend {
                Backend::Scalar => prlc_obs::counter!(concat!("gf.", $op, ".bytes.scalar")),
                Backend::Table => prlc_obs::counter!(concat!("gf.", $op, ".bytes.table")),
                Backend::Simd => prlc_obs::counter!(concat!("gf.", $op, ".bytes.simd")),
            };
            counter.add(core::mem::size_of_val($slice) as u64);
        }
    };
}

/// `dst[i] += c * src[i]` for all `i` — the inner loop of Gaussian and
/// Gauss–Jordan elimination and of encoding.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy<F: GfElem>(dst: &mut [F], c: F, src: &[F]) {
    let (backend, level) = select();
    record_bytes!("axpy", backend, src);
    axpy_impl(backend, level, dst, c, src);
}

/// `dst[i] *= c` for all `i`.
pub fn scale_slice<F: GfElem>(dst: &mut [F], c: F) {
    let (backend, level) = select();
    record_bytes!("scale", backend, &*dst);
    scale_slice_impl(backend, level, dst, c);
}

/// `dst[i] += src[i]` for all `i`. Backend-independent: fields with
/// XOR-representable addition always take the u64-chunked byte-plane
/// path.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_slice<F: GfElem>(dst: &mut [F], src: &[F]) {
    record_bytes!("add", select().0, src);
    add_slice_impl(dst, src);
}

/// Elementwise product `dst[i] *= src[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice<F: GfElem>(dst: &mut [F], src: &[F]) {
    let backend = select().0;
    record_bytes!("mul", backend, src);
    mul_slice_impl(backend, dst, src);
}

/// Dot product `sum_i a[i] * b[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot<F: GfElem>(a: &[F], b: &[F]) -> F {
    let backend = select().0;
    record_bytes!("dot", backend, a);
    dot_impl(backend, a, b)
}

// ---------------------------------------------------------------------------
// Forced-backend entry points (equivalence tests and benchmarks).
// ---------------------------------------------------------------------------

/// [`axpy`] forced onto `backend`. A `Simd` request silently degrades to
/// `Table` when the hardware lacks the features (use
/// [`available_backends`] to avoid benchmarking the degraded path).
pub fn axpy_with<F: GfElem>(backend: Backend, dst: &mut [F], c: F, src: &[F]) {
    axpy_impl(backend, detect_simd(), dst, c, src);
}

/// [`scale_slice`] forced onto `backend`.
pub fn scale_slice_with<F: GfElem>(backend: Backend, dst: &mut [F], c: F) {
    scale_slice_impl(backend, detect_simd(), dst, c);
}

/// [`mul_slice`] forced onto `backend`.
pub fn mul_slice_with<F: GfElem>(backend: Backend, dst: &mut [F], src: &[F]) {
    mul_slice_impl(backend, dst, src);
}

/// [`dot`] forced onto `backend`.
pub fn dot_with<F: GfElem>(backend: Backend, a: &[F], b: &[F]) -> F {
    dot_impl(backend, a, b)
}

// ---------------------------------------------------------------------------
// Implementations.
// ---------------------------------------------------------------------------

fn axpy_impl<F: GfElem>(
    backend: Backend,
    level: Option<SimdLevel>,
    dst: &mut [F],
    c: F,
    src: &[F],
) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    if c.is_zero() {
        return;
    }
    if c == F::ONE {
        add_slice_impl(dst, src);
        return;
    }
    if backend != Backend::Scalar {
        if let (Some(s), Some(d)) = (plane::gf256(src), plane::gf256_mut(dst)) {
            let row = gf256_product_table().row(c.index() as u8);
            gf256_axpy_bytes(backend, level, d, row, s);
            return;
        }
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.gf_add(c.gf_mul(*s));
    }
}

fn scale_slice_impl<F: GfElem>(backend: Backend, level: Option<SimdLevel>, dst: &mut [F], c: F) {
    if c == F::ONE {
        return;
    }
    if backend != Backend::Scalar && !c.is_zero() {
        if let Some(d) = plane::gf256_mut(dst) {
            let row = gf256_product_table().row(c.index() as u8);
            gf256_scale_bytes(backend, level, d, row);
            return;
        }
    }
    for d in dst.iter_mut() {
        *d = d.gf_mul(c);
    }
}

fn add_slice_impl<F: GfElem>(dst: &mut [F], src: &[F]) {
    assert_eq!(dst.len(), src.len(), "add_slice length mismatch");
    if let (Some(s), Some(d)) = (plane::xor_bytes(src), plane::xor_bytes_mut(dst)) {
        xor_slice_u64(d, s);
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.gf_add(*s);
    }
}

fn mul_slice_impl<F: GfElem>(backend: Backend, dst: &mut [F], src: &[F]) {
    assert_eq!(dst.len(), src.len(), "mul_slice length mismatch");
    // Variable×variable products have no constant to build shuffle
    // tables from, so Simd shares the product-table loop here.
    if backend != Backend::Scalar {
        if let (Some(s), Some(d)) = (plane::gf256(src), plane::gf256_mut(dst)) {
            let table = gf256_product_table();
            for (d, s) in d.iter_mut().zip(s) {
                *d = table.row(*d)[*s as usize];
            }
            return;
        }
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.gf_mul(*s);
    }
}

fn dot_impl<F: GfElem>(backend: Backend, a: &[F], b: &[F]) -> F {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    if backend != Backend::Scalar {
        if let (Some(a), Some(b)) = (plane::gf256(a), plane::gf256(b)) {
            let table = gf256_product_table();
            let mut acc = 0u8;
            for (x, y) in a.iter().zip(b) {
                acc ^= table.row(*x)[*y as usize];
            }
            return F::from_index(acc as usize);
        }
    }
    let mut acc = F::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc = acc.gf_add(x.gf_mul(*y));
    }
    acc
}

/// XOR `src` into `dst` one u64 word at a time, with a byte tail. This is
/// the shared `add_slice` fast path for every XOR-representable field.
fn xor_slice_u64(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d_chunks = dst.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (d, s) in d_chunks.by_ref().zip(s_chunks.by_ref()) {
        let mut dw = [0u8; 8];
        let mut sw = [0u8; 8];
        dw.copy_from_slice(d);
        sw.copy_from_slice(s);
        let word = u64::from_ne_bytes(dw) ^ u64::from_ne_bytes(sw);
        d.copy_from_slice(&word.to_ne_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= *s;
    }
}

/// GF(2⁸) byte-plane `dst ^= row[src]` with the requested backend.
fn gf256_axpy_bytes(
    backend: Backend,
    level: Option<SimdLevel>,
    dst: &mut [u8],
    row: &[u8; 256],
    src: &[u8],
) {
    if backend == Backend::Simd {
        if let Some(level) = level {
            simd::axpy(level, dst, src, row);
            return;
        }
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// GF(2⁸) byte-plane `dst = row[dst]` with the requested backend.
fn gf256_scale_bytes(backend: Backend, level: Option<SimdLevel>, dst: &mut [u8], row: &[u8; 256]) {
    if backend == Backend::Simd {
        if let Some(level) = level {
            simd::scale(level, dst, row);
            return;
        }
    }
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

// ---------------------------------------------------------------------------
// Byte-plane views.
// ---------------------------------------------------------------------------

/// Reinterpretations of symbol slices as raw byte planes. Confined to the
/// three field types defined by this crate, which are `repr(transparent)`
/// wrappers over `u8`/`u16`; every bit pattern of the underlying integer
/// is a valid value at the language level, and the kernels only ever
/// write XOR-combinations or table entries of valid representations, so
/// the library-level domain invariants (e.g. `Gf16 < 16`) are preserved.
#[allow(unsafe_code)]
mod plane {
    use std::any::TypeId;

    use crate::element::{Gf16, Gf256, Gf64k};
    use crate::GfElem;

    fn is_crate_xor_type<F: GfElem>() -> bool {
        let t = TypeId::of::<F>();
        F::REPR_XOR
            && (t == TypeId::of::<Gf16>()
                || t == TypeId::of::<Gf256>()
                || t == TypeId::of::<Gf64k>())
    }

    /// The byte plane of any crate-local XOR-representable field slice
    /// (`None` for foreign `GfElem` implementations).
    pub(super) fn xor_bytes_mut<F: GfElem>(s: &mut [F]) -> Option<&mut [u8]> {
        if !is_crate_xor_type::<F>() {
            return None;
        }
        let len = std::mem::size_of_val(s);
        // SAFETY: the guard admits only Gf16/Gf256/Gf64k — repr(transparent)
        // over u8/u16 with no padding — so the slice is exactly `len`
        // initialised bytes, and u8 has no validity invariant.
        Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), len) })
    }

    /// Shared-reference variant of [`xor_bytes_mut`].
    pub(super) fn xor_bytes<F: GfElem>(s: &[F]) -> Option<&[u8]> {
        if !is_crate_xor_type::<F>() {
            return None;
        }
        let len = std::mem::size_of_val(s);
        // SAFETY: as in `xor_bytes_mut`.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), len) })
    }

    /// The byte plane of a GF(2⁸) slice specifically (`None` for every
    /// other field).
    pub(super) fn gf256_mut<F: GfElem>(s: &mut [F]) -> Option<&mut [u8]> {
        if TypeId::of::<F>() != TypeId::of::<Gf256>() {
            return None;
        }
        // SAFETY: F is exactly Gf256, a `repr(transparent)` u8 wrapper;
        // every u8 bit pattern is a valid Gf256.
        Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), s.len()) })
    }

    /// Shared-reference variant of [`gf256_mut`].
    pub(super) fn gf256<F: GfElem>(s: &[F]) -> Option<&[u8]> {
        if TypeId::of::<F>() != TypeId::of::<Gf256>() {
            return None;
        }
        // SAFETY: as in `gf256_mut`.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), s.len()) })
    }
}

// ---------------------------------------------------------------------------
// SIMD kernels (nibble-split shuffle).
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[allow(unsafe_code)]
mod simd {
    use super::SimdLevel;
    use crate::element::gf256_product_table;

    /// The two 16-entry shuffle tables for multiplication by the constant
    /// `c` whose product row is `row`: `lo[i] = c·i`, `hi[i] = c·(i·16)`.
    /// Both are contiguous 16-byte runs of product rows: `lo` is
    /// `row[..16]`, and since `c·(16·i) = (c·16)·i`, `hi` is the head of
    /// the product row of `c·16 = row[16]`.
    pub(super) fn nibble_tables(row: &[u8; 256]) -> ([u8; 16], [u8; 16]) {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        lo.copy_from_slice(&row[..16]);
        hi.copy_from_slice(&gf256_product_table().row(row[16])[..16]);
        (lo, hi)
    }

    /// `dst ^= c·src` over the 16-byte-aligned prefix, product-table tail
    /// of at most 15 bytes.
    pub(super) fn axpy(level: SimdLevel, dst: &mut [u8], src: &[u8], row: &[u8; 256]) {
        let (lo, hi) = nibble_tables(row);
        let n = dst.len() - dst.len() % 16;
        // SAFETY: `level` came from runtime feature detection, so the
        // matching instruction set is available on this CPU.
        unsafe {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => x86::axpy_avx2(&mut dst[..n], &src[..n], &lo, &hi),
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Ssse3 => x86::axpy_ssse3(&mut dst[..n], &src[..n], &lo, &hi),
                #[cfg(target_arch = "aarch64")]
                SimdLevel::Neon => arm::axpy_neon(&mut dst[..n], &src[..n], &lo, &hi),
            }
        }
        for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
            *d ^= row[*s as usize];
        }
    }

    /// `dst = c·dst` over the 16-byte-aligned prefix, product-table tail
    /// of at most 15 bytes.
    pub(super) fn scale(level: SimdLevel, dst: &mut [u8], row: &[u8; 256]) {
        let (lo, hi) = nibble_tables(row);
        let n = dst.len() - dst.len() % 16;
        // SAFETY: as in `axpy`.
        unsafe {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => x86::scale_avx2(&mut dst[..n], &lo, &hi),
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Ssse3 => x86::scale_ssse3(&mut dst[..n], &lo, &hi),
                #[cfg(target_arch = "aarch64")]
                SimdLevel::Neon => arm::scale_neon(&mut dst[..n], &lo, &hi),
            }
        }
        for d in dst[n..].iter_mut() {
            *d = row[*d as usize];
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use std::arch::x86_64::*;

        // SAFETY: caller must verify SSSE3 support (detect() does) and pass
        // slices of equal, 16-divisible length; only unaligned loads/stores.
        #[target_feature(enable = "ssse3")]
        pub(super) unsafe fn axpy_ssse3(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
            debug_assert_eq!(dst.len() % 16, 0);
            let lo_t = _mm_loadu_si128(lo.as_ptr().cast());
            let hi_t = _mm_loadu_si128(hi.as_ptr().cast());
            let mask = _mm_set1_epi8(0x0f);
            for i in (0..dst.len()).step_by(16) {
                let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
                let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
                let prod = _mm_xor_si128(
                    _mm_shuffle_epi8(lo_t, _mm_and_si128(s, mask)),
                    _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi64::<4>(s), mask)),
                );
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, prod));
            }
        }

        // SAFETY: caller must verify SSSE3 support (detect() does) and pass a
        // 16-divisible dst length; only unaligned loads/stores.
        #[target_feature(enable = "ssse3")]
        pub(super) unsafe fn scale_ssse3(dst: &mut [u8], lo: &[u8; 16], hi: &[u8; 16]) {
            debug_assert_eq!(dst.len() % 16, 0);
            let lo_t = _mm_loadu_si128(lo.as_ptr().cast());
            let hi_t = _mm_loadu_si128(hi.as_ptr().cast());
            let mask = _mm_set1_epi8(0x0f);
            for i in (0..dst.len()).step_by(16) {
                let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
                let prod = _mm_xor_si128(
                    _mm_shuffle_epi8(lo_t, _mm_and_si128(d, mask)),
                    _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi64::<4>(d), mask)),
                );
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), prod);
            }
        }

        // SAFETY: caller must verify AVX2 support (detect() does) and pass
        // slices of equal, 16-divisible length; only unaligned loads/stores.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn axpy_avx2(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
            debug_assert_eq!(dst.len() % 16, 0);
            let lo_x = _mm_loadu_si128(lo.as_ptr().cast());
            let hi_x = _mm_loadu_si128(hi.as_ptr().cast());
            let lo_t = _mm256_broadcastsi128_si256(lo_x);
            let hi_t = _mm256_broadcastsi128_si256(hi_x);
            let mask = _mm256_set1_epi8(0x0f);
            let n = dst.len() - dst.len() % 32;
            for i in (0..n).step_by(32) {
                let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, mask)),
                    _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask)),
                );
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, prod));
            }
            if n < dst.len() {
                // One trailing 16-byte block on the 128-bit tables (AVX2
                // implies SSSE3).
                let mask = _mm256_castsi256_si128(mask);
                let s = _mm_loadu_si128(src.as_ptr().add(n).cast());
                let d = _mm_loadu_si128(dst.as_ptr().add(n).cast());
                let prod = _mm_xor_si128(
                    _mm_shuffle_epi8(lo_x, _mm_and_si128(s, mask)),
                    _mm_shuffle_epi8(hi_x, _mm_and_si128(_mm_srli_epi64::<4>(s), mask)),
                );
                _mm_storeu_si128(dst.as_mut_ptr().add(n).cast(), _mm_xor_si128(d, prod));
            }
        }

        // SAFETY: caller must verify AVX2 support (detect() does) and pass a
        // 16-divisible dst length; only unaligned loads/stores.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn scale_avx2(dst: &mut [u8], lo: &[u8; 16], hi: &[u8; 16]) {
            debug_assert_eq!(dst.len() % 16, 0);
            let lo_x = _mm_loadu_si128(lo.as_ptr().cast());
            let hi_x = _mm_loadu_si128(hi.as_ptr().cast());
            let lo_t = _mm256_broadcastsi128_si256(lo_x);
            let hi_t = _mm256_broadcastsi128_si256(hi_x);
            let mask = _mm256_set1_epi8(0x0f);
            let n = dst.len() - dst.len() % 32;
            for i in (0..n).step_by(32) {
                let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_t, _mm256_and_si256(d, mask)),
                    _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64::<4>(d), mask)),
                );
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), prod);
            }
            if n < dst.len() {
                // One trailing 16-byte block on the 128-bit tables (AVX2
                // implies SSSE3).
                let mask = _mm256_castsi256_si128(mask);
                let d = _mm_loadu_si128(dst.as_ptr().add(n).cast());
                let prod = _mm_xor_si128(
                    _mm_shuffle_epi8(lo_x, _mm_and_si128(d, mask)),
                    _mm_shuffle_epi8(hi_x, _mm_and_si128(_mm_srli_epi64::<4>(d), mask)),
                );
                _mm_storeu_si128(dst.as_mut_ptr().add(n).cast(), prod);
            }
        }
    }

    #[cfg(target_arch = "aarch64")]
    mod arm {
        use std::arch::aarch64::*;

        // SAFETY: caller must verify NEON support (detect() does) and pass
        // slices of equal, 16-divisible length; NEON loads are unaligned.
        #[target_feature(enable = "neon")]
        pub(super) unsafe fn axpy_neon(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
            debug_assert_eq!(dst.len() % 16, 0);
            let lo_t = vld1q_u8(lo.as_ptr());
            let hi_t = vld1q_u8(hi.as_ptr());
            let mask = vdupq_n_u8(0x0f);
            for i in (0..dst.len()).step_by(16) {
                let s = vld1q_u8(src.as_ptr().add(i));
                let d = vld1q_u8(dst.as_ptr().add(i));
                let prod = veorq_u8(
                    vqtbl1q_u8(lo_t, vandq_u8(s, mask)),
                    vqtbl1q_u8(hi_t, vshrq_n_u8::<4>(s)),
                );
                vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, prod));
            }
        }

        // SAFETY: caller must verify NEON support (detect() does) and pass a
        // 16-divisible dst length; NEON loads are unaligned.
        #[target_feature(enable = "neon")]
        pub(super) unsafe fn scale_neon(dst: &mut [u8], lo: &[u8; 16], hi: &[u8; 16]) {
            debug_assert_eq!(dst.len() % 16, 0);
            let lo_t = vld1q_u8(lo.as_ptr());
            let hi_t = vld1q_u8(hi.as_ptr());
            let mask = vdupq_n_u8(0x0f);
            for i in (0..dst.len()).step_by(16) {
                let d = vld1q_u8(dst.as_ptr().add(i));
                let prod = veorq_u8(
                    vqtbl1q_u8(lo_t, vandq_u8(d, mask)),
                    vqtbl1q_u8(hi_t, vshrq_n_u8::<4>(d)),
                );
                vst1q_u8(dst.as_mut_ptr().add(i), prod);
            }
        }
    }
}

/// Uncallable stand-in on architectures without SIMD kernels:
/// [`SimdLevel`] is uninhabited there, so these never execute.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod simd {
    use super::SimdLevel;

    pub(super) fn axpy(level: SimdLevel, _dst: &mut [u8], _src: &[u8], _row: &[u8; 256]) {
        match level {}
    }

    pub(super) fn scale(level: SimdLevel, _dst: &mut [u8], _row: &[u8; 256]) {
        match level {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf16, Gf256, Gf64k};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Slice lengths covering the interesting boundaries: empty, single
    /// element, sub-vector, around one vector (16), around an AVX2
    /// vector (32), around the u64-chunk boundary, around an AVX2 body
    /// plus one 16-byte step (47–49, 79–80), and a bulk size.
    const LENGTHS: &[usize] = &[
        0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 79, 80, 100, 1000,
    ];

    fn random_slice<F: GfElem>(rng: &mut StdRng, n: usize) -> Vec<F> {
        (0..n).map(|_| F::random(rng)).collect()
    }

    fn check_all_ops_match_scalar<F: GfElem>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for &n in LENGTHS {
            for backend in available_backends() {
                let src: Vec<F> = random_slice(&mut rng, n);
                let base: Vec<F> = random_slice(&mut rng, n);
                let c = F::random(&mut rng);

                let mut want = base.clone();
                axpy_with(Backend::Scalar, &mut want, c, &src);
                let mut got = base.clone();
                axpy_with(backend, &mut got, c, &src);
                assert_eq!(got, want, "axpy {backend} n={n}");

                let mut want = base.clone();
                scale_slice_with(Backend::Scalar, &mut want, c);
                let mut got = base.clone();
                scale_slice_with(backend, &mut got, c);
                assert_eq!(got, want, "scale_slice {backend} n={n}");

                let mut want = base.clone();
                mul_slice_with(Backend::Scalar, &mut want, &src);
                let mut got = base.clone();
                mul_slice_with(backend, &mut got, &src);
                assert_eq!(got, want, "mul_slice {backend} n={n}");

                assert_eq!(
                    dot_with(backend, &base, &src),
                    dot_with(Backend::Scalar, &base, &src),
                    "dot {backend} n={n}"
                );
            }
        }
    }

    #[test]
    fn backends_match_scalar_gf16() {
        check_all_ops_match_scalar::<Gf16>(1);
    }

    #[test]
    fn backends_match_scalar_gf256() {
        check_all_ops_match_scalar::<Gf256>(2);
    }

    #[test]
    fn backends_match_scalar_gf64k() {
        check_all_ops_match_scalar::<Gf64k>(3);
    }

    #[test]
    fn misaligned_subslices_match_scalar() {
        // Sub-slices at odd offsets put the vector body, the AVX2 16-byte
        // step and the table tail on unaligned addresses, with dst and
        // src misaligned differently.
        let mut rng = StdRng::seed_from_u64(9);
        for &n in LENGTHS {
            for (doff, soff) in [(1, 0), (3, 5), (7, 2), (15, 9)] {
                let src: Vec<Gf256> = random_slice(&mut rng, n + soff);
                let base: Vec<Gf256> = random_slice(&mut rng, n + doff);
                let c = Gf256::random(&mut rng);
                for backend in available_backends() {
                    let mut want = base.clone();
                    axpy_with(Backend::Scalar, &mut want[doff..], c, &src[soff..]);
                    let mut got = base.clone();
                    axpy_with(backend, &mut got[doff..], c, &src[soff..]);
                    assert_eq!(got, want, "axpy {backend} n={n} offsets=({doff},{soff})");

                    let mut want = base.clone();
                    scale_slice_with(Backend::Scalar, &mut want[doff..], c);
                    let mut got = base.clone();
                    scale_slice_with(backend, &mut got[doff..], c);
                    assert_eq!(got, want, "scale_slice {backend} n={n} offset={doff}");
                }
            }
        }
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn nibble_tables_equal_strided_construction() {
        let table = gf256_product_table();
        for c in 0..=255u8 {
            let row = table.row(c);
            let (lo, hi) = simd::nibble_tables(row);
            for i in 0..16 {
                assert_eq!(lo[i], row[i], "lo c={c} i={i}");
                assert_eq!(hi[i], row[i << 4], "hi c={c} i={i}");
            }
        }
    }

    #[test]
    fn add_slice_matches_elementwise_xor() {
        let mut rng = StdRng::seed_from_u64(4);
        for &n in LENGTHS {
            let src: Vec<Gf64k> = random_slice(&mut rng, n);
            let base: Vec<Gf64k> = random_slice(&mut rng, n);
            let want: Vec<Gf64k> = base.iter().zip(&src).map(|(d, s)| d.gf_add(*s)).collect();
            let mut got = base.clone();
            add_slice(&mut got, &src);
            assert_eq!(got, want, "add_slice n={n}");
        }
    }

    #[test]
    fn xor_slice_u64_handles_all_tails() {
        let mut rng = StdRng::seed_from_u64(5);
        for &n in LENGTHS {
            let src: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            let base: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            let want: Vec<u8> = base.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            let mut got = base.clone();
            xor_slice_u64(&mut got, &src);
            assert_eq!(got, want, "xor n={n}");
        }
    }

    #[test]
    fn dispatched_ops_match_forced_active_backend() {
        let mut rng = StdRng::seed_from_u64(6);
        let backend = active_backend();
        let src: Vec<Gf256> = random_slice(&mut rng, 500);
        let base: Vec<Gf256> = random_slice(&mut rng, 500);
        let c = Gf256::random_nonzero(&mut rng);

        let mut want = base.clone();
        axpy_with(backend, &mut want, c, &src);
        let mut got = base.clone();
        axpy(&mut got, c, &src);
        assert_eq!(got, want);
    }

    #[test]
    fn axpy_special_constants() {
        let mut rng = StdRng::seed_from_u64(7);
        let src: Vec<Gf256> = random_slice(&mut rng, 37);
        let base: Vec<Gf256> = random_slice(&mut rng, 37);
        for backend in available_backends() {
            // c = 0 leaves dst untouched.
            let mut d = base.clone();
            axpy_with(backend, &mut d, Gf256::ZERO, &src);
            assert_eq!(d, base);
            // c = 1 is plain addition.
            let mut d = base.clone();
            axpy_with(backend, &mut d, Gf256::ONE, &src);
            let want: Vec<Gf256> = base.iter().zip(&src).map(|(x, y)| x.gf_add(*y)).collect();
            assert_eq!(d, want);
        }
    }

    #[test]
    fn scale_by_zero_clears() {
        let mut rng = StdRng::seed_from_u64(8);
        for backend in available_backends() {
            let mut d: Vec<Gf256> = random_slice(&mut rng, 50);
            scale_slice_with(backend, &mut d, Gf256::ZERO);
            assert!(d.iter().all(|x| x.is_zero()), "{backend}");
        }
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut d = vec![Gf256::ZERO; 3];
        axpy(&mut d, Gf256::ONE, &[Gf256::ZERO; 4]);
    }

    #[test]
    fn selection_policy() {
        // Explicit requests are honoured when available.
        assert_eq!(choose(Some("scalar"), true), Backend::Scalar);
        assert_eq!(choose(Some("table"), true), Backend::Table);
        assert_eq!(choose(Some("simd"), true), Backend::Simd);
        assert_eq!(choose(Some("SIMD"), true), Backend::Simd);
        // A simd request degrades gracefully without hardware support.
        assert_eq!(choose(Some("simd"), false), Backend::Table);
        // Unset, auto and unknown values pick the best available.
        assert_eq!(choose(None, true), Backend::Simd);
        assert_eq!(choose(None, false), Backend::Table);
        assert_eq!(choose(Some("auto"), true), Backend::Simd);
        assert_eq!(choose(Some("bogus"), false), Backend::Table);
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in [Backend::Scalar, Backend::Table, Backend::Simd] {
            assert_eq!(Backend::from_name(backend.name()), Some(backend));
            assert_eq!(format!("{backend}"), backend.name());
        }
        assert_eq!(Backend::from_name("nonsense"), None);
    }

    #[test]
    fn active_backend_is_available() {
        let available = available_backends();
        assert!(available.contains(&Backend::Scalar));
        assert!(available.contains(&Backend::Table));
        assert!(available.contains(&active_backend()));
        assert!(!active_backend_description().is_empty());
    }
}
